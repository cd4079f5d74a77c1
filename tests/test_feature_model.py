import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2tmetrics import (
    AnnotatedEntry,
    BindingError,
    BoundingBox,
    Detection,
    DetectionSet,
    DistanceAnnotatedOutcome,
    FeatureMatrix,
    GaussianTrainModel,
    GroundTruthSet,
    ImageInfo,
    Kind,
    NumericalError,
    ParseError,
    ScenarioSpec,
    SingularCovarianceError,
    ValidationError,
    annotate_distances,
    bind_features,
    default_regularization,
    fit_gaussian,
    generate_scenario,
    load_feature_matrix,
    load_model,
    match_detections,
    save_model,
    train2test_distances,
    write_feature_matrix,
)
from t2tmetrics import feature_model
from t2tmetrics.cli import main
from oracles import covariance_twopass, train2test_distance_exact
from records import match_outcome


def matrix(rows, prefix="r"):
    rows = np.asarray(rows, dtype=np.float64)
    return FeatureMatrix(data=rows, row_ids=tuple(f"{prefix}{i}" for i in range(len(rows))))


# ----------------------------------------------------------------------- fit


def test_fit_square_example():
    fm = matrix([[0, 0], [2, 0], [0, 2], [2, 2]])
    model = fit_gaussian(fm, regularization=0.0)
    np.testing.assert_array_equal(model.mean, [1.0, 1.0])
    np.testing.assert_array_equal(model.covariance, [[4.0 / 3.0, 0.0], [0.0, 4.0 / 3.0]])
    np.testing.assert_allclose(model.precision, [[0.75, 0.0], [0.0, 0.75]], rtol=1e-14)
    assert model.regularization == 0.0
    assert model.sample_count == 4


def test_fit_matches_twopass_oracle():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(100, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
    model = fit_gaussian(matrix(X), regularization=0.0)
    mean, cov = covariance_twopass(X)
    np.testing.assert_allclose(model.mean, mean, rtol=1e-10)
    np.testing.assert_allclose(model.covariance, cov, rtol=1e-10, atol=1e-12)


def test_fit_repeated_row():
    row = np.array([2.0, -1.0, 0.5])
    fm = matrix(np.tile(row, (5, 1)))
    model = fit_gaussian(fm, regularization=1e-6)
    np.testing.assert_array_equal(model.mean, row)
    np.testing.assert_array_equal(model.covariance, np.zeros((3, 3)))
    np.testing.assert_allclose(model.precision, 1e6 * np.eye(3), rtol=1e-12)


def test_fit_single_row():
    model = fit_gaussian(matrix([[1.0, 2.0]]), regularization=0.5)
    np.testing.assert_array_equal(model.covariance, np.zeros((2, 2)))
    np.testing.assert_allclose(model.precision, 2.0 * np.eye(2), rtol=1e-14)


def test_fit_default_regularization():
    rng = np.random.default_rng(6)
    fm = matrix(rng.normal(size=(40, 4)))
    model = fit_gaussian(fm)
    assert model.regularization == default_regularization(model.covariance)
    assert model.regularization == pytest.approx(1e-6 * np.trace(model.covariance) / 4)
    assert model.regularization > 0


def test_fit_rank_deficiency_guard():
    # rows <= dim demands an explicit epsilon
    with pytest.raises(SingularCovarianceError) as err:
        fit_gaussian(matrix(np.eye(3)), regularization=0.0)
    assert "epsilon" in str(err.value)

    # enough rows but degenerate: everything on a line
    line = np.outer(np.arange(8.0), [1.0, 2.0, 3.0])
    with pytest.raises(SingularCovarianceError):
        fit_gaussian(matrix(line), regularization=0.0)
    # a positive epsilon repairs it
    model = fit_gaussian(matrix(line), regularization=1e-3)
    assert np.isfinite(model.precision).all()

    with pytest.raises(ValidationError):
        fit_gaussian(matrix(np.eye(3)), regularization=-1e-9)


def row_ids(n):
    return tuple(f"r{i}" for i in range(n))


@pytest.mark.parametrize("n, d, epsilon", [
    (4096, 256, None),
    (20_000, 1, None),  # the mean reduces along the contiguous axis
    (48, 64, 0.25),  # n <= d: the epsilon is given
])
def test_float32_and_float64_features_give_bit_identical_models_and_distances(n, d, epsilon):
    rng = np.random.default_rng(n + d)
    values = (3.0 * rng.normal(size=(n, d)) + rng.normal(size=d)).astype(np.float32)
    fm32 = FeatureMatrix(data=values, row_ids=row_ids(n))
    fm64 = FeatureMatrix(data=values.astype(np.float64), row_ids=row_ids(n))
    assert fm32.data.dtype == np.float32
    m32, m64 = fit_gaussian(fm32, epsilon), fit_gaussian(fm64, epsilon)
    for name in ("mean", "covariance", "precision"):
        assert np.array_equal(getattr(m32, name), getattr(m64, name)), name
    assert m32.regularization == m64.regularization

    # The float64 arithmetic of a fit on widened rows: X.mean(axis=0), then
    # X - mean padded with zero columns to a multiple of 64, then the sum of
    # the products of 1024-row blocks, of which the leading d x d part is kept.
    X = values.astype(np.float64)
    mean = X.mean(axis=0)
    centered = np.zeros((n, -(-d // 64) * 64))
    centered[:, :d] = X - mean
    cov = centered[:1024].T @ centered[:1024]
    for start in range(1024, n, 1024):
        cov += centered[start:start + 1024].T @ centered[start:start + 1024]
    cov = cov[:d, :d] / max(n - 1, 1)
    assert np.array_equal(m32.mean, mean)
    assert np.array_equal(m32.covariance, (cov + cov.T) / 2.0)

    rows = values[:600]
    expected = train2test_distances(m64, rows.astype(np.float64))
    assert np.array_equal(train2test_distances(m32, rows), expected)
    assert np.array_equal(train2test_distances(m32, list(rows)), expected)


def test_fit_of_a_binary_file_holds_one_float64_copy(tmp_path):
    n, d = 4096, 256
    path = tmp_path / "train.t2tfeat"
    data = np.random.default_rng(9).normal(size=(n, d))
    write_feature_matrix(FeatureMatrix(data=data, row_ids=row_ids(n)), path)
    tracemalloc.start()
    try:
        fit_gaussian(load_feature_matrix(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The file's bytes are mapped, so tracemalloc does not see them: the peak
    # is 0.75x the float32 payload. A float64 copy of the rows would add 2x.
    assert peak <= 1.5 * n * d * 4


@pytest.mark.parametrize("n", [1024, 1025, 3 * 1024 + 7])
def test_blocked_fit_matches_the_oracles_at_the_block_edges(n):
    d = 5
    rng = np.random.default_rng(n)
    # A shared factor keeps every covariance entry far from zero, so a
    # relative bound on each entry is meaningful; the offset tests centering.
    X = (rng.normal(size=(n, d)) + rng.normal(size=(n, 1)) + 40.0).astype(np.float32)
    model = fit_gaussian(FeatureMatrix(data=X, row_ids=row_ids(n)))
    widened = X.astype(np.float64)
    assert np.array_equal(model.mean, widened.mean(axis=0))
    _, cov = covariance_twopass(widened)
    np.testing.assert_allclose(model.covariance, cov, rtol=1e-12, atol=0)
    if n <= 1024:  # one block: the single product of the whole centered matrix
        centered = widened - widened.mean(axis=0)
        one = centered.T @ centered / (n - 1)
        assert np.array_equal(model.covariance, (one + one.T) / 2.0)
    tests = X[:: n // 16].astype(np.float64) + rng.normal(size=(1, d))
    got = train2test_distances(model, tests)
    for x, value in zip(tests, got):
        exact = train2test_distance_exact(model, x)
        assert abs(Fraction(float(value)) - exact) <= Fraction(1, 10**12) * exact


def test_blocked_fit_of_a_binary_file_holds_one_float64_block(tmp_path):
    n, d = 4096, 256  # four blocks of 1024 rows
    path = tmp_path / "train.t2tfeat"
    data = np.random.default_rng(9).normal(size=(n, d))
    write_feature_matrix(FeatureMatrix(data=data, row_ids=row_ids(n)), path)
    tracemalloc.start()
    try:
        fit_gaussian(load_feature_matrix(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block, square = 1024 * d * 8, d * d * 8
    # Measured on numpy 2.4: block + 2.01 d x d matrices (the running sum and
    # one block's product; the row ids make the 0.01). The payload is mapped,
    # not copied; a copy of it would add 8 d x d here, a float64 copy of all
    # the rows 16.
    assert peak <= block + 3 * square


def test_cli_fit_frees_the_training_rows_before_the_inversion(tmp_path, monkeypatch):
    n, d = 16384, 32
    path = tmp_path / "train.t2tfeat"
    data = np.random.default_rng(10).normal(size=(n, d))
    write_feature_matrix(FeatureMatrix(data=data, row_ids=row_ids(n)), path)
    traced = []
    invert = feature_model._invert_spd

    def probed(matrix, regularization):
        traced.append(tracemalloc.get_traced_memory()[0])
        return invert(matrix, regularization)

    monkeypatch.setattr(feature_model, "_invert_spd", probed)
    tracemalloc.start()
    try:
        assert main(["fit", "--train-features", str(path), "--out", str(tmp_path / "m.t2tmodl")]) == 0
    finally:
        tracemalloc.stop()
    # The file's bytes (2 MB of float32 payload, then the row ids) are gone.
    # What is left, about 0.25 MB when measured, is the moments and what the
    # command's own set-up allocated.
    assert len(traced) == 1
    assert traced[0] < n * d * 4 / 2


def _invert_spd_reference(matrix, regularization):
    """The regularized inverse written out: the identity added, the target
    padded with the identity to a multiple of 64 rows, a blocked Cholesky
    factor L and its inverse W in 64-row blocks, then (p + p.T) / 2 of the
    leading d x d part of W.T @ W."""
    d = matrix.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        target = matrix + regularization * np.eye(d)
    if not np.isfinite(target).all():
        raise NumericalError(f"covariance (epsilon={regularization}) has non-finite entries")
    size = -(-d // 64) * 64
    padded = np.eye(size)
    padded[:d, :d] = target
    L, W = np.zeros((size, size)), np.zeros((size, size))
    for k in range(0, size, 64):
        e = k + 64
        try:
            L[k:e, k:e] = np.linalg.cholesky(padded[k:e, k:e] - L[k:e, :k] @ L[k:e, :k].T)
            W[k:e, k:e] = np.linalg.inv(L[k:e, k:e])
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError(
                f"covariance (epsilon={regularization}) is not positive definite; "
                f"pass a larger regularization epsilon"
            ) from exc
        L[e:, k:e] = (padded[e:, k:e] - L[e:, :k] @ L[k:e, :k].T) @ W[k:e, k:e].T
        W[k:e, :k] = -W[k:e, k:e] @ (L[k:e, :k] @ W[:k, :k])
    precision = (W.T @ W)[:d, :d]
    return (precision + precision.T) / 2.0


def _outcome(invert, matrix, regularization):
    d = len(matrix)
    try:
        return invert(matrix, regularization)[:d, :d].tobytes()
    except (NumericalError, SingularCovarianceError) as exc:
        return type(exc), str(exc)


def test_invert_spd_is_bit_identical_to_the_written_out_inverse():
    rng = np.random.default_rng(13)
    cases = []
    for d in (1, 2, 7, 64, 200):
        a = rng.normal(size=(d + 3, d))
        cases += [(a.T @ a, eps) for eps in (0.0, 1e-3, 2.5)]
    signed = np.diag([2.0, 3.0, 4.0])
    signed[0, 1] = signed[1, 0] = signed[1, 2] = signed[2, 1] = -0.0
    cases += [(signed, eps) for eps in (0.0, -0.0, 0.5)]
    cases += [(np.eye(3), np.inf)]
    with_nan = np.eye(3)
    with_nan[2, 0] = np.nan
    cases += [(with_nan, 0.0), (with_nan, 1.0)]
    cases += [(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0), (np.zeros((4, 4)), 0.0)]
    for matrix, eps in cases:
        before = matrix.copy()
        assert _outcome(feature_model._invert_spd, matrix, eps) == _outcome(
            _invert_spd_reference, matrix, eps
        )
        assert matrix.tobytes() == before.tobytes()
    assert _outcome(feature_model._invert_spd, np.eye(3), np.inf) == (
        NumericalError, "covariance (epsilon=inf) has non-finite entries"
    )
    assert _outcome(feature_model._invert_spd, with_nan, 1.0) == (
        NumericalError, "covariance (epsilon=1.0) has non-finite entries"
    )
    assert _outcome(feature_model._invert_spd, np.zeros((4, 4)), 0.0) == (
        SingularCovarianceError,
        "covariance (epsilon=0.0) is not positive definite; pass a larger regularization epsilon",
    )

    # The constructor symmetrizes a copy: (c + c.T) / 2, bit for bit.
    c = rng.normal(size=(6, 6)) * 1e-3 + 5.0 * np.eye(6)
    before = c.copy()
    model = GaussianTrainModel(np.zeros(6), c, regularization=0.1)
    assert model.covariance.tobytes() == ((before + before.T) / 2.0).tobytes()
    assert c.tobytes() == before.tobytes()
    sym = (before + before.T) / 2.0
    assert model.precision.tobytes() == _invert_spd_reference(sym, 0.1).tobytes()


@pytest.mark.parametrize("dim", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("log_cond", [0, 6])
def test_blocked_inverse_residual_at_the_block_edges(dim, log_cond):
    # Inverting through a Cholesky factor leaves a residual of order
    # dim * u * cond (Higham, Accuracy and Stability of Numerical Algorithms,
    # section 14.2); the bound allows (dim + 2) rounding errors, since at
    # dim = 1 the square root, the reciprocal and its square round apart.
    u = np.finfo(np.float64).eps
    for seed in range(5):
        rng = np.random.default_rng([dim, log_cond, seed])
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        cov = (Q * np.logspace(0, -log_cond, dim)) @ Q.T
        cov = (cov + cov.T) / 2.0
        eps = default_regularization(cov)
        target = cov + eps * np.eye(dim)
        precision = feature_model._invert_spd(cov, eps)[:dim, :dim]
        residual = np.abs(precision @ target - np.eye(dim)).max()
        assert residual <= (dim + 2) * u * np.linalg.cond(target)


@pytest.mark.parametrize("dim", [128, 130])  # 130: the last 64-row block has 2 rows
def test_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, dim):
    n = 600
    path = tmp_path / "train.t2tfeat"
    data = np.random.default_rng(dim).normal(size=(n, dim)) * np.linspace(0.5, 4.0, dim)
    write_feature_matrix(FeatureMatrix(data=data, row_ids=row_ids(n)), path)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.t2tmodl"
        subprocess.run(
            [sys.executable, "-m", "t2tmetrics.cli", "fit", "--train-features", str(path),
             "--out", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True, timeout=60,
        )
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_distances_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At d=392 an unpadded 256 x d by d x d product changes its last bits
    # with the thread count; 392 is not a whole number of 64-row blocks.
    spec = ScenarioSpec(n_gt=400, n_tp=300, n_fp=300, feature_dim=392, n_train=800, seed=3)
    paths = generate_scenario(spec).write(tmp_path / "scn")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "t2tmetrics.cli", "distances",
             "--gt", str(paths["ground_truth"]), "--det", str(paths["detections"]),
             "--features", str(paths["features"]),
             "--train-features", str(paths["train_features"]), "--out", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True, timeout=60,
        )
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("fields, message", [
    (dict(mean=np.zeros(3)), "model shapes must be (d,) and (d, d) with d >= 1, got mean (3,) "
                             "and covariance (2, 2)"),
    (dict(mean=np.zeros(()), covariance=np.eye(1)),
     "model shapes must be (d,) and (d, d) with d >= 1, got mean () and covariance (1, 1)"),
    (dict(mean=np.zeros(0), covariance=np.eye(0)),
     "model shapes must be (d,) and (d, d) with d >= 1, got mean (0,) and covariance (0, 0)"),
    (dict(regularization=-0.1), "regularization must be >= 0, got -0.1"),
    (dict(regularization=float("nan")), "regularization must be >= 0, got nan"),
    (dict(sample_count=-1), "sample_count must be >= 0, got -1"),
], ids=["mean and covariance", "scalar mean", "no dimension", "negative epsilon", "nan epsilon",
        "negative sample count"])
def test_model_validation(fields, message):
    with pytest.raises(ValidationError) as err:
        GaussianTrainModel(**{"mean": np.zeros(2), "covariance": np.eye(2), **fields})
    assert str(err.value) == message


def test_the_constructor_derives_the_precision_and_takes_none():
    model = GaussianTrainModel(np.zeros(2), np.diag([4.0, 0.5]), 0.0, 7)
    assert model.precision.tobytes() == feature_model._invert_spd(
        np.diag([4.0, 0.5]), 0.0)[:2, :2].tobytes()
    assert (model.regularization, model.sample_count) == (0.0, 7)
    with pytest.raises(TypeError):
        GaussianTrainModel(np.zeros(2), np.eye(2), precision=np.eye(2))
    # An epsilon of -0.0 is kept as 0.0, so a fit never writes one.
    fitted = fit_gaussian(matrix([[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]]), regularization=-0.0)
    assert not np.signbit(GaussianTrainModel(np.zeros(1), np.eye(1), -0.0).regularization)
    assert not np.signbit(fitted.regularization)


# ------------------------------------------------------------------- distance


def test_distance_worked_examples():
    identity = GaussianTrainModel(np.zeros(2), np.eye(2))
    assert train2test_distances(identity, [[3.0, 4.0]])[0] == 25.0
    assert train2test_distances(identity, [[0.0, 0.0]])[0] == 0.0

    model = GaussianTrainModel([1.0, 1.0], np.diag([4.0, 1.0]))
    assert train2test_distances(model, [[3.0, 2.0]])[0] == 2.0
    assert train2test_distances(model, [model.mean])[0] == 0.0


def test_distance_at_mean_is_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        X = rng.normal(size=(30, 4))
        model = fit_gaussian(matrix(X))
        assert train2test_distances(model, [model.mean])[0] == 0.0


def test_distance_nonnegative_and_finite():
    rng = np.random.default_rng(12)
    for _ in range(50):
        X = rng.normal(size=(20, 3)) * rng.uniform(0.01, 100)
        model = fit_gaussian(matrix(X))
        x = rng.normal(size=3) * 50
        d = train2test_distances(model, [x])[0]
        assert d >= 0.0 and np.isfinite(d)


def test_precision_matches_direct_solve():
    rng = np.random.default_rng(13)
    for _ in range(20):
        X = rng.normal(size=(50, 10))
        model = fit_gaussian(matrix(X))
        x = rng.normal(size=10) * 3
        v = x - model.mean
        direct = float(v @ np.linalg.solve(
            model.covariance + model.regularization * np.eye(10), v
        ))
        got = train2test_distances(model, [x])[0]
        assert got == pytest.approx(direct, rel=1e-9)


def test_distance_affine_invariant():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 5))
    tests = rng.normal(size=(10, 5)) * 2
    base = fit_gaussian(matrix(X), regularization=0.0)
    for _ in range(10):
        A = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        mapped = fit_gaussian(matrix(X @ A.T + b), regularization=0.0)
        for x in tests:
            d0 = train2test_distances(base, [x])[0]
            d1 = train2test_distances(mapped, [A @ x + b])[0]
            assert d1 == pytest.approx(d0, rel=1e-6)


def test_distance_input_validation():
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    with pytest.raises(ValidationError, match=r"not all of shape \(2,\)"):
        train2test_distances(model, [[1.0, 2.0, 3.0]])
    with pytest.raises(ValidationError, match="non-finite"):
        train2test_distances(model, [[1.0, float("inf")]])


def test_distances_input_validation():
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    assert train2test_distances(model, np.empty((0, 2))).shape == (0,)
    assert train2test_distances(model, []).shape == (0,)
    ragged = [np.zeros(2)] * 300 + [np.zeros(3)]
    for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2)), ragged):
        with pytest.raises(ValidationError, match=r"not all of shape \(2,\)"):
            train2test_distances(model, bad)
    rows = np.zeros((600, 2))
    rows[300, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        train2test_distances(model, rows)


# Row counts straddle the kernel's 256-row blocks.
@settings(max_examples=50, deadline=None)
@given(
    dim=st.integers(1, 16),
    rows=st.sampled_from([0, 1, 255, 256, 257, 513]),
    seed=st.integers(0, 2**32 - 1),
)
def test_distances_match_the_exact_oracle(dim, rows, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) * rng.uniform(0.01, 10.0, size=dim)
    model = GaussianTrainModel(
        rng.normal(size=dim) * 5, A @ A.T, regularization=rng.uniform(1e-3, 1.0)
    )
    X = model.mean + rng.normal(size=(rows, dim)) * rng.uniform(0.1, 10.0, size=dim)
    got = train2test_distances(model, X)
    assert got.shape == (rows,) and got.dtype == np.float64
    assert np.array_equal(train2test_distances(model, list(X)), got)
    absolute = np.abs(model.precision)
    for i, (x, value) in enumerate(zip(X, got)):
        v = np.abs(x - model.mean)
        exact = train2test_distance_exact(model, x)
        bound = 1e-12 * float(v @ absolute @ v)
        assert abs(Fraction(float(value)) - exact) <= bound
        if i == 0:  # one row on its own is within the bound too
            assert abs(Fraction(train2test_distances(model, [x])[0]) - exact) <= bound


# Bound sets whose feature rows are permuted, outnumber the detections or
# leave the detections below the score threshold unbound, with row counts
# that straddle the kernel's 256-row blocks.
@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 16),
    rows=st.sampled_from([1, 255, 256, 257, 513]),
    extra=st.sampled_from([0, 1, 300]),
    partial=st.booleans(),
    float32=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_annotated_distances_are_the_kernel_on_the_stacked_rows(
    dim, rows, extra, partial, float32, seed
):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim))
    model = GaussianTrainModel(rng.normal(size=dim), A @ A.T, regularization=0.5)
    data = rng.normal(size=(rows + extra, dim)).astype(np.float32 if float32 else np.float64)
    order = rng.permutation(rows + extra)
    ids = [f"d{k:04d}" for k in range(rows)]
    features = FeatureMatrix(data=data, row_ids=tuple(
        ids[k] if k < rows else f"extra{k}" for k in order))
    scores = rng.uniform(0.1, 1.0, size=rows)
    columns = dict(ids=ids, image_ids=["im"] * rows, boxes=[(0, 0, 1, 1)] * rows)
    if partial:  # detections scored below the threshold keep no feature
        scores[rng.random(rows) < 0.3] = 0.0
        where = np.argsort(order)[:rows]
        dets = DetectionSet(**columns, scores=scores, features=features,
                            feature_rows=np.where(scores > 0.0, where, -1))
    else:
        dets = bind_features(DetectionSet(**columns, scores=scores), features)
    gts = GroundTruthSet(images=(ImageInfo("im", "", 1, 1),), ids=[], image_ids=[],
                         boxes=np.empty((0, 4)))
    outcome = match_detections(dets, gts, 0.5, 0.05)
    position = {row_id: i for i, row_id in enumerate(features.row_ids)}
    stacked = data[[position[ids[k]] for k in outcome.kept.tolist()]]
    got = annotate_distances(model, outcome).dist
    assert got.tobytes() == train2test_distances(model, stacked).tobytes()


@pytest.mark.parametrize("d", [8, 128])
def test_the_precision_is_symmetric_to_the_bit(d):
    # 8 is padded to one 64-row block, 128 is two whole blocks.
    rng = np.random.default_rng(d)
    model = fit_gaussian(matrix(rng.normal(size=(3 * d, d))))
    assert np.array_equal(model.precision, model.precision.T)
    assert model.precision.tobytes() == np.ascontiguousarray(model.precision.T).tobytes()


def test_a_precision_entry_past_half_the_float_range_is_refused():
    # Doubling 1e308 overflows: (p + p.T) / 2 is inf, as it was when every
    # precision was symmetrized; 5e307 doubles to a finite value.
    with pytest.raises(ValidationError, match="model contains non-finite values"):
        GaussianTrainModel(np.zeros(1), [[1e-308]])
    assert GaussianTrainModel(np.zeros(1), [[2e-308]]).precision[0, 0] == 5e307


@pytest.mark.parametrize("d", [1, 8, 65, 130, 392])
def test_the_padded_precision_is_built_once_per_model(d):
    rng = np.random.default_rng(d)
    model = fit_gaussian(matrix(rng.normal(size=(2 * d + 5, d))))
    padded = model._padded_precision
    size = -(-d // 64) * 64
    assert padded.shape == (size, size)
    assert np.shares_memory(model.precision, padded)
    assert np.array_equal(padded[:d, :d], model.precision)
    # Every padding entry is +0.0, to the bit.
    assert padded[d:].tobytes() == bytes(8 * (size - d) * size)
    assert np.ascontiguousarray(padded[:, d:]).tobytes() == bytes(8 * size * (size - d))
    # The distances are those of a product with a zero-padded copy of the precision.
    x = rng.normal(size=(200, d))
    explicit = np.zeros((size, size))
    explicit[:d, :d] = model.precision
    centered = np.zeros((200, size))
    centered[:, :d] = x - model.mean
    expected = np.maximum(np.einsum("ij,ij->i", centered @ explicit, centered), 0.0) + 0.0
    assert train2test_distances(model, x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [100, 128])
def test_a_model_is_read_only_and_leaves_the_callers_arrays_writable(d):
    mean, cov = np.zeros(d), np.eye(d)
    model = GaussianTrainModel(mean, cov, 0.0, d + 1)
    for array in (model.precision, model._padded_precision, model.mean, model.covariance):
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        model.precision[0, 0] = 1.0
    mean[0] = cov[0, 0] = 2.0  # the caller's own arrays
    assert model.precision[0, 0] == 1.0


def test_precision_is_consistent_inverse():
    rng = np.random.default_rng(15)
    for _ in range(10):
        X = rng.normal(size=(40, 6))
        model = fit_gaussian(matrix(X))
        target = model.covariance + model.regularization * np.eye(6)
        residual = np.abs(target @ model.precision - np.eye(6)).max()
        assert residual < 1e-8
        assert np.abs(model.precision - model.precision.T).max() == 0.0
        assert np.linalg.eigvalsh(model.precision).min() > 0


@pytest.mark.parametrize("dim", [64, 256])
@pytest.mark.parametrize("log_cond", [0, 3, 6, 10])
def test_precision_is_symmetric_with_a_residual_bounded_by_the_condition(dim, log_cond):
    rng = np.random.default_rng(dim + log_cond)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigenvalues = np.logspace(0, -log_cond, dim) * rng.uniform(0.1, 10.0)
    model = GaussianTrainModel(rng.normal(size=dim), (Q * eigenvalues) @ Q.T,
                               regularization=rng.uniform(0.0, 1e-12))
    target = model.covariance + model.regularization * np.eye(dim)
    assert np.array_equal(model.precision, model.precision.T)
    residual = np.abs(target @ model.precision - np.eye(dim)).max()
    assert residual <= dim * np.finfo(np.float64).eps * np.linalg.cond(target)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moments_that_cannot_be_inverted_raise_numerical_errors():
    with pytest.raises(SingularCovarianceError, match="epsilon"):
        GaussianTrainModel(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(SingularCovarianceError, match="epsilon"):
        GaussianTrainModel(np.zeros(2), np.ones((2, 2)))
    nan_cov = np.eye(2)
    nan_cov[0, 1] = nan_cov[1, 0] = np.nan
    # The last two targets are non-finite only once epsilon is added.
    for cov, eps in ((nan_cov, 1.0), (np.diag([1.0, np.inf]), 0.0),
                     (np.eye(2) * 8e307, 1e308), (np.eye(2), np.inf)):
        with pytest.raises(NumericalError, match="non-finite"):
            GaussianTrainModel(np.zeros(2), cov, regularization=eps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_training_features_raise_a_numerical_error():
    X = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for eps in (None, 1.0):
        with pytest.raises(NumericalError, match="non-finite"):
            fit_gaussian(matrix(X), regularization=eps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_covariance_entry_past_half_the_float_range_is_refused():
    # The variance 2 * a**2 is finite, but (cov + cov.T) / 2 overflows it; the
    # fit refuses it as the constructor refuses that covariance.
    a = np.sqrt(np.finfo(np.float64).max / 3)
    for eps in (None, 0.0):
        with pytest.raises(NumericalError, match="non-finite"):
            fit_gaussian(matrix([[a], [-a]]), regularization=eps)


def model_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


@pytest.mark.parametrize("d", [1, 8, 63, 64, 65, 130, 392])
@pytest.mark.parametrize("n", [2, 1024, 1025, 3000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fitted_covariance_is_symmetric_and_gives_the_model_of_its_moments(tmp_path, d, n, dtype):
    # The fit's covariance is symmetric to the bit, so the constructor keeps
    # it as it is, and the model of the same moments is the same file.
    rng = np.random.default_rng(d * 7919 + n)
    values = (2.0 * rng.normal(size=(n, d)) + rng.normal(size=d)).astype(dtype)
    model = fit_gaussian(FeatureMatrix(data=values, row_ids=row_ids(n)))
    assert np.array_equal(model.covariance, model.covariance.T)
    assert model.covariance.flags.c_contiguous
    again = GaussianTrainModel(model.mean, model.covariance, model.regularization, n)
    assert model_bytes(model, tmp_path / "fit") == model_bytes(again, tmp_path / "moments")


def test_the_constructor_symmetrizes_a_covariance_that_load_model_refuses(tmp_path):
    asym = np.array([[1.0, 0.2], [0.0, 1.0]])
    model = GaussianTrainModel(np.zeros(2), asym, 0.0, 3)
    assert model.covariance.tobytes() == np.array([[1.0, 0.1], [0.1, 1.0]]).tobytes()

    path = tmp_path / "m.t2tmodl"
    raw = model_bytes(GaussianTrainModel(np.zeros(2), np.eye(2), 0.0, 3), path)
    at = -64 + 16  # entry [1, 0] of the covariance
    path.write_bytes(raw[:at] + struct.pack("<d", 0.2) + raw[at + 8:])
    with pytest.raises(ValidationError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: covariance is not symmetric"


# ------------------------------------------------------------------ annotation


def det(det_id, score, feature):
    return Detection(
        detection_id=det_id,
        image_id="im",
        box=BoundingBox(0, 0, 1, 1),
        score=score,
        feature=None if feature is None else np.asarray(feature, dtype=np.float64),
    )


def test_annotate_distances():
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    outcome = match_outcome(
        true_positives=((det("t1", 0.9, [3.0, 4.0]), "g1"),),
        false_positives=(det("f1", 0.4, [1.0, 0.0]),),
        false_negatives=("g2",),
    )
    annotated = annotate_distances(model, outcome)
    assert [e.detection_id for e in annotated.entries] == ["t1", "f1"]
    assert annotated.entries[0].kind is Kind.TP
    assert annotated.entries[0].distance == 25.0
    assert annotated.entries[1].kind is Kind.FP
    assert annotated.entries[1].distance == 1.0
    assert annotated.total_gt == 2
    np.testing.assert_array_equal(annotated.dist[annotated.tp], [25.0])


def test_annotated_entries_list_tps_then_fps_each_in_rank_order():
    # The TPs are given out of rank order; "t1" and "t2" tie on score, so the
    # detection id breaks the tie.
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    outcome = match_outcome(
        true_positives=(
            (det("t3", 0.5, [1.0, 0.0]), "g3"),
            (det("t2", 0.9, [0.0, 2.0]), "g2"),
            (det("t1", 0.9, [3.0, 4.0]), "g1"),
        ),
        false_positives=(det("f2", 0.2, [1.0, 1.0]), det("f1", 0.7, [0.0, 3.0])),
        false_negatives=(),
    )
    annotated = annotate_distances(model, outcome)
    assert [(e.detection_id, e.kind, e.distance) for e in annotated.entries] == [
        ("t1", Kind.TP, 25.0),
        ("t2", Kind.TP, 4.0),
        ("t3", Kind.TP, 1.0),
        ("f1", Kind.FP, 9.0),
        ("f2", Kind.FP, 2.0),
    ]


def test_annotate_requires_bound_features():
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    outcome = match_outcome(
        true_positives=((det("t1", 0.9, None), "g1"),),
        false_positives=(det("f1", 0.4, [1.0, 0.0]),),
        false_negatives=(),
    )
    with pytest.raises(BindingError) as err:
        annotate_distances(model, outcome)
    assert "t1" in str(err.value)


def test_annotate_refuses_a_distance_that_overflows():
    # The precision is 1e300 * I, so the squared distance of [1e5, 0] is inf.
    model = GaussianTrainModel(np.zeros(2), np.zeros((2, 2)), 1e-300)
    outcome = match_outcome(
        true_positives=(),
        false_positives=(det("d1", 0.4, [1e5, 0.0]),),
        false_negatives=(),
    )
    with pytest.raises(ValidationError) as err:
        annotate_distances(model, outcome)
    assert str(err.value) == "entry 'd1' distance must be finite and >= 0, got inf"


def test_annotated_entry_validation():
    with pytest.raises(ValidationError):
        AnnotatedEntry(detection_id="a", kind=Kind.TP, score=0.5, distance=-0.1)
    with pytest.raises(ValidationError):
        AnnotatedEntry(detection_id="a", kind="tp", score=0.5, distance=0.1)


@pytest.mark.parametrize("changes, message", [
    ({"ids": ["a", "a"]}, "duplicate detection id 'a' in annotated outcome"),
    ({"dist": [1.0, float("nan")]}, "entry 'b' distance must be finite and >= 0, got nan"),
    ({"dist": [-0.1, 2.0]}, "entry 'a' distance must be finite and >= 0, got -0.1"),
    ({"dist": [1.0, float("inf")]}, "entry 'b' distance must be finite and >= 0, got inf"),
    ({"tp": [True, True]}, "2 true positives exceed total_gt = 1"),
    ({"total_gt": -1}, "total_gt must be >= 0, got -1"),
    ({"scores": [0.5]}, "scores must have shape (2,), got (1,)"),
], ids=["duplicate id", "nan distance", "negative distance", "infinite distance",
        "tps over total_gt", "negative total_gt", "scores length"])
def test_annotated_outcome_constructor_refuses_each_broken_invariant(changes, message):
    columns = dict(ids=["a", "b"], tp=[True, False], scores=[0.5, 0.4], dist=[1.0, 2.0],
                   total_gt=1)
    assert len(DistanceAnnotatedOutcome(**columns)) == 2
    with pytest.raises(ValidationError) as err:
        DistanceAnnotatedOutcome(**{**columns, **changes})
    assert str(err.value) == message


# ------------------------------------------------------------------- model i/o


# The loaded model derives its precision again: byte for byte the fitted one.
@pytest.mark.parametrize("d", [4, 128, 1024])
def test_model_round_trip(tmp_path, d):
    rng = np.random.default_rng(16)
    model = fit_gaussian(matrix(rng.normal(size=(d + 26, d))))
    path = tmp_path / "m.t2tmodl"
    save_model(model, path)
    loaded = load_model(path)

    np.testing.assert_array_equal(loaded.mean, model.mean)
    np.testing.assert_array_equal(loaded.covariance, model.covariance)
    assert loaded.precision.tobytes() == model.precision.tobytes()
    assert loaded.regularization == model.regularization
    assert loaded.sample_count == model.sample_count

    x = rng.normal(size=d)
    assert train2test_distances(loaded, [x])[0] == train2test_distances(model, [x])[0]

    again = tmp_path / "m2.t2tmodl"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_model_file_errors(tmp_path):
    model = GaussianTrainModel(np.zeros(2), np.eye(2), 0.0, 3)
    path = tmp_path / "m.t2tmodl"
    save_model(model, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.t2tmodl"
    bad.write_bytes(b"NOTMODEL" + raw[8:])
    with pytest.raises(ParseError):
        load_model(bad)

    cut = tmp_path / "cut.t2tmodl"
    cut.write_bytes(raw[:-5])
    with pytest.raises(ParseError) as err:
        load_model(cut)
    assert "truncated" in str(err.value)

    padded = tmp_path / "pad.t2tmodl"
    padded.write_bytes(raw + b"\x01")
    with pytest.raises(ParseError):
        load_model(padded)

    with pytest.raises(ParseError):
        load_model(tmp_path / "missing.t2tmodl")


def test_load_model_derives_the_precision_and_does_not_read_the_stored_one(tmp_path):
    model = GaussianTrainModel(np.zeros(2), np.array([[2.0, 0.5], [0.5, 1.0]]), 0.25, 3)
    raw = model_bytes(model, tmp_path / "m.t2tmodl")
    # A non-finite and asymmetric precision block of the right length.
    garbage = tmp_path / "garbage.t2tmodl"
    garbage.write_bytes(raw[:-32] + struct.pack("<4d", np.nan, 1.0, -1.0, np.inf))
    loaded = load_model(garbage)
    assert loaded.precision.tobytes() == model.precision.tobytes()
    assert model_bytes(loaded, tmp_path / "again.t2tmodl") == raw


_COUNT_BOUND = (2**63 - 1) // 8  # for d = 2: float32 rows of 8 bytes each


@pytest.mark.parametrize("epsilon, count, message", [
    (-0.0, 3, "regularization must not be -0.0, which no fit writes"),
    (-1.0, 3, "regularization must be >= 0, got -1.0"),
    (np.inf, 3, "regularization must be >= 0, got inf"),
    (np.nan, 3, "regularization must be >= 0, got nan"),
    (0.25, 0, f"sample count must lie in [1, {_COUNT_BOUND}] for dimension 2, got 0"),
    (0.25, _COUNT_BOUND + 1,
     f"sample count must lie in [1, {_COUNT_BOUND}] for dimension 2, got {_COUNT_BOUND + 1}"),
    (0.0, 2, "regularization must be > 0 for a sample count of 2 in 2 dimensions"),
    (0.0, 1, "regularization must be > 0 for a sample count of 1 in 2 dimensions"),
    (0.25, 1, None),
    (0.25, _COUNT_BOUND, None),
    (0.0, 3, None),
    (5e-324, 3, None),
], ids=["-0.0", "negative", "inf", "nan", "no rows", "past the bound", "epsilon 0 at n = d",
        "epsilon 0 at n < d", "one row", "at the bound", "epsilon 0 at n > d", "subnormal"])
def test_load_model_refuses_header_values_that_no_fit_writes(tmp_path, epsilon, count, message):
    path = tmp_path / "m.t2tmodl"
    raw = bytearray(model_bytes(GaussianTrainModel(np.zeros(2), np.eye(2), 0.25, 3), path))
    struct.pack_into("<dQ", raw, 16, epsilon, count)
    path.write_bytes(raw)
    if message is None:
        loaded = load_model(path)
        assert (loaded.regularization, loaded.sample_count) == (epsilon, count)
        return
    with pytest.raises(ValidationError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("fields, message", [
    (dict(sample_count=0),
     f"sample count must lie in [1, {_COUNT_BOUND}] for dimension 2, got 0"),
    (dict(sample_count=2), "regularization must be > 0 for a sample count of 2 in 2 dimensions"),
], ids=["no rows", "epsilon 0 at n = d"])
def test_save_model_refuses_a_header_that_load_model_refuses(tmp_path, fields, message):
    path = tmp_path / "m.t2tmodl"
    with pytest.raises(ValidationError) as err:
        save_model(GaussianTrainModel(np.zeros(2), np.eye(2), **fields), path)
    assert str(err.value) == f"{path}: {message}"
    assert not path.exists()


def test_a_model_file_whose_covariance_cannot_be_inverted_is_named_in_the_error(tmp_path):
    path = tmp_path / "m.t2tmodl"
    raw = bytearray(model_bytes(GaussianTrainModel(np.zeros(2), np.eye(2), 0.25, 3), path))
    struct.pack_into("<d", raw, 16, 0.0)
    struct.pack_into("<4d", raw, 32 + 16, 1.0, 1.0, 1.0, 1.0)  # a rank-1 covariance
    path.write_bytes(raw)
    with pytest.raises(SingularCovarianceError) as err:
        load_model(path)
    assert str(err.value) == (f"{path}: covariance (epsilon=0.0) is not positive definite; "
                              f"pass a larger regularization epsilon")
