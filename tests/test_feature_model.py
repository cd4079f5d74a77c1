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
    DistanceAnnotatedOutcome,
    FeatureMatrix,
    GaussianTrainModel,
    Kind,
    MatchOutcome,
    NumericalError,
    ParseError,
    SingularCovarianceError,
    ValidationError,
    annotate_distances,
    default_regularization,
    fit_gaussian,
    load_model,
    model_from_moments,
    save_model,
    train2test_distance,
    train2test_distances,
)
from oracles import covariance_twopass, train2test_distance_exact


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


def test_model_validation():
    eye = np.eye(2)
    with pytest.raises(ValidationError):
        GaussianTrainModel(
            mean=np.zeros(3), covariance=eye, precision=eye, regularization=0.0, sample_count=1
        )
    asym = np.array([[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        GaussianTrainModel(
            mean=np.zeros(2), covariance=asym, precision=eye, regularization=0.0, sample_count=1
        )
    with pytest.raises(ValidationError):
        model_from_moments(np.zeros(2), eye, regularization=-0.1)


# ------------------------------------------------------------------- distance


def test_distance_worked_examples():
    identity = model_from_moments(np.zeros(2), np.eye(2))
    assert train2test_distance(identity, [3.0, 4.0]) == 25.0
    assert train2test_distance(identity, [0.0, 0.0]) == 0.0

    model = model_from_moments([1.0, 1.0], np.diag([4.0, 1.0]))
    assert train2test_distance(model, [3.0, 2.0]) == 2.0
    assert train2test_distance(model, model.mean) == 0.0


def test_distance_at_mean_is_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        X = rng.normal(size=(30, 4))
        model = fit_gaussian(matrix(X))
        assert train2test_distance(model, model.mean) == 0.0


def test_distance_nonnegative_and_finite():
    rng = np.random.default_rng(12)
    for _ in range(50):
        X = rng.normal(size=(20, 3)) * rng.uniform(0.01, 100)
        model = fit_gaussian(matrix(X))
        x = rng.normal(size=3) * 50
        d = train2test_distance(model, x)
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
        got = train2test_distance(model, x)
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
            d0 = train2test_distance(base, x)
            d1 = train2test_distance(mapped, A @ x + b)
            assert d1 == pytest.approx(d0, rel=1e-6)


def test_distance_input_validation():
    model = model_from_moments(np.zeros(2), np.eye(2))
    with pytest.raises(ValidationError):
        train2test_distance(model, [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        train2test_distance(model, [1.0, float("inf")])


def test_distances_input_validation():
    model = model_from_moments(np.zeros(2), np.eye(2))
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
    model = model_from_moments(
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
        if i == 0:  # the one-row entry point runs the same kernel
            assert abs(Fraction(train2test_distance(model, x)) - exact) <= bound


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
    model = model_from_moments(rng.normal(size=dim), (Q * eigenvalues) @ Q.T,
                               regularization=rng.uniform(0.0, 1e-12))
    target = model.covariance + model.regularization * np.eye(dim)
    assert np.array_equal(model.precision, model.precision.T)
    residual = np.abs(target @ model.precision - np.eye(dim)).max()
    assert residual <= dim * np.finfo(np.float64).eps * np.linalg.cond(target)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moments_that_cannot_be_inverted_raise_numerical_errors():
    with pytest.raises(SingularCovarianceError, match="epsilon"):
        model_from_moments(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(SingularCovarianceError, match="epsilon"):
        model_from_moments(np.zeros(2), np.ones((2, 2)))
    nan_cov = np.eye(2)
    nan_cov[0, 1] = nan_cov[1, 0] = np.nan
    # The last two targets are non-finite only once epsilon is added.
    for cov, eps in ((nan_cov, 1.0), (np.diag([1.0, np.inf]), 0.0),
                     (np.eye(2) * 8e307, 1e308), (np.eye(2), np.inf)):
        with pytest.raises(NumericalError, match="non-finite"):
            model_from_moments(np.zeros(2), cov, regularization=eps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_training_features_raise_a_numerical_error():
    X = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for eps in (None, 1.0):
        with pytest.raises(NumericalError, match="non-finite"):
            fit_gaussian(matrix(X), regularization=eps)


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
    model = model_from_moments(np.zeros(2), np.eye(2))
    outcome = MatchOutcome(
        true_positives=((det("t1", 0.9, [3.0, 4.0]), "g1"),),
        false_positives=(det("f1", 0.4, [1.0, 0.0]),),
        false_negatives=("g2",),
        iou_threshold=0.5,
        score_threshold=0.1,
        total_gt=2,
    )
    annotated = annotate_distances(model, outcome)
    assert [e.detection_id for e in annotated.entries] == ["t1", "f1"]
    assert annotated.entries[0].kind is Kind.TP
    assert annotated.entries[0].distance == 25.0
    assert annotated.entries[1].kind is Kind.FP
    assert annotated.entries[1].distance == 1.0
    assert annotated.total_gt == 2
    assert annotated.score_threshold == 0.1
    np.testing.assert_array_equal(annotated.distances(Kind.TP), [25.0])


def test_annotate_requires_bound_features():
    model = model_from_moments(np.zeros(2), np.eye(2))
    outcome = MatchOutcome(
        true_positives=((det("t1", 0.9, None), "g1"),),
        false_positives=(det("f1", 0.4, [1.0, 0.0]),),
        false_negatives=(),
        iou_threshold=0.5,
        score_threshold=0.0,
        total_gt=1,
    )
    with pytest.raises(BindingError) as err:
        annotate_distances(model, outcome)
    assert "t1" in str(err.value)


def test_annotated_outcome_validation():
    e = AnnotatedEntry(detection_id="a", kind=Kind.TP, score=0.5, distance=1.0)
    with pytest.raises(ValidationError):
        DistanceAnnotatedOutcome(entries=(e, e), total_gt=2, score_threshold=0.0)
    with pytest.raises(ValidationError):
        DistanceAnnotatedOutcome(entries=(e,), total_gt=0, score_threshold=0.0)
    with pytest.raises(ValidationError):
        AnnotatedEntry(detection_id="a", kind=Kind.TP, score=0.5, distance=-0.1)
    with pytest.raises(ValidationError):
        AnnotatedEntry(detection_id="a", kind="tp", score=0.5, distance=0.1)


# ------------------------------------------------------------------- model i/o


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    model = fit_gaussian(matrix(rng.normal(size=(30, 4))))
    path = tmp_path / "m.t2tmodl"
    save_model(model, path)
    loaded = load_model(path)

    np.testing.assert_array_equal(loaded.mean, model.mean)
    np.testing.assert_array_equal(loaded.covariance, model.covariance)
    np.testing.assert_array_equal(loaded.precision, model.precision)
    assert loaded.regularization == model.regularization
    assert loaded.sample_count == model.sample_count

    x = rng.normal(size=4)
    assert train2test_distance(loaded, x) == train2test_distance(model, x)

    again = tmp_path / "m2.t2tmodl"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_model_file_errors(tmp_path):
    model = model_from_moments(np.zeros(2), np.eye(2))
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
