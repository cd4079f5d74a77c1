"""Gaussian model of training features and the train2test distance.

The model is the arithmetic mean and unbiased sample covariance of the
training rows. The train2test distance of a test feature x is the squared
Mahalanobis form

    d(x) = (x - mean)^T  inv(covariance + epsilon * I)  (x - mean)

with no square root. The mean is one float64 reduction over the stored
rows; the covariance is a sum of per-block products over row blocks of
``_FIT_BLOCK_ROWS``, each block widened to float64 and centered on that
mean, so no float64 copy of all the rows is made. The inverse is taken
through a blocked Cholesky factor L of ``_CHOL_BLOCK_ROWS``-row blocks and
its triangular inverse W, as the precision ``W.T @ W``; a covariance that
cannot be factorized is reported as a singularity error rather than
silently pseudo-inverted. numpy computes each ``B.T @ B`` and ``W.T @ W``
as a symmetric rank-k update that fills one triangle and mirrors it, so the
covariance sum and the precision are symmetric to the bit. A model has one
constructor, ``GaussianTrainModel(mean, covariance, regularization,
sample_count)``, which derives the precision from the covariance: the fit,
``load_model`` and the planted scenario all build through it, and a model
file's stored precision is not read. The constructor keeps a covariance
that is symmetric to the bit, as the fit's is, and symmetrizes any other.
LAPACK only factors and inverts the diagonal blocks, and every other step
is a matrix product whose dimensions are whole blocks, so a model's bytes
do not depend on the BLAS thread count. The distance product is padded to
whole blocks too, so distances do not either: it multiplies by the model's
one padded precision, of which ``precision`` is a read-only d x d view.
"""

from __future__ import annotations

import enum
import functools
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BindingError,
    NumericalError,
    ParseError,
    SingularCovarianceError,
    ValidationError,
)
from . import matching
from .fsio import _Cursor, _naming, _read_bytes, write_bytes
from .ingest import FeatureMatrix, _column, _first_repeat

MODEL_MAGIC = b"T2TMODL\x00"

# dimension, epsilon, sample count
_MODEL_HEADER = struct.Struct("<QdQ")


@dataclass(frozen=True, eq=False)
class GaussianTrainModel:
    """Fitted moments, and the precision ``inv(covariance + regularization * I)``
    that distances use, which the constructor derives from the covariance.

    A covariance that is symmetric to the bit is kept as given; any other is
    replaced by ``(covariance + covariance.T) / 2``. An epsilon of -0.0 is kept
    as 0.0. Every array is read-only; ``precision`` is a d x d view of
    ``_padded_precision``, the one matrix the distance kernel multiplies by.
    """

    mean: np.ndarray
    covariance: np.ndarray
    regularization: float = 0.0
    sample_count: int = 0
    precision: np.ndarray = field(init=False)
    _padded_precision: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Views, so that a caller's own arrays stay writable.
        mean = np.asarray(self.mean, dtype=np.float64).view()
        cov = np.asarray(self.covariance, dtype=np.float64).view()
        if mean.ndim != 1 or mean.size < 1 or cov.shape != (mean.size, mean.size):
            raise ValidationError(
                f"model shapes must be (d,) and (d, d) with d >= 1, got mean {mean.shape} "
                f"and covariance {cov.shape}"
            )
        # An infinite epsilon, like an overflowed covariance, is left to _invert_spd.
        if not self.regularization >= 0.0:
            raise ValidationError(f"regularization must be >= 0, got {self.regularization}")
        if self.sample_count < 0:
            raise ValidationError(f"sample_count must be >= 0, got {self.sample_count}")
        regularization = float(self.regularization) + 0.0
        # A covariance symmetric to the bit is kept: (cov + cov.T) / 2 would give
        # it back unchanged, except where doubling an entry overflows, and such a
        # covariance, like any that is not finite, ends in _invert_spd's refusal.
        with np.errstate(over="ignore", invalid="ignore"):
            if not (cov.max() <= _HALF_MAX and cov.min() >= -_HALF_MAX
                    and np.array_equal(cov, cov.T)):
                cov = cov + cov.T
                cov /= 2.0
        padded = _invert_spd(cov, regularization)
        # ``W.T @ W`` is symmetric to the bit, so (p + p.T) / 2 would only turn
        # an entry past half the float range into an infinity: such a
        # precision is refused as the non-finite one it would become.
        if not (np.isfinite(mean).all()
                and padded.max() <= _HALF_MAX and padded.min() >= -_HALF_MAX):
            raise ValidationError("model contains non-finite values")
        mean.flags.writeable = cov.flags.writeable = padded.flags.writeable = False
        for name, value in (("mean", mean), ("covariance", cov), ("_padded_precision", padded),
                            ("precision", padded[:mean.size, :mean.size]),
                            ("regularization", regularization)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def default_regularization(covariance: np.ndarray) -> float:
    """Trace-scaled default: 1e-6 * trace(covariance) / dim."""
    cov = np.asarray(covariance, dtype=np.float64)
    return 1e-6 * float(np.trace(cov)) / cov.shape[0]


# Rows per diagonal block of the Cholesky factor and its inverse. LAPACK only
# ever sees one block. Every other step, the covariance sum and the distance
# product too, is a matrix product on operands padded with zeros to a whole
# number of blocks: OpenBLAS splits such a product among its threads without
# changing a bit of it, where another size can change the last bits with the
# thread count.
_CHOL_BLOCK_ROWS = 64


_HALF_MAX = np.finfo(np.float64).max / 2


def _padded(d: int) -> int:
    """``d`` rounded up to a whole number of ``_CHOL_BLOCK_ROWS``."""
    return -(-d // _CHOL_BLOCK_ROWS) * _CHOL_BLOCK_ROWS


def _invert_spd(matrix: np.ndarray, regularization: float) -> np.ndarray:
    """Zero-padded inverse of (matrix + regularization * I) via Cholesky; raises on failure.

    A left-looking blocked Cholesky (Golub & Van Loan, *Matrix Computations*,
    section 4.2) builds the factor L and its inverse W side by side, one
    ``_CHOL_BLOCK_ROWS``-row block at a time: the inverse ``W_kk`` of each
    diagonal block of L finishes both the panel of L below it and block row k
    of W. The target is padded with the identity to a whole number of blocks;
    that leaves its factor and inverse in the leading rows and columns. The
    padded precision is ``W.T @ W`` in the target's buffer, its padding set to 0.
    """
    d = matrix.shape[0]
    size = _padded(d)
    # The entries of ``matrix + regularization * np.eye(d)``, bit for bit,
    # without the d x d identity and product: epsilon * 0.0 off the diagonal,
    # epsilon * 1.0 == epsilon on it.
    target = np.zeros((size, size))
    target.flat[d * (size + 1) :: size + 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(matrix, regularization * 0.0, out=target[:d, :d])
        target.flat[: d * (size + 1) : size + 1] = matrix.diagonal() + regularization
    if not np.isfinite(target).all():  # LAPACK would factor NaNs silently
        raise NumericalError(f"covariance (epsilon={regularization}) has non-finite entries")
    # Below its diagonal blocks, ``target`` turns into L one block column at a
    # time, each after its last read; the diagonal blocks of L are not kept.
    inverse = np.zeros_like(target)
    for k in range(0, size, _CHOL_BLOCK_ROWS):
        e = k + _CHOL_BLOCK_ROWS
        row = target[k:e, :k]  # block row k of L, left of the diagonal
        try:
            w_kk = np.linalg.inv(np.linalg.cholesky(target[k:e, k:e] - row @ row.T))
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError(
                f"covariance (epsilon={regularization}) is not positive definite; "
                f"pass a larger regularization epsilon"
            ) from exc
        target[e:, k:e] = (target[e:, k:e] - target[e:, :k] @ row.T) @ w_kk.T
        inverse[k:e, :k] = -w_kk @ (row @ inverse[:k, :k])
        inverse[k:e, k:e] = w_kk
    np.matmul(inverse.T, inverse, out=target)
    target[d:] = target[:, d:] = 0.0  # zero padding, where W.T @ W holds the identity
    return target


# Training rows per block of the covariance sum: one float64 block at a time
# is widened and centered. A training set of at most this many rows is one
# block, so its covariance is the single product ``X.T @ X`` of the padded
# rows bit for bit.
_FIT_BLOCK_ROWS = 1024


def _centered_gram(data: np.ndarray, start: int, mean: np.ndarray) -> np.ndarray:
    """``B.T @ B`` of the float64 block B of rows ``start`` onward, centered on
    ``mean`` and padded with zero columns to a whole number of blocks."""
    rows = data[start:start + _FIT_BLOCK_ROWS]
    block = np.zeros((len(rows), _padded(len(mean))))
    np.subtract(rows, mean, out=block[:, : len(mean)])
    return block.T @ block


def fit_gaussian(
    features: FeatureMatrix,
    regularization: float | None = None,
) -> GaussianTrainModel:
    """Fit mean and unbiased covariance; invert the regularized covariance.

    ``regularization=None`` applies the trace-scaled default. A single row
    yields the zero covariance. Rank deficiency is certain when rows <= dim,
    so that case demands a positive epsilon up front.

    The rows are read where they are stored, float32 or float64: the mean is
    one float64 reduction, bit-equal to ``X.mean(axis=0)`` on the widened X,
    and the covariance sums the products of ``_FIT_BLOCK_ROWS``-row blocks
    (Chan, Golub & LeVeque 1983, with every block centered on that mean).
    Float32 and float64 data holding equal values give bit-identical models.
    The function drops its reference to ``features`` before the inversion, so
    a matrix that only the caller's argument holds is freed by then.
    """
    data = features.data
    del features
    n, d = data.shape
    # Huge features overflow to a non-finite covariance, which _invert_spd refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = data.mean(axis=0, dtype=np.float64)
        cov = _centered_gram(data, 0, mean)
        for start in range(_FIT_BLOCK_ROWS, n, _FIT_BLOCK_ROWS):
            cov += _centered_gram(data, start, mean)
        cov /= max(n - 1, 1)
        cov = np.ascontiguousarray(cov[:d, :d])
        eps = default_regularization(cov) if regularization is None else float(regularization)
    del data  # the rows are freed before the inversion allocates its d x d matrices
    if n <= d and eps == 0.0:
        raise SingularCovarianceError(
            f"sample covariance from {n} rows in {d} dimensions is rank-deficient; "
            f"pass a regularization epsilon > 0"
        )
    return GaussianTrainModel(mean, cov, eps, n)


# Rows per GEMM block: large enough to amortize the call, small enough that
# the stacked block and its temporaries stay small next to the detections.
_BLOCK_ROWS = 256


def train2test_distances(
    model: GaussianTrainModel, features: np.ndarray | Sequence[np.ndarray]
) -> np.ndarray:
    """Squared Mahalanobis distances of n feature rows.

    ``features`` is an n x dim array or a sequence of n dim-vectors. The rows
    are taken in fixed blocks of ``_BLOCK_ROWS``; only one block at a time is
    stacked as float64, centered and reduced with one product against the
    precision. Both operands of that product are padded with zeros to a whole
    number of ``_CHOL_BLOCK_ROWS`` columns, as the fit's are, so a distance's
    bits do not depend on the BLAS thread count.
    """
    return _distances(model, features, None)


def _distances(model: GaussianTrainModel, features, rows: np.ndarray | None) -> np.ndarray:
    """The distances of ``features[rows]``, or of every row when ``rows`` is
    None; each block is gathered by its slice of ``rows``, one at a time."""
    d, size = model.dim, _padded(model.dim)
    out = np.empty(len(features) if rows is None else len(rows), dtype=np.float64)
    for start in range(0, len(out), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(out))
        block = features[start:stop] if rows is None else features[rows[start:stop]]
        try:
            block = np.array(block, dtype=np.float64)
        except ValueError:  # rows of unequal length
            block = None
        if block is None or block.shape[1:] != (d,):
            raise ValidationError(
                f"feature rows {start} to {stop - 1} are not all of shape ({d},)"
            )
        if not np.isfinite(block).all():
            raise ValidationError("feature contains non-finite values")
        centered = block if size == d else np.zeros((len(block), size))
        np.subtract(block, model.mean, out=centered[:, :d])
        # An overflowing distance is left to the caller, which refuses it by name.
        with np.errstate(over="ignore", invalid="ignore"):
            out[start:stop] = np.einsum("ij,ij->i", centered @ model._padded_precision, centered)
    # The true quadratic form is >= 0; rounding may produce a tiny negative.
    # ``+ 0.0`` turns a clamped -0.0 into 0.0.
    return np.maximum(out, 0.0, out=out) + 0.0


class Kind(str, enum.Enum):
    """Entry kind in a distance-annotated outcome."""

    TP = "tp"
    FP = "fp"


def _check_distance(distance: float, detection_id: str) -> None:
    """Refuse a distance unless it is finite and >= 0."""
    if not np.isfinite(distance) or distance < 0:
        raise ValidationError(
            f"entry {detection_id!r} distance must be finite and >= 0, got {distance}")


@dataclass(frozen=True)
class AnnotatedEntry:
    detection_id: str
    kind: Kind
    score: float
    distance: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind):
            raise ValidationError(f"kind must be Kind.TP or Kind.FP, got {self.kind!r}")
        _check_distance(self.distance, self.detection_id)


@dataclass(frozen=True, eq=False)
class DistanceAnnotatedOutcome:
    """Match outcome with one train2test distance per kept detection, as columns.

    ``ids``, the boolean ``tp``, and float64 ``scores`` and ``dist`` hold one
    entry per kept detection. An outcome of :func:`annotate_distances` or
    ``metric_report`` lists the kept detections in the match outcome's rank
    order (-score, detection_id). The constructor checks that no id repeats,
    that every distance is finite and >= 0 and that the TPs do not outnumber
    ``total_gt``.
    """

    ids: list[str]
    tp: np.ndarray
    scores: np.ndarray
    dist: np.ndarray
    total_gt: int

    def __post_init__(self) -> None:
        ids = list(self.ids)
        tp = _column(self.tp, (len(ids),), "tp", bool)
        scores = _column(self.scores, (len(ids),), "scores")
        dist = _column(self.dist, (len(ids),), "distances")
        if self.total_gt < 0:
            raise ValidationError(f"total_gt must be >= 0, got {self.total_gt}")
        if (repeat := _first_repeat(ids)) is not None:
            raise ValidationError(f"duplicate detection id {repeat!r} in annotated outcome")
        refused = ~(np.isfinite(dist) & (dist >= 0))
        if refused.any():
            k = int(refused.argmax())
            _check_distance(float(dist[k]), ids[k])
        n_tp = int(np.count_nonzero(tp))
        if n_tp > self.total_gt:
            raise ValidationError(f"{n_tp} true positives exceed total_gt = {self.total_gt}")
        for name, value in (("ids", ids), ("tp", tp), ("scores", scores), ("dist", dist)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def entries(self) -> tuple[AnnotatedEntry, ...]:
        """The TP entries, then the FP entries, each in column order, built on first read."""
        ids, tp = self.ids, self.tp.tolist()
        scores, dist = self.scores.tolist(), self.dist.tolist()
        return tuple(
            AnnotatedEntry(detection_id=ids[k], kind=Kind.TP if tp[k] else Kind.FP,
                           score=scores[k], distance=dist[k])
            for k in np.argsort(~self.tp, kind="stable").tolist()
        )

    def histogram(
        self, bin_count: int
    ) -> tuple[tuple[float, ...], tuple[int, ...], tuple[int, ...]]:
        """Uniform bin edges over [0, max distance], shared by the TP and the FP
        counts that follow them. Where that range cannot hold ``bin_count + 1``
        increasing edges (no entries, only zero distances, or a largest distance
        too small to split), the range is [0, 1]."""
        hi = float(self.dist.max()) if len(self.dist) else 0.0
        edges = np.linspace(0.0, hi, bin_count + 1)
        if (edges[:-1] >= edges[1:]).any():  # the check np.histogram makes
            hi = 1.0
        tp_counts, edges = np.histogram(self.dist[self.tp], bins=bin_count, range=(0.0, hi))
        fp_counts, _ = np.histogram(self.dist[~self.tp], bins=bin_count, range=(0.0, hi))
        return tuple(edges.tolist()), tuple(tp_counts.tolist()), tuple(fp_counts.tolist())


def annotate_distances(
    model: GaussianTrainModel, outcome: matching.MatchOutcome
) -> DistanceAnnotatedOutcome:
    """Attach a distance to every TP and FP detection of the outcome."""
    dets = outcome.dets
    rows = dets.feature_rows[outcome.kept]
    if (rows < 0).any():
        unbound = sorted(map(dets.ids.__getitem__, outcome.kept[rows < 0].tolist()))
        shown = ", ".join(unbound[:10]) + (", ..." if len(unbound) > 10 else "")
        raise BindingError(f"{len(unbound)} detections have no bound feature: {shown}")
    data = None if dets.features is None else dets.features.data
    return DistanceAnnotatedOutcome(
        ids=list(map(dets.ids.__getitem__, outcome.kept.tolist())), tp=outcome.claims >= 0,
        scores=dets.scores[outcome.kept], dist=_distances(model, data, rows),
        total_gt=outcome.total_gt)


# ------------------------------------------------------------- model file I/O


# The largest sample count of a d-dim model file is _MAX_ARRAY_BYTES // (4 * d):
# a fit reads its n rows from one FeatureMatrix of n x d values of at least 4
# bytes each (float32), and numpy holds no array of more bytes than intp's
# largest value.
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)


def _check_header(d: int, eps: float, count: int) -> None:
    """Refuse a model file header that no fit writes."""
    if not 0.0 <= eps < np.inf:
        raise ValidationError(f"regularization must be >= 0, got {eps}")
    if np.signbit(eps):
        raise ValidationError("regularization must not be -0.0, which no fit writes")
    most = _MAX_ARRAY_BYTES // (4 * d)
    if not 1 <= count <= most:
        raise ValidationError(f"sample count must lie in [1, {most}] for dimension {d}, "
                              f"got {count}")
    if eps == 0.0 and count <= d:
        raise ValidationError(f"regularization must be > 0 for a sample count of {count} "
                              f"in {d} dimensions")


def save_model(model: GaussianTrainModel, path) -> None:
    """Binary container: magic, u64 dim, f64 epsilon, u64 sample count, then
    mean, covariance, and precision as little-endian float64. ``load_model``
    derives the precision again and does not read the stored one. A model
    whose header ``load_model`` would refuse is refused before any write."""
    with _naming(path):
        _check_header(model.dim, model.regularization, model.sample_count)
    parts = [
        MODEL_MAGIC,
        _MODEL_HEADER.pack(model.dim, model.regularization, model.sample_count),
        np.ascontiguousarray(model.mean, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.covariance, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.precision, dtype="<f8").tobytes(),
    ]
    write_bytes(path, b"".join(parts))


def load_model(path) -> GaussianTrainModel:
    """The model a ``save_model`` file holds, with its precision derived again
    from the covariance; the stored precision's length is checked, its values
    are not read. A header value that no fit writes is refused by name, as is
    a mean or covariance that is not finite, or a covariance that is not
    symmetric within 1e-10 of its largest entry."""
    blob = _read_bytes(path)
    with _naming(path):
        if blob[:len(MODEL_MAGIC)] != MODEL_MAGIC:
            raise ParseError(f"bad magic {blob[:8]!r}")
        cursor = _Cursor(blob, len(MODEL_MAGIC))
        d, eps, count = _MODEL_HEADER.unpack(cursor.take(_MODEL_HEADER.size, "header"))
        if d < 1:
            raise ParseError(f"dimension must be >= 1, got {d}")
        mean = np.frombuffer(cursor.take(8 * d, "mean"), dtype="<f8").copy()
        cov = np.frombuffer(cursor.take(8 * d * d, "covariance"), dtype="<f8").reshape(d, d).copy()
        cursor.take(8 * d * d, "precision")
        cursor.end("model payload")
        _check_header(d, eps, count)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError("model contains non-finite values")
        if float(np.abs(cov - cov.T).max()) > 1e-10 * float(np.abs(cov).max()):
            raise ValidationError("covariance is not symmetric")
        return GaussianTrainModel(mean, cov, eps, count)
