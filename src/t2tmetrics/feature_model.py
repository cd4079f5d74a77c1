"""Gaussian model of training features and the train2test distance.

The model is the arithmetic mean and unbiased sample covariance of the
training rows. The train2test distance of a test feature x is the squared
Mahalanobis form

    d(x) = (x - mean)^T  inv(covariance + epsilon * I)  (x - mean)

with no square root. The mean is one float64 reduction over the stored
rows; the covariance is a sum of per-block products over row blocks of
``_FIT_BLOCK_ROWS``, each block widened to float64 and centered on that
mean, so no float64 copy of all the rows is made. numpy computes each
``B.T @ B`` as a symmetric rank-k update that fills one triangle and mirrors
it, so the sum is symmetric to the bit. The fit therefore gives it to the
model without the ``(cov + cov.T) / 2`` of ``model_from_moments``, which
would return it unchanged. Both build their models without the
constructor's symmetry checks, as the precision is symmetrized too. The
inverse is taken through a blocked Cholesky factor L of
``_CHOL_BLOCK_ROWS``-row blocks and its triangular inverse W, as the
precision ``W.T @ W``; a covariance that cannot be factorized is reported
as a singularity error rather than silently pseudo-inverted. LAPACK only
factors and inverts the diagonal blocks, and every other step is a matrix
product whose dimensions are whole blocks, so a model's bytes do not depend
on the BLAS thread count. The distance product is padded to whole blocks
too, so distances do not either.
"""

from __future__ import annotations

import enum
import functools
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BindingError,
    NumericalError,
    ParseError,
    SingularCovarianceError,
    ValidationError,
)
from .fsio import write_bytes
from .ingest import FeatureMatrix, _ColumnView, _Cursor, _read_bytes
from .matching import MatchOutcome

MODEL_MAGIC = b"T2TMODL\x00"

# dimension, epsilon, sample count
_MODEL_HEADER = struct.Struct("<QdQ")


@dataclass(frozen=True, eq=False)
class GaussianTrainModel:
    """Fitted moments plus the precision matrix actually used for distances."""

    mean: np.ndarray
    covariance: np.ndarray
    precision: np.ndarray
    regularization: float
    sample_count: int

    def __post_init__(self) -> None:
        self._check(known_symmetric=False)

    @classmethod
    def _built(cls, mean, covariance, precision, regularization, sample_count):
        """A model whose covariance and precision are symmetric by construction.

        It runs every check of the public constructor but the two symmetry
        checks, which cost six d x d passes and a d x d buffer.
        """
        model = object.__new__(cls)
        for name, value in (("mean", mean), ("covariance", covariance), ("precision", precision),
                            ("regularization", regularization), ("sample_count", sample_count)):
            object.__setattr__(model, name, value)
        model._check(known_symmetric=True)
        return model

    def _check(self, known_symmetric: bool) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        prec = np.asarray(self.precision, dtype=np.float64)
        d = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (d, d) or prec.shape != (d, d):
            raise ValidationError(
                f"inconsistent model shapes: mean {mean.shape}, covariance {cov.shape}, "
                f"precision {prec.shape}"
            )
        if not known_symmetric:
            work = np.empty_like(cov)  # one d x d buffer for both checks
            for name, m in (("covariance", cov), ("precision", prec)):
                scale = float(np.abs(m, out=work).max())
                if scale > 0:
                    np.subtract(m, m.T, out=work)
                    if float(np.abs(work, out=work).max()) > 1e-10 * scale:
                        raise ValidationError(f"{name} is not symmetric")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all() and np.isfinite(prec).all()):
            raise ValidationError("model contains non-finite values")
        if self.regularization < 0 or not np.isfinite(self.regularization):
            raise ValidationError(f"regularization must be >= 0, got {self.regularization}")
        if self.sample_count < 0:
            raise ValidationError(f"sample_count must be >= 0, got {self.sample_count}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "precision", prec)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @functools.cached_property
    def _padded_precision(self) -> np.ndarray:
        """The precision padded with zeros to ``_padded(dim)`` rows and columns,
        built on first use and kept; the precision itself when d needs no padding."""
        d, size = self.dim, _padded(self.dim)
        if size == d:
            return self.precision
        padded = np.zeros((size, size))
        padded[:d, :d] = self.precision
        return padded


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


def _padded(d: int) -> int:
    """``d`` rounded up to a whole number of ``_CHOL_BLOCK_ROWS``."""
    return -(-d // _CHOL_BLOCK_ROWS) * _CHOL_BLOCK_ROWS


def _invert_spd(matrix: np.ndarray, regularization: float) -> np.ndarray:
    """Inverse of (matrix + regularization * I) via Cholesky; raises on failure.

    A left-looking blocked Cholesky (Golub & Van Loan, *Matrix Computations*,
    section 4.2) builds the factor L and its inverse W side by side, one
    ``_CHOL_BLOCK_ROWS``-row block at a time: the inverse ``W_kk`` of each
    diagonal block of L finishes both the panel of L below it and block row k
    of W. The target is padded with the identity to a whole number of blocks;
    that leaves its factor and inverse in the leading rows and columns. The
    precision is the leading d x d part of ``W.T @ W``.
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
    del target, row
    precision = np.ascontiguousarray((inverse.T @ inverse)[:d, :d])
    del inverse
    # In place, (p + p.T) / 2 to the bit: numpy reads p.T from a copy where it
    # overlaps the output, and halving is exact.
    precision += precision.T
    precision /= 2.0
    return precision


def _model(mean: np.ndarray, cov: np.ndarray, regularization: float,
           sample_count: int) -> GaussianTrainModel:
    """The model of a float64 mean and a symmetric float64 covariance."""
    # An infinite epsilon, like an overflowed covariance, is left to _invert_spd.
    if not regularization >= 0.0:
        raise ValidationError(f"regularization must be >= 0, got {regularization}")
    precision = _invert_spd(cov, regularization)
    return GaussianTrainModel._built(mean, cov, precision, float(regularization), sample_count)


def model_from_moments(
    mean: np.ndarray,
    covariance: np.ndarray,
    regularization: float = 0.0,
    sample_count: int = 0,
) -> GaussianTrainModel:
    """Build a model from explicit moments (the precision is computed here)."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(covariance, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = cov + cov.T
        cov /= 2.0
    return _model(mean, cov, regularization, sample_count)


# Training rows per block of the covariance sum: one float64 block at a time
# is widened and centered. A training set of at most this many rows is one
# block, so its covariance is the single product ``X.T @ X`` of the padded
# rows bit for bit.
_FIT_BLOCK_ROWS = 1024

_HALF_MAX = np.finfo(np.float64).max / 2


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
        # The sum is symmetric to the bit, so model_from_moments' (cov + cov.T) / 2
        # would give it back unchanged, except where doubling an entry overflows.
        if not (cov.max() <= _HALF_MAX and cov.min() >= -_HALF_MAX):
            cov = (cov + cov.T) / 2.0
        eps = default_regularization(cov) if regularization is None else float(regularization)
    del data  # the rows are freed before the inversion allocates its d x d matrices
    if n <= d and eps == 0.0:
        raise SingularCovarianceError(
            f"sample covariance from {n} rows in {d} dimensions is rank-deficient; "
            f"pass a regularization epsilon > 0"
        )
    return _model(mean, cov, eps, n)


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
    d, size = model.dim, _padded(model.dim)
    precision = model._padded_precision
    out = np.empty(len(features), dtype=np.float64)
    for start in range(0, len(out), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(out))
        try:
            rows = np.array(features[start:stop], dtype=np.float64)
        except ValueError:  # rows of unequal length
            rows = None
        if rows is None or rows.shape[1:] != (d,):
            raise ValidationError(
                f"feature rows {start} to {stop - 1} are not all of shape ({d},)"
            )
        if not np.isfinite(rows).all():
            raise ValidationError("feature contains non-finite values")
        centered = rows if size == d else np.zeros((len(rows), size))
        np.subtract(rows, model.mean, out=centered[:, :d])
        out[start:stop] = np.einsum("ij,ij->i", centered @ precision, centered)
    # The true quadratic form is >= 0; rounding may produce a tiny negative.
    # ``+ 0.0`` turns a clamped -0.0 into 0.0.
    return np.maximum(out, 0.0, out=out) + 0.0


def train2test_distance(model: GaussianTrainModel, feature: np.ndarray) -> float:
    """Squared Mahalanobis distance of one feature from the training model."""
    x = np.asarray(feature, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValidationError(
            f"feature has shape {x.shape}, model expects ({model.dim},)"
        )
    return float(train2test_distances(model, x[np.newaxis])[0])


class Kind(str, enum.Enum):
    """Entry kind in a distance-annotated outcome."""

    TP = "tp"
    FP = "fp"


@dataclass(frozen=True)
class AnnotatedEntry:
    detection_id: str
    kind: Kind
    score: float
    distance: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind):
            raise ValidationError(f"kind must be Kind.TP or Kind.FP, got {self.kind!r}")
        if not np.isfinite(self.distance) or self.distance < 0:
            raise ValidationError(
                f"entry {self.detection_id!r} distance must be finite and >= 0, "
                f"got {self.distance}"
            )


@dataclass(frozen=True, eq=False)
class _Entries:
    """An annotated outcome as columns: ids, whether each entry is a TP, and
    float64 scores and distances. An annotation of a match outcome lists its
    kept detections in the outcome's rank order; one built from ``entries``
    lists them as given."""

    ids: list[str]
    tp: np.ndarray
    scores: np.ndarray
    distances: np.ndarray


@dataclass(frozen=True)
class DistanceAnnotatedOutcome(_ColumnView):
    """Match outcome with one train2test distance per kept detection.

    ``entries`` lists the TPs, then the FPs. An outcome of
    :func:`annotate_distances` or ``metric_report`` lists each part in rank
    order (-score, detection_id), holds its entries as columns and builds the
    ``AnnotatedEntry`` objects only when a caller reads ``entries``.
    """

    entries: tuple[AnnotatedEntry, ...]
    total_gt: int
    score_threshold: float

    def __post_init__(self) -> None:
        if self.total_gt < 0:
            raise ValidationError(f"total_gt must be >= 0, got {self.total_gt}")
        entries = self.entries
        cols = _Entries(
            ids=[e.detection_id for e in entries],
            tp=np.array([e.kind is Kind.TP for e in entries], dtype=bool),
            scores=np.array([e.score for e in entries], dtype=np.float64),
            distances=np.array([e.distance for e in entries], dtype=np.float64),
        )
        if len(set(cols.ids)) != len(cols.ids):
            raise ValidationError("duplicate detection id in annotated outcome")
        n_tp = int(np.count_nonzero(cols.tp))
        if n_tp > self.total_gt:
            raise ValidationError(f"{n_tp} true positives exceed total_gt = {self.total_gt}")
        object.__setattr__(self, "_cols", cols)

    def _field_of_columns(self, name: str) -> tuple[AnnotatedEntry, ...]:
        cols = self._cols
        ids, tp = cols.ids, cols.tp.tolist()
        scores, distances = cols.scores.tolist(), cols.distances.tolist()
        return tuple(
            AnnotatedEntry(detection_id=ids[k], kind=Kind.TP if tp[k] else Kind.FP,
                           score=scores[k], distance=distances[k])
            for k in np.argsort(~cols.tp, kind="stable").tolist()
        )

    def __len__(self) -> int:
        return len(self._cols.ids)

    def distances(self, kind: Kind | str) -> np.ndarray:
        """The distances of the TP or the FP entries, in column order."""
        try:
            kind = Kind(kind)
        except ValueError:
            raise ValidationError(f"kind must be 'tp' or 'fp', got {kind!r}") from None
        cols = self._cols
        return cols.distances[cols.tp if kind is Kind.TP else ~cols.tp]


def _annotated(outcome: MatchOutcome, distances: np.ndarray) -> DistanceAnnotatedOutcome:
    """The annotation listing the kept detections of ``outcome``, in its rank
    order, with ``distances``."""
    cols = outcome._cols
    det_cols = cols.dets._cols
    entries = _Entries(ids=[det_cols.ids[k] for k in cols.kept.tolist()], tp=cols.claims >= 0,
                       scores=det_cols.scores[cols.kept], distances=distances)
    refused = ~np.isfinite(distances)
    if refused.any():  # the entry's own check raises its error
        k = int(refused.argmax())
        AnnotatedEntry(entries.ids[k], Kind.TP if entries.tp[k] else Kind.FP,
                       float(entries.scores[k]), float(distances[k]))
    return DistanceAnnotatedOutcome._view(entries, total_gt=outcome.total_gt,
                                          score_threshold=outcome.score_threshold)


def annotate_distances(model: GaussianTrainModel, outcome: MatchOutcome) -> DistanceAnnotatedOutcome:
    """Attach a distance to every TP and FP detection of the outcome."""
    cols = outcome._cols
    det_cols = cols.dets._cols
    kept = cols.kept.tolist()
    features = [det_cols.features[k] for k in kept]
    unbound = sorted(det_cols.ids[k] for k, f in zip(kept, features) if f is None)
    if unbound:
        shown = ", ".join(unbound[:10]) + (", ..." if len(unbound) > 10 else "")
        raise BindingError(f"{len(unbound)} detections have no bound feature: {shown}")
    return _annotated(outcome, train2test_distances(model, features))


# ------------------------------------------------------------- model file I/O


def save_model(model: GaussianTrainModel, path) -> None:
    """Binary container: magic, u64 dim, f64 epsilon, u64 sample count, then
    mean, covariance, and precision as little-endian float64."""
    parts = [
        MODEL_MAGIC,
        _MODEL_HEADER.pack(model.dim, model.regularization, model.sample_count),
        np.ascontiguousarray(model.mean, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.covariance, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.precision, dtype="<f8").tobytes(),
    ]
    write_bytes(path, b"".join(parts))


def load_model(path) -> GaussianTrainModel:
    blob = _read_bytes(path)
    if blob[:len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:8]!r}")
    cursor = _Cursor(path, blob, len(MODEL_MAGIC))
    d, eps, count = _MODEL_HEADER.unpack(cursor.take(_MODEL_HEADER.size, "header"))
    if d < 1:
        raise ParseError(f"{path}: dimension must be >= 1, got {d}")
    mean = np.frombuffer(cursor.take(8 * d, "mean"), dtype="<f8").copy()
    cov = np.frombuffer(cursor.take(8 * d * d, "covariance"), dtype="<f8").reshape(d, d).copy()
    prec = np.frombuffer(cursor.take(8 * d * d, "precision"), dtype="<f8").reshape(d, d).copy()
    cursor.end("model payload")
    try:
        return GaussianTrainModel(
            mean=mean, covariance=cov, precision=prec, regularization=eps, sample_count=count
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
