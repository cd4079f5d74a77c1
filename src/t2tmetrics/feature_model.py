"""Gaussian model of training features and the train2test distance.

The model is the arithmetic mean and unbiased sample covariance of the
training rows. The train2test distance of a test feature x is the squared
Mahalanobis form

    d(x) = (x - mean)^T  inv(covariance + epsilon * I)  (x - mean)

with no square root. The inverse is taken through a symmetric
positive-definite factorization; a covariance that cannot be factorized is
reported as a singularity error rather than silently pseudo-inverted.
"""

from __future__ import annotations

import enum
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
from .ingest import FeatureMatrix
from .matching import MatchOutcome

MODEL_MAGIC = b"T2TMODL\x00"

_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


@dataclass(frozen=True, eq=False)
class GaussianTrainModel:
    """Fitted moments plus the precision matrix actually used for distances."""

    mean: np.ndarray
    covariance: np.ndarray
    precision: np.ndarray
    regularization: float
    sample_count: int

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        prec = np.asarray(self.precision, dtype=np.float64)
        d = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (d, d) or prec.shape != (d, d):
            raise ValidationError(
                f"inconsistent model shapes: mean {mean.shape}, covariance {cov.shape}, "
                f"precision {prec.shape}"
            )
        for name, m in (("covariance", cov), ("precision", prec)):
            scale = float(np.abs(m).max())
            if scale > 0 and float(np.abs(m - m.T).max()) > 1e-10 * scale:
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


def default_regularization(covariance: np.ndarray) -> float:
    """Trace-scaled default: 1e-6 * trace(covariance) / dim."""
    cov = np.asarray(covariance, dtype=np.float64)
    return 1e-6 * float(np.trace(cov)) / cov.shape[0]


def _invert_spd(matrix: np.ndarray, regularization: float) -> np.ndarray:
    """Inverse of (matrix + regularization * I) via Cholesky; raises on failure."""
    d = matrix.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        target = matrix + regularization * np.eye(d)
    if not np.isfinite(target).all():  # LAPACK would factor NaNs silently
        raise NumericalError(f"covariance (epsilon={regularization}) has non-finite entries")
    try:
        factor = np.linalg.cholesky(target)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            f"covariance (epsilon={regularization}) is not positive definite; "
            f"pass a larger regularization epsilon"
        ) from exc
    precision = np.linalg.solve(factor.T, np.linalg.solve(factor, np.eye(d)))
    return (precision + precision.T) / 2.0


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
        cov = (cov + cov.T) / 2.0
    # An infinite epsilon, like an overflowed covariance, is left to _invert_spd.
    if not regularization >= 0.0:
        raise ValidationError(f"regularization must be >= 0, got {regularization}")
    precision = _invert_spd(cov, regularization)
    return GaussianTrainModel(
        mean=mean,
        covariance=cov,
        precision=precision,
        regularization=float(regularization),
        sample_count=sample_count,
    )


def fit_gaussian(
    features: FeatureMatrix,
    regularization: float | None = None,
) -> GaussianTrainModel:
    """Fit mean and unbiased covariance; invert the regularized covariance.

    ``regularization=None`` applies the trace-scaled default. A single row
    yields the zero covariance. Rank deficiency is certain when rows <= dim,
    so that case demands a positive epsilon up front.
    """
    X = features.data
    n, d = X.shape
    # Huge features overflow to a non-finite covariance, which _invert_spd refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        centered = X - mean
        cov = centered.T @ centered / max(n - 1, 1)
        eps = default_regularization(cov) if regularization is None else float(regularization)
    if n <= d and eps == 0.0:
        raise SingularCovarianceError(
            f"sample covariance from {n} rows in {d} dimensions is rank-deficient; "
            f"pass a regularization epsilon > 0"
        )
    return model_from_moments(mean, cov, eps, n)


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
    precision.
    """
    out = np.empty(len(features), dtype=np.float64)
    for start in range(0, len(out), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(out))
        try:
            centered = np.array(features[start:stop], dtype=np.float64)
        except ValueError:  # rows of unequal length
            centered = None
        if centered is None or centered.shape[1:] != (model.dim,):
            raise ValidationError(
                f"feature rows {start} to {stop - 1} are not all of shape ({model.dim},)"
            )
        if not np.isfinite(centered).all():
            raise ValidationError("feature contains non-finite values")
        centered -= model.mean
        out[start:stop] = np.einsum("ij,ij->i", centered @ model.precision, centered)
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


@dataclass(frozen=True)
class DistanceAnnotatedOutcome:
    """Match outcome with one train2test distance per kept detection."""

    entries: tuple[AnnotatedEntry, ...]
    total_gt: int
    score_threshold: float

    def __post_init__(self) -> None:
        if self.total_gt < 0:
            raise ValidationError(f"total_gt must be >= 0, got {self.total_gt}")
        ids = [e.detection_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate detection id in annotated outcome")
        n_tp = sum(1 for e in self.entries if e.kind is Kind.TP)
        if n_tp > self.total_gt:
            raise ValidationError(f"{n_tp} true positives exceed total_gt = {self.total_gt}")

    def distances(self, kind: Kind) -> np.ndarray:
        return np.array([e.distance for e in self.entries if e.kind is kind], dtype=np.float64)


def annotate_distances(model: GaussianTrainModel, outcome: MatchOutcome) -> DistanceAnnotatedOutcome:
    """Attach a distance to every TP and FP detection of the outcome."""
    kept = [det for det, _ in outcome.true_positives] + list(outcome.false_positives)
    unbound = sorted(det.detection_id for det in kept if det.feature is None)
    if unbound:
        shown = ", ".join(unbound[:10]) + (", ..." if len(unbound) > 10 else "")
        raise BindingError(f"{len(unbound)} detections have no bound feature: {shown}")
    kinds = [Kind.TP] * len(outcome.true_positives) + [Kind.FP] * len(outcome.false_positives)
    distances = train2test_distances(model, [det.feature for det in kept])
    entries = [
        AnnotatedEntry(detection_id=det.detection_id, kind=kind, score=det.score, distance=d)
        for det, kind, d in zip(kept, kinds, distances.tolist())
    ]
    return DistanceAnnotatedOutcome(
        entries=tuple(entries),
        total_gt=outcome.total_gt,
        score_threshold=outcome.score_threshold,
    )


# ------------------------------------------------------------- model file I/O


def save_model(model: GaussianTrainModel, path) -> None:
    """Binary container: magic, u64 dim, f64 epsilon, u64 sample count, then
    mean, covariance, and precision as little-endian float64."""
    d = model.dim
    parts = [
        MODEL_MAGIC,
        _U64.pack(d),
        _F64.pack(model.regularization),
        _U64.pack(model.sample_count),
        np.ascontiguousarray(model.mean, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.covariance, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.precision, dtype="<f8").tobytes(),
    ]
    write_bytes(path, b"".join(parts))


def load_model(path) -> GaussianTrainModel:
    from pathlib import Path

    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    blob = path.read_bytes()
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:8]!r}")
    offset = len(MODEL_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise ParseError(f"{path}: truncated model file while reading {what}")
        out = blob[offset : offset + n]
        offset += n
        return out

    d = _U64.unpack(take(8, "dimension"))[0]
    eps = _F64.unpack(take(8, "epsilon"))[0]
    count = _U64.unpack(take(8, "sample count"))[0]
    if d < 1:
        raise ParseError(f"{path}: dimension must be >= 1, got {d}")
    mean = np.frombuffer(take(8 * d, "mean"), dtype="<f8").copy()
    cov = np.frombuffer(take(8 * d * d, "covariance"), dtype="<f8").reshape(d, d).copy()
    prec = np.frombuffer(take(8 * d * d, "precision"), dtype="<f8").reshape(d, d).copy()
    if offset != len(blob):
        raise ParseError(f"{path}: trailing bytes after model payload")
    return GaussianTrainModel(
        mean=mean, covariance=cov, precision=prec, regularization=eps, sample_count=count
    )
