"""Synthetic detection scenarios with planted geometry and planted distances.

The generator plants a training Gaussian (unit variance around a random
mean) and draws detection features from isotropic Gaussians whose centers
sit at a controlled offset from the training mean. With unit training
variance the expected squared train2test distance of a detection is
``distance_scale * feature_dim``: three quarters of it from the offset, one
quarter from the isotropic jitter.

Boxes live on a grid. Every planted TP box overlaps exactly its own
ground-truth box with IoU >= 0.77; planted FP boxes sit in a separate band
and overlap nothing. Features are quantized to float32 on generation, the
precision of the public container, so in-memory objects and files written
through :meth:`Scenario.write` agree exactly.

All randomness comes from a 64-bit counter-based generator (Philox) seeded
from the scenario seed; the same seed always reproduces byte-identical
files.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .feature_model import GaussianTrainModel
from .fsio import _shown, decode
from .ingest import (
    DetectionSet,
    FeatureMatrix,
    GroundTruthSet,
    ImageInfo,
    bind_features,
    write_detections,
    write_feature_matrix,
    write_ground_truth,
)

_BOX = 32.0
_CELL = 64.0
_GRID_COLS = 5
_GRID_ROWS = 5
_SLOTS_PER_IMAGE = _GRID_COLS * _GRID_ROWS
_FP_BAND_OFFSET = _GRID_ROWS * _CELL + _CELL
_IMAGE_W = int(_GRID_COLS * _CELL + _CELL / 2)
_IMAGE_H = int(_FP_BAND_OFFSET + _GRID_ROWS * _CELL + _CELL / 2)
_MAX_BOX_JITTER = 4.0

# Upper bounds on a spec: generation makes one id string per instance,
# detection and training row, and holds the boxes and feature matrices in memory.
_MAX_COUNT = 10**7
_MAX_MATRIX_VALUES = 2**31

# A feature value is a N(0, 1) mean value plus at most sqrt(0.75 * scale * dim) plus
# sqrt(0.25 * scale) times a N(0, 1) draw. With scale * dim <= _F32_MAX each root is
# below sqrt(_F32_MAX) ~ 1.8e19, and no normal draw nears 1e19: it is finite in float32.
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of a planted scenario."""

    n_gt: int = 40
    n_tp: int = 30
    n_fp: int = 15
    feature_dim: int = 8
    tp_distance_scale: float = 1.0
    fp_distance_scale: float = 9.0
    tp_score_range: tuple[float, float] = (0.5, 1.0)
    fp_score_range: tuple[float, float] = (0.02, 0.8)
    seed: int = 0
    n_train: int = 80

    def __post_init__(self) -> None:
        for name, low in (("n_gt", 1), ("n_fp", 0), ("n_train", 2)):
            value = getattr(self, name)
            if not low <= value <= _MAX_COUNT:
                raise ValidationError(
                    f"{name} must lie in [{low}, {_MAX_COUNT}], got {_shown(value)}"
                )
        if not 0 <= self.n_tp <= self.n_gt:
            raise ValidationError(f"n_tp must lie in [0, n_gt], got {_shown(self.n_tp)}")
        if self.n_tp + self.n_fp < 1:
            raise ValidationError(f"n_tp + n_fp must be >= 1, got {self.n_tp + self.n_fp}")
        if self.feature_dim < 1:
            raise ValidationError(f"feature_dim must be >= 1, got {_shown(self.feature_dim)}")
        for name, rows, what in (
            ("test", self.n_tp + self.n_fp, "(n_tp + n_fp)"), ("training", self.n_train, "n_train")
        ):
            if rows * self.feature_dim > _MAX_MATRIX_VALUES:
                raise ValidationError(
                    f"the {name} feature matrix {what} x feature_dim = {rows} x "
                    f"{_shown(self.feature_dim)} exceeds {_MAX_MATRIX_VALUES} values"
                )
        for name in ("tp_distance_scale", "fp_distance_scale"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"{name} must be finite and > 0, got {value}")
            if value * self.feature_dim > _F32_MAX:
                raise ValidationError(f"{name} x feature_dim must be <= {_F32_MAX!r}, "
                                      f"got {value} x {_shown(self.feature_dim)}")
        for name in ("tp_score_range", "fp_score_range"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not all(math.isfinite(v) for v in pair):
                raise ValidationError(f"{name} must be a (min, max) pair")
            lo, hi = pair
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValidationError(f"{name} must satisfy 0 <= min <= max <= 1, got {pair}")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    @classmethod
    def from_dict(cls, raw: dict) -> ScenarioSpec:
        return decode(cls, raw, "scenario spec")

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass(frozen=True, eq=False)
class Scenario:
    """Generated ground truth, detections with bound features, and training rows."""

    spec: ScenarioSpec
    ground_truth: GroundTruthSet
    detections: DetectionSet
    train_features: FeatureMatrix
    test_features: FeatureMatrix
    planted_mean: np.ndarray
    tp_detection_ids: frozenset[str]

    def planted_model(self) -> GaussianTrainModel:
        """The exact planted Gaussian, unit variance around ``planted_mean``, not fitted."""
        d = self.spec.feature_dim
        return GaussianTrainModel(
            mean=self.planted_mean.copy(),
            covariance=np.eye(d),
            precision=np.eye(d),
            regularization=0.0,
            sample_count=self.spec.n_train,
        )

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Write the four public artifacts; re-running is byte-identical."""
        out_dir = Path(out_dir)
        paths = {
            "ground_truth": out_dir / "ground_truth.json",
            "detections": out_dir / "detections.json",
            "features": out_dir / "features.t2tfeat",
            "train_features": out_dir / "train_features.t2tfeat",
        }
        write_ground_truth(self.ground_truth, paths["ground_truth"])
        write_detections(self.detections, paths["detections"])
        write_feature_matrix(self.test_features, paths["features"])
        write_feature_matrix(self.train_features, paths["train_features"])
        return paths


def _f32(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def _unit_rows(g: np.ndarray) -> np.ndarray:
    if g.size == 0:
        return g
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericalError("degenerate zero-norm direction draw")
    return g / norms


def _slot_boxes(n: int, image_ids: list[str],
                band_offset: float) -> tuple[list[str], np.ndarray]:
    """The image id and the (x, y, w, h) box of slots 0..n-1: with k images,
    slot i is grid cell i // k, row by row, of image i % k."""
    index = np.arange(n)
    row, col = np.divmod(index // len(image_ids), _GRID_COLS)
    boxes = np.full((n, 4), _BOX)
    boxes[:, 0] = _CELL / 4 + col * _CELL
    boxes[:, 1] = _CELL / 4 + row * _CELL + band_offset
    return [image_ids[k] for k in (index % len(image_ids)).tolist()], boxes


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    """Deterministically expand a spec into data with known structure."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    dim = spec.feature_dim

    planted_mean = rng.normal(0.0, 1.0, dim)
    train = _f32(planted_mean + rng.normal(0.0, 1.0, (spec.n_train, dim)))

    # Offset norm and jitter sized so the expected squared distance from the
    # planted unit-variance Gaussian is distance_scale * dim.
    def draw_features(n: int, scale: float) -> np.ndarray:
        directions = _unit_rows(rng.normal(0.0, 1.0, (n, dim)))
        jitter = rng.normal(0.0, 1.0, (n, dim))
        offset_len = math.sqrt(0.75 * scale * dim)
        jitter_std = math.sqrt(0.25 * scale)
        return _f32(planted_mean + offset_len * directions + jitter_std * jitter)

    tp_features = draw_features(spec.n_tp, spec.tp_distance_scale)
    tp_jitter = rng.uniform(0.0, _MAX_BOX_JITTER, spec.n_tp)
    tp_scores = rng.uniform(*spec.tp_score_range, spec.n_tp)
    fp_features = draw_features(spec.n_fp, spec.fp_distance_scale)
    fp_scores = rng.uniform(*spec.fp_score_range, spec.n_fp)

    n_images = -(-max(spec.n_gt, spec.n_fp) // _SLOTS_PER_IMAGE)
    images = tuple(
        ImageInfo(id=f"img-{i:04d}", file_name=f"img-{i:04d}.png",
                  width=_IMAGE_W, height=_IMAGE_H)
        for i in range(n_images)
    )

    image_ids = [im.id for im in images]
    gt_image, gt_boxes = _slot_boxes(spec.n_gt, image_ids, band_offset=0.0)
    fp_image, fp_boxes = _slot_boxes(spec.n_fp, image_ids, band_offset=_FP_BAND_OFFSET)
    tp_boxes = gt_boxes[: spec.n_tp].copy()
    tp_boxes[:, 0] += tp_jitter
    tp_ids = [f"tp-{i:05d}" for i in range(spec.n_tp)]
    det_ids = tp_ids + [f"fp-{i:05d}" for i in range(spec.n_fp)]
    detections = DetectionSet(
        ids=det_ids,
        image_ids=gt_image[: spec.n_tp] + fp_image,
        boxes=np.concatenate([tp_boxes, fp_boxes]),
        scores=np.concatenate([tp_scores, fp_scores]),
    )
    test_features = FeatureMatrix(
        data=np.concatenate([tp_features, fp_features]), row_ids=tuple(det_ids)
    )

    return Scenario(
        spec=spec,
        ground_truth=GroundTruthSet(
            images=images, ids=[f"gt-{i:05d}" for i in range(spec.n_gt)],
            image_ids=gt_image, boxes=gt_boxes,
        ),
        detections=bind_features(detections, test_features),
        train_features=FeatureMatrix(
            data=train, row_ids=tuple(f"train-{i:05d}" for i in range(spec.n_train))
        ),
        test_features=test_features,
        planted_mean=planted_mean,
        tp_detection_ids=frozenset(tp_ids),
    )


def shrink_tp_distances(scenario: Scenario, factor: float) -> Scenario:
    """Move planted TP features toward the training mean.

    Scales every planted TP distance by ``factor`` (up to float32
    quantization): the feature moves to mean + sqrt(factor) * (feature - mean).
    ``factor=1.0`` returns the scenario unchanged; the limit factor -> 0 puts
    every TP feature exactly on the planted mean.
    """
    if not math.isfinite(factor) or not 0.0 <= factor <= 1.0:
        raise ValidationError(f"shrink factor must lie in [0, 1], got {factor}")
    if factor == 1.0:
        return scenario
    mean = scenario.planted_mean
    row_ids = scenario.test_features.row_ids
    tp = np.array([row_id in scenario.tp_detection_ids for row_id in row_ids], dtype=bool)
    data = np.array(scenario.test_features.data, dtype=np.float64)
    data[tp] = _f32(mean + math.sqrt(factor) * (data[tp] - mean))
    test_features = FeatureMatrix(data=data, row_ids=row_ids)
    return replace(scenario, detections=bind_features(scenario.detections, test_features),
                   test_features=test_features)
