"""Greedy IoU assignment of detections to ground truth.

Detections at or above the score threshold are visited in order of
descending score (ties broken by detection id). Each one claims the still
unclaimed ground-truth instance in its image with the highest IoU, provided
that IoU reaches the threshold; otherwise it is a false positive. Instances
never claimed are false negatives.

Invariant (callers rely on it): for score thresholds s <= s', the outcome at
s' is the score >= s' prefix of the outcome at s. Its TP pairs, with their
claimed instances and in their order, and its FPs are those of the outcome at
s that score at least s', and its false negatives are every other instance.
This holds because detections scoring below s' are visited only after every
detection scoring at least s'. :mod:`.metrics` therefore matches once per IoU
threshold and derives each score regime by filtering.

Every IoU threshold of one run is matched from one IoU table
(:func:`iou_matcher`), as COCO's ``evaluateImg`` does: the IoUs are computed
once, and only the greedy step runs per threshold. Each table cell is the
float :func:`iou` returns for that pair, bit for bit.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import BoundingBox, Detection, DetectionSet, GroundTruthSet

# IoU thresholds 0.50, 0.55, ..., 0.95 used for averaged AP. Built from
# integer ratios so each grid point is the correctly rounded double.
IOU_GRID: tuple[float, ...] = tuple((50 + 5 * k) / 100 for k in range(10))

# Cells of the IoU table computed per step of its build. It bounds the build's
# temporaries, which hold this many cells each, however large an image is.
_CHUNK_CELLS = 1 << 13


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if ix <= 0:
        return 0.0
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    v = inter / (a.area + b.area - inter)
    # inter is recomputed from edge differences, so for (near-)identical boxes
    # rounding can push the ratio one ulp past 1; the true value never exceeds it.
    return v if v < 1.0 else 1.0


@dataclass(frozen=True)
class MatchOutcome:
    """Partition of detections into TP/FP and ground truth into matched/missed.

    ``true_positives`` pairs each matched detection with the instance id it
    claimed. ``total_gt`` is the full instance count |X|, independent of the
    score threshold.
    """

    true_positives: tuple[tuple[Detection, str], ...]
    false_positives: tuple[Detection, ...]
    false_negatives: tuple[str, ...]
    iou_threshold: float
    score_threshold: float
    total_gt: int

    def __post_init__(self) -> None:
        if len(self.true_positives) + len(self.false_negatives) != self.total_gt:
            raise ValidationError(
                f"|TP| + |FN| = {len(self.true_positives)} + {len(self.false_negatives)} "
                f"does not equal total_gt = {self.total_gt}"
            )
        det_ids = [d.detection_id for d, _ in self.true_positives]
        det_ids += [d.detection_id for d in self.false_positives]
        if len(set(det_ids)) != len(det_ids):
            raise ValidationError("a detection appears in both TP and FP (or twice)")
        claimed = [inst for _, inst in self.true_positives]
        if len(set(claimed)) != len(claimed):
            raise ValidationError("a ground-truth instance was claimed twice")
        if set(claimed) & set(self.false_negatives):
            raise ValidationError("an instance is both matched and missed")


def _edges(boxes: list[BoundingBox]) -> np.ndarray:
    """One row (x, y, x + w, y + h, w * h) per box, then an all-zero row for padding.

    The zero box overlaps no box, so index -1 pads a table with IoU 0.
    """
    values = itertools.chain.from_iterable((b.x, b.y, b.w, b.h) for b in boxes)
    xywh = np.fromiter(values, dtype=np.float64, count=4 * len(boxes)).reshape(-1, 4)
    edges = np.zeros((len(boxes) + 1, 5))
    edges[:-1, :2] = xywh[:, :2]
    np.add(xywh[:, :2], xywh[:, 2:], out=edges[:-1, 2:4])
    np.multiply(xywh[:, 2], xywh[:, 3], out=edges[:-1, 4])
    return edges


def _iou_cells(d: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """IoU of every row of ``d`` (k, n, 5) with every row of ``g`` (k, m, 5) into ``out`` (k, n, m).

    The rows are :func:`_edges` rows, and the operations are those of :func:`iou`
    in its order, so each cell is the float it returns.
    """
    d, g = d[:, :, None, :], g[:, None, :, :]
    # Cells with an empty intersection may overflow or divide by zero here; they
    # are set to 0 at the end, as iou returns 0 for them before dividing.
    with np.errstate(all="ignore"):
        np.minimum(d[..., 2], g[..., 2], out=out)
        out -= np.maximum(d[..., 0], g[..., 0])
        iy = np.minimum(d[..., 3], g[..., 3])
        iy -= np.maximum(d[..., 1], g[..., 1])
        empty = out <= 0
        empty |= iy <= 0
        out *= iy
        np.add(d[..., 4], g[..., 4], out=iy)
        iy -= out
        out /= iy
    # ``v if v < 1.0 else 1.0``, which also turns a NaN into 1.0
    np.copyto(out, 1.0, where=~(out < 1.0))
    np.copyto(out, 0.0, where=empty)


def _iou_table(rows: np.ndarray, cols: np.ndarray, det_edges: np.ndarray,
               gt_edges: np.ndarray) -> np.ndarray:
    """The (images, rows, cols) IoU table of padded detection and instance indices."""
    images, n = rows.shape
    m = cols.shape[1]
    table = np.empty((images, n, m))
    image_step = max(1, _CHUNK_CELLS // (n * m))
    row_step = max(1, _CHUNK_CELLS // m)
    for i in range(0, images, image_step):
        for r in range(0, n, row_step):
            chunk = (slice(i, i + image_step), slice(r, r + row_step))
            _iou_cells(det_edges[rows[chunk]], gt_edges[cols[chunk[0]]], table[chunk])
    return table


def iou_matcher(
    dets: DetectionSet,
    gts: GroundTruthSet,
    score_threshold: float = 0.0,
) -> Callable[[float], MatchOutcome]:
    """Compute the IoU table once; return ``match(iou_threshold)`` for any number of thresholds.

    ``match(t)`` equals ``match_detections(dets, gts, t, score_threshold)``,
    errors included. The table holds one padded (images, kept detections,
    instances) array per bucket of images of similar size, with detections
    in visiting order and instance columns in ``instance_id`` order, so that
    ``argmax`` takes the smallest instance id among tied IoUs. Detections on
    images without instances are false positives at every threshold and
    take no table row.
    """
    kept = [d for d in dets.detections if d.score >= score_threshold]
    kept.sort(key=lambda d: (-d.score, d.detection_id))
    ids = [inst.instance_id for inst in gts.instances]
    cols_of: dict[str, list[int]] = {}
    for k, inst in enumerate(gts.instances):
        cols_of.setdefault(inst.image_id, []).append(k)
    rows_of: dict[str, list[int]] = {}
    for k, det in enumerate(kept):
        if det.image_id in cols_of:
            rows_of.setdefault(det.image_id, []).append(k)

    # Images go in buckets by the bit lengths of their row and column counts,
    # so padding at most doubles each side of an image's cells.
    buckets: dict[tuple[int, int], list[tuple[list[int], list[int]]]] = {}
    for image, rows in rows_of.items():
        # Python's string order: numpy strings drop trailing NULs.
        cols = sorted(cols_of[image], key=ids.__getitem__)
        buckets.setdefault((len(rows).bit_length(), len(cols).bit_length()), []).append((rows, cols))
    det_edges = _edges([d.box for d in kept])
    gt_edges = _edges([inst.box for inst in gts.instances])
    blocks = []
    for images in buckets.values():
        rows = np.full((len(images), max(len(r) for r, _ in images)), -1, dtype=np.intp)
        cols = np.full((len(images), max(len(c) for _, c in images)), -1, dtype=np.intp)
        for i, (r, c) in enumerate(images):
            rows[i, :len(r)] = r
            cols[i, :len(c)] = c
        blocks.append((rows, cols, _iou_table(rows, cols, det_edges, gt_edges)))

    def match(iou_threshold: float) -> MatchOutcome:
        if not 0.0 < iou_threshold <= 1.0:
            raise ValidationError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
        if not 0.0 <= score_threshold <= 1.0:
            raise ValidationError(f"score_threshold must lie in [0, 1], got {score_threshold}")
        claims = np.full(len(kept), -1, dtype=np.intp)  # instance claimed per kept detection
        for rows, cols, table in blocks:
            free = np.ones(cols.shape)  # 0.0 once an instance is claimed
            images = np.arange(len(rows))
            # Rank r of every image at once: IoUs are >= 0 and the threshold
            # is > 0, so a claimed column (scaled to 0) is never accepted.
            for r in range(rows.shape[1]):
                iou_row = table[:, r] * free
                best = iou_row.argmax(axis=1)
                hit = iou_row[images, best] >= iou_threshold
                at, best = images[hit], best[hit]
                free[at, best] = 0.0
                claims[rows[at, r]] = cols[at, best]
        claimed = claims.tolist()
        taken = set(claimed)
        return MatchOutcome(
            true_positives=tuple((det, ids[k]) for det, k in zip(kept, claimed) if k >= 0),
            false_positives=tuple(det for det, k in zip(kept, claimed) if k < 0),
            false_negatives=tuple(i for k, i in enumerate(ids) if k not in taken),
            iou_threshold=iou_threshold,
            score_threshold=score_threshold,
            total_gt=len(ids),
        )

    return match


def match_detections(
    dets: DetectionSet,
    gts: GroundTruthSet,
    iou_threshold: float = 0.5,
    score_threshold: float = 0.0,
) -> MatchOutcome:
    """Greedy best-IoU matching within each image.

    Deterministic: equal scores are ordered by detection id, equal IoUs by
    instance id. An empty ground-truth set is a valid input (every kept
    detection becomes a false positive). To match several IoU thresholds,
    build one :func:`iou_matcher` and call it per threshold.
    """
    return iou_matcher(dets, gts, score_threshold)(iou_threshold)
