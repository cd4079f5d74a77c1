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

import functools
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


@dataclass(frozen=True, eq=False)
class MatchOutcome:
    """Partition of detections into TP/FP and ground truth into matched/missed, as columns.

    ``kept`` holds the positions in ``dets`` of the detections kept at the
    score threshold, in rank order (-score, detection_id), and ``claims``
    the position in ``gts`` of the instance each one claimed, or -1 for a
    false positive. ``total_gt`` is the full instance count |X| of ``gts``,
    independent of the score threshold. The constructor checks that the kept
    detections are distinct and in rank order and that no instance is
    claimed twice.
    """

    dets: DetectionSet
    gts: GroundTruthSet
    kept: np.ndarray
    claims: np.ndarray

    def __post_init__(self) -> None:
        kept = np.asarray(self.kept, dtype=np.intp)
        claims = np.asarray(self.claims, dtype=np.intp)
        if kept.ndim != 1 or claims.shape != kept.shape:
            raise ValidationError(
                f"kept {kept.shape} and claims {claims.shape} must be 1-D columns of one length")
        if not np.all((0 <= kept) & (kept < len(self.dets))):
            raise ValidationError(f"kept positions must lie in [0, {len(self.dets)})")
        scores, rank = self.dets.scores[kept], self.dets.id_rank[kept]
        if not np.all((scores[:-1] > scores[1:])
                      | ((scores[:-1] == scores[1:]) & (rank[:-1] < rank[1:]))):
            raise ValidationError(
                "kept detections must be distinct and in rank order (-score, detection_id)")
        if not np.all((-1 <= claims) & (claims < len(self.gts))):
            raise ValidationError(f"claims must lie in [-1, {len(self.gts)})")
        claimed = np.sort(claims[claims >= 0])
        if np.any(claimed[1:] == claimed[:-1]):
            raise ValidationError("a ground-truth instance was claimed twice")
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "claims", claims)

    @property
    def total_gt(self) -> int:
        return len(self.gts)

    @functools.cached_property
    def true_positives(self) -> tuple[tuple[Detection, str], ...]:
        """Each matched detection, in rank order, with the instance id it claimed."""
        records, gt_ids = self.dets.detections, self.gts.ids
        return tuple((records[k], gt_ids[g])
                     for k, g in zip(self.kept.tolist(), self.claims.tolist()) if g >= 0)

    @functools.cached_property
    def false_positives(self) -> tuple[Detection, ...]:
        """The kept detections that claimed no instance, in rank order."""
        records = self.dets.detections
        return tuple(records[k] for k, g in zip(self.kept.tolist(), self.claims.tolist()) if g < 0)


def _edges(xywh: np.ndarray) -> np.ndarray:
    """One row (x, y, x + w, y + h, w * h) per (x, y, w, h) row, then an all-zero row for padding.

    The zero box overlaps no box, so index -1 pads a table with IoU 0.
    """
    edges = np.zeros((len(xywh) + 1, 5))
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


def _slots(image: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The position of each entry among the entries of its image, in entry
    order; ``count`` holds the number of entries per image."""
    order = np.argsort(image, kind="stable")
    slot = np.empty(len(image), dtype=np.intp)
    slot[order] = np.arange(len(image)) - (np.cumsum(count) - count)[image[order]]
    return slot


def _padded(image: np.ndarray, slot: np.ndarray, values: np.ndarray, place: np.ndarray,
            shape: tuple[int, int]) -> np.ndarray:
    """A -1-padded (images, width) array holding ``values[k]`` at
    (``place[image[k]]``, ``slot[k]``) for the entries on the bucket's images."""
    out = np.full(shape, -1, dtype=np.intp)
    at = place[image] >= 0
    out[place[image[at]], slot[at]] = values[at]
    return out


def _check_iou_threshold(iou_threshold: float) -> None:
    """Refuse an IoU threshold outside (0, 1]."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValidationError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")


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
    kept = np.flatnonzero(dets.scores >= score_threshold)
    kept = kept[np.lexsort((dets.id_rank[kept], -dets.scores[kept]))]
    gt_ids, gt_image = gts.ids, gts.image_index
    n_images = len(gts.images)
    det_image = np.array([gts._image_position.get(name, n_images) for name in dets.image_ids],
                         dtype=np.intp)[kept]
    # Rank positions of the kept detections on listed images, and their images.
    n_cols = np.bincount(gt_image, minlength=n_images + 1)  # 0 at the unlisted index
    ranks = np.flatnonzero(n_cols[det_image] > 0)
    row_image = det_image[ranks]
    n_rows = np.bincount(row_image, minlength=n_images + 1)
    row_slot = _slots(row_image, n_rows)
    # Instances by image, in ``instance_id`` order within each image.
    by_id = np.array(sorted(range(len(gt_ids)), key=gt_ids.__getitem__), dtype=np.intp)
    col_slot = np.empty(len(gt_ids), dtype=np.intp)
    col_slot[by_id] = _slots(gt_image[by_id], n_cols)

    # Images go in buckets by the bit lengths of their row and column counts,
    # so padding at most doubles each side of an image's cells.
    active = np.flatnonzero(n_rows > 0)
    keys = np.frexp(n_rows[active])[1] * 64 + np.frexp(n_cols[active])[1]
    det_edges = _edges(dets.boxes[kept])
    gt_edges = _edges(gts.boxes)
    blocks = []
    for key in sorted(set(keys.tolist())):  # np.unique would import numpy.ma
        images = active[keys == key]
        place = np.full(n_images + 1, -1, dtype=np.intp)
        place[images] = np.arange(len(images))
        rows = _padded(row_image, row_slot, ranks, place, (len(images), n_rows[images].max()))
        cols = _padded(gt_image, col_slot, np.arange(len(gt_ids)), place,
                       (len(images), n_cols[images].max()))
        blocks.append((rows, cols, _iou_table(rows, cols, det_edges, gt_edges)))

    def match(iou_threshold: float) -> MatchOutcome:
        _check_iou_threshold(iou_threshold)
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
        return MatchOutcome(dets=dets, gts=gts, kept=kept, claims=claims)

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
