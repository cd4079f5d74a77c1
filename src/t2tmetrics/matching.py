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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import BoundingBox, Detection, DetectionSet, GroundTruthSet, _ColumnView

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
class _Claims:
    """A match outcome as columns, in rank order (-score, detection_id).

    ``kept`` holds the positions in ``dets`` of the kept detections in rank
    order, and ``claims`` the position in ``gt_ids`` of the instance each one
    claimed, or -1 for a false positive. Every outcome has this one order,
    whether the matcher made it or its constructor did.
    """

    dets: DetectionSet
    kept: np.ndarray
    claims: np.ndarray
    gt_ids: list[str]


def _rank_order(dets: DetectionSet, at: np.ndarray) -> np.ndarray:
    """The order of the detections at positions ``at`` by (-score, detection_id)."""
    cols = dets._cols
    return np.lexsort((cols.id_rank[at], -cols.scores[at]))


@dataclass(frozen=True)
class MatchOutcome(_ColumnView):
    """Partition of detections into TP/FP and ground truth into matched/missed.

    ``true_positives`` pairs each matched detection with the instance id it
    claimed. ``total_gt`` is the full instance count |X|, independent of the
    score threshold. Every outcome holds the claim of each kept detection in
    rank order; an outcome of :func:`iou_matcher` builds its three tuples only
    when a caller reads them.
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
        dets = DetectionSet(detections=tuple(d for d, _ in self.true_positives) + self.false_positives)
        kept = _rank_order(dets, np.arange(len(dets)))
        object.__setattr__(self, "_cols", _Claims(
            dets=dets, kept=kept, claims=np.where(kept < len(self.true_positives), kept, -1),
            gt_ids=claimed + list(self.false_negatives)))

    def _field_of_columns(self, name: str) -> tuple:
        cols = self._cols
        claims = cols.claims.tolist()
        if name == "false_negatives":
            taken = set(claims)
            return tuple(i for k, i in enumerate(cols.gt_ids) if k not in taken)
        objects = cols.dets.detections
        kept = [objects[k] for k in cols.kept.tolist()]
        if name == "true_positives":
            return tuple((det, cols.gt_ids[g]) for det, g in zip(kept, claims) if g >= 0)
        return tuple(det for det, g in zip(kept, claims) if g < 0)


def _prefix(outcome: MatchOutcome, score_threshold: float) -> MatchOutcome:
    """The outcome of the same matching at a score threshold at or above
    ``outcome``'s, which the prefix invariant makes its score >= threshold prefix."""
    cols = outcome._cols
    n = int(np.count_nonzero(cols.dets._cols.scores[cols.kept] >= score_threshold))
    return MatchOutcome._view(
        _Claims(dets=cols.dets, kept=cols.kept[:n], claims=cols.claims[:n], gt_ids=cols.gt_ids),
        iou_threshold=outcome.iou_threshold,
        score_threshold=score_threshold,
        total_gt=outcome.total_gt,
    )


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
    det_cols, gt_cols = dets._cols, gts._cols
    kept = np.flatnonzero(det_cols.scores >= score_threshold)
    kept = kept[_rank_order(dets, kept)]
    gt_ids = gt_cols.ids
    n_images = len(gts.images)
    image_of = {im.id: k for k, im in enumerate(gts.images)}
    det_image = np.array([image_of.get(name, n_images) for name in det_cols.image_names],
                         dtype=np.intp)[det_cols.image[kept]]
    # Rank positions of the kept detections on listed images, and their images.
    n_cols = np.bincount(gt_cols.image, minlength=n_images + 1)  # 0 at the unlisted index
    ranks = np.flatnonzero(n_cols[det_image] > 0)
    row_image = det_image[ranks]
    n_rows = np.bincount(row_image, minlength=n_images + 1)
    row_slot = _slots(row_image, n_rows)
    # Instances by image, in ``instance_id`` order within each image.
    by_id = np.argsort(gt_cols.id_rank)
    col_slot = np.empty(len(gt_ids), dtype=np.intp)
    col_slot[by_id] = _slots(gt_cols.image[by_id], n_cols)

    # Images go in buckets by the bit lengths of their row and column counts,
    # so padding at most doubles each side of an image's cells.
    active = np.flatnonzero(n_rows > 0)
    keys = np.frexp(n_rows[active])[1] * 64 + np.frexp(n_cols[active])[1]
    det_edges = _edges(det_cols.boxes[kept])
    gt_edges = _edges(gt_cols.boxes)
    blocks = []
    for key in np.unique(keys):
        images = active[keys == key]
        place = np.full(n_images + 1, -1, dtype=np.intp)
        place[images] = np.arange(len(images))
        rows = _padded(row_image, row_slot, ranks, place, (len(images), n_rows[images].max()))
        cols = _padded(gt_cols.image, col_slot, np.arange(len(gt_ids)), place,
                       (len(images), n_cols[images].max()))
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
        return MatchOutcome._view(
            _Claims(dets=dets, kept=kept, claims=claims, gt_ids=gt_ids),
            iou_threshold=iou_threshold,
            score_threshold=score_threshold,
            total_gt=len(gt_ids),
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
