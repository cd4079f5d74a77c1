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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .ingest import BoundingBox, Detection, DetectionSet, GroundTruthSet

# IoU thresholds 0.50, 0.55, ..., 0.95 used for averaged AP. Built from
# integer ratios so each grid point is the correctly rounded double.
IOU_GRID: tuple[float, ...] = tuple((50 + 5 * k) / 100 for k in range(10))


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


def match_detections(
    dets: DetectionSet,
    gts: GroundTruthSet,
    iou_threshold: float = 0.5,
    score_threshold: float = 0.0,
) -> MatchOutcome:
    """Greedy best-IoU matching within each image.

    Deterministic: equal scores are ordered by detection id, equal IoUs by
    instance id. An empty ground-truth set is a valid input (every kept
    detection becomes a false positive).
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValidationError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    if not 0.0 <= score_threshold <= 1.0:
        raise ValidationError(f"score_threshold must lie in [0, 1], got {score_threshold}")

    kept = [d for d in dets.detections if d.score >= score_threshold]
    kept.sort(key=lambda d: (-d.score, d.detection_id))

    by_image = gts.instances_by_image()
    claimed: set[str] = set()
    tps: list[tuple[Detection, str]] = []
    fps: list[Detection] = []
    for det in kept:
        best_iou = 0.0
        best_id: str | None = None
        for inst in by_image.get(det.image_id, ()):
            if inst.instance_id in claimed:
                continue
            overlap = iou(det.box, inst.box)
            if overlap < iou_threshold:
                continue
            if overlap > best_iou or (overlap == best_iou and
                                      (best_id is None or inst.instance_id < best_id)):
                best_iou = overlap
                best_id = inst.instance_id
        if best_id is None:
            fps.append(det)
        else:
            claimed.add(best_id)
            tps.append((det, best_id))

    fns = tuple(inst.instance_id for inst in gts.instances if inst.instance_id not in claimed)
    return MatchOutcome(
        true_positives=tuple(tps),
        false_positives=tuple(fps),
        false_negatives=fns,
        iou_threshold=iou_threshold,
        score_threshold=score_threshold,
        total_gt=len(gts.instances),
    )
