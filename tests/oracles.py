"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written the slow, obvious way (explicit set
construction, nested loops, exact rationals) and shares no code with the
library paths it checks. The re-match references are the exception: they
compose the library's own primitives the slow way, once per score regime
and IoU threshold, as the library itself did before matching once, with
the pair-at-a-time greedy loop in place of the library's IoU table.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from t2tmetrics import (
    DEFAULT_SCORE_THRESHOLDS,
    IOU_GRID,
    AnnotatedEntry,
    Detection,
    DetectionSet,
    DistanceAnnotatedOutcome,
    GroundTruthInstance,
    GroundTruthSet,
    Kind,
    MatchOutcome,
    MetricReport,
    ValidationError,
    annotate_distances,
    ap_t2t,
    average_precision,
    iou,
)
from records import annotated_outcome, false_negatives, match_outcome


def ap_t2t_bruteforce(tp_distances, fp_distances, total_gt: int) -> float:
    """Float sweep: one precision term per TP entry, sets built explicitly."""
    total = 0.0
    for d in tp_distances:
        tp_in = sum(1 for x in tp_distances if x <= d)
        fp_in = sum(1 for x in fp_distances if x <= d)
        total += tp_in / (tp_in + fp_in)
    return total / total_gt


def ap_t2t_exact(tp_distances, fp_distances, total_gt: int) -> Fraction:
    """Same sweep in exact rational arithmetic."""
    total = Fraction(0)
    for d in tp_distances:
        tp_in = sum(1 for x in tp_distances if x <= d)
        fp_in = sum(1 for x in fp_distances if x <= d)
        total += Fraction(tp_in, tp_in + fp_in)
    return total / total_gt


def average_precision_enumeration(records, total_gt: int) -> Fraction:
    """records: (score, detection_id, is_tp); exact all-point AP by walking ranks."""
    ordered = sorted(records, key=lambda r: (-r[0], r[1]))
    total = Fraction(0)
    seen_tp = 0
    for rank, (_, _, is_tp) in enumerate(ordered, start=1):
        if is_tp:
            seen_tp += 1
            total += Fraction(seen_tp, rank)
    return total / total_gt


def match_detections_loop(
    dets: DetectionSet,
    gts: GroundTruthSet,
    iou_threshold: float = 0.5,
    score_threshold: float = 0.0,
) -> MatchOutcome:
    """Greedy best-IoU matching within each image, one detection and instance pair at a time.

    This is the library's ``match_detections`` from before it matched from an
    IoU table. Deterministic: equal scores are ordered by detection id, equal
    IoUs by instance id. An empty ground-truth set is a valid input (every
    kept detection becomes a false positive).
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValidationError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    if not 0.0 <= score_threshold <= 1.0:
        raise ValidationError(f"score_threshold must lie in [0, 1], got {score_threshold}")

    kept = [d for d in dets.detections if d.score >= score_threshold]
    kept.sort(key=lambda d: (-d.score, d.detection_id))

    by_image: dict[str, list[GroundTruthInstance]] = {}
    for inst in gts.instances:
        by_image.setdefault(inst.image_id, []).append(inst)
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
    return match_outcome(tps, fps, fns)


def ap_t2t_profile_rematch(model, dets, gts, score_thresholds=None, iou_thresholds=(0.5,)):
    """AP_t2t per regime, matching afresh for every regime and IoU threshold.

    Every IoU threshold is checked first. At each IoU threshold the match at
    the lowest regime threshold is annotated, and its error, if any, ends the
    profile. Each regime takes the distances of the detections it keeps from
    that annotation.
    """
    for iou_threshold in iou_thresholds:
        if not 0.0 < iou_threshold <= 1.0:
            raise ValidationError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    thresholds = DEFAULT_SCORE_THRESHOLDS if score_thresholds is None else score_thresholds
    base = min(thresholds.values())
    values = {name: [] for name in thresholds}
    for iou_threshold in iou_thresholds:
        annotated = annotate_distances(model, match_detections_loop(dets, gts, iou_threshold, base))
        distance = dict(zip(annotated.ids, annotated.dist.tolist()))
        for name, score_threshold in thresholds.items():
            outcome = match_detections_loop(dets, gts, iou_threshold, score_threshold)
            entries = [
                AnnotatedEntry(det.detection_id, kind, det.score, distance[det.detection_id])
                for kind, regime in ((Kind.TP, [det for det, _ in outcome.true_positives]),
                                     (Kind.FP, outcome.false_positives))
                for det in regime
            ]
            values[name].append(ap_t2t(annotated_outcome(entries, outcome.total_gt)))
    return {name: float(sum(v) / len(v)) for name, v in values.items()}


def ap_over_iou_range_rematch(dets, gts, score_threshold=0.0, iou_thresholds=IOU_GRID) -> float:
    values = [
        average_precision(match_detections_loop(dets, gts, t, score_threshold))
        for t in iou_thresholds
    ]
    return float(sum(values) / len(values))


def metric_report_rematch(model, dets, gts, score_thresholds, iou_threshold=0.5, iou_grid=False):
    """The report and base annotation of ``t2t evaluate``, each part matched on its own."""
    iou_thresholds = IOU_GRID if iou_grid else (iou_threshold,)
    profile = ap_t2t_profile_rematch(model, dets, gts, score_thresholds, iou_thresholds)
    base_score = min(score_thresholds.values())
    outcome = match_detections_loop(dets, gts, iou_threshold, base_score)
    report = MetricReport(
        ap=average_precision(outcome),
        ap_5095=ap_over_iou_range_rematch(dets, gts, base_score),
        ap_t2t_by_regime=profile,
        counts=(
            len(outcome.true_positives),
            len(outcome.false_positives),
            len(false_negatives(outcome)),
        ),
    )
    return report, annotate_distances(model, outcome)


def covariance_twopass(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Textbook two-pass mean and unbiased covariance with explicit loops."""
    n, d = X.shape
    mean = np.zeros(d)
    for i in range(n):
        for j in range(d):
            mean[j] += X[i, j]
    mean /= n
    cov = np.zeros((d, d))
    if n > 1:
        for a in range(d):
            for b in range(d):
                s = 0.0
                for i in range(n):
                    s += (X[i, a] - mean[a]) * (X[i, b] - mean[b])
                cov[a, b] = s / (n - 1)
    return mean, cov


def _dyadic(values) -> tuple[list[int], int]:
    """Integers n_i and one exponent k with float(values[i]) == n_i / 2**k exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (k - den.bit_length() + 1) for num, den in ratios], k


def train2test_distance_exact(model, feature) -> Fraction:
    """(x - mean)^T P (x - mean) in exact rationals over the float64 inputs.

    Every float64 is an integer over a power of two, so the double sum runs
    over integers with one common denominator, and the only division is the
    final ``Fraction``.
    """
    d = len(model.mean)
    nums, k = _dyadic(list(feature) + list(model.mean))
    v = [a - m for a, m in zip(nums[:d], nums[d:])]
    p, q = _dyadic(np.asarray(model.precision).ravel())
    total = sum(p[i * d + j] * v[i] * v[j] for i in range(d) for j in range(d))
    return Fraction(total, 2 ** (q + 2 * k))


def histogram_recount(values, edges) -> list[int]:
    """Per-bin recount: half-open bins, final bin closed on the right."""
    counts = [0] * (len(edges) - 1)
    for v in values:
        for b in range(len(edges) - 1):
            last = b == len(edges) - 2
            if edges[b] <= v < edges[b + 1] or (last and v == edges[b + 1]):
                counts[b] += 1
                break
    return counts


def make_random_annotated(
    rng: np.random.Generator,
    max_entries: int = 50,
    max_gt: int = 60,
    lattice: bool = False,
    ties: bool = True,
) -> DistanceAnnotatedOutcome:
    """Random annotated outcome; the lattice mode draws distances from k/8 so
    ties are common and downstream arithmetic on them stays exact.

    ``ties=False`` keeps continuous draws as they are (distinct almost
    surely), which matters for the monotone-improvement property: pulling a
    TP out of a tied cluster can legitimately lower its own precision term.
    """
    n_entries = int(rng.integers(1, max_entries + 1))
    n_tp = int(rng.integers(0, n_entries + 1))
    total_gt = int(rng.integers(max(n_tp, 1), max_gt + 1))
    if lattice:
        distances = rng.integers(0, 65, n_entries) / 8.0
    else:
        distances = rng.uniform(0.0, 100.0, n_entries)
        if ties and n_entries > 1 and rng.random() < 0.5:
            # clone a few distances to exercise tie handling
            src = rng.integers(0, n_entries, n_entries // 2)
            dst = rng.integers(0, n_entries, n_entries // 2)
            distances[dst] = distances[src]
    scores = rng.uniform(0.0, 1.0, n_entries)
    entries = tuple(
        AnnotatedEntry(
            detection_id=f"d{i:04d}",
            kind=Kind.TP if i < n_tp else Kind.FP,
            score=float(scores[i]),
            distance=float(distances[i]),
        )
        for i in range(n_entries)
    )
    return annotated_outcome(entries, total_gt)
