"""Precision/recall and average-precision metrics, score-ranked and distance-ranked.

Score-side definitions keep a detection when its score is at or above the
threshold. The distance-ranked variants flip the inequality: a detection is
kept when its train2test distance is at or below the threshold, so walking
the thresholds upward admits detections from nearest to farthest.

AP_t2t averages the distance-ranked precision over one threshold per true
positive entry: tied distances contribute one term each, all evaluated at
the shared threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import T2TError, UndefinedMetricError, ValidationError
from .feature_model import (
    AnnotatedEntry,
    DistanceAnnotatedOutcome,
    GaussianTrainModel,
    Kind,
    annotate_distances,
)
from .ingest import DetectionSet, GroundTruthSet
from .matching import IOU_GRID, MatchOutcome, match_detections

# Score thresholds naming the three detection regimes: every candidate with a
# minimal score, the above-medium-confidence subset, and the high-confidence
# subset.
DEFAULT_SCORE_THRESHOLDS: dict[str, float] = {"all": 0.01, "med": 0.1, "high": 0.5}

# AP sums are ratios of small integers. Up to this many entries they are
# accumulated as exact rationals and rounded once at the end, which keeps the
# result independent of summation order; beyond it, float summation.
_EXACT_SUM_LIMIT = 4096


def _ratio_mean(ratios: list[tuple[int, int]], denominator: int) -> float:
    """sum(n/d for n, d in ratios) / denominator, correctly rounded when small."""
    if len(ratios) <= _EXACT_SUM_LIMIT:
        total = sum((Fraction(n, d) for n, d in ratios), Fraction(0))
        return float(total / denominator)
    return float(sum(n / d for n, d in ratios) / denominator)


def _mean(values: list[float]) -> float:
    """Mean of per-IoU-threshold values, summed in threshold order."""
    return float(sum(values) / len(values))


def _check_unit_interval(value: float, what: str) -> float:
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{what} must lie in [0, 1], got {value}")
    return value


def precision_recall(
    annotated: DistanceAnnotatedOutcome, score_threshold: float
) -> tuple[float | None, float]:
    """Precision and recall over entries with score >= threshold.

    Precision is None when no entry passes the threshold (the undefined 0/0
    case is signalled, not defaulted). Recall over an empty instance set is
    reported as 0.0.
    """
    _check_unit_interval(score_threshold, "score_threshold")
    tp = sum(1 for e in annotated.entries if e.kind is Kind.TP and e.score >= score_threshold)
    fp = sum(1 for e in annotated.entries if e.kind is Kind.FP and e.score >= score_threshold)
    recall = tp / annotated.total_gt if annotated.total_gt > 0 else 0.0
    if tp + fp == 0:
        return None, recall
    return tp / (tp + fp), recall


def t2t_precision_recall(
    annotated: DistanceAnnotatedOutcome, distance_threshold: float
) -> tuple[float | None, float]:
    """Precision and recall over entries with distance <= threshold (inclusive)."""
    if not np.isfinite(distance_threshold) or distance_threshold < 0:
        raise ValidationError(
            f"distance_threshold must be finite and >= 0, got {distance_threshold}"
        )
    tp = sum(1 for e in annotated.entries if e.kind is Kind.TP and e.distance <= distance_threshold)
    fp = sum(1 for e in annotated.entries if e.kind is Kind.FP and e.distance <= distance_threshold)
    recall = tp / annotated.total_gt if annotated.total_gt > 0 else 0.0
    if tp + fp == 0:
        return None, recall
    return tp / (tp + fp), recall


def average_precision(outcome: MatchOutcome) -> float:
    """All-point AP: mean over ground truth of the precision at each TP entry.

    Entries are ranked by descending score, ties broken by detection id. The
    precision at a TP entry in rank position k is (TPs among the first k) / k.
    """
    if outcome.total_gt == 0:
        raise UndefinedMetricError("average precision is undefined without ground truth")
    ranked = [(det.score, det.detection_id, True) for det, _ in outcome.true_positives]
    ranked += [(det.score, det.detection_id, False) for det in outcome.false_positives]
    ranked.sort(key=lambda t: (-t[0], t[1]))
    cum_tp = 0
    terms: list[tuple[int, int]] = []
    for position, (_, _, is_tp) in enumerate(ranked, start=1):
        if is_tp:
            cum_tp += 1
            terms.append((cum_tp, position))
    return _ratio_mean(terms, outcome.total_gt)


def ap_over_iou_range(
    dets: DetectionSet,
    gts: GroundTruthSet,
    score_threshold: float = 0.0,
    iou_thresholds: tuple[float, ...] = IOU_GRID,
) -> float:
    """Mean AP over an IoU threshold grid (default 0.50:0.05:0.95)."""
    if not iou_thresholds:
        raise ValidationError("iou_thresholds must not be empty")
    return _mean([
        average_precision(match_detections(dets, gts, t, score_threshold))
        for t in iou_thresholds
    ])


def ap_t2t(annotated: DistanceAnnotatedOutcome) -> float:
    """Distance-ranked average precision.

    One precision term per TP entry, evaluated at that entry's distance with
    the inclusive <= rule; the sum is divided by the total instance count.
    Zero TP entries give 0.0; an empty instance set is undefined. The value
    depends on the distances only through their ordering (ties included).
    """
    if annotated.total_gt == 0:
        raise UndefinedMetricError("AP_t2t is undefined without ground truth")
    tp_d = np.sort(annotated.distances(Kind.TP))
    if tp_d.size == 0:
        return 0.0
    all_d = np.sort(np.array([e.distance for e in annotated.entries], dtype=np.float64))
    tp_within = np.searchsorted(tp_d, tp_d, side="right")
    all_within = np.searchsorted(all_d, tp_d, side="right")
    terms = [(int(t), int(a)) for t, a in zip(tp_within, all_within)]
    return _ratio_mean(terms, annotated.total_gt)


class RegimeError(T2TError):
    """At least one score regime failed; successful regimes are preserved.

    Attributes:
        results: regime name -> AP_t2t for the regimes that succeeded.
        failures: regime name -> the exception that stopped that regime.
    """

    def __init__(self, results: dict[str, float], failures: dict[str, T2TError]):
        self.results = results
        self.failures = failures
        detail = "; ".join(f"{name}: {exc}" for name, exc in failures.items())
        super().__init__(f"{len(failures)} regime(s) failed: {detail}")


def _score_prefix(outcome: MatchOutcome, score_threshold: float) -> MatchOutcome:
    """The outcome ``match_detections`` gives at a higher score threshold.

    By the prefix invariant of :mod:`.matching` the kept TP pairs and FPs are
    exact; the false negatives gain the instances of the dropped TPs at the
    end, not in ground-truth order.
    """
    if score_threshold <= outcome.score_threshold:
        return outcome
    return MatchOutcome(
        true_positives=tuple(p for p in outcome.true_positives if p[0].score >= score_threshold),
        false_positives=tuple(d for d in outcome.false_positives if d.score >= score_threshold),
        false_negatives=outcome.false_negatives + tuple(
            inst for det, inst in outcome.true_positives if det.score < score_threshold
        ),
        iou_threshold=outcome.iou_threshold,
        score_threshold=score_threshold,
        total_gt=outcome.total_gt,
    )


class _RegimeSweep:
    """AP_t2t per score regime, fed one matching per IoU threshold.

    Every matching runs at the lowest regime threshold; a regime keeps the
    entries scoring at or above its own threshold. Distances depend on the
    detection alone, so they are computed once, from the first outcome, and
    every later IoU threshold only relabels detections as TP or FP. The
    constructor validates its inputs as :func:`ap_t2t_profile` documents.
    """

    def __init__(
        self,
        model: GaussianTrainModel,
        dets: DetectionSet,
        gts: GroundTruthSet,
        score_thresholds: dict[str, float] | None,
        iou_thresholds: tuple[float, ...],
    ):
        thresholds = DEFAULT_SCORE_THRESHOLDS if score_thresholds is None else score_thresholds
        if not thresholds:
            raise ValidationError("score_thresholds must not be empty")
        for name, value in thresholds.items():
            _check_unit_interval(value, f"score threshold {name!r}")
        if not iou_thresholds:
            raise ValidationError("iou_thresholds must not be empty")
        if len(gts.instances) == 0:
            raise UndefinedMetricError("AP_t2t is undefined without ground truth")
        self.model = model
        self.dets = dets
        self.gts = gts
        self.thresholds = thresholds
        self.base = min(thresholds.values())
        self.values: dict[str, list[float]] = {name: [] for name in thresholds}
        self.failures: dict[str, T2TError] = {}
        self.distances: dict[str, float] | None = None

    def _live(self) -> list[str]:
        return [name for name in self.thresholds if name not in self.failures]

    def add(self, iou_threshold: float) -> MatchOutcome | None:
        """Match at one IoU threshold and add its AP_t2t to each live regime.

        Returns the base-threshold outcome, or None once every regime failed.
        """
        live = self._live()
        if not live:
            return None
        try:
            outcome = match_detections(self.dets, self.gts, iou_threshold, self.base)
        except T2TError as exc:
            self.failures.update(dict.fromkeys(live, exc))
            return None
        if self.distances is None:
            self._annotate(outcome, live)
            live = self._live()
            if not live:
                return None
        entries = self.annotated(outcome, min(self.thresholds[n] for n in live)).entries
        for name in live:
            threshold = self.thresholds[name]
            kept = tuple(e for e in entries if e.score >= threshold)
            self.values[name].append(
                ap_t2t(DistanceAnnotatedOutcome(kept, outcome.total_gt, threshold))
            )
        return outcome

    def _annotate(self, outcome: MatchOutcome, live: list[str]) -> None:
        """Distances of the lowest live regime whose detections all get one.

        Regimes are nested by threshold, so every regime above that one
        succeeds too. Each regime below it fails with the error that
        annotating its own kept detections raises.
        """
        for name in sorted(live, key=self.thresholds.__getitem__):
            try:
                annotated = annotate_distances(
                    self.model, _score_prefix(outcome, self.thresholds[name])
                )
            except T2TError as exc:
                self.failures[name] = exc
                continue
            self.distances = {e.detection_id: e.distance for e in annotated.entries}
            return

    def annotated(self, outcome: MatchOutcome, score_threshold: float) -> DistanceAnnotatedOutcome:
        """What ``annotate_distances`` gives for the outcome cut at the threshold."""
        distances = self.distances
        entries = [
            AnnotatedEntry(det.detection_id, Kind.TP, det.score, distances[det.detection_id])
            for det, _ in outcome.true_positives
            if det.score >= score_threshold
        ]
        entries += [
            AnnotatedEntry(det.detection_id, Kind.FP, det.score, distances[det.detection_id])
            for det in outcome.false_positives
            if det.score >= score_threshold
        ]
        return DistanceAnnotatedOutcome(tuple(entries), outcome.total_gt, score_threshold)

    def result(self) -> dict[str, float]:
        """Regime name -> AP_t2t averaged over the IoU thresholds added."""
        results = {
            name: _mean(values)
            for name, values in self.values.items()
            if name not in self.failures
        }
        if self.failures:
            failures = {name: self.failures[name] for name in self.thresholds if name in self.failures}
            raise RegimeError(results, failures)
        return results


def ap_t2t_profile(
    model: GaussianTrainModel,
    dets: DetectionSet,
    gts: GroundTruthSet,
    score_thresholds: dict[str, float] | None = None,
    iou_thresholds: tuple[float, ...] = (0.5,),
) -> dict[str, float]:
    """AP_t2t per score regime; regimes are score filters of one matching.

    Each IoU threshold is matched once, at the lowest regime threshold, and
    each kept detection gets its distance once. A regime keeps the entries
    scoring at or above its own threshold, which by the prefix invariant of
    :mod:`.matching` is exactly the outcome of matching at that threshold.
    The instance count |X| comes from the ground truth alone, so it is the
    same in every regime. With several IoU thresholds the per-regime value is
    the mean over the grid, summed in grid order. A regime fails only through
    its own kept detections, so a detection without a feature that scores
    below a regime's threshold does not fail that regime; if any regime
    fails, a RegimeError carrying the partial results is raised after all
    regimes were attempted.
    """
    sweep = _RegimeSweep(model, dets, gts, score_thresholds, iou_thresholds)
    for iou_threshold in iou_thresholds:
        sweep.add(iou_threshold)
    return sweep.result()


@dataclass(frozen=True)
class MetricReport:
    """Headline numbers of one evaluation run.

    ``ap``, ``ap_5095``, and ``counts`` are computed at the base (lowest)
    score threshold; ``ap_t2t_by_regime`` holds one value per regime.
    """

    ap: float
    ap_5095: float
    ap_t2t_by_regime: dict[str, float] = field(default_factory=dict)
    counts: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self) -> None:
        for what, value in (("ap", self.ap), ("ap_5095", self.ap_5095)):
            _check_unit_interval(value, what)
        for name, value in self.ap_t2t_by_regime.items():
            _check_unit_interval(value, f"ap_t2t[{name}]")
        if len(self.counts) != 3 or any(c < 0 for c in self.counts):
            raise ValidationError(f"counts must be three non-negative ints, got {self.counts}")

    def to_dict(self) -> dict:
        tp, fp, fn = self.counts
        return {
            "ap": self.ap,
            "ap_5095": self.ap_5095,
            "ap_t2t": dict(self.ap_t2t_by_regime),
            "counts": {"tp": tp, "fp": fp, "fn": fn},
        }


def metric_report(
    model: GaussianTrainModel,
    dets: DetectionSet,
    gts: GroundTruthSet,
    score_thresholds: dict[str, float] | None = None,
    iou_threshold: float = 0.5,
    iou_grid: bool = False,
) -> tuple[MetricReport, DistanceAnnotatedOutcome]:
    """The headline numbers of one evaluation, one matching per IoU threshold.

    AP_t2t per regime is taken at ``iou_threshold``, or averaged over
    ``IOU_GRID`` when ``iou_grid`` is set, as :func:`ap_t2t_profile` gives
    it. AP, AP@[.5:.95], the counts and the returned annotated outcome are
    taken at ``iou_threshold`` and the lowest regime threshold. Each distinct
    IoU threshold is matched once, and the AP_t2t profile is complete (or
    raises RegimeError) before any threshold it does not use is matched.
    """
    profile_ious = IOU_GRID if iou_grid else (iou_threshold,)
    sweep = _RegimeSweep(model, dets, gts, score_thresholds, profile_ious)
    ap_at: dict[float, float] = {}
    chosen: MatchOutcome | None = None
    for t in profile_ious:
        outcome = sweep.add(t)
        if outcome is not None:
            ap_at[t] = average_precision(outcome)
            if t == iou_threshold:
                chosen = outcome
    ap_t2t_by_regime = sweep.result()
    for t in (iou_threshold, *IOU_GRID):
        if t not in ap_at:
            outcome = match_detections(dets, gts, t, sweep.base)
            ap_at[t] = average_precision(outcome)
            if t == iou_threshold:
                chosen = outcome
    report = MetricReport(
        ap=ap_at[iou_threshold],
        ap_5095=_mean([ap_at[t] for t in IOU_GRID]),
        ap_t2t_by_regime=ap_t2t_by_regime,
        counts=(
            len(chosen.true_positives),
            len(chosen.false_positives),
            len(chosen.false_negatives),
        ),
    )
    return report, sweep.annotated(chosen, sweep.base)
