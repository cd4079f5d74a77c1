"""Average-precision metrics, score-ranked and distance-ranked.

Score-side definitions keep a detection when its score is at or above the
threshold. The distance-ranked variant flips the inequality: a detection is
kept when its train2test distance is at or below the threshold, so walking
the thresholds upward admits detections from nearest to farthest.

AP and AP_t2t are one rule over two rankings, by score and by ascending
distance: each TP entry adds (TPs ranked up to the last rank tied with it) /
(entries ranked there), summed over |X|. Only distances tie.

A score regime is a keep mask over one annotation in one distance order: the
detections kept at the lowest regime threshold get one distance each, and
each IoU threshold only marks which of them are true positives. One of them
that gets no distance ends the whole profile with its own error.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError, ValidationError
from .feature_model import (
    DistanceAnnotatedOutcome,
    GaussianTrainModel,
    annotate_distances,
)
from .ingest import DetectionSet, GroundTruthSet
from .matching import IOU_GRID, MatchOutcome, _check_iou_threshold, iou_matcher

# Score thresholds naming the three detection regimes: every candidate with a
# minimal score, the above-medium-confidence subset, and the high-confidence
# subset.
DEFAULT_SCORE_THRESHOLDS: dict[str, float] = {"all": 0.01, "med": 0.1, "high": 0.5}


def _int_array(values) -> np.ndarray:
    """values as an int array, or as Python ints where numpy would make floats
    of them: a list mixing ints in [2**63, 2**64) with smaller ones."""
    array = np.asarray(values)
    return array if array.dtype.kind in "iu" else np.asarray(values, dtype=object)


def _ratio_mean(numerators, denominators, total: int) -> float:
    """sum(n/d for each term) / total for int sequences, correctly rounded.

    When every term has 0 <= n <= d < 2**31, each is floored to 64 fractional
    bits in int64: the exact sum lies in [S, S + m] / 2**64 for m terms, and if
    both ends round to one float, that float is the mean (Ziv's rounding test).
    Otherwise the terms are added pairwise in Python ints, (a/b) + (c/d) =
    (a*d + c*b) / (b*d), with no gcd, and Python int true division rounds once.
    """
    n, d = _int_array(numerators), _int_array(denominators)
    if n.dtype.kind == d.dtype.kind == "i" and np.all((0 <= n) & (n <= d) & (d < 2**31)):
        high, rest = np.divmod(n.astype(np.int64) << 32, d)
        floor = (int(high.sum()) << 32) + int(((rest << 32) // d).sum())
        scale = int(total) << 64
        if (mean := floor / scale) == (floor + n.size) / scale:
            return mean
    terms = list(zip(n.tolist(), d.tolist())) or [(0, 1)]
    while len(terms) > 1:
        odd = terms[-1:] if len(terms) % 2 else []
        pairs = zip(terms[0::2], terms[1::2])
        terms = [(a * d + c * b, b * d) for (a, b), (c, d) in pairs] + odd
    [(n, d)] = terms
    return n / (d * int(total))


def _ranked_ap(hits: np.ndarray, total: int, kept=None, last=None) -> float:
    """AP's precision rule over entries in rank order: each hit adds (hits up to R)
    / (entries up to R; ``kept[R]`` when given), summed over ``total``. R is the
    hit's rank, or ``last`` at it, the last rank tied with it, when given."""
    at = np.flatnonzero(hits) if last is None else last[np.flatnonzero(hits)]
    return _ratio_mean(np.cumsum(hits)[at], at + 1 if kept is None else kept[at], total)


def _mean(values: list[float]) -> float:
    """Mean of per-IoU-threshold values, summed in threshold order."""
    return float(sum(values) / len(values))


def _check_unit_interval(value: float, what: str) -> float:
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{what} must lie in [0, 1], got {value}")
    return value


def average_precision(outcome: MatchOutcome) -> float:
    """All-point AP: mean over ground truth of the precision at each TP entry.

    Entries are ranked by descending score, ties broken by detection id. The
    precision at a TP entry in rank position k is (TPs among the first k) / k.
    """
    if outcome.total_gt == 0:
        raise UndefinedMetricError("average precision is undefined without ground truth")
    return _ranked_ap(outcome.claims >= 0, outcome.total_gt)


def _distance_order(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An ascending order of ``distances`` and the last rank tied with each rank;
    it need not be stable, as a hit's counts are read at the last rank of its tie."""
    order = np.argsort(distances)
    ranked = distances[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], ranked.size > 0))
    return order, np.repeat(ends, np.diff(ends, prepend=-1))


def ap_t2t(annotated: DistanceAnnotatedOutcome) -> float:
    """Distance-ranked average precision.

    One precision term per TP entry, evaluated at that entry's distance with
    the inclusive <= rule; the sum is divided by the total instance count.
    Zero TP entries give 0.0; an empty instance set is undefined. The value
    depends on the distances only through their ordering (ties included).
    """
    if annotated.total_gt == 0:
        raise UndefinedMetricError("AP_t2t is undefined without ground truth")
    order, last = _distance_order(annotated.dist)
    return _ranked_ap(annotated.tp[order], annotated.total_gt, last=last)


def _regimes(score_thresholds: dict[str, float] | None) -> tuple[dict[str, float], float]:
    """The checked score regimes (the default ones when None) and their lowest threshold."""
    thresholds = DEFAULT_SCORE_THRESHOLDS if score_thresholds is None else score_thresholds
    if not thresholds:
        raise ValidationError("score_thresholds must not be empty")
    for name, value in thresholds.items():
        _check_unit_interval(value, f"score threshold {name!r}")
    return thresholds, min(thresholds.values())


def _profile(
    model: GaussianTrainModel,
    dets: DetectionSet,
    gts: GroundTruthSet,
    score_thresholds: dict[str, float] | None,
    iou_thresholds: tuple[float, ...],
    annotate_at: float | None = None,
) -> tuple[dict[str, float], DistanceAnnotatedOutcome, Callable[[float], MatchOutcome]]:
    """AP_t2t per regime, as :func:`ap_t2t_profile` defines it, the annotation
    it scored and the cached :func:`iou_matcher` at the lowest regime threshold.

    The annotation is of the matching at ``annotate_at``, or at the first IoU
    threshold when None; its detections and distances are those of every
    IoU threshold, which only marks which of them are true positives.
    """
    thresholds, base = _regimes(score_thresholds)
    if not iou_thresholds:
        raise ValidationError("iou_thresholds must not be empty")
    annotate_at = iou_thresholds[0] if annotate_at is None else annotate_at
    for iou_threshold in (annotate_at, *iou_thresholds):
        _check_iou_threshold(iou_threshold)
    if len(gts) == 0:
        raise UndefinedMetricError("AP_t2t is undefined without ground truth")
    match = functools.cache(iou_matcher(dets, gts, base))
    annotated = annotate_distances(model, match(annotate_at))
    order, last = _distance_order(annotated.dist)
    scores = annotated.scores[order]
    keep = {name: scores >= threshold for name, threshold in thresholds.items()}
    kept = {name: np.cumsum(mask) for name, mask in keep.items()}
    values: dict[str, list[float]] = {name: [] for name in thresholds}
    for iou_threshold in iou_thresholds:
        tp = (match(iou_threshold).claims >= 0)[order]
        for name in thresholds:
            values[name].append(_ranked_ap(keep[name] & tp, annotated.total_gt, kept[name], last))
    return {name: _mean(v) for name, v in values.items()}, annotated, match


def ap_t2t_profile(
    model: GaussianTrainModel,
    dets: DetectionSet,
    gts: GroundTruthSet,
    score_thresholds: dict[str, float] | None = None,
    iou_thresholds: tuple[float, ...] = (0.5,),
) -> dict[str, float]:
    """AP_t2t per score regime; each regime is a score mask over one annotation.

    Each IoU threshold is matched once from one IoU table, at the lowest
    regime threshold, and the kept detections get their distances once,
    from the first matching.
    A regime keeps the detections scoring at or above its own threshold,
    which by the prefix invariant of :mod:`.matching` is exactly the outcome
    of matching at that threshold. The instance count |X| comes from the
    ground truth alone, so it is the same in every regime. With several IoU
    thresholds the per-regime value is the mean over the grid, summed in
    grid order. An IoU threshold outside (0, 1] is refused before any matching;
    then every detection kept at the lowest regime threshold needs a distance,
    and the first error, of the annotation or of a matching, ends the profile.
    """
    return _profile(model, dets, gts, score_thresholds, iou_thresholds)[0]


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
    """The headline numbers of one evaluation, every IoU threshold matched from one IoU table.

    AP_t2t per regime is taken at ``iou_threshold``, or averaged over
    ``IOU_GRID`` when ``iou_grid`` is set, as :func:`ap_t2t_profile` gives
    it. AP, AP@[.5:.95], the counts and the returned annotated outcome are
    taken at ``iou_threshold`` and the lowest regime threshold. Each distinct
    IoU threshold is matched once. The one annotation is of the matching at
    ``iou_threshold``, and it is the one the AP_t2t profile scores, so an
    ``iou_threshold`` out of range is refused before any detection is annotated.
    """
    profile_ious = IOU_GRID if iou_grid else (iou_threshold,)
    ap_t2t_by_regime, annotated, match = _profile(
        model, dets, gts, score_thresholds, profile_ious, iou_threshold)
    ap = functools.cache(lambda t: average_precision(match(t)))
    n_tp = int(np.count_nonzero(annotated.tp))
    report = MetricReport(
        ap=ap(iou_threshold),
        ap_5095=_mean([ap(t) for t in IOU_GRID]),
        ap_t2t_by_regime=ap_t2t_by_regime,
        counts=(n_tp, len(annotated) - n_tp, annotated.total_gt - n_tp),
    )
    return report, annotated
