import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t2tmetrics import (
    DEFAULT_SCORE_THRESHOLDS,
    IOU_GRID,
    AnnotatedEntry,
    BindingError,
    BoundingBox,
    Detection,
    GaussianTrainModel,
    GroundTruthInstance,
    ImageInfo,
    Kind,
    MetricReport,
    T2TError,
    UndefinedMetricError,
    ValidationError,
    annotate_distances,
    ap_t2t,
    ap_t2t_profile,
    average_precision,
    generate_scenario,
    metric_report,
)
from t2tmetrics import matching, metrics
from t2tmetrics.metrics import _ratio_mean
from t2tmetrics.scenario import ScenarioSpec
from oracles import (
    ap_over_iou_range_rematch,
    ap_t2t_bruteforce,
    ap_t2t_exact,
    ap_t2t_profile_rematch,
    average_precision_enumeration,
    make_random_annotated,
    metric_report_rematch,
)
from records import annotated_outcome, detection_set, ground_truth, match_outcome, plain


def entry(det_id, kind, score, distance):
    return AnnotatedEntry(detection_id=det_id, kind=kind, score=score, distance=distance)


def make_annotated(tp, fp, total_gt):
    """tp/fp: lists of (score, distance)."""
    entries = [entry(f"t{i}", Kind.TP, s, d) for i, (s, d) in enumerate(tp)]
    entries += [entry(f"f{i}", Kind.FP, s, d) for i, (s, d) in enumerate(fp)]
    return annotated_outcome(entries=tuple(entries), total_gt=total_gt)


def make_outcome(tp_scores, fp_scores, total_gt):
    box = BoundingBox(0, 0, 1, 1)
    tps = tuple(
        (Detection(detection_id=f"t{i}", image_id="im", box=box, score=s), f"g{i}")
        for i, s in enumerate(tp_scores)
    )
    fps = tuple(
        Detection(detection_id=f"f{i}", image_id="im", box=box, score=s)
        for i, s in enumerate(fp_scores)
    )
    fns = tuple(f"m{i}" for i in range(total_gt - len(tps)))
    return match_outcome(tps, fps, fns)


# ----------------------------------------------------------- score-ranked AP


def test_average_precision_staircase():
    outcome = make_outcome(tp_scores=[0.9, 0.5], fp_scores=[0.7], total_gt=2)
    assert average_precision(outcome) == 5.0 / 6.0


def test_average_precision_edge_cases():
    assert average_precision(make_outcome([], [], total_gt=3)) == 0.0
    assert average_precision(make_outcome([0.9], [], total_gt=1)) == 1.0
    with pytest.raises(UndefinedMetricError):
        average_precision(make_outcome([], [0.5], total_gt=0))


def test_average_precision_tie_breaks_by_id():
    # equal scores: ids order f0 < t0, so the FP lands in front
    outcome = make_outcome(tp_scores=[0.5], fp_scores=[0.5], total_gt=1)
    assert average_precision(outcome) == 0.5


def test_average_precision_matches_enumeration():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n_tp = int(rng.integers(0, 8))
        n_fp = int(rng.integers(0, 8))
        total_gt = int(rng.integers(max(n_tp, 1), 12))
        # coarse scores to force ties
        tp_scores = [float(s) for s in rng.integers(1, 5, n_tp) / 4.0]
        fp_scores = [float(s) for s in rng.integers(1, 5, n_fp) / 4.0]
        outcome = make_outcome(tp_scores, fp_scores, total_gt)
        records = [(d.score, d.detection_id, True) for d, _ in outcome.true_positives]
        records += [(d.score, d.detection_id, False) for d in outcome.false_positives]
        expected = average_precision_enumeration(records, total_gt)
        assert average_precision(outcome) == float(expected)


def test_ap_over_iou_range():
    gts = ground_truth(
        images=(ImageInfo(id="im", file_name="", width=100, height=100),),
        instances=(
            GroundTruthInstance(instance_id="g", image_id="im", box=BoundingBox(0, 0, 3, 1)),
        ),
    )
    dets = detection_set(
        detections=(
            Detection(
                detection_id="d", image_id="im", box=BoundingBox(0.75, 0, 3, 1), score=0.9,
                feature=np.zeros(2),
            ),
        )
    )
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    # IoU is exactly 0.6: a hit at grid points 0.50, 0.55, 0.60 and a miss above
    assert metric_report(model, dets, gts)[0].ap_5095 == 0.3


# -------------------------------------------------------- distance-ranked AP


def test_ap_t2t_worked_example():
    annotated = make_annotated(tp=[(0.9, 1.0), (0.8, 2.0)], fp=[(0.7, 1.5)], total_gt=2)
    assert ap_t2t(annotated) == 5.0 / 6.0


def test_ap_t2t_edge_cases():
    assert ap_t2t(make_annotated(tp=[], fp=[(0.5, 1.0)], total_gt=3)) == 0.0
    with pytest.raises(UndefinedMetricError):
        ap_t2t(annotated_outcome(entries=(), total_gt=0))
    # a TP at distance 0 still includes every tied entry
    annotated = make_annotated(tp=[(0.9, 0.0)], fp=[(0.8, 0.0)], total_gt=1)
    assert ap_t2t(annotated) == 0.5


def test_precision_none_when_nothing_kept():
    # with nothing kept there is no precision term: AP_t2t is 0.0, not undefined
    assert ap_t2t(annotated_outcome(entries=(), total_gt=2)) == 0.0
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets = grid_dets([("a", 0, 0.3, [0.5, 0.0])])
    assert ap_t2t_profile(model, dets, grid_gts(2), {"high": 0.9}) == {"high": 0.0}


def test_precision_recall_example():
    # precision and recall at a score cut are a mask over the public columns
    annotated = make_annotated(
        tp=[(0.9, 1.0), (0.8, 1.0), (0.7, 1.0), (0.2, 1.0)],
        fp=[(0.9, 1.0), (0.6, 1.0), (0.1, 1.0)],
        total_gt=6,
    )
    kept = annotated.scores >= 0.5
    hits = np.count_nonzero(annotated.tp & kept)
    assert hits / np.count_nonzero(kept) == 0.6
    assert hits / annotated.total_gt == 0.5


def test_t2t_precision_recall_walk():
    # each TP adds the precision at its own distance, inclusive of every tie
    annotated = make_annotated(
        tp=[(0.9, 1.0), (0.8, 3.0), (0.6, 3.0)], fp=[(0.7, 2.0), (0.5, 3.0)], total_gt=4
    )

    def precision_recall(threshold):
        kept = annotated.dist <= threshold
        hits = np.count_nonzero(annotated.tp & kept)
        return hits / np.count_nonzero(kept), hits / annotated.total_gt

    assert precision_recall(1.0) == (1.0, 0.25)
    assert precision_recall(2.0) == (0.5, 0.25)
    assert precision_recall(3.0) == (0.6, 0.75)
    # (1 + 3/5 + 3/5) / 4
    assert ap_t2t(annotated) == 0.55
    assert ap_t2t(annotated) == float(ap_t2t_exact([1.0, 3.0, 3.0], [2.0, 3.0], 4))


def test_ap_t2t_tied_distances_contribute_per_entry():
    # three TPs sharing one distance: three terms, all evaluated at that distance
    annotated = make_annotated(
        tp=[(0.9, 2.0), (0.8, 2.0), (0.7, 2.0)], fp=[(0.6, 1.0)], total_gt=4
    )
    assert ap_t2t(annotated) == 3.0 * (3.0 / 4.0) / 4.0


def test_ap_t2t_matches_bruteforce_oracle():
    rng = np.random.default_rng(23)
    for trial in range(200):
        annotated = make_random_annotated(rng, lattice=trial % 2 == 0)
        tp = annotated.dist[annotated.tp]
        fp = annotated.dist[~annotated.tp]
        got = ap_t2t(annotated)
        assert got == float(ap_t2t_exact(tp, fp, annotated.total_gt))
        assert got == pytest.approx(
            ap_t2t_bruteforce(tp, fp, annotated.total_gt), abs=1e-12
        )


def test_ap_t2t_upper_bound():
    rng = np.random.default_rng(24)
    for _ in range(100):
        annotated = make_random_annotated(rng)
        n_tp = int(np.count_nonzero(annotated.tp))
        assert ap_t2t(annotated) <= n_tp / annotated.total_gt + 1e-15

    # the bound is attained exactly when every FP sits beyond every TP
    annotated = make_annotated(
        tp=[(0.9, 1.0), (0.8, 5.0), (0.7, 5.0)], fp=[(0.6, 5.1), (0.5, 80.0)], total_gt=4
    )
    assert ap_t2t(annotated) == 3.0 / 4.0


def test_ap_t2t_depends_only_on_order():
    rng = np.random.default_rng(25)
    transforms = [
        lambda x: 2.0 * x + 0.25,
        lambda x: x / 2.0,
        lambda x: x * x,
        lambda x: x * x * x,
        lambda x: 4.0 * x + 1024.0,
    ]
    for _ in range(40):
        annotated = make_random_annotated(rng, lattice=True)
        base = ap_t2t(annotated)
        for f in transforms:
            mapped = annotated_outcome(
                entries=tuple(
                    AnnotatedEntry(
                        detection_id=e.detection_id,
                        kind=e.kind,
                        score=e.score,
                        distance=f(e.distance),
                    )
                    for e in annotated.entries
                ),
                total_gt=annotated.total_gt,
            )
            assert ap_t2t(mapped) == base


def test_ap_t2t_tie_break_can_lower_the_tied_term():
    # Pulling a TP out of a tied cluster forfeits the shared-threshold bonus:
    # with an FP at 1 and two TPs tied at 2, each TP scores 2/3; moving one
    # down to 1.5 leaves it alone above the FP at 1/2. The monotone property
    # below therefore quantifies over distinct distances.
    tied = make_annotated(tp=[(0.9, 2.0), (0.8, 2.0)], fp=[(0.7, 1.0)], total_gt=2)
    moved = make_annotated(tp=[(0.9, 1.5), (0.8, 2.0)], fp=[(0.7, 1.0)], total_gt=2)
    assert ap_t2t(tied) == 2.0 / 3.0
    assert ap_t2t(moved) == 7.0 / 12.0


def test_ap_t2t_improves_when_tp_moves_closer():
    rng = np.random.default_rng(26)
    for _ in range(60):
        annotated = make_random_annotated(rng, ties=False)
        tp = list(annotated.dist[annotated.tp])
        fp = list(annotated.dist[~annotated.tp])
        if not tp:
            continue
        before = ap_t2t_exact(tp, fp, annotated.total_gt)
        k = int(rng.integers(0, len(tp)))
        tp_after = list(tp)
        tp_after[k] = tp[k] / 2.0
        after = ap_t2t_exact(tp_after, fp, annotated.total_gt)
        assert after >= before
        # and the implementation agrees with the exact values
        moved = make_annotated(
            tp=[(0.5, d) for d in tp_after], fp=[(0.5, d) for d in fp],
            total_gt=annotated.total_gt,
        )
        assert ap_t2t(moved) == float(after)


def test_ap_t2t_grows_when_fp_moves_away():
    rng = np.random.default_rng(27)
    for _ in range(60):
        annotated = make_random_annotated(rng)
        tp = list(annotated.dist[annotated.tp])
        fp = list(annotated.dist[~annotated.tp])
        if not tp or not fp:
            continue
        before = ap_t2t_exact(tp, fp, annotated.total_gt)
        k = int(rng.integers(0, len(fp)))
        fp_after = list(fp)
        fp_after[k] = fp[k] * 2.0
        after = ap_t2t_exact(tp, fp_after, annotated.total_gt)
        assert after >= before


def test_score_and_distance_rankings_are_dual():
    # when ascending distance reproduces the descending-score order exactly,
    # both metrics sum the same precision terms
    rng = np.random.default_rng(28)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        scores = sorted({float(s) for s in rng.uniform(0.01, 1.0, n)}, reverse=True)
        kinds = rng.random(len(scores)) < 0.6
        total_gt = int(kinds.sum()) + int(rng.integers(0, 4))
        if total_gt == 0:
            continue
        tp_scores = [s for s, is_tp in zip(scores, kinds) if is_tp]
        fp_scores = [s for s, is_tp in zip(scores, kinds) if not is_tp]
        outcome = make_outcome(tp_scores, fp_scores, total_gt)
        annotated = make_annotated(
            tp=[(s, 1.0 - s) for s in tp_scores],
            fp=[(s, 1.0 - s) for s in fp_scores],
            total_gt=total_gt,
        )
        assert ap_t2t(annotated) == average_precision(outcome)


# ---------------------------------------------------------------- exact sums


def exact_mean(terms, denominator):
    return float(sum(Fraction(n, d) for n, d in terms) / denominator)


# Denominators are drawn from a few repeated values or from up to 10**6.
RATIO = st.tuples(
    st.integers(0, 10**6),
    st.one_of(st.sampled_from((1, 2, 3, 4, 6, 12)), st.integers(1, 10**6)),
)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 301).flatmap(lambda k: st.lists(RATIO, min_size=k, max_size=k)),
    st.integers(1, 10**4),
)
def test_ratio_mean_is_the_correctly_rounded_exact_sum(terms, denominator):
    numerators, denominators = [n for n, _ in terms], [d for _, d in terms]
    assert _ratio_mean(numerators, denominators, denominator) == exact_mean(terms, denominator)


def test_ratio_mean_rounds_a_mean_on_a_rounding_midpoint_exactly():
    # 1 + 2**-53 and 1 + 3 * 2**-53 lie halfway between two floats; the exact
    # sum is rounded once, so ties go to the even float, and thirds that a
    # float sum would round first do not move the second off its midpoint.
    assert _ratio_mean([2**53 + 1], [2**53], 1) == 1.0
    assert _ratio_mean([1, 2, 3], [3, 3, 2**53], 1) == 1.0 + 2.0**-51
    assert _ratio_mean([2**54 + 1, 1], [2**54, 2**54], 2) == 0.5


# Sizes 0 to 300 or 0 to 40,000, and the examples below always run large ones.
@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((300, 40_000)).flatmap(lambda top: st.integers(0, top)),
    st.sampled_from(("staircase", "ratios", "exact", "midpoint")),
    st.integers(0, 2**32),
    st.sampled_from((1, 2, 4096, 2**31 - 1, 2**31)),
    st.integers(1, 10**4),
)
@example(40_000, "staircase", 0, 1, 30_000)
@example(40_000, "ratios", 1, 4096, 12_345)
@example(2_000, "ratios", 1, 2**31 - 1, 12_345)
@example(40_000, "exact", 2, 2**31, 2**10)
@example(20_000, "midpoint", 3, 4096, 9_999)
@example(1, "midpoint", 307051, 4096, 1)  # a denominator in [2**63, 2**64)
def test_ratio_mean_is_the_fraction_mean_at_every_size(size, shape, seed, top, total):
    """AP staircases, ratios n <= d up to and past the int64 bracket's 2**31,
    means that a float holds exactly, and means on a rounding midpoint."""
    rng = np.random.default_rng(seed)
    if shape == "staircase":
        d = np.sort(rng.choice(np.arange(1, 2 * size + 2), size, replace=False))
        n = np.arange(1, size + 1)
    else:  # with d near 2**31, the Fraction sum grows by about 31 bits a term
        d = rng.integers(1, top, size if top <= 4096 else min(size, 2_000), endpoint=True)
        n = d if shape == "exact" else rng.integers(0, d, endpoint=True)
    if shape == "exact":  # every term is 1, so the mean is size / 2**k
        total = 1 << total.bit_length() - 1
    numerators, denominators = n.tolist(), d.tolist()
    if shape == "midpoint":  # one more term puts the mean half an ulp above a float
        exact = sum(map(Fraction, numerators, denominators), Fraction(0))
        low = float(exact / total)
        rest = (Fraction(low) + Fraction(math.ulp(low)) / 2) * total - exact
        numerators.append(rest.numerator)
        denominators.append(rest.denominator)
    terms = zip(numerators, denominators)
    assert _ratio_mean(numerators, denominators, total) == exact_mean(terms, total)


# Floored to 64 fractional bits, each of these means rounds to one float at
# the bracket's low end and to the next at its high end; 5/998/7 rounds up
# and 4/753/4 down, so returning either end alone fails one of them.
@pytest.mark.parametrize("n, d, total", [(5, 998, 7), (4, 753, 4)])
def test_ratio_mean_sums_exactly_when_the_bracket_does_not_decide(n, d, total):
    low = (n << 64) // d
    assert low / (total << 64) != (low + 1) / (total << 64)
    assert _ratio_mean(np.array([n]), np.array([d]), total) == exact_mean([(n, d)], total)


def test_ratio_mean_is_exact_at_4096_and_4097_terms():
    # An AP staircase: the k-th TP at rank positions[k-1], ranks up to 8,192.
    # A rank-order float sum differs from the exact mean at both sizes.
    rng = np.random.default_rng(0)
    positions = np.sort(rng.choice(np.arange(1, 8193), 4097, replace=False)).tolist()
    terms = list(enumerate(positions, start=1))

    def float_mean(terms):
        return float(sum(n / d for n, d in terms) / 4100)

    for size in (4096, 4097):
        numerators = np.arange(1, size + 1)
        got = _ratio_mean(numerators, positions[:size], 4100)
        assert got == exact_mean(terms[:size], 4100) != float_mean(terms[:size])


def rank_staircase(rng, n_tp, n_entries):
    """TP ranks in [n_entries // 4, n_entries] and FP ranks filling the rest, so
    a product of a few TP denominators already passes 2**63."""
    ranks = np.arange(1, n_entries + 1)
    tp = rng.choice(ranks[n_entries // 4 - 1:], n_tp, replace=False)
    return sorted(tp.tolist()), sorted(set(ranks.tolist()) - set(tp.tolist()))


@pytest.mark.parametrize("int_type", [int, np.int64])
def test_ap_and_ap_t2t_stay_exact_when_denominator_products_pass_2_63(int_type):
    tp_ranks, fp_ranks = rank_staircase(np.random.default_rng(41), 120, 4000)
    total_gt = int_type(150)

    outcome = make_outcome(
        [1.0 - r / 4096 for r in tp_ranks], [1.0 - r / 4096 for r in fp_ranks], total_gt
    )
    records = [(d.score, d.detection_id, True) for d, _ in outcome.true_positives]
    records += [(d.score, d.detection_id, False) for d in outcome.false_positives]
    assert average_precision(outcome) == float(average_precision_enumeration(records, 150))

    annotated = make_annotated(
        tp=[(0.5, float(r)) for r in tp_ranks], fp=[(0.5, float(r)) for r in fp_ranks],
        total_gt=total_gt,
    )
    assert ap_t2t(annotated) == float(ap_t2t_exact(tp_ranks, fp_ranks, 150))


def test_ap_and_ap_t2t_equal_their_exact_oracles_above_4096_tps():
    # 4,100 TPs and 300 FPs in random rank order: both sums have 4,100 terms.
    ranks = np.random.default_rng(43).permutation(np.arange(1, 4401))
    tp_ranks, fp_ranks = sorted(ranks[:4100].tolist()), sorted(ranks[4100:].tolist())

    outcome = make_outcome(
        [1.0 - r / 8192 for r in tp_ranks], [1.0 - r / 8192 for r in fp_ranks], 4500
    )
    records = [(d.score, d.detection_id, True) for d, _ in outcome.true_positives]
    records += [(d.score, d.detection_id, False) for d in outcome.false_positives]
    assert average_precision(outcome) == float(average_precision_enumeration(records, 4500))

    annotated = make_annotated(
        tp=[(0.5, float(r)) for r in tp_ranks], fp=[(0.5, float(r)) for r in fp_ranks],
        total_gt=4500,
    )
    assert ap_t2t(annotated) == float(ap_t2t_exact(tp_ranks, fp_ranks, 4500))


def test_report_and_profile_construct_no_fraction(monkeypatch):
    assert not hasattr(metrics, "Fraction")
    scenario = generate_scenario(ScenarioSpec(
        n_gt=60, n_tp=45, n_fp=50, feature_dim=4, fp_distance_scale=1.5,
        tp_score_range=(0.0, 1.0), fp_score_range=(0.0, 1.0), seed=5,
    ))
    model = scenario.planted_model()
    dets, gts = scenario.detections, scenario.ground_truth
    args = (model, dets, gts, DEFAULT_SCORE_THRESHOLDS, 0.5, True)
    expected = (metric_report_rematch(*args),
                ap_t2t_profile_rematch(model, dets, gts, iou_thresholds=IOU_GRID))

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was constructed")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    got = (metric_report(*args), ap_t2t_profile(model, dets, gts, iou_thresholds=IOU_GRID))
    monkeypatch.undo()
    assert plain(got) == plain(expected)


# -------------------------------------------------------------- regime profile


def grid_gts(n):
    return ground_truth(
        images=(ImageInfo(id="im", file_name="", width=1000, height=1000),),
        instances=tuple(
            GroundTruthInstance(
                instance_id=f"g{i}", image_id="im", box=BoundingBox(20.0 * i, 0, 10, 10)
            )
            for i in range(n)
        ),
    )


def grid_dets(specs):
    """specs: (det_id, gt_index or None for a far-off box, score, feature)."""
    dets = []
    for det_id, slot, score, feature in specs:
        x = 20.0 * slot if slot is not None else 900.0
        dets.append(
            Detection(
                detection_id=det_id,
                image_id="im",
                box=BoundingBox(x, 0, 10, 10),
                score=score,
                feature=np.asarray(feature, dtype=np.float64) if feature is not None else None,
            )
        )
    return detection_set(tuple(dets))


def test_profile_evaluates_each_regime():
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets = grid_dets(
        [
            ("a", 0, 0.95, [0.5, 0.0]),
            ("b", 1, 0.30, [1.0, 1.0]),
            ("c", None, 0.05, [4.0, 0.0]),
        ]
    )
    gts = grid_gts(3)
    profile = ap_t2t_profile(model, dets, gts)
    assert set(profile) == {"all", "med", "high"}

    # all: TPs at d=0.25 and 2.0, FP at 16.0 -> (1 + 1)/3
    assert profile["all"] == 2.0 / 3.0
    # med: the 0.05-score FP is gone, both TPs stay
    assert profile["med"] == 2.0 / 3.0
    # high: only the 0.95 TP remains
    assert profile["high"] == 1.0 / 3.0


def test_profile_med_equals_high_when_no_scores_between():
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    rng = np.random.default_rng(29)
    specs = []
    for i in range(8):
        score = float(rng.uniform(0.5, 1.0)) if i % 2 else float(rng.uniform(0.01, 0.0999))
        specs.append((f"d{i}", i % 4, score, list(rng.normal(size=2))))
    dets = grid_dets(specs)
    gts = grid_gts(4)
    profile = ap_t2t_profile(model, dets, gts)
    assert profile["med"] == profile["high"]


def test_profile_partial_failure_keeps_results():
    # "b" scores below the "med" and "high" thresholds, but the "all" regime
    # keeps it, so the one annotation needs its distance.
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets = grid_dets([("a", 0, 0.95, [0.5, 0.0]), ("b", None, 0.05, None)])
    with pytest.raises(BindingError, match="^1 detections have no bound feature: b$"):
        ap_t2t_profile(model, dets, grid_gts(2))
    assert ap_t2t_profile(model, dets, grid_gts(2), {"med": 0.1, "high": 0.5}) == {
        "med": 0.5, "high": 0.5}


@pytest.mark.parametrize("iou_grid", [False, True])
def test_an_argument_error_comes_before_a_data_error(iou_grid):
    # "a" has no bound feature, but the IoU threshold is refused before any
    # detection is annotated, with the grid as without it.
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets = grid_dets([("a", 0, 0.95, None)])
    with pytest.raises(BindingError, match="^1 detections have no bound feature: a$"):
        metric_report(model, dets, grid_gts(1), iou_grid=iou_grid)
    with pytest.raises(ValidationError, match=r"^iou_threshold must lie in \(0, 1\], got 1.5$"):
        metric_report(model, dets, grid_gts(1), iou_threshold=1.5, iou_grid=iou_grid)


@pytest.mark.parametrize("iou_thresholds", [(1.5, 0.5), (0.5, 1.5), (0.5, 0.0)])
def test_the_profile_refuses_every_iou_threshold_before_matching(monkeypatch, iou_thresholds):
    # "a" has no bound feature, and the second ground truth is empty, but an
    # IoU threshold out of range anywhere in the tuple is refused first,
    # before any IoU table is built.
    monkeypatch.setattr(metrics, "iou_matcher", lambda *args: pytest.fail("matcher built"))
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets = grid_dets([("a", 0, 0.95, None)])
    refused = next(t for t in iou_thresholds if not 0.0 < t <= 1.0)
    message = rf"^iou_threshold must lie in \(0, 1\], got {refused}$"
    for gts in (grid_gts(1), grid_gts(0)):
        with pytest.raises(ValidationError, match=message):
            ap_t2t_profile(model, dets, gts, iou_thresholds=iou_thresholds)


def test_a_failing_regime_is_not_matched_again(monkeypatch):
    # The profile fails at its one annotation, after one IoU table is built:
    # no regime is matched again to find out which of them failed.
    tables = []
    for module in (matching, metrics):
        build = module.iou_matcher
        monkeypatch.setattr(module, "iou_matcher",
                            lambda *args, _build=build: tables.append(args) or _build(*args))
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets = grid_dets([("a", 0, 0.95, [0.5, 0.0]), ("b", None, 0.05, None)])
    with pytest.raises(BindingError, match="^1 detections have no bound feature: b$"):
        ap_t2t_profile(model, dets, grid_gts(2), iou_thresholds=IOU_GRID)
    assert len(tables) == 1


def test_score_threshold_inclusive():
    # a regime keeps a detection that scores exactly its threshold
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets = grid_dets([("a", 0, 0.5, [0.5, 0.0])])
    regimes = {"at": 0.5, "above": float(np.nextafter(0.5, 1.0))}
    assert ap_t2t_profile(model, dets, grid_gts(1), regimes) == {"at": 1.0, "above": 0.0}


def test_profile_validation():
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets = grid_dets([("a", 0, 0.9, [0.0, 0.0])])
    with pytest.raises(UndefinedMetricError):
        ap_t2t_profile(model, dets, grid_gts(0))
    with pytest.raises(ValidationError):
        ap_t2t_profile(model, dets, grid_gts(1), score_thresholds={})
    with pytest.raises(ValidationError):
        ap_t2t_profile(model, dets, grid_gts(1), score_thresholds={"x": 1.5})
    with pytest.raises(ValidationError):
        ap_t2t_profile(model, dets, grid_gts(1), iou_thresholds=())


def test_profile_averages_over_iou_grid():
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    gts = ground_truth(
        images=(ImageInfo(id="im", file_name="", width=100, height=100),),
        instances=(
            GroundTruthInstance(instance_id="g", image_id="im", box=BoundingBox(0, 0, 3, 1)),
        ),
    )
    dets = detection_set(
        detections=(
            Detection(
                detection_id="d",
                image_id="im",
                box=BoundingBox(0.75, 0, 3, 1),
                score=0.9,
                feature=np.zeros(2),
            ),
        )
    )
    # TP at grid points up to 0.60 (ap_t2t 1.0), FP beyond (0.0)
    profile = ap_t2t_profile(
        model, dets, gts, score_thresholds={"all": 0.01}, iou_thresholds=(0.5, 0.55, 0.6, 0.65)
    )
    assert profile["all"] == 0.75


TIED_SCORES = (0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 0.5, 0.7, 1.0)


def lattice_box(rng):
    return BoundingBox(*(float(v) for v in rng.integers((0, 0, 2, 2), (8, 8, 5, 5))))


def random_scene(rng, unbound=False, misshapen=False, rows=None):
    """Lattice boxes, a few score levels and integer features, so IoUs,
    scores and distances tie often; ``unbound`` leaves some features out,
    ``misshapen`` gives every feature a third component, which a 2-dim model
    refuses (a set's features are rows of one matrix, so all have one shape),
    and ``rows`` repeats that many feature rows, so at most that many
    distances are distinct."""
    pool = rng.integers(-3, 4, (rows, 2)).astype(np.float64) if rows else None
    images = tuple(ImageInfo(id=f"im{k}", file_name="", width=100, height=100) for k in range(3))
    gts = ground_truth(
        images=images,
        instances=tuple(
            GroundTruthInstance(
                instance_id=f"g{i:02d}", image_id=f"im{rng.integers(3)}", box=lattice_box(rng)
            )
            for i in range(int(rng.integers(1, 12)))
        ),
    )
    dets = detection_set(
        detections=tuple(
            Detection(
                detection_id=f"d{i:02d}",
                image_id=f"im{rng.integers(3)}",
                box=lattice_box(rng),
                score=float(rng.choice(TIED_SCORES)),
                feature=None if unbound and rng.random() < 0.2
                else pool[rng.integers(rows)] if rows
                else rng.integers(-3, 4, 3 if misshapen else 2).astype(np.float64),
            )
            for i in range(int(rng.integers(0, 25)))
        )
    )
    return dets, gts


def regime_outcome(fn, *args):
    """The profile, or the type and message of the error that ended it."""
    try:
        return list(fn(*args).items())
    except T2TError as exc:
        return type(exc), str(exc)


def random_thresholds(rng):
    if rng.random() < 0.3:
        return dict(DEFAULT_SCORE_THRESHOLDS)
    names = rng.permutation(["x", "y", "z"])[: int(rng.integers(1, 4))]
    return {str(name): float(rng.choice(TIED_SCORES)) for name in names}


def test_profile_and_iou_range_equal_the_rematch_oracle():
    rng = np.random.default_rng(2408)
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    failed = 0
    for trial in range(200):
        dets, gts = random_scene(rng, unbound=trial % 4 == 0, misshapen=trial % 4 == 1)
        thresholds = random_thresholds(rng)
        for ious in ((0.5,), IOU_GRID, (0.75, 0.3, 0.75), (0.5, 1.5), (float("nan"),)):
            got = regime_outcome(ap_t2t_profile, model, dets, gts, thresholds, ious)
            assert got == regime_outcome(ap_t2t_profile_rematch, model, dets, gts, thresholds, ious)
            failed += isinstance(got, tuple)
        for score_threshold in thresholds.values():
            match = matching.iou_matcher(dets, gts, score_threshold)
            aps = [average_precision(match(t)) for t in IOU_GRID]
            assert sum(aps) / len(aps) == ap_over_iou_range_rematch(dets, gts, score_threshold)
    assert failed > 0


def test_metric_report_equals_the_rematch_oracle():
    rng = np.random.default_rng(14559)
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    for trial in range(60):
        dets, gts = random_scene(rng, unbound=trial % 4 == 0, misshapen=trial % 4 == 1)
        thresholds = random_thresholds(rng)
        for iou_threshold in (0.5, 0.65, 0.3):
            for iou_grid in (False, True):
                args = (model, dets, gts, thresholds, iou_threshold, iou_grid)
                try:
                    expected = metric_report_rematch(*args)
                except T2TError as exc:
                    with pytest.raises(T2TError) as err:
                        metric_report(*args)
                    assert (type(err.value), str(err.value)) == (type(exc), str(exc))
                    continue
                report, annotated = metric_report(*args)
                assert report == expected[0] and plain(annotated) == plain(expected[1])
                assert list(report.ap_t2t_by_regime) == list(thresholds)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_every_ap_equals_its_oracle_when_distances_tie_heavily(seed, rows):
    """At most four distinct distances and a few score levels: AP, AP_t2t, the
    profile and the report equal their oracles in several regimes and IoU tuples."""
    rng = np.random.default_rng(seed)
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    dets, gts = random_scene(rng, rows=rows)
    thresholds = random_thresholds(rng)
    for ious in ((0.5,), IOU_GRID, (0.75, 0.3, 0.75)):
        assert ap_t2t_profile(model, dets, gts, thresholds, ious) == ap_t2t_profile_rematch(
            model, dets, gts, thresholds, ious
        )
    for iou_threshold in (0.5, 0.3):
        outcome = matching.iou_matcher(dets, gts, min(thresholds.values()))(iou_threshold)
        records = [(d.score, d.detection_id, True) for d, _ in outcome.true_positives]
        records += [(d.score, d.detection_id, False) for d in outcome.false_positives]
        assert average_precision(outcome) == float(
            average_precision_enumeration(records, outcome.total_gt)
        )
        annotated = annotate_distances(model, outcome)
        dist = annotated.dist.tolist()
        assert len(set(dist)) <= rows
        tp = [d for d, hit in zip(dist, annotated.tp.tolist()) if hit]
        fp = [d for d, hit in zip(dist, annotated.tp.tolist()) if not hit]
        assert ap_t2t(annotated) == float(ap_t2t_exact(tp, fp, annotated.total_gt))
        for iou_grid in (False, True):
            args = (model, dets, gts, thresholds, iou_threshold, iou_grid)
            assert plain(metric_report(*args)) == plain(metric_report_rematch(*args))
    # Hundreds of entries on the same few distances, which the sort reorders.
    levels = rng.uniform(0.0, 10.0, rows)
    tp, fp = rng.choice(levels, int(rng.integers(0, 200))), rng.choice(levels, 200)
    total_gt = len(tp) + int(rng.integers(1, 50))
    annotated = make_annotated([(0.5, d) for d in tp], [(0.5, d) for d in fp], total_gt)
    assert ap_t2t(annotated) == float(ap_t2t_exact(tp.tolist(), fp.tolist(), total_gt))


@pytest.mark.parametrize("seed", [3, 4])
def test_profile_and_report_equal_the_rematch_oracle_on_planted_scenarios(seed):
    scenario = generate_scenario(ScenarioSpec(
        n_gt=60, n_tp=45, n_fp=50, feature_dim=4, fp_distance_scale=1.5,
        tp_score_range=(0.0, 1.0), fp_score_range=(0.0, 1.0), seed=seed,
    ))
    model = scenario.planted_model()
    dets, gts = scenario.detections, scenario.ground_truth
    assert ap_t2t_profile(model, dets, gts, iou_thresholds=IOU_GRID) == ap_t2t_profile_rematch(
        model, dets, gts, iou_thresholds=IOU_GRID
    )
    for iou_threshold in (0.5, 0.65, 0.9):
        for iou_grid in (False, True):
            args = (model, dets, gts, DEFAULT_SCORE_THRESHOLDS, iou_threshold, iou_grid)
            assert plain(metric_report(*args)) == plain(metric_report_rematch(*args))


def test_default_thresholds():
    assert DEFAULT_SCORE_THRESHOLDS == {"all": 0.01, "med": 0.1, "high": 0.5}


def test_metric_report():
    report = MetricReport(
        ap=0.5, ap_5095=0.25, ap_t2t_by_regime={"all": 0.75}, counts=(3, 2, 1)
    )
    assert report.to_dict() == {
        "ap": 0.5,
        "ap_5095": 0.25,
        "ap_t2t": {"all": 0.75},
        "counts": {"tp": 3, "fp": 2, "fn": 1},
    }
    with pytest.raises(ValidationError):
        MetricReport(ap=1.5, ap_5095=0.0)
    with pytest.raises(ValidationError):
        MetricReport(ap=0.5, ap_5095=0.0, counts=(1, -1, 0))
