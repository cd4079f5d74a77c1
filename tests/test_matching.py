import re
import sys
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2tmetrics import (
    IOU_GRID,
    BoundingBox,
    Detection,
    DetectionSet,
    GroundTruthInstance,
    GroundTruthSet,
    ImageInfo,
    MatchOutcome,
    ValidationError,
    average_precision,
    iou,
    iou_matcher,
    match_detections,
)
from t2tmetrics.matching import _edges, _iou_cells
from oracles import match_detections_loop
from records import detection_set, false_negatives, ground_truth, match_outcome, plain


def make_gt(instances):
    image_ids = sorted({img for _, img, _ in instances})
    return ground_truth(
        images=tuple(ImageInfo(id=i, file_name="", width=1000, height=1000) for i in image_ids),
        instances=tuple(
            GroundTruthInstance(instance_id=iid, image_id=img, box=BoundingBox(*box))
            for iid, img, box in instances
        ),
    )


def make_dets(dets):
    return detection_set(
        tuple(
            Detection(detection_id=did, image_id=img, box=BoundingBox(*box), score=score)
            for did, img, box, score in dets
        )
    )


boxes = st.builds(
    BoundingBox,
    st.floats(0, 100),
    st.floats(0, 100),
    st.floats(0.1, 50),
    st.floats(0.1, 50),
)


# ------------------------------------------------------------------------- iou


def test_iou_worked_example():
    a = BoundingBox(0, 0, 2, 2)
    b = BoundingBox(1, 1, 2, 2)
    assert iou(a, b) == 1.0 / 7.0

    c = BoundingBox(0, 0, 4, 1)
    d = BoundingBox(2, 0, 4, 1)
    assert iou(c, d) == 1.0 / 3.0


def test_iou_extremes():
    a = BoundingBox(0, 0, 2, 2)
    assert iou(a, a) == 1.0
    assert iou(a, BoundingBox(5, 5, 2, 2)) == 0.0
    assert iou(a, BoundingBox(2, 0, 2, 2)) == 0.0  # edge contact only


def test_iou_grid_values():
    assert IOU_GRID == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
    # the 0.60 point of the grid is representable and hit exactly by this pair
    assert iou(BoundingBox(0, 0, 3, 1), BoundingBox(0.75, 0, 3, 1)) == 0.6


@given(boxes, boxes)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


# -------------------------------------------------------------------- matching


def test_greedy_assignment_prefers_higher_score():
    gts = make_gt([("g1", "im", (0, 0, 10, 10))])
    dets = make_dets(
        [
            ("low", "im", (0, 0, 10, 10), 0.8),
            ("high", "im", (1, 0, 10, 10), 0.9),
        ]
    )
    out = match_detections(dets, gts, iou_threshold=0.5)
    assert [(d.detection_id, g) for d, g in out.true_positives] == [("high", "g1")]
    assert [d.detection_id for d in out.false_positives] == ["low"]
    assert false_negatives(out) == ()


def test_detection_takes_best_iou_among_free_gt():
    gts = make_gt([("worse", "im", (4, 0, 10, 10)), ("better", "im", (1, 0, 10, 10))])
    dets = make_dets([("d", "im", (0, 0, 10, 10), 0.5)])
    out = match_detections(dets, gts, iou_threshold=0.1)
    assert out.true_positives == ((dets.detections[0], "better"),)
    assert false_negatives(out) == ("worse",)


def test_thresholds_are_inclusive():
    gts = make_gt([("g", "im", (0, 0, 4, 1))])
    # iou with the gt is exactly 1/3
    dets = make_dets([("d", "im", (2, 0, 4, 1), 0.25)])
    out = match_detections(dets, gts, iou_threshold=1.0 / 3.0, score_threshold=0.25)
    assert len(out.true_positives) == 1

    out = match_detections(dets, gts, iou_threshold=np.nextafter(1.0 / 3.0, 1.0))
    assert len(out.true_positives) == 0

    out = match_detections(dets, gts, iou_threshold=0.1, score_threshold=0.26)
    assert out.false_positives == ()  # dropped, not counted as fp
    assert false_negatives(out) == ("g",)


def test_equal_scores_ranked_by_detection_id():
    gts = make_gt([("g", "im", (0, 0, 10, 10))])
    dets = make_dets(
        [
            ("b", "im", (0, 0, 10, 10), 0.5),
            ("a", "im", (0, 0, 10, 10), 0.5),
        ]
    )
    out = match_detections(dets, gts, iou_threshold=0.5)
    assert out.true_positives[0][0].detection_id == "a"


def test_iou_tie_takes_smallest_instance_id():
    gts = make_gt([("g2", "im", (0, 0, 10, 10)), ("g1", "im", (0, 0, 10, 10))])
    dets = make_dets([("d", "im", (0, 0, 10, 10), 0.9)])
    out = match_detections(dets, gts, iou_threshold=0.5)
    assert out.true_positives[0][1] == "g1"
    assert false_negatives(out) == ("g2",)


def test_matching_is_per_image():
    gts = make_gt([("g", "im1", (0, 0, 10, 10))])
    dets = make_dets([("d", "im2", (0, 0, 10, 10), 0.9)])
    out = match_detections(dets, gts, iou_threshold=0.5)
    assert out.true_positives == ()
    assert [d.detection_id for d in out.false_positives] == ["d"]
    assert false_negatives(out) == ("g",)


def test_empty_inputs():
    gts = make_gt([("g", "im", (0, 0, 10, 10))])
    out = match_detections(detection_set(()), gts)
    assert false_negatives(out) == ("g",)
    assert out.total_gt == 1

    empty_gt = ground_truth(images=(ImageInfo(id="im", file_name="", width=10, height=10),), instances=())
    dets = make_dets([("d", "im", (0, 0, 5, 5), 0.5)])
    out = match_detections(dets, empty_gt)
    assert out.total_gt == 0
    assert [d.detection_id for d in out.false_positives] == ["d"]


def test_threshold_validation():
    gts = make_gt([("g", "im", (0, 0, 10, 10))])
    dets = make_dets([("d", "im", (0, 0, 10, 10), 0.9)])
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValidationError):
            match_detections(dets, gts, iou_threshold=bad)
    for bad in (-0.1, 1.01):
        with pytest.raises(ValidationError):
            match_detections(dets, gts, score_threshold=bad)


def test_input_order_does_not_matter():
    rng = np.random.default_rng(7)
    gts = make_gt([(f"g{i}", "im", (10.0 * i, 0, 8, 8)) for i in range(6)])
    entries = [
        (f"d{i}", "im", (10.0 * (i % 7) + rng.uniform(-2, 2), 0.0, 8.0, 8.0), round(s, 6))
        for i, s in enumerate(rng.uniform(0.1, 1.0, 12))
    ]
    baseline = match_detections(make_dets(entries), gts, iou_threshold=0.3)
    for _ in range(5):
        rng.shuffle(entries)
        out = match_detections(make_dets(entries), gts, iou_threshold=0.3)
        assert set(d.detection_id for d, _ in out.true_positives) == set(
            d.detection_id for d, _ in baseline.true_positives
        )
        assert false_negatives(out) == false_negatives(baseline)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conservation_property(data):
    n_gt = data.draw(st.integers(0, 8))
    n_det = data.draw(st.integers(0, 12))
    if n_gt:
        gts = make_gt(
            [
                (f"g{i}", f"im{data.draw(st.integers(0, 2))}", astuple(data.draw(boxes)))
                for i in range(n_gt)
            ]
        )
    else:
        gts = ground_truth(images=(ImageInfo(id="im0", file_name="", width=10, height=10),), instances=())
    dets = make_dets(
        [
            (
                f"d{i}",
                f"im{data.draw(st.integers(0, 2))}",
                astuple(data.draw(boxes)),
                data.draw(st.floats(0, 1)),
            )
            for i in range(n_det)
        ]
    )
    thr = data.draw(st.sampled_from([0.3, 0.5, 0.75]))
    out = match_detections(dets, gts, iou_threshold=thr)

    assert len(out.true_positives) + len(false_negatives(out)) == out.total_gt == n_gt
    matched_dets = {d.detection_id for d, _ in out.true_positives}
    fp_dets = {d.detection_id for d in out.false_positives}
    assert not matched_dets & fp_dets
    assert len(matched_dets) + len(fp_dets) == n_det
    matched_gts = [g for _, g in out.true_positives]
    assert len(set(matched_gts)) == len(matched_gts)


def test_score_threshold_monotonicity():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n_gt = int(rng.integers(1, 6))
        gts = make_gt([(f"g{i}", "im", (12.0 * i, 0, 10, 10)) for i in range(n_gt)])
        dets = make_dets(
            [
                (
                    f"d{i}",
                    "im",
                    (12.0 * rng.integers(0, n_gt) + rng.uniform(-3, 3), 0.0, 10.0, 10.0),
                    float(np.round(rng.uniform(0, 1), 2)),
                )
                for i in range(int(rng.integers(0, 10)))
            ]
        )
        previous = None
        for thr in (0.0, 0.25, 0.5, 0.75, 1.0):
            n_tp = len(match_detections(dets, gts, score_threshold=thr).true_positives)
            if previous is not None:
                assert n_tp <= previous
            previous = n_tp


lattice_boxes = st.builds(
    BoundingBox,
    st.integers(0, 6).map(float),
    st.integers(0, 6).map(float),
    st.sampled_from([2.0, 3.0, 4.0]),
    st.sampled_from([2.0, 3.0, 4.0]),
)
SCORE_CUTS = (0.0, 0.01, 0.1, 0.3, 0.5, 0.7, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_higher_score_cut_is_a_prefix_of_the_base_outcome(data):
    # Lattice boxes and a few score levels make tied IoUs and tied scores common.
    gts = make_gt(
        [
            (f"g{i}", f"im{data.draw(st.integers(0, 1))}", astuple(data.draw(lattice_boxes)))
            for i in range(data.draw(st.integers(1, 8)))
        ]
    )
    dets = make_dets(
        [
            (
                f"d{i}",
                f"im{data.draw(st.integers(0, 1))}",
                astuple(data.draw(lattice_boxes)),
                data.draw(st.sampled_from(SCORE_CUTS)),
            )
            for i in range(data.draw(st.integers(0, 14)))
        ]
    )
    base = data.draw(st.sampled_from(SCORE_CUTS[:3]))
    for t in IOU_GRID:
        outcome = match_detections(dets, gts, t, base)
        # The same outcome built by hand, its TPs and FPs in a drawn order.
        rebuilt = match_outcome(
            true_positives=tuple(data.draw(st.permutations(outcome.true_positives))),
            false_positives=tuple(data.draw(st.permutations(outcome.false_positives))),
            false_negatives=false_negatives(outcome),
        )
        assert average_precision(rebuilt) == average_precision(outcome)
        for cut in SCORE_CUTS:
            if cut < base:
                continue
            expected = match_detections(dets, gts, t, cut)
            tps = [(d.detection_id, g) for d, g in outcome.true_positives if d.score >= cut]
            assert tps == [(d.detection_id, g) for d, g in expected.true_positives]
            fps = [d.detection_id for d in outcome.false_positives if d.score >= cut]
            assert fps == [d.detection_id for d in expected.false_positives]
            claimed = {g for _, g in tps}
            fns = [inst.instance_id for inst in gts.instances if inst.instance_id not in claimed]
            assert fns == list(false_negatives(expected))


@pytest.mark.parametrize("changes, message", [
    ({"kept": [0, 0, 1]}, "kept detections must be distinct and in rank order"),
    ({"kept": [1, 0, 2]}, "kept detections must be distinct and in rank order"),
    ({"kept": [0, 2, 1]}, "kept detections must be distinct and in rank order"),
    ({"kept": [0, 1, 3]}, "kept positions must lie in [0, 3)"),
    ({"claims": [0, 0, -1]}, "a ground-truth instance was claimed twice"),
    ({"claims": [0, 2, -1]}, "claims must lie in [-1, 2)"),
    ({"claims": [0, -1]}, "must be 1-D columns of one length"),
], ids=["kept twice", "score order", "id order", "unknown detection", "claimed twice",
        "unknown instance", "claims length"])
def test_match_outcome_constructor_refuses_each_broken_invariant(changes, message):
    # d1 scores 0.9 and claims g1; d2 and d3 tie at 0.5, so d2 ranks first.
    dets = DetectionSet(ids=["d1", "d2", "d3"], image_ids=["im"] * 3,
                        boxes=[(0, 0, 1, 1)] * 3, scores=[0.9, 0.5, 0.5])
    gts = GroundTruthSet(images=(ImageInfo("im", "", 8, 8),), ids=["g1", "g2"],
                         image_ids=["im"] * 2, boxes=[(0, 0, 1, 1)] * 2)
    columns = dict(dets=dets, gts=gts, kept=[0, 1, 2], claims=[0, -1, -1])
    assert MatchOutcome(**columns).total_gt == 2
    with pytest.raises(ValidationError, match=re.escape(message)):
        MatchOutcome(**{**columns, **changes})


# ------------------------------------------------------------------ IoU table


def table_cells(dets, gts):
    """The IoU table of one image: det boxes by gt boxes, as the matcher builds it."""
    out = np.empty((1, len(dets), len(gts)))
    det_rows, gt_rows = (np.array([astuple(b) for b in boxes]) for boxes in (dets, gts))
    _iou_cells(_edges(det_rows)[None, :-1], _edges(gt_rows)[None, :-1], out)
    return out[0]


def assert_cells_are_iou(dets, gts):
    cells = table_cells(dets, gts)
    for i, a in enumerate(dets):
        for j, b in enumerate(gts):
            assert cells[i, j].hex() == iou(a, b).hex(), (a, b)


wide_boxes = st.builds(
    BoundingBox,
    st.floats(-1e4, 1e4),
    st.floats(-1e4, 1e4),
    st.floats(1e-3, 1e4),
    st.floats(1e-3, 1e4),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(wide_boxes, lattice_boxes), min_size=1, max_size=6),
       st.lists(st.one_of(wide_boxes, lattice_boxes), min_size=1, max_size=6))
def test_iou_table_cells_are_bit_equal_to_iou(dets, gts):
    # Lattice boxes make touching edges, duplicates and identical boxes common.
    assert_cells_are_iou(dets, gts)


def test_iou_table_at_the_box_limits_warns_nothing():
    big, tiny = sys.float_info.max, sys.float_info.min
    boxes = [
        BoundingBox(-big, -1.0, big, 0.5),  # area MAX / 2, far edges 0 and -0.5
        BoundingBox(big / 2, 0.0, big / 2, 1.0),  # far edge MAX, area MAX / 2
        BoundingBox(-1e300, 1e-300, 1e290, 1e-290),  # a small box far from the others
        BoundingBox(0.0, 0.0, tiny, 1.0),  # area the least normal float
        BoundingBox(0.0, 0.0, 1.0, tiny),
        BoundingBox(tiny, 0.0, 1.0, 1.0),
        BoundingBox(0.0, 0.0, 2.0, big / 4),
        # x + w rounds, so iou sees the extent 2**949, a fifth below w.
        BoundingBox(2.0**1000, 2.0**60, 1.25 * 2.0**949, 1.25 * 2.0**70),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_cells_are_iou(boxes, boxes)
        gts = make_gt([(f"g{i}", "im", astuple(b)) for i, b in enumerate(boxes)])
        dets = make_dets([(f"d{i}", "im", astuple(b), 0.5) for i, b in enumerate(boxes)])
        assert plain(match_detections(dets, gts, 0.5)) == plain(match_detections_loop(dets, gts, 0.5))


# Starts in units of the extent: beyond 2**52 extents the far edge x + w rounds,
# and near these multiples the extent is about 0.55 to 3 float spacings.
NEAR_SPACING = tuple(sign * 2.0**52 / k for k in (0.55, 0.7, 1.0, 1.5, 2.0, 3.0) for sign in (1, -1))


@st.composite
def axes(draw):
    """(start, extent) of one box axis; two extents multiply to an area in the box limits."""
    extent = draw(st.floats(2.0**-511, 2.0**511))
    return extent * draw(st.one_of(st.floats(-2.0**60, 2.0**60), st.sampled_from(NEAR_SPACING))), extent


@settings(max_examples=300, deadline=None)
@given(axes(), axes(), axes(), axes(), st.booleans())
def test_iou_of_any_two_accepted_boxes_is_a_float_in_0_1(ax, ay, bx, by, same):
    try:
        a = BoundingBox(ax[0], ay[0], ax[1], ay[1])
        b = a if same else BoundingBox(bx[0], by[0], bx[1], by[1])
    except ValidationError:
        return  # the box limits refuse it
    # Comparing a box with itself is where a rounded extent made iou negative,
    # NaN (clamped to 1.0) or a division of 0 by 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.0 <= iou(a, b) <= 1.0
        assert_cells_are_iou([a, b], [a, b])


# Instance ids whose string order differs from their insertion order: NULs,
# digits, case and non-ASCII.
INSTANCE_IDS = ("b", "a\0", "a", "a\0\0", "10", "9", "B", "é", "a\0b")
IMAGES = ("im0", "im1", "im2", "im3")


@st.composite
def scenes(draw):
    """Tied scores and IoUs, duplicate boxes, images with instances but no
    detections, and detections on images with no instances or no entry."""
    ids = draw(st.permutations(INSTANCE_IDS))[:draw(st.integers(0, len(INSTANCE_IDS)))]
    gt_images = draw(st.lists(st.sampled_from(IMAGES[:3]), min_size=len(ids), max_size=len(ids)))
    gt_boxes = [draw(lattice_boxes) for _ in ids]
    gts = ground_truth(
        images=tuple(ImageInfo(id=i, file_name="", width=10, height=10) for i in IMAGES[:3]),
        instances=tuple(GroundTruthInstance(image_id=im, box=box, instance_id=iid)
                        for iid, im, box in zip(ids, gt_images, gt_boxes)),
    )
    dets = []
    for k in range(draw(st.integers(0, 14))):
        # a copy of a ground-truth box is a duplicate with IoU exactly 1
        box = draw(st.sampled_from(gt_boxes)) if gt_boxes and draw(st.booleans()) \
            else draw(lattice_boxes)
        dets.append(Detection(image_id=draw(st.sampled_from(IMAGES)), box=box,
                              score=draw(st.sampled_from(SCORE_CUTS)), detection_id=f"d{k}"))
    return detection_set(dets), gts


@settings(max_examples=150, deadline=None)
@given(scenes(), st.data())
def test_matcher_equals_the_loop_oracle(scene, data):
    dets, gts = scene
    # Boundary thresholds: an IoU the scene holds exactly, and the next float above it.
    overlaps = sorted({iou(d.box, g.box) for d in dets.detections for g in gts.instances} - {0.0})
    exact = data.draw(st.sampled_from(overlaps)) if overlaps else 1.0
    thresholds = (*IOU_GRID, exact, float(np.nextafter(exact, 2.0)), 1.0)
    for score_threshold in (0.0, data.draw(st.sampled_from(SCORE_CUTS))):
        match = iou_matcher(dets, gts, score_threshold)
        for t in thresholds:
            expected = outcome_or_error(match_detections_loop, dets, gts, t, score_threshold)
            assert outcome_or_error(match, t) == expected
            assert outcome_or_error(match_detections, dets, gts, t, score_threshold) == expected
    # Invalid thresholds fail with the oracle's errors, the IoU threshold checked first.
    for t, score_threshold in ((1.5, 0.5), (float("nan"), 0.5), (0.5, 1.5), (0.0, -1.0)):
        expected = outcome_or_error(match_detections_loop, dets, gts, t, score_threshold)
        assert isinstance(expected, str)
        assert outcome_or_error(match_detections, dets, gts, t, score_threshold) == expected


def outcome_or_error(fn, *args):
    try:
        return plain(fn(*args))
    except ValidationError as exc:
        return str(exc)


def test_skewed_images_are_matched_within_a_memory_bound():
    """One image with 10,000 detections beside 799 images with 40 each."""
    rng = np.random.default_rng(5)
    sizes = [10_000] + [40] * 799
    gts_per_image = 10
    instances, detections = [], []
    for image, n in enumerate(sizes):
        grid = rng.integers(0, 20, (gts_per_image, 2)).astype(float) * 4.0
        for j, (x, y) in enumerate(grid):
            instances.append((f"g{image}-{j}", f"im{image}", (x, y, 6.0, 6.0)))
        picks = rng.integers(0, gts_per_image, n)
        jitter = rng.integers(-3, 4, (n, 2)).astype(float)
        for k in range(n):
            x, y = grid[picks[k]] + jitter[k]
            detections.append((f"d{image}-{k}", f"im{image}", (x, y, 6.0, 6.0),
                               float(rng.integers(0, 20)) / 20))
    gts, dets = make_gt(instances), make_dets(detections)
    unpadded_bytes = 8 * gts_per_image * sum(sizes)

    tracemalloc.start()
    try:
        outcome = match_detections(dets, gts, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * unpadded_bytes + (1 << 20), (peak, unpadded_bytes)
    assert plain(outcome) == plain(match_detections_loop(dets, gts, 0.5))
