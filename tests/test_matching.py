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
    ValidationError,
    iou,
    match_detections,
)


def make_gt(instances):
    image_ids = sorted({img for _, img, _ in instances})
    return GroundTruthSet(
        images=tuple(ImageInfo(id=i, file_name="", width=1000, height=1000) for i in image_ids),
        instances=tuple(
            GroundTruthInstance(instance_id=iid, image_id=img, box=BoundingBox(*box))
            for iid, img, box in instances
        ),
    )


def make_dets(dets):
    return DetectionSet(
        detections=tuple(
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
    assert out.false_negatives == ()


def test_detection_takes_best_iou_among_free_gt():
    gts = make_gt([("worse", "im", (4, 0, 10, 10)), ("better", "im", (1, 0, 10, 10))])
    dets = make_dets([("d", "im", (0, 0, 10, 10), 0.5)])
    out = match_detections(dets, gts, iou_threshold=0.1)
    assert out.true_positives == ((dets.detections[0], "better"),)
    assert out.false_negatives == ("worse",)


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
    assert out.false_negatives == ("g",)


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
    assert out.false_negatives == ("g2",)


def test_matching_is_per_image():
    gts = make_gt([("g", "im1", (0, 0, 10, 10))])
    dets = make_dets([("d", "im2", (0, 0, 10, 10), 0.9)])
    out = match_detections(dets, gts, iou_threshold=0.5)
    assert out.true_positives == ()
    assert [d.detection_id for d in out.false_positives] == ["d"]
    assert out.false_negatives == ("g",)


def test_empty_inputs():
    gts = make_gt([("g", "im", (0, 0, 10, 10))])
    out = match_detections(DetectionSet(detections=()), gts)
    assert out.false_negatives == ("g",)
    assert out.total_gt == 1

    empty_gt = GroundTruthSet(images=(ImageInfo(id="im", file_name="", width=10, height=10),), instances=())
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
        assert out.false_negatives == baseline.false_negatives


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conservation_property(data):
    n_gt = data.draw(st.integers(0, 8))
    n_det = data.draw(st.integers(0, 12))
    if n_gt:
        gts = make_gt(
            [
                (f"g{i}", f"im{data.draw(st.integers(0, 2))}", data.draw(boxes).to_list())
                for i in range(n_gt)
            ]
        )
    else:
        gts = GroundTruthSet(images=(ImageInfo(id="im0", file_name="", width=10, height=10),), instances=())
    dets = make_dets(
        [
            (
                f"d{i}",
                f"im{data.draw(st.integers(0, 2))}",
                data.draw(boxes).to_list(),
                data.draw(st.floats(0, 1)),
            )
            for i in range(n_det)
        ]
    )
    thr = data.draw(st.sampled_from([0.3, 0.5, 0.75]))
    out = match_detections(dets, gts, iou_threshold=thr)

    assert len(out.true_positives) + len(out.false_negatives) == out.total_gt == n_gt
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
            (f"g{i}", f"im{data.draw(st.integers(0, 1))}", data.draw(lattice_boxes).to_list())
            for i in range(data.draw(st.integers(1, 8)))
        ]
    )
    dets = make_dets(
        [
            (
                f"d{i}",
                f"im{data.draw(st.integers(0, 1))}",
                data.draw(lattice_boxes).to_list(),
                data.draw(st.sampled_from(SCORE_CUTS)),
            )
            for i in range(data.draw(st.integers(0, 14)))
        ]
    )
    base = data.draw(st.sampled_from(SCORE_CUTS[:3]))
    for t in IOU_GRID:
        outcome = match_detections(dets, gts, t, base)
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
            assert fns == list(expected.false_negatives)
