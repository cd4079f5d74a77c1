import numpy as np
import pytest

from t2tmetrics import (
    Scenario,
    ScenarioSpec,
    ValidationError,
    annotate_distances,
    ap_t2t,
    ap_t2t_profile,
    generate_scenario,
    iou,
    load_detections,
    load_feature_matrix,
    load_ground_truth,
    match_detections,
    shrink_tp_distances,
    train2test_distances,
)
from records import plain


def small_spec(**overrides):
    base = dict(n_gt=10, n_tp=8, n_fp=5, feature_dim=4, seed=123, n_train=40)
    base.update(overrides)
    return ScenarioSpec(**base)


# ------------------------------------------------------------------------ spec


def test_spec_validation():
    with pytest.raises(ValidationError):
        small_spec(n_tp=11)
    with pytest.raises(ValidationError):
        small_spec(n_fp=-1)
    with pytest.raises(ValidationError):
        small_spec(n_gt=0)
    with pytest.raises(ValidationError):
        small_spec(tp_distance_scale=0.0)
    with pytest.raises(ValidationError):
        small_spec(tp_score_range=(0.8, 0.2))
    with pytest.raises(ValidationError):
        small_spec(fp_score_range=(0.0, 1.5))
    with pytest.raises(ValidationError):
        small_spec(seed=-1)
    with pytest.raises(ValidationError):
        small_spec(seed=2**64)
    with pytest.raises(ValidationError):
        small_spec(n_train=1)
    with pytest.raises(ValidationError):
        small_spec(n_tp=0, n_fp=0)


# The first refused values; the spec is refused before any data is generated.
def test_spec_needs_one_detection():
    small_spec(n_tp=0, n_fp=1)
    with pytest.raises(ValidationError) as err:
        small_spec(n_tp=0, n_fp=0)
    assert str(err.value) == "n_tp + n_fp must be >= 1, got 0"


@pytest.mark.parametrize("value", [(0.5,), (0.2, 0.5, 0.9), (0.2, float("nan"))])
def test_spec_score_range_must_be_a_finite_pair(value):
    with pytest.raises(ValidationError) as err:
        small_spec(fp_score_range=value)
    assert str(err.value) == "fp_score_range must be a (min, max) pair"


@pytest.mark.parametrize("name", ["tp_distance_scale", "fp_distance_scale"])
def test_spec_distance_scale_keeps_float32_features_finite(name):
    largest = float(np.finfo(np.float32).max) / 8  # exact: 8 is a power of two
    small_spec(feature_dim=8, **{name: largest})
    refused = float(np.nextafter(largest, np.inf))
    with pytest.raises(ValidationError) as err:
        small_spec(feature_dim=8, **{name: refused})
    assert str(err.value) == (
        f"{name} x feature_dim must be <= 3.4028234663852886e+38, got {refused} x 8")


@pytest.mark.parametrize("overrides, field", [
    (dict(n_gt=10**7 + 1), "n_gt"),
    (dict(n_fp=10**7 + 1), "n_fp"),
    (dict(n_train=10**7 + 1), "n_train"),
    (dict(n_gt=10**7, n_tp=10**7, n_fp=0, feature_dim=215), "(n_tp + n_fp) x feature_dim"),
    (dict(n_tp=0, n_fp=1, n_train=3, feature_dim=2**30), "n_train x feature_dim"),
])
def test_spec_sizes_have_upper_bounds(overrides, field):
    with pytest.raises(ValidationError) as err:
        small_spec(**overrides)
    assert field in str(err.value)


def test_spec_at_its_upper_bounds_is_valid():
    small_spec(n_gt=10**7, n_tp=10**7, n_fp=10**7, n_train=10**7, feature_dim=107)


def test_spec_dict_round_trip():
    spec = small_spec(tp_score_range=(0.6, 0.9))
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValidationError) as err:
        ScenarioSpec.from_dict({"n_gt": 5, "n_tpp": 3})
    assert "n_tpp" in str(err.value)


def test_spec_dict_holds_every_field_in_order_with_lists_for_pairs():
    spec = ScenarioSpec(seed=7)
    assert list(spec.to_dict().items()) == [
        ("n_gt", 40), ("n_tp", 30), ("n_fp", 15), ("feature_dim", 8),
        ("tp_distance_scale", 1.0), ("fp_distance_scale", 9.0),
        ("tp_score_range", [0.5, 1.0]), ("fp_score_range", [0.02, 0.8]),
        ("seed", 7), ("n_train", 80),
    ]


# --------------------------------------------------------------- determinism


def test_same_seed_reproduces_everything(tmp_path):
    a = generate_scenario(small_spec())
    b = generate_scenario(small_spec())
    np.testing.assert_array_equal(a.test_features.data, b.test_features.data)
    np.testing.assert_array_equal(a.train_features.data, b.train_features.data)
    np.testing.assert_array_equal(a.planted_mean, b.planted_mean)
    assert [d.score for d in a.detections.detections] == [
        d.score for d in b.detections.detections
    ]
    assert plain(a.ground_truth) == plain(b.ground_truth)

    paths_a = a.write(tmp_path / "a")
    paths_b = b.write(tmp_path / "b")
    assert set(paths_a) == {"ground_truth", "detections", "features", "train_features"}
    for key in paths_a:
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes()


def test_different_seeds_differ():
    a = generate_scenario(small_spec(seed=1))
    b = generate_scenario(small_spec(seed=2))
    assert not np.array_equal(a.test_features.data, b.test_features.data)


def test_write_round_trips_through_loaders(tmp_path):
    scenario = generate_scenario(small_spec())
    paths = scenario.write(tmp_path)

    assert plain(load_ground_truth(paths["ground_truth"])) == plain(scenario.ground_truth)
    dets = load_detections(paths["detections"])
    assert [d.detection_id for d in dets.detections] == [
        d.detection_id for d in scenario.detections.detections
    ]
    assert [d.score for d in dets.detections] == [
        d.score for d in scenario.detections.detections
    ]

    # float32 quantization happened at generation, so files match memory exactly
    feats = load_feature_matrix(paths["features"])
    np.testing.assert_array_equal(feats.data, scenario.test_features.data)
    train = load_feature_matrix(paths["train_features"])
    np.testing.assert_array_equal(train.data, scenario.train_features.data)


# ------------------------------------------------------------------- geometry


def test_planted_tp_boxes_hit_their_own_instances():
    scenario = generate_scenario(small_spec(n_gt=30, n_tp=30, n_fp=30))
    outcome = match_detections(scenario.detections, scenario.ground_truth, 0.5, 0.0)

    matched = {d.detection_id: gt for d, gt in outcome.true_positives}
    assert set(matched) == scenario.tp_detection_ids
    for det_id, gt_id in matched.items():
        assert det_id.split("-")[1] == gt_id.split("-")[1]
    assert {d.detection_id for d in outcome.false_positives} == {
        f"fp-{i:05d}" for i in range(30)
    }

    by_id = {g.instance_id: g for g in scenario.ground_truth.instances}
    for det, gt_id in outcome.true_positives:
        assert iou(det.box, by_id[gt_id].box) >= 0.777


def test_boxes_stay_inside_images():
    scenario = generate_scenario(small_spec(n_gt=60, n_tp=40, n_fp=60))
    sizes = {im.id: (im.width, im.height) for im in scenario.ground_truth.images}
    boxes = [(d.image_id, d.box) for d in scenario.detections.detections]
    boxes += [(g.image_id, g.box) for g in scenario.ground_truth.instances]
    for image_id, box in boxes:
        w, h = sizes[image_id]
        assert 0 <= box.x and box.x + box.w <= w
        assert 0 <= box.y and box.y + box.h <= h


# ------------------------------------------------------------------- distances


def test_planted_model_is_exact():
    scenario = generate_scenario(small_spec())
    model = scenario.planted_model()
    np.testing.assert_array_equal(model.mean, scenario.planted_mean)
    np.testing.assert_array_equal(model.covariance, np.eye(4))
    np.testing.assert_array_equal(model.precision, np.eye(4))
    assert model.regularization == 0.0


def test_expected_distance_tracks_scale():
    spec = small_spec(
        n_gt=200, n_tp=200, n_fp=200, feature_dim=8, seed=77,
        tp_distance_scale=1.0, fp_distance_scale=9.0,
    )
    scenario = generate_scenario(spec)
    model = scenario.planted_model()
    outcome = match_detections(scenario.detections, scenario.ground_truth, 0.5, 0.0)
    annotated = annotate_distances(model, outcome)
    mean_tp = annotated.dist[annotated.tp].mean()
    mean_fp = annotated.dist[~annotated.tp].mean()
    assert mean_tp == pytest.approx(1.0 * 8, rel=0.15)
    assert mean_fp == pytest.approx(9.0 * 8, rel=0.15)
    assert mean_tp < mean_fp


def test_perfect_separation_scores_one():
    spec = small_spec(n_gt=12, n_tp=12, n_fp=0)
    scenario = generate_scenario(spec)
    profile = ap_t2t_profile(
        scenario.planted_model(), scenario.detections, scenario.ground_truth
    )
    assert profile == {"all": 1.0, "med": 1.0, "high": 1.0}


# ---------------------------------------------------------------------- shrink


def test_shrink_factor_one_is_identity():
    scenario = generate_scenario(small_spec())
    assert shrink_tp_distances(scenario, 1.0) is scenario


def test_shrink_validation():
    scenario = generate_scenario(small_spec())
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValidationError):
            shrink_tp_distances(scenario, bad)


def test_shrink_scales_planted_distances():
    scenario = generate_scenario(small_spec(n_gt=20, n_tp=20, n_fp=10, seed=9))
    model = scenario.planted_model()
    shrunk = shrink_tp_distances(scenario, 0.25)
    assert isinstance(shrunk, Scenario)

    for det, moved in zip(scenario.detections.detections, shrunk.detections.detections):
        assert det.detection_id == moved.detection_id
        d0 = train2test_distances(model, [det.feature])[0]
        d1 = train2test_distances(model, [moved.feature])[0]
        if det.detection_id in scenario.tp_detection_ids:
            assert d1 == pytest.approx(0.25 * d0, rel=1e-4)
        else:
            assert d1 == d0

    # fp rows and train rows are untouched
    np.testing.assert_array_equal(shrunk.train_features.data, scenario.train_features.data)


def test_shrink_to_zero_reaches_the_upper_bound():
    spec = small_spec(n_gt=10, n_tp=8, n_fp=6, seed=3)
    scenario = generate_scenario(spec)
    model = scenario.planted_model()
    collapsed = shrink_tp_distances(scenario, 0.0)
    for det in collapsed.detections.detections:
        if det.detection_id in scenario.tp_detection_ids:
            # features land on the float32 rounding of the planted mean
            assert train2test_distances(model, [det.feature])[0] < 1e-12

    outcome = match_detections(collapsed.detections, collapsed.ground_truth, 0.5, 0.0)
    annotated = annotate_distances(model, outcome)
    assert ap_t2t(annotated) == 8 / 10


def test_shrink_never_hurts_ap_t2t():
    spec = small_spec(
        n_gt=24, n_tp=20, n_fp=16, seed=41,
        tp_distance_scale=2.0, fp_distance_scale=6.0,
    )
    scenario = generate_scenario(spec)
    model = scenario.planted_model()

    def score(s):
        outcome = match_detections(s.detections, s.ground_truth, 0.5, 0.0)
        return ap_t2t(annotate_distances(model, outcome))

    values = [score(shrink_tp_distances(scenario, f)) for f in (1.0, 0.7, 0.4, 0.2, 0.05)]
    assert values == sorted(values)
