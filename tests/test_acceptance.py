"""Acceptance gate: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Each test states its tolerance inline; exact means ``==``.
"""

import json
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracles import ap_t2t_bruteforce, ap_t2t_exact, make_random_annotated
from records import annotated_outcome, detection_set, false_negatives, ground_truth, match_outcome
from t2tmetrics import (
    AnnotatedEntry,
    BoundingBox,
    Detection,
    FeatureMatrix,
    GaussianTrainModel,
    GroundTruthInstance,
    ImageInfo,
    Kind,
    annotate_distances,
    ap_t2t,
    average_precision,
    build_accuracy_curve,
    fit_gaussian,
    generate_scenario,
    match_detections,
    matching_image_count,
    metric_report,
    shrink_tp_distances,
    train2test_distances,
)
from t2tmetrics.cli import main
from t2tmetrics.scenario import ScenarioSpec

GOLDEN_DIR = Path(__file__).parent / "goldens"


def as_matrix(data):
    data = np.asarray(data, dtype=np.float64)
    return FeatureMatrix(data=data, row_ids=tuple(f"r{i}" for i in range(len(data))))


def annotated(tp_distances, fp_distances, total_gt):
    entries = [
        AnnotatedEntry(detection_id=f"t{i}", kind=Kind.TP, score=0.9, distance=float(d))
        for i, d in enumerate(tp_distances)
    ] + [
        AnnotatedEntry(detection_id=f"f{i}", kind=Kind.FP, score=0.8, distance=float(d))
        for i, d in enumerate(fp_distances)
    ]
    return annotated_outcome(entries=tuple(entries), total_gt=total_gt)


def test_c01_ap_t2t_matches_bruteforce_oracle_on_1000_outcomes():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    for trial in range(1000):
        out = make_random_annotated(rng, max_entries=50, max_gt=60, lattice=trial % 3 == 0)
        got = ap_t2t(out)
        want = ap_t2t_bruteforce(
            out.dist[out.tp], out.dist[~out.tp], out.total_gt
        )
        assert abs(got - want) <= 1e-12, f"trial {trial}: {got} vs {want}"
    assert time.perf_counter() - start < 10.0


def test_c02_hand_worked_case_is_five_sixths_exactly():
    out = annotated(tp_distances=[1.0, 3.0], fp_distances=[2.0], total_gt=2)
    assert ap_t2t(out) == 5 / 6
    assert ap_t2t_exact([1.0, 3.0], [2.0], 2) == Fraction(5, 6)


def test_c03_distance_zero_at_mean_identity_case_and_solver_agreement():
    identity = GaussianTrainModel(np.zeros(2), np.eye(2), regularization=0.0)
    assert train2test_distances(identity, [np.array([3.0, 4.0])])[0] == 25.0
    assert train2test_distances(identity, [np.zeros(2)])[0] == 0.0

    rng = np.random.default_rng(7)
    for _ in range(100):
        basis = np.eye(10) + 0.3 * rng.standard_normal((10, 10))
        data = rng.standard_normal((80, 10)) @ basis.T + rng.uniform(-3, 3, 10)
        model = fit_gaussian(as_matrix(data))
        assert train2test_distances(model, [model.mean])[0] == 0.0
        query = rng.standard_normal(10) * 4.0
        r = query - model.mean
        sigma = model.covariance + model.regularization * np.eye(10)
        reference = float(r @ np.linalg.solve(sigma, r))
        got = train2test_distances(model, [query])[0]
        assert abs(got - reference) <= 1e-9 * max(reference, 1.0)


def test_c04_affine_invariance_within_1e6_relative():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((40, 5))
    queries = rng.standard_normal((10, 5)) * 2.0
    base = fit_gaussian(as_matrix(data), regularization=0.0)
    base_d = [train2test_distances(base, [q])[0] for q in queries]

    for _ in range(100):
        a = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        b = rng.uniform(-5.0, 5.0, 5)
        moved = fit_gaussian(as_matrix(data @ a.T + b), regularization=0.0)
        for q, want in zip(queries, base_d):
            got = train2test_distances(moved, [a @ q + b])[0]
            assert abs(got - want) <= 1e-6 * max(want, 1.0)


def test_c05_ap_staircase_and_iou_grid_case_exact():
    det = lambda i, score: Detection(
        detection_id=f"d{i}", image_id="im", box=BoundingBox(0, 0, 1, 1), score=score
    )
    outcome = match_outcome(
        true_positives=((det(1, 0.9), "g1"), (det(3, 0.7), "g2")),
        false_positives=(det(2, 0.8),),
        false_negatives=(),
    )
    assert average_precision(outcome) == 5 / 6

    gts = ground_truth(
        images=(ImageInfo(id="im", file_name="", width=10, height=10),),
        instances=(
            GroundTruthInstance(image_id="im", box=BoundingBox(0, 0, 3, 1), instance_id="g"),
        ),
    )
    dets = detection_set(detections=(
        Detection(detection_id="d", image_id="im", box=BoundingBox(0.75, 0, 3, 1), score=0.9,
                  feature=np.zeros(2)),
    ))
    model = GaussianTrainModel(np.zeros(2), np.eye(2))
    assert metric_report(model, dets, gts)[0].ap_5095 == 0.3


def test_c06_order_only_dependence_exact_over_1000_transform_pairs():
    rng = np.random.default_rng(23)
    for _ in range(200):
        out = make_random_annotated(rng, max_entries=40, max_gt=50, lattice=True)
        base = ap_t2t(out)
        transforms = [
            lambda x, s=2.0 ** int(rng.integers(-3, 4)), o=int(rng.integers(0, 801)) / 8.0:
                s * x + o
            for _ in range(3)
        ]
        transforms += [lambda x: x * x, lambda x: x * x * x]
        for fn in transforms:
            moved = annotated_outcome(
                entries=tuple(replace(e, distance=fn(e.distance)) for e in out.entries),
                total_gt=out.total_gt,
            )
            assert ap_t2t(moved) == base


def test_c07_single_entry_improvement_never_decreases_ap_t2t():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(200):
        out = make_random_annotated(rng, max_entries=30, max_gt=40, ties=False)
        before = ap_t2t(out)
        before_exact = ap_t2t_exact(out.dist[out.tp], out.dist[~out.tp], out.total_gt)
        assert abs(before - float(before_exact)) <= 1e-12

        tp_idx = [i for i, e in enumerate(out.entries) if e.kind is Kind.TP]
        fp_idx = [i for i, e in enumerate(out.entries) if e.kind is Kind.FP]
        moves = []
        if tp_idx:
            moves.append((int(rng.choice(tp_idx)), 0.5))
        if fp_idx:
            moves.append((int(rng.choice(fp_idx)), 2.0))
        for index, factor in moves:
            entries = list(out.entries)
            entries[index] = replace(entries[index], distance=entries[index].distance * factor)
            moved = annotated_outcome(entries=tuple(entries), total_gt=out.total_gt)
            after = ap_t2t(moved)
            after_exact = ap_t2t_exact(
                moved.dist[moved.tp], moved.dist[~moved.tp], moved.total_gt
            )
            assert after_exact >= before_exact
            assert after >= before - 1e-12
            checked += 1
    assert checked >= 200


def test_c08_matching_conserves_instances_and_tp_is_monotone_in_score_cut():
    rng = np.random.default_rng(43)

    def box():
        x, y = rng.integers(0, 40, 2)
        w, h = rng.integers(1, 20, 2)
        return BoundingBox(float(x) / 2, float(y) / 2, float(w) / 2, float(h) / 2)

    for trial in range(1000):
        image_ids = [f"im{k}" for k in range(int(rng.integers(1, 4)))]
        images = tuple(
            ImageInfo(id=i, file_name="", width=40, height=40) for i in image_ids
        )
        n_gt = int(rng.integers(0, 9))
        gts = ground_truth(
            images=images,
            instances=tuple(
                GroundTruthInstance(
                    image_id=image_ids[int(rng.integers(0, len(image_ids)))],
                    box=box(),
                    instance_id=f"g{j}",
                )
                for j in range(n_gt)
            ),
        )
        dets = detection_set(detections=tuple(
            Detection(
                detection_id=f"d{j}",
                image_id=image_ids[int(rng.integers(0, len(image_ids)))],
                box=box(),
                score=float(rng.integers(0, 11)) / 10,
            )
            for j in range(int(rng.integers(0, 13)))
        ))
        iou_cut = (0.3, 0.5, 0.75)[trial % 3]

        tp_sizes = []
        for score_cut in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = match_detections(dets, gts, iou_cut, score_cut)
            assert len(out.true_positives) + len(false_negatives(out)) == n_gt
            claimed = [inst for _, inst in out.true_positives]
            assert len(set(claimed)) == len(claimed)
            det_ids = [d.detection_id for d, _ in out.true_positives]
            det_ids += [d.detection_id for d in out.false_positives]
            assert len(set(det_ids)) == len(det_ids)
            tp_sizes.append(len(out.true_positives))
        assert tp_sizes == sorted(tp_sizes, reverse=True)


def test_c09_replacement_interpolation_knots_midpoint_and_saturation():
    curve = build_accuracy_curve([(5, 0.2), (10, 0.4), (20, 0.8)])
    for count, accuracy in [(5, 0.2), (10, 0.4), (20, 0.8)]:
        hit = matching_image_count(curve, accuracy)
        assert hit.matched_same_domain_count == float(count)
        assert not hit.saturated

    two_knot = build_accuracy_curve([(5, 0.2), (10, 0.4)])
    mid = matching_image_count(two_knot, 0.3)
    assert mid.matched_same_domain_count == 7.5
    assert not mid.saturated

    above = matching_image_count(two_knot, 0.5)
    assert above.matched_same_domain_count == 10.0 and above.saturated
    below = matching_image_count(two_knot, 0.1)
    assert below.matched_same_domain_count == 5.0 and below.saturated


def test_c10_pipeline_reproduces_goldens_and_separated_scenario_is_perfect(tmp_path):
    compared = ("metrics.csv", "summary.json", "distance_hist_tp.csv", "distance_hist_fp.csv")
    runs = []
    for run in ("run1", "run2"):
        data = tmp_path / run / "data"
        out = tmp_path / run / "out"
        assert main(["scenario", "--seed", "42", "--out", str(data)]) == 0
        assert main([
            "evaluate",
            "--gt", str(data / "ground_truth.json"),
            "--det", str(data / "detections.json"),
            "--features", str(data / "features.t2tfeat"),
            "--train-features", str(data / "train_features.t2tfeat"),
            "--out", str(out),
        ]) == 0
        for name in compared:
            assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
        runs.append(out)
    for name in ("distance_hist_tp.svg", "distance_hist_fp.svg"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    spec = tmp_path / "separated.json"
    spec.write_text(json.dumps({
        "n_gt": 12, "n_tp": 12, "n_fp": 6, "feature_dim": 6,
        "tp_distance_scale": 0.25, "fp_distance_scale": 100.0,
        "seed": 7, "n_train": 60,
    }))
    data = tmp_path / "sep_data"
    out = tmp_path / "sep_out"
    assert main(["scenario", "--spec", str(spec), "--out", str(data)]) == 0
    assert main([
        "evaluate",
        "--gt", str(data / "ground_truth.json"),
        "--det", str(data / "detections.json"),
        "--features", str(data / "features.t2tfeat"),
        "--train-features", str(data / "train_features.t2tfeat"),
        "--out", str(out),
    ]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["ap_t2t"]["all"] == 1.0


def test_c11_shrinking_tp_distances_never_lowers_med_regime_ap_t2t():
    spec = ScenarioSpec(
        n_gt=24, n_tp=20, n_fp=16, feature_dim=4, seed=41,
        tp_distance_scale=2.0, fp_distance_scale=6.0, n_train=40,
    )
    scenario = generate_scenario(spec)
    model = scenario.planted_model()

    def med_ap_t2t(s):
        outcome = match_detections(s.detections, s.ground_truth, 0.5, 0.1)
        return ap_t2t(annotate_distances(model, outcome))

    factors = (1.0, 0.7, 0.4, 0.2, 0.05)
    series = [med_ap_t2t(shrink_tp_distances(scenario, f)) for f in factors]
    assert series == sorted(series)
    assert series[-1] > series[0]
