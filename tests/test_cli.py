import contextlib
import dataclasses
import functools
import io
import json
import logging
import os
import struct
import subprocess
import sys
import tempfile
import warnings
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2tmetrics import (
    DEFAULT_SCORE_THRESHOLDS,
    IOU_GRID,
    AnnotatedEntry,
    BarChart,
    BoundingBox,
    Detection,
    DetectionSet,
    DistanceAnnotatedOutcome,
    FeatureMatrix,
    GaussianTrainModel,
    GroundTruthInstance,
    GroundTruthSet,
    Histogram,
    MatchOutcome,
    MetricReport,
    ScenarioSpec,
    annotate_distances,
    bind_features,
    build_accuracy_curve,
    export_csv,
    fit_gaussian,
    generate_scenario,
    load_detections,
    load_feature_matrix,
    load_ground_truth,
    matching_image_count,
    metric_report,
    render_svg,
    save_model,
    scaling_series,
    write_feature_matrix,
)
from t2tmetrics.cli import RunConfig, build_parser, main
from t2tmetrics.feature_model import _MODEL_HEADER, MODEL_MAGIC
from t2tmetrics.ingest import FEATURE_MAGIC
from t2tmetrics.report import _fmt

from oracles import match_detections_loop
from records import detection_set, ground_truth

SCENARIO_SPEC = {
    "n_gt": 8,
    "n_tp": 6,
    "n_fp": 4,
    "feature_dim": 3,
    "seed": 5,
    "n_train": 20,
}

EVALUATE_FILES = (
    "metrics.csv",
    "summary.json",
    "distance_hist_tp.csv",
    "distance_hist_fp.csv",
    "distance_hist_tp.svg",
    "distance_hist_fp.svg",
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def dataset(tmp_path):
    data = tmp_path / "data"
    spec = write_json(tmp_path / "spec.json", SCENARIO_SPEC)
    assert main(["scenario", "--spec", str(spec), "--out", str(data)]) == 0
    return data


def evaluate_args(data, out):
    return [
        "evaluate",
        "--gt", str(data / "ground_truth.json"),
        "--det", str(data / "detections.json"),
        "--features", str(data / "features.t2tfeat"),
        "--train-features", str(data / "train_features.t2tfeat"),
        "--out", str(out),
    ]


def error_lines(err):
    """The ``error:`` lines of stderr, after checking that it holds no traceback."""
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


# -------------------------------------------------------------------- evaluate


def test_evaluate_end_to_end(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(evaluate_args(dataset, out)) == 0
    for name in EVALUATE_FILES:
        assert (out / name).exists()

    stdout = capsys.readouterr().out
    assert "ap=" in stdout and "ap_t2t[all]=" in stdout

    summary = json.loads((out / "summary.json").read_text())
    assert summary["instances"] == 8
    assert summary["detections"] == 10
    assert summary["iou_threshold"] == 0.5
    assert summary["base_regime"] == "all"
    assert set(summary["metrics"]["ap_t2t"]) == {"all", "med", "high"}
    assert 0.0 <= summary["metrics"]["ap"] <= 1.0

    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "regime,ap_t2t,ap,ap_5095,tp,fp,fn"
    assert len(metrics) == 4


def test_evaluate_is_deterministic(dataset, tmp_path):
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(evaluate_args(dataset, out1)) == 0
    assert main(evaluate_args(dataset, out2)) == 0
    for name in EVALUATE_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # rerunning into an existing directory overwrites in place
    assert main(evaluate_args(dataset, out1)) == 0
    for name in EVALUATE_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_evaluate_iou_grid_matches_once_per_threshold_and_measures_once(
    dataset, tmp_path, monkeypatch
):
    # IoU table builds, the thresholds matched from them, annotations, the
    # annotated outcomes built and orderings of their distances count one per
    # call; the distance kernel counts the rows it is given.
    work = {
        "iou_matcher": lambda *args, **kwargs: 1,
        "match": lambda iou_threshold: 1,
        "annotate_distances": lambda *args, **kwargs: 1,
        "__post_init__": lambda self: 1,
        "_distances": lambda model, features, rows: len(features if rows is None else rows),
        "_distance_order": lambda distances: 1,
    }
    calls = dict.fromkeys(work, 0)

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += work[name](*args, **kwargs)
            result = fn(*args, **kwargs)
            return counted("match", result) if name == "iou_matcher" else result

        return wrapper

    # Patch every module that binds the name, as ``from x import name`` copies it.
    for name in ("iou_matcher", "annotate_distances", "_distances", "_distance_order"):
        bound = [
            module for mod_name, module in sys.modules.items()
            if mod_name.split(".")[0] == "t2tmetrics" and hasattr(module, name)
        ]
        assert bound
        for module in bound:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(DistanceAnnotatedOutcome, "__post_init__",
                        counted("__post_init__", DistanceAnnotatedOutcome.__post_init__))

    # evaluate matches every IOU_GRID point for AP@[.5:.95]; plain ap-t2t needs one.
    # Each run builds one IoU table and matches every threshold from it, builds
    # one annotation, and orders its distances once for every regime and threshold.
    ap_t2t_args = ["ap-t2t"] + evaluate_args(dataset, tmp_path / "ap")[1:]
    runs = (
        (evaluate_args(dataset, tmp_path / "grid") + ["--iou-grid"], len(IOU_GRID)),
        (evaluate_args(dataset, tmp_path / "plain"), len(IOU_GRID)),
        (ap_t2t_args, 1),
        (ap_t2t_args + ["--iou-grid"], len(IOU_GRID)),
    )
    for argv, matchings in runs:
        calls.update(dict.fromkeys(calls, 0))
        assert main(argv) == 0
        assert calls["iou_matcher"] == 1, argv
        assert 0 < calls["match"] <= matchings, argv
        assert calls["annotate_distances"] == 1, argv
        assert calls["__post_init__"] == 1, argv
        assert 0 < calls["_distances"] <= SCENARIO_SPEC["n_tp"] + SCENARIO_SPEC["n_fp"]
        assert calls["_distance_order"] == 1, argv


def count_record_objects(monkeypatch):
    """Count the per-record objects built from now on: each BoundingBox,
    Detection, GroundTruthInstance and AnnotatedEntry, and each record view
    that a set or outcome builds from its columns."""
    counts = {}
    for cls in (BoundingBox, Detection, GroundTruthInstance, AnnotatedEntry):
        counts[cls.__name__] = 0

        def init(self, *args, __init=cls.__init__, __name=cls.__name__, **kwargs):
            counts[__name] += 1
            __init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    views = {GroundTruthSet: ["instances"], DetectionSet: ["detections"],
             MatchOutcome: ["true_positives", "false_positives"],
             DistanceAnnotatedOutcome: ["entries"]}
    for cls, names in views.items():
        for name in names:
            key = f"{cls.__name__}.{name}"
            counts[key] = 0
            view = vars(cls)[name]

            def build(self, __build=view.func, __key=key):
                counts[__key] += 1
                return __build(self)

            monkeypatch.setattr(view, "func", build)
    return counts


@pytest.mark.parametrize("grid", [False, True])
def test_evaluate_builds_no_record_objects(dataset, tmp_path, monkeypatch, grid):
    counts = count_record_objects(monkeypatch)
    assert main(evaluate_args(dataset, tmp_path / "out") + ["--iou-grid"] * grid) == 0
    assert set(counts.values()) == {0}, counts


def test_distances_builds_no_record_objects_and_writes_the_object_path_csv(
    dataset, tmp_path, monkeypatch
):
    # The same CSV through the objects: the loop oracle's outcome over the
    # built Detection and GroundTruthInstance objects, annotated and exported.
    model = fit_gaussian(load_feature_matrix(dataset / "train_features.t2tfeat"))
    loaded = load_ground_truth(dataset / "ground_truth.json")
    gts = ground_truth(images=loaded.images, instances=loaded.instances)
    bound = bind_features(load_detections(dataset / "detections.json"),
                          load_feature_matrix(dataset / "features.t2tfeat"))
    dets = detection_set(bound.detections)
    expected = export_csv(annotate_distances(model, match_detections_loop(dets, gts, 0.5, 0.01)))

    counts = count_record_objects(monkeypatch)
    out = tmp_path / "d.csv"
    assert main([
        "distances",
        "--gt", str(dataset / "ground_truth.json"),
        "--det", str(dataset / "detections.json"),
        "--features", str(dataset / "features.t2tfeat"),
        "--train-features", str(dataset / "train_features.t2tfeat"),
        "--out", str(out),
    ]) == 0
    assert set(counts.values()) == {0}, counts
    assert out.read_bytes() == expected.encode()


def test_summary_contains_no_absolute_paths(dataset, tmp_path):
    out = tmp_path / "out"
    assert main(evaluate_args(dataset, out)) == 0
    text = (out / "summary.json").read_text()
    assert str(tmp_path) not in text


def test_evaluate_missing_input_names_path(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    args = evaluate_args(dataset, out)
    args[args.index("--features") + 1] = str(tmp_path / "nope.t2tfeat")
    assert main(args) == 1
    assert "nope.t2tfeat" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_missing_flags(dataset, tmp_path, capsys):
    assert main(["evaluate", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: missing required inputs: --gt, --det, --features\n"

    # The model flags are checked before any input is read: these files are missing.
    argv = evaluate_args(tmp_path / "missing", tmp_path / "o")
    at = argv.index("--train-features")
    del argv[at:at + 2]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: missing required inputs: --model or --train-features\n"


@pytest.mark.parametrize("command", ["evaluate", "distances", "ap-t2t"])
def test_model_is_fitted_before_the_test_features_are_read(dataset, tmp_path, capsys, command):
    argv = [command] + evaluate_args(dataset, tmp_path / "out")[1:]
    argv[argv.index("--features") + 1] = str(tmp_path / "missing_test.t2tfeat")
    argv[argv.index("--train-features") + 1] = str(tmp_path / "missing_train.t2tfeat")
    assert main(argv) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: no such file: {tmp_path / 'missing_train.t2tfeat'}"]


def one_box_evaluate_args(tmp_path, features, train):
    """``evaluate`` of one detection on one instance, with the given feature
    and training CSV text."""
    write_json(tmp_path / "gt.json", {
        "images": [{"id": "im", "width": 100, "height": 100}],
        "annotations": [{"id": "g1", "image_id": "im", "bbox": [0, 0, 10, 10]}],
    })
    write_json(tmp_path / "det.json", [
        {"detection_id": "d1", "image_id": "im", "bbox": [0, 0, 10, 10], "score": 0.9},
    ])
    (tmp_path / "features.csv").write_text(features)
    (tmp_path / "train.csv").write_text(train)
    return [
        "evaluate",
        "--gt", str(tmp_path / "gt.json"),
        "--det", str(tmp_path / "det.json"),
        "--features", str(tmp_path / "features.csv"),
        "--train-features", str(tmp_path / "train.csv"),
        "--out", str(tmp_path / "out"),
    ]


def test_evaluate_rank_deficient_epsilon_zero_exits_2(tmp_path, capsys):
    args = one_box_evaluate_args(tmp_path, "d1,1.0,2.0\n", "t1,0.0,0.0\nt2,1.0,1.0\n")
    assert main(args + ["--epsilon", "0"]) == 2
    assert "epsilon" in capsys.readouterr().err
    # the trace-scaled default repairs the same input
    assert main(args) == 0


@pytest.mark.parametrize("feature, bins", [("2.3e-162", 30), ("3e-160", 100_000)])
def test_evaluate_bins_0_to_1_when_the_largest_distance_cannot_be_split(
    tmp_path, capsys, feature, bins
):
    # A zero training set with epsilon 1 makes the distance the feature squared:
    # 5e-324, or 9e-320 over 100,000 bins, has too few floats for distinct edges.
    args = one_box_evaluate_args(tmp_path, f"d1,{feature}\n", "t1,0\nt2,0\nt3,0\n")
    assert main(args + ["--epsilon", "1", "--bins", str(bins)]) == 0
    assert error_lines(capsys.readouterr().err) == []
    for kind, count in (("tp", "1"), ("fp", "0")):
        text = (tmp_path / "out" / f"distance_hist_{kind}.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()]
        assert rows[0] == ["bin_lo", "bin_hi", "count"] and len(rows) == bins + 1
        assert rows[1][::2] == ["0", count] and rows[-1][1] == "1"


# ------------------------------------------------------------------ fit chain


def test_fit_then_evaluate_matches_direct_fit(dataset, tmp_path):
    model_path = tmp_path / "model.t2tmodl"
    assert main([
        "fit",
        "--train-features", str(dataset / "train_features.t2tfeat"),
        "--out", str(model_path),
    ]) == 0
    assert model_path.exists()

    out_fit = tmp_path / "via_model"
    args = [
        "evaluate",
        "--gt", str(dataset / "ground_truth.json"),
        "--det", str(dataset / "detections.json"),
        "--features", str(dataset / "features.t2tfeat"),
        "--model", str(model_path),
        "--out", str(out_fit),
    ]
    assert main(args) == 0
    out_direct = tmp_path / "via_train"
    assert main(evaluate_args(dataset, out_direct)) == 0
    for name in EVALUATE_FILES:
        assert (out_fit / name).read_bytes() == (out_direct / name).read_bytes()


def test_fit_epsilon_zero_rank_deficient_exits_2(tmp_path):
    (tmp_path / "train.csv").write_text("t1,0.0,0.0\nt2,1.0,1.0\n")
    assert main([
        "fit",
        "--train-features", str(tmp_path / "train.csv"),
        "--out", str(tmp_path / "m.t2tmodl"),
        "--epsilon", "0",
    ]) == 2
    assert not (tmp_path / "m.t2tmodl").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, epsilon", [
    ("fit", []), ("fit", ["--epsilon", "1"]),
    ("evaluate", []), ("evaluate", ["--epsilon", "1"]),
    ("distances", []),
])
def test_overflowing_training_covariance_exits_2_naming_file(
    dataset, tmp_path, capsys, command, epsilon
):
    train = tmp_path / "train.csv"
    train.write_text("t1,1e200,0,0\nt2,0,1,0\nt3,0,0,1\nt4,1,1,1\n")
    argv = evaluate_args(dataset, tmp_path / "out") + ["--train-features", str(train)] + epsilon
    argv[0] = command
    if command == "fit":  # fit takes no --gt, --det or --features
        del argv[1:7]
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {train}: ") and "non-finite" in errors[0]
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


def test_an_overflowing_distance_is_one_error_line_without_a_warning(dataset, tmp_path, capsys):
    # A precision of 1e300 squares a feature row of 1e20 past the float range.
    model = tmp_path / "model.t2tmodl"
    save_model(GaussianTrainModel(np.zeros(3), np.eye(3) * 1e-300, 0.0, 4), model)
    matrix = load_feature_matrix(dataset / "features.t2tfeat")
    data = matrix.data.copy()
    data[matrix.row_ids.index("tp-00003")] = 1e20
    write_feature_matrix(FeatureMatrix(data=data, row_ids=matrix.row_ids),
                         dataset / "features.t2tfeat")
    for command in ("evaluate", "ap-t2t", "distances"):
        argv = evaluate_args(dataset, tmp_path / f"out-{command}")
        argv[0], argv[7:9] = command, ["--model", str(model)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert error_lines(err) == [
            "error: entry 'tp-00003' distance must be finite and >= 0, got inf"]
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ------------------------------------------------------------------- distances


def test_distances_csv(dataset, tmp_path):
    out = tmp_path / "d.csv"
    assert main([
        "distances",
        "--gt", str(dataset / "ground_truth.json"),
        "--det", str(dataset / "detections.json"),
        "--features", str(dataset / "features.t2tfeat"),
        "--train-features", str(dataset / "train_features.t2tfeat"),
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "detection_id,kind,score,distance"
    assert len(lines) == 11  # 6 tp + 4 fp, all above the default 0.01 cut
    ids = [line.split(",")[0] for line in lines[1:]]
    assert ids == sorted(ids)
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"tp", "fp"}


def test_distances_score_threshold_drops_rows(dataset, tmp_path):
    out = tmp_path / "d.csv"
    assert main([
        "distances",
        "--gt", str(dataset / "ground_truth.json"),
        "--det", str(dataset / "detections.json"),
        "--features", str(dataset / "features.t2tfeat"),
        "--train-features", str(dataset / "train_features.t2tfeat"),
        "--score-thresholds", "all=0.5",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert 1 < len(lines) < 11


def test_distances_epsilon_flag_equals_config_key(dataset, tmp_path):
    argv = ["distances"] + evaluate_args(dataset, tmp_path / "default.csv")[1:]
    assert main(argv) == 0
    config = write_json(tmp_path / "run.json", {"epsilon": 1})
    assert main(argv[:-1] + [str(tmp_path / "config.csv"), "--config", str(config)]) == 0
    assert main(argv[:-1] + [str(tmp_path / "flag.csv"), "--epsilon", "1"]) == 0
    flag = (tmp_path / "flag.csv").read_bytes()
    assert flag == (tmp_path / "config.csv").read_bytes()
    assert flag != (tmp_path / "default.csv").read_bytes()


# Each run cuts detections that the default lowest regime, 0.01, keeps; the
# settings are (score thresholds, IoU threshold, IoU grid).
@pytest.mark.parametrize("config, flags, settings", [
    ({"score_thresholds": {"a": 0.3}}, [], ({"a": 0.3}, 0.5, False)),
    (None, ["--score-thresholds", "a=0.3"], ({"a": 0.3}, 0.5, False)),
    ({"score_thresholds": {"all": 0.2, "high": 0.6}}, ["--iou", "0.65"],
     ({"all": 0.2, "high": 0.6}, 0.65, False)),
    ({"score_thresholds": {"lo": 0.25, "hi": 0.5}, "iou_grid": True}, [],
     ({"lo": 0.25, "hi": 0.5}, 0.5, True)),
])
def test_distances_writes_the_annotation_that_evaluate_reports(tmp_path, config, flags, settings):
    data = tmp_path / "data"
    assert main(["scenario", "--seed", "7", "--out", str(data)]) == 0
    argv = ["distances"] + evaluate_args(data, tmp_path / "d.csv")[1:] + flags
    if config is not None:
        argv += ["--config", str(write_json(tmp_path / "run.json", config))]
    assert main(argv) == 0
    model = fit_gaussian(load_feature_matrix(data / "train_features.t2tfeat"))
    dets = bind_features(load_detections(data / "detections.json"),
                         load_feature_matrix(data / "features.t2tfeat"))
    gts = load_ground_truth(data / "ground_truth.json")
    _, annotated = metric_report(model, dets, gts, *settings)
    assert (tmp_path / "d.csv").read_text() == export_csv(annotated)
    assert len(annotated) < len(dets)
    if settings[0] == {"a": 0.3}:
        assert len(annotated) == 39


@pytest.mark.parametrize("command", ["evaluate", "fit", "distances", "ap-t2t"])
def test_every_setting_of_a_run_command_is_a_config_key(command):
    keys = set(vars(build_parser().parse_args([command]))) - {"command", "func", "config"}
    assert keys <= {f.name for f in dataclasses.fields(RunConfig)}


AREA = "box area w * h must lie in"
ROUNDED = "box extent is lost to rounding at its position"
LOST = [2.0**60, 2.0**60, 192.0, 512 / 3]  # (x + w) - x is 256, not 192


# Pairs of finite boxes whose IoU arithmetic overflows (IoU inf / nan, which
# clamped to 1.0) or underflows (0 / 0, a ZeroDivisionError) without the box limits.
@pytest.mark.parametrize("gt_box, det_box, refused, message", [
    ([0, 0, 1e200, 1e200], [0, 0, 1e200, 1e199], "ground_truth.json: annotations[0]", AREA),
    ([0, 0, 1, 1], [0, 0, 1e200, 1e199], "detections.json: detections[0]", AREA),
    ([0, 0, 1e-200, 1e-200], [0.5e-200, 0, 1e-200, 1e-200], "ground_truth.json: annotations[0]", AREA),
    ([0, 0, 1, 1], [0.5e-200, 0, 1e-200, 1e-200], "detections.json: detections[0]", AREA),
    (LOST, LOST, "ground_truth.json: annotations[0]", ROUNDED),
    ([0, 0, 1, 1], LOST, "detections.json: detections[0]", ROUNDED),
])
def test_box_out_of_limits_exits_1_naming_file_and_record(
    dataset, tmp_path, capsys, gt_box, det_box, refused, message
):
    gt = json.loads((dataset / "ground_truth.json").read_text())
    dets = json.loads((dataset / "detections.json").read_text())
    gt["annotations"][0]["bbox"] = gt_box
    dets[0]["bbox"], dets[0]["image_id"] = det_box, gt["annotations"][0]["image_id"]
    write_json(dataset / "ground_truth.json", gt)
    write_json(dataset / "detections.json", dets)
    argv = ["distances"] + evaluate_args(dataset, tmp_path / "d.csv")[1:] + ["--iou", "0.95"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert line.startswith(f"error: {dataset / refused}: {message}")
    assert line.count(refused) == 1
    assert not (tmp_path / "d.csv").exists()


# ----------------------------------------------------------------------- ap-t2t


def test_ap_t2t_command(dataset, tmp_path, capsys):
    out = tmp_path / "ap"
    assert main([
        "ap-t2t",
        "--gt", str(dataset / "ground_truth.json"),
        "--det", str(dataset / "detections.json"),
        "--features", str(dataset / "features.t2tfeat"),
        "--train-features", str(dataset / "train_features.t2tfeat"),
        "--out", str(out),
    ]) == 0
    lines = (out / "ap_t2t.csv").read_text().splitlines()
    assert lines[0] == "regime,score_threshold,ap_t2t"
    assert len(lines) == 4
    assert lines[1].startswith("all,0.01,")
    stdout = capsys.readouterr().out
    assert "ap_t2t[high]=" in stdout


# ------------------------------------------------------------------ replacement


def test_replacement_command(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("count,accuracy\n5,0.2\n10,0.4\n")
    out = tmp_path / "out"
    assert main([
        "replacement",
        "--curve", str(curve),
        "--target", "0.3",
        "--target", "100:0.4",
        "--target", "200:0.4:0.2",
        "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("# same-domain accuracy:")
    assert "matched=7.5" in stdout
    assert "gain=5" in stdout

    rows = (out / "replacement.csv").read_text().splitlines()
    assert rows[0] == "cross_count,matched_count,saturated,gain"
    assert rows[1] == ",7.5,false,"
    assert rows[2] == "100,10,false,"
    assert rows[3] == "200,10,false,5"
    assert (out / "replacement.svg").exists()


def test_replacement_gain_of_the_command_is_replacement_gain(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("count,accuracy\n5,0.1\n10,0.3\n20,0.2\n40,0.5\n80,0.6\n")
    targets = ("7:0.55:0.25", "3:0.25:0.55", "9:0.9:0.05", "4:0.3:0.3")
    out = tmp_path / "out"
    assert main(["replacement", "--curve", str(curve), "--out", str(out)]
                + [arg for target in targets for arg in ("--target", target)]) == 0
    samples = [(5, "0.1"), (10, "0.3"), (20, "0.2"), (40, "0.5"), (80, "0.6")]
    lookup = build_accuracy_curve(samples, label="curve")
    rows = (out / "replacement.csv").read_text().splitlines()[1:]
    for row, target in zip(rows, targets):
        cross, with_acc, without_acc = target.split(":")
        gain = (matching_image_count(lookup, with_acc).matched_same_domain_count
                - matching_image_count(lookup, without_acc).matched_same_domain_count)
        assert row.split(",")[0] == cross
        assert row.split(",")[3] == _fmt(gain)


def test_replacement_warns_once_for_a_with_accuracy_crossing_more_than_once(tmp_path, capsys, caplog):
    curve = tmp_path / "curve.csv"
    curve.write_text("count,accuracy\n5,0.1\n10,0.3\n20,0.2\n40,0.5\n80,0.6\n")
    with caplog.at_level(logging.WARNING):
        assert main(["replacement", "--curve", str(curve), "--target", "3:0.25:0.55",
                     "--out", str(tmp_path / "out")]) == 0
    assert [m for m in caplog.messages if "crossed" in m] == [
        "target accuracy 0.25 crossed 3 times; using the lowest count 8.75"
    ]


def test_replacement_averages_runs(tmp_path, capsys):
    curve = tmp_path / "runs.csv"
    curve.write_text(
        "count,accuracy,run_id\n"
        "5,0.2,r1\n10,0.4,r1\n"
        "5,0.3,r2\n10,0.5,r2\n"
        "5,0.4,r3\n10,0.6,r3\n"
    )
    out = tmp_path / "out"
    assert main([
        "replacement", "--curve", str(curve), "--target", "0.4", "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "mean of 3 runs" in stdout
    # mean curve is (5, 0.3), (10, 0.5); 0.4 sits exactly halfway
    assert "matched=7.5" in stdout


def test_runs_of_two_curve_files_on_different_grids_are_named_by_label(tmp_path, capsys):
    # Each file is whole on its own, so the error names the runs, whose
    # labels are the file names' stems, and no single file.
    (tmp_path / "first.csv").write_text("5,0.2\n10,0.4\n")
    (tmp_path / "second.csv").write_text("5,0.2\n20,0.4\n")
    argv = ["replacement", "--curve", str(tmp_path / "first.csv"),
            "--curve", str(tmp_path / "second.csv"), "--target", "0.3",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert error_lines(capsys.readouterr().err) == [
        "error: runs 'first' and 'second' sample different count grids: (5, 10) vs (5, 20)"]


def test_replacement_saturation_reported(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("5,0.2\n10,0.4\n")
    out = tmp_path / "out"
    assert main([
        "replacement", "--curve", str(curve), "--target", "0.9", "--out", str(out),
    ]) == 0
    assert "(saturated)" in capsys.readouterr().out
    assert ",10,true," in (out / "replacement.csv").read_text()


def test_replacement_bad_target(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("5,0.2\n10,0.4\n")
    assert main([
        "replacement", "--curve", str(curve), "--target", "a:b:c:d",
        "--out", str(tmp_path / "out"),
    ]) == 1
    assert "CROSS" in capsys.readouterr().err


# A curve that a float cannot hold, a bad target or a curve the builder
# refuses: exit 1 and one error line, naming the curve file when it is at fault.
@pytest.mark.parametrize("curve, target, message", [
    ("5,0.2\n10,0.4\n", "1e400",
     "target accuracy: accuracy must lie in [0, 1], got '1e400'"),
    ("5,0.2\n10,1e400\n", "0.3",
     "{curve}: curve sample 1: accuracy must lie in [0, 1], got '1e400'"),
    ("5,0.2\n10," + "9" * 30 + "\n", "0.3",
     "{curve}: curve sample 1: accuracy must lie in [0, 1], got 1e+30"),
    ("5,0.2\n10,1." + "0" * 400 + "1\n", "0.3",
     "{curve}: curve sample 1: accuracy must lie in [0, 1], "
     "got '1.00000000000000000…(405 characters)"),
    ("5,0.2\n5,0.3\n10,0.4\n", "0.3", "{curve}: duplicate image counts in curve: [5]"),
    ("5,0.2\n", "0.3", "{curve}: a curve needs at least two samples, got 1"),
    ("\n", "0.3", "{curve}: empty curve file"),
    ("count,accuracy\n", "0.3", "{curve}: no curve rows after the header"),
    ("count,accuracy,run\n5,0.2,a\n10,0.4,a\n5,0.2,b\n20,0.4,b\n", "0.3",
     "{curve}: runs 'a' and 'b' sample different count grids: (5, 10) vs (5, 20)"),
    ("count,accuracy\n5,0.2\nx,0.4\n", "0.3",
     "{curve}: row 2: image count is not an integer: 'x'"),
    # A first row holding a number is data, not a header to drop.
    ("5x,0.3\n10,0.5\n20,0.7\n", "0.3", "{curve}: row 1: image count is not an integer: '5x'"),
    ("1.5,0.3\n10,0.5\n20,0.7\n", "0.3",
     "{curve}: row 1: image count is not an integer: '1.5'"),
    # int("1_0") is 10 and Decimal("0.1_5") is 0.15: digit-group underscores are refused.
    ("count,accuracy\n1_0,0.2\n20,0.4\n", "0.3",
     "{curve}: row 1: image count is not an integer: '1_0'"),
    ("5,0.2\n10,0.1_5\n", "0.3", "{curve}: curve sample 1: not a number: '0.1_5'"),
    ("5,0.2\n10,0.4\n", "0.1_5", "target accuracy: not a number: '0.1_5'"),
    ("5,0.2\n10,0.4\n", "x:0.3", "target 'x:0.3': cross count is not an integer"),
    ("5,0.2\n10,0.4\n", "1_0:0.3", "target '1_0:0.3': cross count is not an integer"),
    ("5,0.2\n10,0.4\n", "0:0.3", "target '0:0.3': cross count must be positive"),
    ("5,0.2\n10,0.4\n", "9" * 5000 + ":0.3",
     "target '9999999999999999999…(5006 characters): cross count is not an integer"),
])
def test_replacement_value_error_exits_1_with_one_error_line(tmp_path, capsys, curve, target,
                                                             message):
    path = tmp_path / "curve.csv"
    path.write_text(curve)
    assert main(["replacement", "--curve", str(path), "--target", target,
                 "--out", str(tmp_path / "out")]) == 1
    assert error_lines(capsys.readouterr().err) == ["error: " + message.format(curve=path)]
    assert not (tmp_path / "out").exists()


# An exponent no float reaches is refused before the exact value is built:
# Fraction("1e100000000") alone would build a 100,000,001-digit integer.
@pytest.mark.parametrize("curve, target, message", [
    ("5,0.2\n10,0.4\n", "1e100000000",
     "target accuracy: accuracy must lie in [0, 1], got '1e100000000'"),
    ("5,0.2\n10,0.4\n", "1e-100000000",
     "target accuracy: accuracy '1e-100000000' is too close to 0 for a float"),
    ("5,0.2\n10,1e100000000\n", "0.3",
     "{curve}: curve sample 1: accuracy must lie in [0, 1], got '1e100000000'"),
    ("5,0.2\n10,1e-100000000\n", "0.3",
     "{curve}: curve sample 1: accuracy '1e-100000000' is too close to 0 for a float"),
])
def test_replacement_refuses_an_exponent_no_float_reaches_at_once(tmp_path, curve, target,
                                                                  message):
    path = tmp_path / "curve.csv"
    path.write_text(curve)
    result = subprocess.run(
        [sys.executable, "-m", "t2tmetrics.cli", "replacement", "--curve", str(path),
         "--target", target, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 1
    assert error_lines(result.stderr) == ["error: " + message.format(curve=path)]
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------- scenario


def test_scenario_seed_override_and_determinism(tmp_path):
    spec = write_json(tmp_path / "spec.json", SCENARIO_SPEC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["scenario", "--spec", str(spec), "--seed", "99", "--out", str(out1)]) == 0
    assert main(["scenario", "--spec", str(spec), "--seed", "99", "--out", str(out2)]) == 0

    names = [
        "ground_truth.json", "detections.json", "features.t2tfeat",
        "train_features.t2tfeat", "scenario_spec.json",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    echoed = json.loads((out1 / "scenario_spec.json").read_text())
    assert echoed["seed"] == 99
    assert echoed["n_gt"] == 8

    out3 = tmp_path / "c"
    assert main(["scenario", "--spec", str(spec), "--out", str(out3)]) == 0
    assert (out3 / "features.t2tfeat").read_bytes() != (out1 / "features.t2tfeat").read_bytes()


def test_scenario_rejects_bad_spec(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"n_gt": 4, "bogus": 1})
    assert main(["scenario", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert "bogus" in capsys.readouterr().err


# The first value each spec check refuses: 8 is the default feature_dim, and
# float32's largest value divided by 8 is exact.
FIRST_REFUSED_SCALE = float(np.nextafter(float(np.finfo(np.float32).max) / 8, np.inf))


@pytest.mark.parametrize("spec, message", [
    ({"n_tp": 0, "n_fp": 0}, "n_tp + n_fp must be >= 1, got 0"),
    ({"tp_distance_scale": FIRST_REFUSED_SCALE}, "tp_distance_scale x feature_dim must be "
     f"<= 3.4028234663852886e+38, got {FIRST_REFUSED_SCALE} x 8"),
    ({"fp_distance_scale": FIRST_REFUSED_SCALE}, "fp_distance_scale x feature_dim must be "
     f"<= 3.4028234663852886e+38, got {FIRST_REFUSED_SCALE} x 8"),
], ids=["detections", "tp_scale", "fp_scale"])
def test_scenario_spec_refusal_names_the_file_and_key(tmp_path, capsys, spec, message):
    path = write_json(tmp_path / "spec.json", spec)
    assert main(["scenario", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
    assert error_lines(capsys.readouterr().err) == [f"error: {path}: {message}"]
    assert not (tmp_path / "o").exists()


def test_scenario_builds_no_record_objects(tmp_path, monkeypatch):
    spec = ScenarioSpec(**SCENARIO_SPEC)
    counts = count_record_objects(monkeypatch)
    generate_scenario(spec).write(tmp_path / "data")
    assert set(counts.values()) == {0}, counts
    assert main(["scenario", "--spec", str(write_json(tmp_path / "spec.json", SCENARIO_SPEC)),
                 "--out", str(tmp_path / "cli")]) == 0
    assert set(counts.values()) == {0}, counts
    for name in ("ground_truth.json", "detections.json", "features.t2tfeat"):
        assert (tmp_path / "data" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_scenario_refuses_a_30_digit_count_at_once(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_gt": ' + "9" * 30 + ', "n_tp": 1}')
    # Without the bound the generator would loop over ~4e28 images.
    result = subprocess.run(
        [sys.executable, "-m", "t2tmetrics.cli", "scenario", "--spec", str(spec),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {spec}: n_gt must lie in [1, 10000000], got 99999999999999999999…(30 digits)"]
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "o").exists()


def test_settings_error_line_abridges_a_400_digit_value(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"epsilon": ' + "9" * 400 + "}")
    assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {config}: epsilon is out of range for a float: {'9' * 20}…(400 digits)"
    assert len(line) < 200


@pytest.mark.parametrize("source", ["--model", "--train-features"])
@pytest.mark.parametrize("command", ["evaluate", "distances", "ap-t2t"])
def test_model_of_another_dimension_exits_1_naming_both_files(dataset, tmp_path, capsys,
                                                              command, source):
    train = tmp_path / "train_2d.csv"
    train.write_text("t1,0.0,0.0\nt2,1.0,0.5\nt3,0.5,1.0\n")
    path = train
    if source == "--model":
        path = tmp_path / "model_2d.t2tmodel"
        assert main(["fit", "--train-features", str(train), "--out", str(path)]) == 0
    argv = [command] + evaluate_args(dataset, tmp_path / "out")[1:]
    at = argv.index("--train-features")
    argv[at:at + 2] = [source, str(path)]
    capsys.readouterr()
    assert main(argv) == 1
    assert error_lines(capsys.readouterr().err) == [
        f"error: {dataset / 'features.t2tfeat'}: features have 3 dimensions, "
        f"but the model from {path} has 2"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "distances", "ap-t2t"])
def test_detection_on_unknown_image_exits_1(dataset, tmp_path, capsys, command):
    dets = json.loads((dataset / "detections.json").read_text())
    dets[2]["image_id"] = "img-missing"
    write_json(dataset / "detections.json", dets)
    assert main([command] + evaluate_args(dataset, tmp_path / "out")[1:]) == 1
    err = capsys.readouterr().err
    assert "detections.json" in err
    assert repr(dets[2]["detection_id"]) in err
    assert "'img-missing'" in err


# ----------------------------------------------------------------------- report


def test_report_series_round_trip(tmp_path):
    plot = scaling_series([
        (5, MetricReport(ap=0.2, ap_5095=0.1, ap_t2t_by_regime={"all": 0.05, "med": 0.02})),
        (10, MetricReport(ap=0.4, ap_5095=0.2, ap_t2t_by_regime={"all": 0.3, "med": 0.2})),
    ])
    csv_path = tmp_path / "series.csv"
    csv_path.write_text(export_csv(plot))
    out = tmp_path / "series.svg"
    assert main([
        "report", "--kind", "series", "--input", str(csv_path),
        "--out", str(out), "--title", "scaling",
    ]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert ">all<" in svg and ">med<" in svg


@pytest.mark.parametrize("kind, chart, title, written", [
    ("series", scaling_series([
        (5, MetricReport(ap=0.2, ap_5095=0.1, ap_t2t_by_regime={"all": 0.05, "high": 0.0})),
        (10, MetricReport(ap=0.4, ap_5095=0.2, ap_t2t_by_regime={"all": 0.3, "high": 0.125})),
    ]), "AP_t2t vs training-set size", "high,5,0,true\n"),
    ("histogram", Histogram(edges=(0.0, 0.5, 1.5, 4.0), counts=(3, 0, 7), label="distances"),
     "distances", "0.5,1.5,0\n"),
    ("bars", BarChart(bars=(("a, b", 1.5), ('say "x"', -2.0), ("10", 0.25)), title="gains"),
     "gains", '"a, b",1.5\n"say ""x""",-2\n'),
], ids=["log series with a floored zero", "histogram", "bar labels that need quoting"])
def test_report_draws_the_chart_that_export_csv_wrote(tmp_path, kind, chart, title, written):
    path = tmp_path / "chart.csv"
    path.write_text(export_csv(chart))
    assert written in path.read_text()
    out = tmp_path / "chart.svg"
    assert main(["report", "--kind", kind, "--input", str(path), "--out", str(out),
                 "--title", title]) == 0
    assert out.read_bytes() == render_svg(chart).encode()


def test_report_histogram_from_evaluate_output(dataset, tmp_path):
    out = tmp_path / "out"
    assert main(evaluate_args(dataset, out)) == 0
    svg_path = tmp_path / "hist.svg"
    assert main([
        "report", "--kind", "histogram",
        "--input", str(out / "distance_hist_tp.csv"),
        "--out", str(svg_path),
    ]) == 0
    assert svg_path.read_text().startswith("<svg")


def test_report_bars(tmp_path):
    csv_path = tmp_path / "bars.csv"
    csv_path.write_text("label,value\nbaseline,4\nsynth,9.5\n")
    out = tmp_path / "bars.svg"
    assert main(["report", "--kind", "bars", "--input", str(csv_path), "--out", str(out)]) == 0
    assert "baseline" in out.read_text()


def test_report_rejects_wrong_columns(tmp_path, capsys):
    csv_path = tmp_path / "x.csv"
    csv_path.write_text("a,b\n1,2\n")
    assert main([
        "report", "--kind", "histogram", "--input", str(csv_path),
        "--out", str(tmp_path / "x.svg"),
    ]) == 1
    assert "bin_lo" in capsys.readouterr().err

    gap = tmp_path / "gap.csv"
    gap.write_text("bin_lo,bin_hi,count\n0,1,2\n1.5,2,3\n")
    assert main([
        "report", "--kind", "histogram", "--input", str(gap),
        "--out", str(tmp_path / "gap.svg"),
    ]) == 1
    assert "contiguous" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text, message", [
    ("series", "series,x,y\na,1\n", "row 2: expected 3 columns"),
    ("histogram", "bin_lo,bin_hi,count\n0,1\n", "row 2: expected 3 columns"),
    ("bars", "label,value\nfoo\n", "row 2: expected 2 columns"),
    ("histogram", "bin_lo,bin_hi,count\n0,1,2\nabc,2,3\n", "non-numeric"),
    ("series", "a,b,c\n1,2,3\n", "expected columns series,x,y[,floored]"),
    ("bars", "label,value\nfoo,bar\n", "non-numeric bar row"),
    # Errors of the chart constructors name the file too.
    ("series", "series,x,y\na,1,nan\n", "series 'a' contains a non-finite point"),
    ("series", "series,x,y\n" + "".join(f"s{k},1,1\n" for k in range(7)),
     "a series plot takes at most 6 series, got 7"),
    ("histogram", "bin_lo,bin_hi,count\n2,1,3\n", "histogram edges must be strictly increasing"),
    ("histogram", "bin_lo,bin_hi,count\nnan,1,3\n", "histogram edges must be finite"),
    ("histogram", "bin_lo,bin_hi,count\n0,1,-3\n", "histogram counts must be non-negative"),
    ("bars", "label,value\nfoo,inf\n", "bar 'foo' has a non-finite value"),
    # Digit-group underscores are refused in values and counts, not in labels.
    ("series", "series,x,y\na_1,1_0,2\n", "non-numeric series row"),
    ("histogram", "bin_lo,bin_hi,count\n0,1,1_0\n", "non-numeric histogram row"),
    ("bars", "label,value\nfoo_1,0.1_5\n", "non-numeric bar row"),
])
def test_report_rejects_malformed_csv(tmp_path, capsys, kind, text, message):
    path = tmp_path / "in.csv"
    argv = ["report", "--kind", kind, "--input", str(path), "--out", str(tmp_path / "x.svg")]
    path.write_text(text)
    assert main(argv) == 1
    # The error line begins with the message: some messages go on to give a count.
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {path}: {message}")

    path.write_bytes(text.encode() + b"\xff\n")
    assert main(argv) == 1
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("kind, text, flags, message", [
    ("series", "series,x,y\na,1,1e308\na,2,1e308\n", [],
     "y values up to 1e+308 need a log axis beyond 1e308"),
    ("series", "series,x,y\na,1,1\na,2,1.5e308\n", [],
     "y values up to 1.5e+308 need a log axis beyond 1e308"),
    ("series", "series,x,y\na,1,-1e308\na,2,1e308\n", ["--linear"],
     "y values from -1e+308 to 1e+308 span more than a chart axis can hold"),
    ("series", "series,x,y\na,-1e308,1\na,1e308,2\n", [],
     "x values from -1e+308 to 1e+308 span more than a chart axis can hold"),
    ("series", "series,x,y\na,1.5e308,1\n", [],
     "x values from 1.5e+308 to 1.5e+308 span more than a chart axis can hold"),
    ("bars", "label,value\na,-1e308\nb,1e308\n", [],
     "bar values from -1e+308 to 1e+308 span more than a chart axis can hold"),
    ("histogram", "bin_lo,bin_hi,count\n-1e308,0,1\n0,1e308,2\n", [],
     "histogram edges from -1e+308 to 1e+308 span more than a chart axis can hold"),
    ("bars", "label,value\na\x01,1\n", [],
     "text 'a\\x01' holds '\\x01', which XML does not allow"),
    ("series", "series,x,y\n\x1b[0m,1,1\n", [],
     "text '\\x1b[0m' holds '\\x1b', which XML does not allow"),
    ("histogram", "bin_lo,bin_hi,count\n0,1,2\n", ["--title", "t\x0c"],
     "text 't\\x0c' holds '\\x0c', which XML does not allow"),
    ("bars", "label,value\na\uffff,1\n", [],
     "text 'a\\uffff' holds '\\uffff', which XML does not allow"),
], ids=["log-flat", "log-top", "linear-y", "x-span", "x-flat", "bars", "histogram",
        "bar-label", "series-label", "title", "noncharacter"])
def test_report_refuses_what_no_svg_can_hold(tmp_path, capsys, kind, text, flags, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    argv = ["report", "--kind", kind, "--input", str(path), "--out", str(tmp_path / "x.svg")]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert error_lines(err) == [f"error: {path}: {message}"]
    assert "Traceback" not in err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("kind, text, flags", [
    ("series", "series,x,y\na,1,1e20\na,2,1e20\n", ["--linear"]),  # 0.5 is lost to rounding
    ("series", "series,x,y\na,1e20,1\na,1e20,2\n", []),
    ("series", "series,x,y\na,1,1e307\na,2,1e307\n", []),
    ("bars", "label,value\na,-1e307\nb,1e307\n", []),
    ("bars", "label,value\n\"tab\there\",1\nline\x7f\u00e9,2\n", ["--title", "a\tb"]),
], ids=["linear-flat-y", "flat-x", "log-flat", "bars", "allowed-characters"])
def test_report_writes_well_formed_svg_at_the_edges_of_what_it_draws(tmp_path, kind, text, flags):
    path = tmp_path / "in.csv"
    path.write_text(text)
    out = tmp_path / "x.svg"
    assert main(["report", "--kind", kind, "--input", str(path), "--out", str(out)] + flags) == 0
    svg = out.read_text()
    xml.dom.minidom.parseString(svg)
    assert "nan" not in svg and "inf" not in svg


# Fields past the csv module's 131072-character limit raise csv.Error.
@pytest.mark.parametrize("command", [
    ["report", "--kind", "bars", "--input"],
    ["fit", "--train-features"],
])
def test_oversized_csv_field_exits_1_naming_file_and_line(tmp_path, capsys, command):
    path = tmp_path / "in.csv"
    path.write_text("x" * 200_000 + ",1\n")
    assert main([*command, str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: line 1: field larger than field limit" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- config file


def test_config_file_with_flag_override(dataset, tmp_path):
    config = write_json(tmp_path / "run.json", {
        "ground_truth": str(dataset / "ground_truth.json"),
        "detections": str(dataset / "detections.json"),
        "features": str(dataset / "features.t2tfeat"),
        "train_features": str(dataset / "train_features.t2tfeat"),
        "iou_threshold": 0.75,
        "bins": 12,
    })
    out1 = tmp_path / "from_config"
    assert main(["evaluate", "--config", str(config), "--out", str(out1)]) == 0
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["iou_threshold"] == 0.75
    assert summary["histogram_bins"] == 12

    out2 = tmp_path / "overridden"
    assert main([
        "evaluate", "--config", str(config), "--iou", "0.5", "--out", str(out2),
    ]) == 0
    assert json.loads((out2 / "summary.json").read_text())["iou_threshold"] == 0.5


def test_config_rejects_unknown_keys(dataset, tmp_path, capsys):
    config = write_json(tmp_path / "run.json", {"bogus_key": 1})
    assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_score_thresholds_flag(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    args = evaluate_args(dataset, out) + ["--score-thresholds", "strict=0.9"]
    assert main(args) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["base_regime"] == "strict"
    assert list(summary["metrics"]["ap_t2t"]) == ["strict"]

    assert main(evaluate_args(dataset, tmp_path / "bad") + ["--score-thresholds", "junk"]) == 1
    assert "name=value" in capsys.readouterr().err


def test_the_most_regimes_a_run_takes_are_all_reported(dataset, tmp_path):
    out = tmp_path / "out"
    regimes = ",".join(f"r{i}={i / 100}" for i in range(100))
    assert main(evaluate_args(dataset, out) + ["--score-thresholds", regimes]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["metrics"]["ap_t2t"]) == sorted(f"r{i}" for i in range(100))


# Every malformed value ends in exit 1 and an error line naming the file and
# key; a traceback would escape main() and fail the test.
@pytest.mark.parametrize("command, flag, content, key", [
    ("evaluate", "--config", {"iou_threshold": "abc"}, "iou_threshold"),
    ("evaluate", "--config", {"bins": 2.7}, "bins"),
    ("evaluate", "--config", {"bins": True}, "bins"),
    ("evaluate", "--config", {"iou_grid": None}, "iou_grid"),
    ("evaluate", "--config", ["bins"], "object"),
    ("evaluate", "--config", b'{"bins": "\xff"}', "UTF-8"),
    ("scenario", "--spec", {"n_gt": "abc"}, "n_gt"),
    ("scenario", "--spec", {"n_gt": 5.9}, "n_gt"),
    ("scenario", "--spec", {"seed": "3"}, "seed"),
    ("scenario", "--spec", {"tp_score_range": ["a", 1]}, "tp_score_range"),
    ("scenario", "--spec", {"n_tp": 50}, "n_tp"),
    ("scenario", "--spec", b"\xff\xfe{}", "UTF-8"),
])
def test_malformed_settings_file_exits_1_naming_file_and_key(
    tmp_path, capsys, command, flag, content, key
):
    path = tmp_path / "settings.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        write_json(path, content)
    assert main([command, flag, str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    assert key in err
    assert "Traceback" not in err


# Out-of-range settings fail before any input is read: every input path here
# is missing, so a later check would name a file instead.
@pytest.mark.parametrize("command, config, flags, message", [
    ("evaluate", None, ["--bins", "0"], "--bins: must be >= 1, got 0"),
    ("evaluate", {"bins": 0}, [], "{config}: bins: must be >= 1, got 0"),
    ("evaluate", {"bins": 0}, ["--bins", "5", "--iou", "0"], "--iou: must be in (0, 1], got 0.0"),
    ("evaluate", None, ["--iou", "nan"], "--iou: must be in (0, 1], got nan"),
    ("evaluate", None, ["--iou", "inf"], "--iou: must be in (0, 1], got inf"),
    ("evaluate", None, ["--iou", "1.5"], "--iou: must be in (0, 1], got 1.5"),
    ("evaluate", {"iou_threshold": 0}, [], "{config}: iou_threshold: must be in (0, 1], got 0.0"),
    ("evaluate", {"iou_threshold": 0.5}, ["--iou", "-0.5"], "--iou: must be in (0, 1], got -0.5"),
    ("evaluate", {"score_thresholds": {}}, [], "{config}: score_thresholds: must not be empty"),
    ("evaluate", {"score_thresholds": {"all": 1.5}}, [],
     "{config}: score_thresholds: regime 'all' must be in [0, 1], got 1.5"),
    ("evaluate", None, ["--score-thresholds", "all=0.1,high=nan"],
     "--score-thresholds: regime 'high' must be in [0, 1], got nan"),
    ("evaluate", None, ["--score-thresholds", "low=-0.1"],
     "--score-thresholds: regime 'low' must be in [0, 1], got -0.1"),
    ("evaluate", None, ["--epsilon", "-1"], "--epsilon: must be finite and >= 0, got -1.0"),
    ("evaluate", {"epsilon": 1e309}, [], "{config}: epsilon: must be finite and >= 0, got inf"),
    ("distances", None, ["--epsilon", "-1"], "--epsilon: must be finite and >= 0, got -1.0"),
    ("distances", None, ["--score-thresholds", "low=-0.1"],
     "--score-thresholds: regime 'low' must be in [0, 1], got -0.1"),
    ("evaluate", None, ["--bins", "100001"], "--bins: must be <= 100000, got 100001"),
    ("evaluate", {"bins": 100001}, [], "{config}: bins: must be <= 100000, got 100001"),
    ("evaluate", None, ["--score-thresholds", ",".join(f"r{i}=0.5" for i in range(101))],
     "--score-thresholds: must hold at most 100 regimes, got 101"),
    ("evaluate", {"score_thresholds": {f"r{i}": 0.5 for i in range(101)}}, [],
     "{config}: score_thresholds: must hold at most 100 regimes, got 101"),
])
def test_out_of_range_setting_exits_1_before_reading_inputs(
    tmp_path, capsys, command, config, flags, message
):
    argv = [command] + evaluate_args(tmp_path / "missing", tmp_path / "out")[1:] + flags
    if config is not None:
        path = write_json(tmp_path / "run.json", config)
        argv += ["--config", str(path)]
        message = message.format(config=path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("all=0.1,all=0.2", "duplicate score regime 'all'"),
    ("all=0.1,high=x", "score threshold 'high' is not a number: 'x'"),
    ("all=0.0_1", "score threshold 'all' is not a number: '0.0_1'"),
    ("all=0.1,", "score thresholds must look like name=value, got ''"),
])
def test_malformed_score_thresholds_exit_1_before_reading_inputs(tmp_path, capsys, text, message):
    argv = evaluate_args(tmp_path / "missing", tmp_path / "out") + ["--score-thresholds", text]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def t2tfeat(rows, dim, body=b""):
    return FEATURE_MAGIC + struct.pack("<QQ", rows, dim) + body


def model_file(mean, cov, epsilon=0.0, count=5):
    """A model file of ``mean`` and ``cov``; its precision block holds zeros,
    since no reader uses it."""
    d = len(mean)
    values = [*mean, *(v for row in cov for v in row), *[0.0] * (d * d)]
    return (MODEL_MAGIC + _MODEL_HEADER.pack(d, epsilon, count)
            + struct.pack(f"<{len(values)}d", *values))


# A malformed training-feature file (read by `fit`) or model file (read by
# `ap-t2t --model`): exit 1 and one error line naming the file.
@pytest.mark.parametrize("flag, content, message", [
    ("--train-features", b"r1,1.0\nr2\n", "line 2: expected a row id and at least one value"),
    ("--train-features", b"r1,1.0\n ,2.0\n", "line 2: empty row id"),
    ("--train-features", b"r1,1.0\nr2,abc\n", "line 2, column 2: not a number: 'abc'"),
    ("--train-features", b"\n\n", "no feature rows"),
    ("--train-features", t2tfeat(0, 3), "header declares empty matrix (0x3)"),
    ("--train-features", t2tfeat(1, 1, struct.pack("<fI", 1.0, 1) + b"\xff"),
     "row 0 id is not valid UTF-8 (invalid start byte)"),
    ("--model", MODEL_MAGIC + _MODEL_HEADER.pack(0, 0.0, 5), "dimension must be >= 1, got 0"),
    ("--model", model_file([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], -1.0),
     "regularization must be >= 0, got -1.0"),
    ("--model", model_file([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], -0.0),
     "regularization must not be -0.0, which no fit writes"),
    ("--model", model_file([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], count=0),
     f"sample count must lie in [1, {(2**63 - 1) // 8}] for dimension 2, got 0"),
    ("--model", model_file([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], count=2),
     "regularization must be > 0 for a sample count of 2 in 2 dimensions"),
    ("--model", model_file([0.0, float("nan")], [[1.0, 0.0], [0.0, 1.0]]),
     "model contains non-finite values"),
    ("--model", model_file([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]]), "covariance is not symmetric"),
])
def test_malformed_feature_or_model_file_exits_1_naming_it(
    dataset, tmp_path, capsys, flag, content, message
):
    path = tmp_path / "input.bin"
    path.write_bytes(content)
    if flag == "--model":  # every input but the model is the valid dataset's
        argv = ["ap-t2t", *evaluate_args(dataset, tmp_path / "out")[1:-4], "--model", str(path)]
    else:
        argv = ["fit", "--train-features", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert error_lines(capsys.readouterr().err) == [f"error: {path}: {message}"]
    assert not (tmp_path / "out").exists()


def int_digit_limit_error(digits: int) -> str:
    """The interpreter's own text for an integer over its digit limit."""
    with pytest.raises(ValueError) as err:
        int("1" * digits)
    return str(err.value)


# The whole error line of a refusal in each kind of input file: the file's
# name once, then the record, line or key, then what is wrong.
@pytest.mark.parametrize("kind, content, message", [
    ("--train-features", t2tfeat(1, 1, struct.pack("<fI", 1.0, 1) + b"a!"),
     "trailing bytes after row ids"),
    ("--model", model_file([0.0], [[1.0]]) + b"!", "trailing bytes after model payload"),
    ("--config", b"[" * 100_000, "invalid JSON: nested too deeply"),
    ("--config", b"1" * 5000, f"invalid JSON: {int_digit_limit_error(5000)}"),
    ("--gt", b'{"images": [{"id": "a", "width": 1.5, "height": 2}], "annotations": []}',
     "images[0]: width and height must be integers, got (1.5, 2)"),
    ("--curve", b"count,accuracy\n5,0.2\n10\n", "row 2: expected 2 or 3 columns, got 1"),
    ("histogram", b"bin_lo,bin_hi,count\n", "expected a header row and at least one data row"),
    ("histogram", b"a,b\n1,2\n", "expected columns bin_lo,bin_hi,count"),
    ("bars", b"a,b\n1,2\n", "expected columns label,value"),
    ("histogram", b"bin_lo,bin_hi,count\n0,1,2\n1.5,2,3\n", "bins are not contiguous at row 2"),
    ("--config", b'{"bogus": 1, "alpha": 2, "bins": 3}', "unknown keys: alpha, bogus"),
    ("--config", b'{"bins": null}', "bins must not be null"),
    ("--config", b'["bins"]', "expected a JSON object, got list"),
])
def test_each_input_file_refusal_names_the_file_once(
    dataset, tmp_path, capsys, kind, content, message
):
    path = tmp_path / "input"
    path.write_bytes(content)
    out = str(tmp_path / "out")
    argv = {
        "--train-features": ["fit", "--train-features", str(path), "--out", out],
        "--model": ["ap-t2t", *evaluate_args(dataset, out)[1:-4], "--model", str(path),
                    "--out", out],
        "--config": ["evaluate", "--config", str(path), "--out", out],
        "--gt": [*evaluate_args(dataset, out), "--gt", str(path)],
        "--curve": ["replacement", "--curve", str(path), "--target", "0.3", "--out", out],
        "histogram": ["report", "--kind", "histogram", "--input", str(path), "--out", out],
        "bars": ["report", "--kind", "bars", "--input", str(path), "--out", out],
    }[kind]
    assert main(argv) == 1
    assert error_lines(capsys.readouterr().err) == [f"error: {path}: {message}"]
    assert not Path(out).exists()


def test_config_null_optional_means_default(dataset, tmp_path):
    config = write_json(tmp_path / "run.json", {
        "ground_truth": str(dataset / "ground_truth.json"),
        "detections": str(dataset / "detections.json"),
        "features": str(dataset / "features.t2tfeat"),
        "train_features": str(dataset / "train_features.t2tfeat"),
        "model": None,
        "epsilon": None,
    })
    assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
    assert main(evaluate_args(dataset, tmp_path / "b")) == 0
    assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()


@pytest.mark.parametrize("argv", [["evaluate", "--bogus"], ["evaluate", "--iou", "abc"],
                                  ["distances", "--score-threshold", "0.5"]])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, kind", [
    (["evaluate", "--bins", "1_0"], "int"),
    (["evaluate", "--iou", "0.5_0"], "float"),
    (["evaluate", "--epsilon", "1_0"], "float"),
    (["scenario", "--seed", "1_0", "--out", "unused"], "int"),
])
def test_numeric_flags_refuse_digit_group_underscores(capsys, argv, kind):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"t2t {argv[0]}: error: argument {argv[1]}: invalid {kind} value: {argv[2]!r}"]


# ------------------------------------------------------------------------ fuzz


FUZZ_CONFIG = {"iou_threshold": 0.5, "score_thresholds": {"all": 0.01, "high": 0.5},
               "epsilon": 0.001, "bins": 5}
MATCHING_FLAGS = ["--gt", "ground_truth.json", "--det", "detections.json", "--config", "run.json"]
BINARY_FEATURES = ["--features", "features.t2tfeat", "--train-features", "train_features.t2tfeat"]
CSV_FEATURES = ["--features", "features.csv", "--train-features", "train_features.csv"]
# Each run's argv; names of fuzz inputs stand for their mutated copies, and
# "out" for a fresh output path.
FUZZ_RUNS = {
    **{f"{command} {container}": [command, *MATCHING_FLAGS, *features, "--out", "out"]
       for command in ("evaluate", "distances", "ap-t2t")
       for container, features in (("t2tfeat", BINARY_FEATURES), ("csv", CSV_FEATURES))},
    **{f"report {kind}": ["report", "--kind", kind, "--input", f"{kind}.csv", "--out", "out"]
       for kind in ("series", "histogram", "bars")},
    "replacement": ["replacement", "--curve", "curve.csv", "--target", "0.3",
                    "--target", "100:0.4:0.2", "--out", "out"],
}


def features_csv(path: Path) -> str:
    matrix = load_feature_matrix(path)
    return "".join(f"{row_id},{','.join(map(repr, row))}\n"
                   for row_id, row in zip(matrix.row_ids, matrix.data.tolist()))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """File name -> bytes of one valid scenario, run config and CSV input of each command."""
    data = tmp_path_factory.mktemp("fuzz")
    spec = write_json(data / "spec.json", SCENARIO_SPEC)
    assert main(["scenario", "--spec", str(spec), "--out", str(data)]) == 0
    write_json(data / "run.json", FUZZ_CONFIG)
    for name in ("features", "train_features"):
        (data / f"{name}.csv").write_text(features_csv(data / f"{name}.t2tfeat"))
    assert main(evaluate_args(data, data / "evaluated")) == 0
    (data / "histogram.csv").write_bytes((data / "evaluated" / "distance_hist_tp.csv").read_bytes())
    (data / "series.csv").write_text(export_csv(scaling_series([
        (5, MetricReport(ap=0.2, ap_5095=0.1, ap_t2t_by_regime={"all": 0.05, "med": 0.02})),
        (10, MetricReport(ap=0.4, ap_5095=0.2, ap_t2t_by_regime={"all": 0.3, "med": 0.2})),
    ])))
    (data / "bars.csv").write_text("label,value\nbaseline,4\nsynth,9.5\n")
    (data / "curve.csv").write_text("count,accuracy,run_id\n5,0.2,r1\n10,0.4,r1\n"
                                    "5,0.3,r2\n10,0.5,r2\n")
    names = {name for argv in FUZZ_RUNS.values() for name in argv if (data / name).is_file()}
    return {name: (data / name).read_bytes() for name in names}


edits = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete", "truncate"]),
        st.integers(0, 1 << 20),
        st.one_of(st.sampled_from(b'{}[]":,.-+0123456789eEnN \x00\xff'), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=4,
)


def mutate(blob: bytes, ops) -> bytes:
    out = bytearray(blob)
    for op, position, byte in ops:
        at = position % (len(out) + 1)
        if op == "replace" and at < len(out):
            out[at] = byte
        elif op == "insert":
            out.insert(at, byte)
        elif op == "delete":
            del out[at:at + 1]
        elif op == "truncate":
            del out[at:]
    return bytes(out)


@settings(max_examples=100, deadline=None)
@given(run=st.sampled_from(sorted(FUZZ_RUNS)), pick=st.integers(0, 3), ops=edits)
def test_mutated_input_ends_in_an_exit_code_and_at_most_one_error_line(
    fuzz_inputs, run, pick, ops
):
    inputs = [name for name in FUZZ_RUNS[run] if name in fuzz_inputs]
    target = inputs[pick % len(inputs)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in inputs:
            blob = fuzz_inputs[name]
            (tmp / name).write_bytes(mutate(blob, ops) if name == target else blob)
        argv = [str(tmp / arg) if arg in fuzz_inputs or arg == "out" else arg
                for arg in FUZZ_RUNS[run]]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)  # an escaping exception fails the test with its traceback
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("error: ") or "\nerror: " in err


# ------------------------------------------------- unreadable and unwritable


# Each command's argv with valid inputs; names stand for files of `read_inputs`.
READ_RUNS = {
    **{command: [command, *MATCHING_FLAGS, *BINARY_FEATURES, "--out", "out"]
       for command in ("evaluate", "distances", "ap-t2t")},
    "fit": ["fit", "--config", "run.json", "--train-features", "train_features.t2tfeat",
            "--out", "out"],
    "scenario": ["scenario", "--out", "out"],
    "report": ["report", "--kind", "bars", "--input", "bars.csv", "--out", "out"],
    "replacement": ["replacement", "--curve", "curve.csv", "--target", "0.3", "--out", "out"],
}
DIRECTORY_CASES = [
    *[(command, flag, "directory")
      for command in ("evaluate", "distances", "ap-t2t")
      for flag in ("--gt", "--det", "--features", "--train-features", "--model", "--config")],
    ("fit", "--train-features", "directory"),
    ("fit", "--config", "directory"),
    ("scenario", "--spec", "directory"),
    ("report", "--input", "directory"),
    ("replacement", "--curve", "directory"),
]


@pytest.fixture(scope="module")
def read_inputs(tmp_path_factory):
    """A directory holding one valid input for every flag of READ_RUNS, a
    directory, a deeply nested JSON file and detections with a huge id."""
    data = tmp_path_factory.mktemp("read")
    spec = write_json(data / "spec.json", SCENARIO_SPEC)
    assert main(["scenario", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["fit", "--train-features", str(data / "train_features.t2tfeat"),
                 "--out", str(data / "model.t2tmodl")]) == 0
    write_json(data / "run.json", FUZZ_CONFIG)
    (data / "bars.csv").write_text("label,value\nbaseline,4\n")
    (data / "curve.csv").write_text("count,accuracy\n5,0.2\n10,0.4\n")
    (data / "directory").mkdir()
    (data / "nested").write_text("[" * 200_000)
    dets = json.loads((data / "detections.json").read_text())
    text = json.dumps(dets).replace(json.dumps(dets[0]["detection_id"]), "1" * 5001, 1)
    (data / "huge_id").write_text(text)
    return data


@pytest.mark.parametrize("command, flag, bad", [
    *DIRECTORY_CASES,
    *[(command, flag, "nested") for command, flag in (
        ("evaluate", "--gt"), ("evaluate", "--det"), ("evaluate", "--config"),
        ("scenario", "--spec"))],
    ("distances", "--det", "huge_id"),
])
def test_unreadable_input_exits_1_naming_the_file(
    read_inputs, tmp_path, capsys, command, flag, bad
):
    defaults = {"--model": "model.t2tmodl", "--spec": "spec.json"}
    argv = list(READ_RUNS[command])
    if flag not in argv:
        argv += [flag, defaults[flag]]
    if flag == "--model":  # else the model would be fitted from the training features
        at = argv.index("--train-features")
        del argv[at:at + 2]
    argv[argv.index(flag) + 1] = bad
    argv = [str(tmp_path / arg) if arg == "out" else arg for arg in argv]
    argv = [str(read_inputs / arg) if (read_inputs / arg).exists() else arg for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(read_inputs / bad) in errors[0]
    assert "Traceback" not in err


# Inputs are mapped, not copied; each file that cannot be mapped or parsed
# keeps its exit code and its error line.
@pytest.mark.parametrize("flag, content, message", [
    ("--gt", b"", "{path}: invalid JSON at line 1: Expecting value"),
    ("--train-features", b"", "{path}: no feature rows"),
    ("--model", b"", "{path}: bad magic b''"),
    ("--gt", None, "{path}: cannot read: Is a directory"),
    ("--det", "missing", "no such file: {path}"),
    ("--train-features", t2tfeat(2, 3, struct.pack("<3f", 1, 2, 3)),
     "{path}: truncated file: feature values needs 24 bytes"),
    ("--train-features", t2tfeat(2, 3, struct.pack("<6fI", *range(6), 2) + b"a"),
     "{path}: truncated file: id of row 0 needs 2 bytes, 1 left "
     "(the header declares 2 rows of dim 3)"),
    ("--train-features", t2tfeat(2, 3, struct.pack("<6fI", *range(6), 1) + b"a\x02"),
     "{path}: truncated file: id length of row 1 needs 4 bytes"),
    ("--det", b"\xff[]", "{path}: not UTF-8 text at byte 0 (invalid start byte)"),
    # One flipped magic bit: the header decodes as text, and float32 1.0 is
    # 00 00 80 3f, so byte 30 starts no UTF-8 character.
    ("--train-features", b"T2TFeAT\x00" + t2tfeat(2, 3, struct.pack("<6f", *range(6)))[8:],
     "{path}: neither T2TFEAT (starts with b'T2TFeAT\\x00', not b'T2TFEAT\\x00') "
     "nor CSV text: not UTF-8 text at byte 30 (invalid start byte)"),
])
def test_an_input_that_cannot_be_mapped_or_parsed_exits_1_with_one_error_line(
    dataset, tmp_path, capsys, flag, content, message
):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    elif content != "missing":
        path.write_bytes(content)
    argv = evaluate_args(dataset, tmp_path / "out")
    if flag == "--model":
        at = argv.index("--train-features")
        argv[at:at + 2] = ["--model", str(path)]
    else:
        argv[argv.index(flag) + 1] = str(path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out", [
    ("fit", "file/m.t2tmodl"),
    ("distances", "directory"),
    ("evaluate", "file"),
])
def test_unwritable_output_exits_1_naming_the_file(dataset, tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("a regular file\n")
    (tmp_path / "directory").mkdir()
    argv = evaluate_args(dataset, tmp_path / out)
    argv[0] = command
    if command == "fit":  # fit takes no --gt, --det or --features
        del argv[1:7]
    assert main(argv) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {tmp_path / out}")
    assert "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


# ------------------------------------------------------------------ subprocess


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "t2tmetrics.cli", "evaluate", "--gt",
         str(tmp_path / "missing.json"), "--det", str(tmp_path / "missing.json"),
         "--features", str(tmp_path / "missing.csv"), "--train-features",
         str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert "missing.json" in result.stderr

    result = subprocess.run(
        [sys.executable, "-m", "t2tmetrics.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "evaluate" in result.stdout


@pytest.mark.parametrize("command", ["evaluate", "distances"])
def test_matching_commands_do_not_import_numpy_ma(dataset, tmp_path, command):
    # numpy.ma costs 12-25 ms of import; np.unique would load it.
    argv = evaluate_args(dataset, tmp_path / "out")
    argv[0] = command
    argv += ["--iou-grid"] if command == "evaluate" else []
    if command == "distances":
        argv[-1] = str(tmp_path / "distances.csv")
    probe = ("import sys\nfrom t2tmetrics.cli import main\n"
             f"assert main({argv!r}) == 0\nprint('numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=120)
    assert result.stdout.splitlines()[-1] == "False"


def test_cli_import_loads_no_scipy_xml_or_url_modules():
    # Diffed against a bare interpreter, so modules that site hooks load do not count.
    def modules(statement):
        probe = f"import sys\n{statement}\nprint(*sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        return set(result.stdout.split())

    added = modules("import t2tmetrics.cli") - modules("pass")
    assert "t2tmetrics.cli" in added
    heavy = ("scipy", "xml.sax", "urllib.request")
    assert [m for m in added if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []


def loaded_modules(statement: str) -> set[str]:
    """The modules whose code ran in a child process that ran ``statement``.

    A submodule that the package registered through ``importlib.util.LazyLoader``
    is in ``sys.modules`` from the start, but counts only once its code ran.
    """
    probe = (f"import importlib.util, sys\n{statement}\n"
             "lazy = importlib.util._LazyModule\n"
             "print(*[name for name, m in sys.modules.items() if type(m) is not lazy])")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=120)
    return set(result.stdout.splitlines()[-1].split())


def run_main(argv: list[str]) -> str:
    return f"from t2tmetrics.cli import main\nassert main({argv!r}) == 0"


def test_imports_help_report_and_replacement_load_no_numpy(tmp_path):
    reports = {
        "series": "series,x,y\nall,5,0.1\nall,10,0.2\n",
        "histogram": "bin_lo,bin_hi,count\n0,0.5,3\n0.5,1,0\n",
        "bars": "label,value\nbaseline,4\n",
    }
    statements = ["import t2tmetrics", "import t2tmetrics.cli",
                  "import contextlib\nfrom t2tmetrics.cli import main\n"
                  "with contextlib.suppress(SystemExit):\n    main(['--help'])"]
    for kind, text in reports.items():
        (tmp_path / f"{kind}.csv").write_text(text)
        statements.append(run_main(["report", "--kind", kind, "--input", str(tmp_path / f"{kind}.csv"),
                                    "--out", str(tmp_path / f"{kind}.svg")]))
    (tmp_path / "curve.csv").write_text("count,accuracy\n5,0.2\n10,0.4\n")
    statements.append(run_main(["replacement", "--curve", str(tmp_path / "curve.csv"),
                                "--target", "100:0.3:0.25", "--out", str(tmp_path / "r")]))
    for statement in statements:
        loaded = loaded_modules(statement)
        assert "t2tmetrics" in loaded
        assert not {m for m in loaded if m.split(".")[0] == "numpy"}, statement


def test_fit_and_ap_t2t_load_only_the_modules_they_run(dataset, tmp_path):
    model = tmp_path / "model.t2tmodl"
    fit = loaded_modules(run_main(["fit", "--train-features", str(dataset / "train_features.t2tfeat"),
                                   "--out", str(model)]))
    assert {"numpy", "t2tmetrics.ingest", "t2tmetrics.feature_model"} <= fit
    for name in ("matching", "metrics", "report", "replacement", "scenario"):
        assert f"t2tmetrics.{name}" not in fit

    argv = ["ap-t2t"] + evaluate_args(dataset, tmp_path / "ap")[1:]
    ap_t2t = loaded_modules(run_main(argv))
    assert {"t2tmetrics.matching", "t2tmetrics.metrics"} <= ap_t2t
    assert "t2tmetrics.replacement" not in ap_t2t and "t2tmetrics.scenario" not in ap_t2t


# A buffered stdout fails at the flush, an unbuffered one at the first print.
@pytest.mark.parametrize("command, buffered", [
    ("fit", True), ("fit", False), ("replacement", True), ("replacement", False), ("--help", True),
    ("--help", False),
])
def test_a_closed_standard_output_ends_in_one_error_line(dataset, tmp_path, command, buffered):
    (tmp_path / "curve.csv").write_text("count,accuracy\n5,0.2\n10,0.4\n")
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--train-features", str(dataset / "train_features.t2tfeat"),
                "--out", str(out)],
        "replacement": ["replacement", "--curve", str(tmp_path / "curve.csv"),
                        "--target", "0.3", "--out", str(out)],
        "--help": ["--help"],
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        result = subprocess.run([sys.executable, "-m", "t2tmetrics.cli", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
        "error: standard output was closed before the output was written"]
    # The outputs are written before anything is printed.
    if command == "fit":
        assert out.is_file()
    elif command == "replacement":
        assert (out / "replacement.svg").is_file()


def test_run_config_default_regimes_are_the_metrics_defaults():
    assert RunConfig().score_thresholds == DEFAULT_SCORE_THRESHOLDS
