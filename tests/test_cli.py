import functools
import json
import subprocess
import sys

import pytest

from t2tmetrics import IOU_GRID, MetricReport, export_csv, scaling_series
from t2tmetrics.cli import main

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
    # Matchings count one per call; the distance kernel counts the rows it is given.
    work = {
        "match_detections": lambda *args, **kwargs: 1,
        "train2test_distances": lambda model, features: len(features),
    }
    calls = dict.fromkeys(work, 0)

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += work[name](*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # Patch every module that binds the name, as ``from x import name`` copies it.
    for name in work:
        bound = [
            module for mod_name, module in sys.modules.items()
            if mod_name.split(".")[0] == "t2tmetrics" and hasattr(module, name)
        ]
        assert bound
        for module in bound:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    assert main(evaluate_args(dataset, tmp_path / "out") + ["--iou-grid"]) == 0
    detections = json.loads((tmp_path / "out" / "summary.json").read_text())["detections"]
    assert 0 < calls["match_detections"] <= len(IOU_GRID)
    assert 0 < calls["train2test_distances"] <= detections


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


def test_evaluate_rank_deficient_epsilon_zero_exits_2(tmp_path, capsys):
    write_json(tmp_path / "gt.json", {
        "images": [{"id": "im", "width": 100, "height": 100}],
        "annotations": [{"id": "g1", "image_id": "im", "bbox": [0, 0, 10, 10]}],
    })
    write_json(tmp_path / "det.json", [
        {"detection_id": "d1", "image_id": "im", "bbox": [0, 0, 10, 10], "score": 0.9},
    ])
    (tmp_path / "features.csv").write_text("d1,1.0,2.0\n")
    (tmp_path / "train.csv").write_text("t1,0.0,0.0\nt2,1.0,1.0\n")
    args = [
        "evaluate",
        "--gt", str(tmp_path / "gt.json"),
        "--det", str(tmp_path / "det.json"),
        "--features", str(tmp_path / "features.csv"),
        "--train-features", str(tmp_path / "train.csv"),
        "--out", str(tmp_path / "out"),
        "--epsilon", "0",
    ]
    assert main(args) == 2
    assert "epsilon" in capsys.readouterr().err
    # the trace-scaled default repairs the same input
    assert main(args[:-2]) == 0


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
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {train}: ") and "non-finite" in errors[0]
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


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
        "--score-threshold", "0.5",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert 1 < len(lines) < 11


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
])
def test_report_rejects_malformed_csv(tmp_path, capsys, kind, text, message):
    path = tmp_path / "in.csv"
    argv = ["report", "--kind", kind, "--input", str(path), "--out", str(tmp_path / "x.svg")]
    path.write_text(text)
    assert main(argv) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err

    path.write_bytes(text.encode() + b"\xff\n")
    assert main(argv) == 1
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


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
@pytest.mark.parametrize("config, flags, message", [
    (None, ["--bins", "0"], "--bins: must be >= 1, got 0"),
    ({"bins": 0}, [], "{config}: bins: must be >= 1, got 0"),
    ({"bins": 0}, ["--bins", "5", "--iou", "0"], "--iou: must be in (0, 1], got 0.0"),
    (None, ["--iou", "nan"], "--iou: must be in (0, 1], got nan"),
    (None, ["--iou", "inf"], "--iou: must be in (0, 1], got inf"),
    (None, ["--iou", "1.5"], "--iou: must be in (0, 1], got 1.5"),
    ({"iou_threshold": 0}, [], "{config}: iou_threshold: must be in (0, 1], got 0.0"),
    ({"iou_threshold": 0.5}, ["--iou", "-0.5"], "--iou: must be in (0, 1], got -0.5"),
    ({"score_thresholds": {}}, [], "{config}: score_thresholds: must not be empty"),
    ({"score_thresholds": {"all": 1.5}}, [],
     "{config}: score_thresholds: regime 'all' must be in [0, 1], got 1.5"),
    (None, ["--score-thresholds", "all=0.1,high=nan"],
     "--score-thresholds: regime 'high' must be in [0, 1], got nan"),
    (None, ["--score-thresholds", "low=-0.1"],
     "--score-thresholds: regime 'low' must be in [0, 1], got -0.1"),
    (None, ["--epsilon", "-1"], "--epsilon: must be finite and >= 0, got -1.0"),
    ({"epsilon": 1e309}, [], "{config}: epsilon: must be finite and >= 0, got inf"),
    (None, ["--score-threshold", "5"], "--score-threshold: must be in [0, 1], got 5.0"),
    (None, ["--score-threshold", "nan"], "--score-threshold: must be in [0, 1], got nan"),
])
def test_out_of_range_setting_exits_1_before_reading_inputs(
    tmp_path, capsys, config, flags, message
):
    argv = evaluate_args(tmp_path / "missing", tmp_path / "out") + flags
    if "--score-threshold" in flags:  # a flag of `t2t distances` only
        argv[0] = "distances"
    if config is not None:
        path = write_json(tmp_path / "run.json", config)
        argv += ["--config", str(path)]
        message = message.format(config=path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("argv", [["evaluate", "--bogus"], ["evaluate", "--iou", "abc"]])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


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
