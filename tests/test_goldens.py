"""Byte-for-byte goldens for ``evaluate --iou-grid``, ``ap-t2t`` and the SVG charts.

The scenario plants FP distances close to the TP distances and spreads TP
scores below the high-regime threshold, so the three score regimes give
different AP_t2t values and the IoU grid turns some planted TPs into FPs.

The ``grid/`` histogram edges derive from the largest distance and so carry
the last bits of the BLAS-computed distances; the oracle tests below pin
every distance to exact arithmetic and the bin counts to their values.
"""

import csv
import json
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import histogram_recount, train2test_distance_exact
from t2tmetrics import (
    DEFAULT_SCORE_THRESHOLDS,
    Kind,
    annotate_distances,
    bind_features,
    fit_gaussian,
    load_detections,
    load_feature_matrix,
    load_ground_truth,
    match_detections,
)
from t2tmetrics.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"
SPEC = {
    "n_gt": 40, "n_tp": 30, "n_fp": 30, "feature_dim": 8,
    "fp_distance_scale": 1.5, "tp_score_range": [0.05, 1.0], "seed": 5,
}
EVALUATE_FILES = (
    "metrics.csv", "summary.json", "distance_hist_tp.csv", "distance_hist_fp.csv",
    "distance_hist_tp.svg", "distance_hist_fp.svg",
)

# `t2t report` inputs, one per drawing path: a log series with a zero point
# (drawn at the floor) and a title to escape, a linear series with more x
# values than x ticks, a histogram with empty bins, bars with a negative value.
REPORT_CASES = {
    "series_log": ("series", ["--title", "AP_t2t <log> & floor"],
                   "series,x,y,floored\nall,5,0,true\nall,10,0.0125,false\nall,20,0.25,false\n"
                   "high,5,0.001,false\nhigh,10,0.004,false\nhigh,20,0.1,false\n"),
    "series_linear": ("series", ["--linear"],
                      "series,x,y\n" + "".join(f"a,{x},{0.1 * x * x - x}\n" for x in range(10))),
    "histogram": ("histogram", [],
                  "bin_lo,bin_hi,count\n0,0.5,3\n0.5,1,0\n1,1.5,7\n1.5,2,0\n2,2.5,1\n"),
    "bars": ("bars", ["--title", "gains"], "label,value\n100,12.5\n200,-3\n400,30\n"),
}
REPLACEMENT_CURVE = "count,accuracy\n5,0.2\n10,0.35\n20,0.5\n40,0.6\n80,0.65\n"
REPLACEMENT_TARGETS = ("0.3", "100:0.45:0.3", "200:0.62:0.5", "300:0.9:0.2")


# Count columns of grid/distance_hist_{tp,fp}.csv, as recorded with per-row
# distances; the blocked kernel moved only the edges' last bits.
GRID_HIST_COUNTS = {
    Kind.TP: [0, 0, 0, 0, 3, 0, 0, 1, 3, 3, 2, 3, 2, 2, 2,
              3, 0, 1, 2, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    Kind.FP: [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 3, 0, 1, 0,
              2, 1, 1, 0, 2, 3, 4, 3, 2, 0, 1, 0, 1, 2, 1],
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_scenario")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    data = root / "data"
    assert main(["scenario", "--spec", str(spec), "--out", str(data)]) == 0
    return data


@pytest.fixture(scope="module")
def inputs(data):
    return [
        "--gt", str(data / "ground_truth.json"),
        "--det", str(data / "detections.json"),
        "--features", str(data / "features.t2tfeat"),
        "--train-features", str(data / "train_features.t2tfeat"),
    ]


def test_evaluate_iou_grid_reproduces_goldens(inputs, tmp_path):
    assert main(["evaluate", "--iou-grid", *inputs, "--out", str(tmp_path)]) == 0
    for name in EVALUATE_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / "grid" / name).read_bytes(), name
    by_regime = json.loads((tmp_path / "summary.json").read_text())["metrics"]["ap_t2t"]
    assert len(set(by_regime.values())) == 3


@pytest.mark.parametrize("flags, golden", [((), "ap_t2t"), (("--iou-grid",), "ap_t2t_grid")])
def test_ap_t2t_reproduces_goldens(inputs, tmp_path, flags, golden):
    assert main(["ap-t2t", *flags, *inputs, "--out", str(tmp_path)]) == 0
    produced = (tmp_path / "ap_t2t.csv").read_bytes()
    assert produced == (GOLDEN_DIR / golden / "ap_t2t.csv").read_bytes()
    rows = list(csv.DictReader(produced.decode().splitlines()))
    assert [r["regime"] for r in rows] == ["all", "med", "high"]
    assert len({r["ap_t2t"] for r in rows}) == 3


@pytest.fixture(scope="module")
def annotated(data):
    """The base annotation of ``evaluate`` and the exact distance of every detection."""
    gts = load_ground_truth(data / "ground_truth.json")
    dets = bind_features(
        load_detections(data / "detections.json"),
        load_feature_matrix(data / "features.t2tfeat"),
    )
    model = fit_gaussian(load_feature_matrix(data / "train_features.t2tfeat"))
    outcome = match_detections(dets, gts, 0.5, min(DEFAULT_SCORE_THRESHOLDS.values()))
    exact = {
        det.detection_id: train2test_distance_exact(model, det.feature)
        for det in dets.detections
    }
    return annotate_distances(model, outcome), exact


def within_1e12(value: float, exact: Fraction) -> bool:
    return abs(Fraction(value) - exact) <= Fraction(1, 10**12) * abs(exact)


def test_golden_scenario_distances_match_the_exact_oracle(inputs, annotated, tmp_path):
    outcome, exact = annotated
    assert len(outcome.entries) == 60
    for entry in outcome.entries:
        assert within_1e12(entry.distance, exact[entry.detection_id]), entry.detection_id
    out = tmp_path / "distances.csv"
    assert main(["distances", *inputs, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == len(outcome.entries)
    for row in rows:
        assert within_1e12(float(row["distance"]), exact[row["detection_id"]]), row


@pytest.mark.parametrize("kind", [Kind.TP, Kind.FP])
def test_grid_histogram_counts_are_those_of_the_exact_distances(annotated, kind):
    text = (GOLDEN_DIR / "grid" / f"distance_hist_{kind.value}.csv").read_text()
    rows = list(csv.reader(text.splitlines()))[1:]
    counts = [int(r[2]) for r in rows]
    assert counts == GRID_HIST_COUNTS[kind]
    edges = [float(rows[0][0])] + [float(r[1]) for r in rows]
    outcome, exact = annotated
    values = [float(exact[e.detection_id]) for e in outcome.entries if e.kind is kind]
    assert histogram_recount(values, edges) == counts


@pytest.mark.parametrize("name", REPORT_CASES)
def test_report_reproduces_svg_goldens(tmp_path, name):
    kind, flags, text = REPORT_CASES[name]
    source = tmp_path / "input.csv"
    source.write_text(text)
    out = tmp_path / f"{name}.svg"
    assert main(["report", "--kind", kind, "--input", str(source), "--out", str(out), *flags]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "report" / f"{name}.svg").read_bytes()


def test_replacement_reproduces_goldens(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text(REPLACEMENT_CURVE)
    targets = [arg for target in REPLACEMENT_TARGETS for arg in ("--target", target)]
    assert main(["replacement", "--curve", str(curve), *targets, "--out", str(tmp_path)]) == 0
    for name in ("replacement.csv", "replacement.svg"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / "replacement" / name).read_bytes()
