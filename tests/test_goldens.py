"""Byte-for-byte goldens for ``evaluate --iou-grid`` and ``ap-t2t``.

The scenario plants FP distances close to the TP distances and spreads TP
scores below the high-regime threshold, so the three score regimes give
different AP_t2t values and the IoU grid turns some planted TPs into FPs.
"""

import csv
import json
from pathlib import Path

import pytest

from t2tmetrics.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"
SPEC = {
    "n_gt": 40, "n_tp": 30, "n_fp": 30, "feature_dim": 8,
    "fp_distance_scale": 1.5, "tp_score_range": [0.05, 1.0], "seed": 5,
}
EVALUATE_FILES = ("metrics.csv", "summary.json", "distance_hist_tp.csv", "distance_hist_fp.csv")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_scenario")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    data = root / "data"
    assert main(["scenario", "--spec", str(spec), "--out", str(data)]) == 0
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
