"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
They use smoke-sized scenarios, so they check the harness, not the timings.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SMOKE = {
    "evaluate": dict(spec=dict(n_gt=50, n_tp=40, n_fp=20, feature_dim=8, n_train=40)),
    "wide-distances": dict(spec=dict(n_gt=50, n_tp=40, n_fp=30, feature_dim=16, n_train=64)),
    "train-sweep": dict(
        spec=dict(n_gt=40, n_tp=30, n_fp=40, feature_dim=8, fp_distance_scale=1.5, n_train=160),
        train_prefixes=(10, 20, 40, 80, 160),
    ),
}


def smoke(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], **SMOKE[name])


@pytest.fixture
def work_root():
    """A temporary directory inside the benchmark's own ignored work area."""
    root = BENCH_DIR / "work" / f"selftest-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    yield root
    shutil.rmtree(root, ignore_errors=True)


def prepared(root: Path, name: str, seed: int = 7):
    work = root / f"{name}-{seed}"
    work.mkdir(parents=True)
    runner = run.Runner(work)
    return run.prepare(smoke(name), seed, runner), runner


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert run.LAYER_METRICS[m["name"]] == m["unit"]


def test_inputs_are_byte_deterministic_per_seed(work_root):
    def files(inputs):
        root = inputs.dir / "inputs"
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))}

    first, _ = prepared(work_root / "a", "train-sweep")
    again, _ = prepared(work_root / "b", "train-sweep")
    other, _ = prepared(work_root, "train-sweep", seed=8)
    assert files(first) == files(again)
    assert len(files(first)) == 10  # four scenario files, five prefixes, facts
    changed = {k for k, v in files(other).items() if files(first)[k] != v}
    assert Path("detections.json") in changed and Path("features.t2tfeat") in changed


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_pass_of_every_workload_has_no_failures(work_root, name):
    inputs, runner = prepared(work_root, name)
    record = run.measure(smoke(name), inputs, runner, seconds=0, trace=True)
    assert record["failures"] == []
    assert record["failed"] == 0 and record["attempted"] > 1 + run.SETUP_PROBES
    assert all(record["end_to_end"][m] > 0 for m in run.END_TO_END)
    layers = record["layers"]
    assert set(layers) == set(run.LAYER_METRICS)
    assert layers["matching.match_calls"] > 0 and layers["cli.import_s"] > 0
    if name != "evaluate":  # evaluate matches 55 times but annotates 35 outcomes
        assert layers["matching.dets_visited"] == layers["feature_model.distance_evals"]


def _tamper(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_tampered_outputs_are_counted_as_failures(work_root):
    inputs, runner = prepared(work_root, "wide-distances")
    (inv,) = workloads.WORKLOADS["wide-distances"].invocations(inputs)

    def tamper_then_check(work: Path) -> None:
        csv_path = work / "out/distances.csv"
        row = csv_path.read_text(encoding="utf-8").splitlines()[1]
        distance = row.rsplit(",", 1)[1]
        _tamper(csv_path, row, row[: -len(distance)] + repr(float(distance) * (1 + 1e-6)))
        inv.check(work)

    result = run.run_pass([inv, replace(inv, check=tamper_then_check)], inputs, runner, False, {})
    assert result.attempted == 2 and len(result.failures) == 1
    assert result.failures[0].startswith("#1 distances") and "differs from reference" in (
        result.failures[0]
    )

    # A pass whose outputs differ from the first pass's is a failure too.
    result = run.run_pass([inv], inputs, runner, False, {0: "0" * 64})
    assert result.attempted == 1 and len(result.failures) == 1
    assert "differ from the first pass" in result.failures[0]


def test_tampered_evaluate_and_sweep_outputs_fail_their_checks(work_root):
    inputs, runner = prepared(work_root, "evaluate")
    invocations = workloads.WORKLOADS["evaluate"].invocations(inputs)
    assert run.run_pass(invocations, inputs, runner, False, {}).failures == []
    _tamper(inputs.dir / "out/plain/summary.json", '"tp": 40', '"tp": 39')
    with pytest.raises(workloads.CheckFailed, match="planted"):
        invocations[0].check(inputs.dir)
    svg = inputs.dir / "out/grid/distance_hist_fp.svg"
    svg.write_text(svg.read_text(encoding="utf-8")[:-20], encoding="utf-8")
    with pytest.raises(ET.ParseError):
        invocations[1].check(inputs.dir)

    inputs, runner = prepared(work_root, "train-sweep")
    invocations = smoke("train-sweep").invocations(inputs)
    assert run.run_pass(invocations, inputs, runner, False, {}).failures == []
    ap_csv = inputs.dir / "out/ap_10/ap_t2t.csv"
    value = ap_csv.read_text(encoding="utf-8").splitlines()[1].rsplit(",", 1)[1]
    _tamper(ap_csv, value, "1.5")
    with pytest.raises(workloads.CheckFailed, match="outside"):
        invocations[1].check(inputs.dir)
