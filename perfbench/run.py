"""Benchmark of the t2t command line on seeded synthetic datasets.

Usage (from the repository root):

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 35 --trace 0

It generates the workload's inputs from the seed with the public
``t2tmetrics`` API, then runs passes of the workload's CLI invocations as
``python -m t2tmetrics.cli`` child processes, one at a time, with this
checkout's ``src/`` first on ``PYTHONPATH``, until ``--seconds`` are used
(at least two passes' worth of outputs). Every invocation's outputs are
checked, and must be byte-identical from pass to pass.

``--trace 0`` reports the end-to-end metrics: the median pass wall time, the
median of each pass's largest child max-RSS, and the median start-up time of
a child that only imports ``t2tmetrics.cli``. ``--trace 1`` alternates plain
passes with passes whose children run through ``tracer.py`` and reports the
per-layer metrics. The last line of standard output is one JSON object; a
full record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
SETUP_CMD = ("-c", "import t2tmetrics.cli")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Every layer metric the traced run computes. A time is inclusive unless its
# name ends in _self_s.
LAYER_METRICS = {
    "matching.match_detections_s": "s",
    "matching.match_calls": "count",
    "matching.dets_visited": "count",
    "matching.candidate_pairs": "count",
    "matching.match_useful_ratio": "ratio",
    "feature_model.annotate_distances_s": "s",
    "feature_model.annotate_calls": "count",
    "feature_model.distance_evals": "count",
    "feature_model.distance_useful_ratio": "ratio",
    "feature_model.fit_gaussian_s": "s",
    "feature_model.save_model_s": "s",
    "feature_model.load_model_s": "s",
    "ingest.load_ground_truth_s": "s",
    "ingest.load_detections_s": "s",
    "ingest.load_feature_matrix_s": "s",
    "ingest.bind_features_s": "s",
    "ingest.input_bytes": "bytes",
    "metrics.ap_t2t_profile_self_s": "s",
    "metrics.ap_over_iou_range_self_s": "s",
    "metrics.average_precision_s": "s",
    "metrics.ap_t2t_s": "s",
    "report.distance_histogram_s": "s",
    "report.export_csv_s": "s",
    "report.render_svg_s": "s",
    "fsio.write_s": "s",
    "fsio.bytes_written": "bytes",
    "fsio.files_written": "count",
    "replacement.matching_image_count_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}

COUNT_UNITS = ("count", "bytes")

# The subset printed in the final JSON line: every time here is non-zero on
# every workload. The rest (model I/O, metrics, report, replacement) runs on
# some workloads only; it is printed above the JSON line and kept in the
# results file.
PER_LAYER = (
    "matching.match_detections_s",
    "matching.match_calls",
    "matching.dets_visited",
    "matching.candidate_pairs",
    "matching.match_useful_ratio",
    "feature_model.annotate_distances_s",
    "feature_model.annotate_calls",
    "feature_model.distance_evals",
    "feature_model.distance_useful_ratio",
    "feature_model.fit_gaussian_s",
    "ingest.load_ground_truth_s",
    "ingest.load_detections_s",
    "ingest.load_feature_matrix_s",
    "ingest.bind_features_s",
    "ingest.input_bytes",
    "fsio.write_s",
    "fsio.bytes_written",
    "fsio.files_written",
    "cli.import_s",
    "cli.self_s",
    "cli.cpu_s",
    "trace.overhead_s",
)


# ------------------------------------------------------------------ children


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    exit_code: int
    stderr_tail: str


class Runner:
    """Starts children one at a time in the work dir and reaps them with wait4."""

    def __init__(self, work: Path) -> None:
        self.work = work
        extra = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + extra if extra else ""))

    def spawn(self, args: tuple[str, ...]) -> Child:
        err_path = self.work / "stderr.log"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen((sys.executable,) + args, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = ""
        if proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
        return Child(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     exit_code=proc.returncode, stderr_tail=tail)


# -------------------------------------------------------------------- passes


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


def _digest(work: Path, outputs: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for rel in outputs:
        h.update(rel.encode())
        h.update((work / rel).read_bytes())
    return h.hexdigest()


def run_pass(invocations, inputs, runner: Runner, traced: bool,
             first_digests: dict[int, str]) -> PassResult:
    """Run every invocation once; a failed one is recorded and the pass goes on."""
    work = inputs.dir
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()
    result = PassResult(traced=traced)
    for i, inv in enumerate(invocations):
        result.attempted += 1
        label = f"#{i} {inv.argv[0]}"
        try:
            args = inv.argv + (inv.prepare(work) if inv.prepare else ())
        except Exception as exc:  # the glue reads earlier outputs, which may be bad
            result.failures.append(f"{label}: inputs for this step: {exc}")
            continue
        span_path = work / "out" / f"spans_{i}.json"
        if traced:
            child = runner.spawn((str(BENCH_DIR / "tracer.py"), str(span_path)) + args)
        else:
            child = runner.spawn(("-m", "t2tmetrics.cli") + args)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
        if child.exit_code != 0:
            result.failures.append(f"{label}: exit code {child.exit_code}: {child.stderr_tail}")
            continue
        missing = [rel for rel in inv.outputs if not (work / rel).is_file()]
        if missing:
            result.failures.append(f"{label}: missing outputs {missing}")
            continue
        try:
            inv.check(work)
        except Exception as exc:  # any error reading an output is a wrong output
            result.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        digest = _digest(work, inv.outputs)
        if first_digests.setdefault(i, digest) != digest:
            result.failures.append(f"{label}: outputs differ from the first pass")
            continue
        if traced:
            trace = json.loads(span_path.read_text(encoding="utf-8"))
            if Path(trace["package"]).resolve().parent.parent != SRC:
                result.failures.append(f"{label}: traced child imported {trace['package']}")
                continue
            result.traces.append(trace)
    return result


# ------------------------------------------------------------ layer metrics


def layer_metrics(traces: list[dict], inputs) -> dict[str, float]:
    """Per-layer times and counts of one traced pass, from its children's spans."""
    sums: dict[str, float] = {
        name: 0 if unit in COUNT_UNITS else 0.0 for name, unit in LAYER_METRICS.items()
    }
    distinct_ious = distinct_ids = 0
    for trace in traces:
        spans = trace["spans"]
        sums["cli.import_s"] += trace["import_s"]
        distinct_ids += trace["distinct_annotated"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        ious = set()
        for i, (name, start, end, parent, note) in enumerate(spans):
            duration = end - start
            inclusive, self_time = f"{name}_s", f"{name}_self_s"
            if inclusive in sums:
                sums[inclusive] += duration
            if self_time in sums:
                sums[self_time] += duration - child_s[i]
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name.startswith("fsio.") and not parent_name.startswith("fsio."):
                sums["fsio.write_s"] += duration
            if name == "cli.main":
                sums["cli.self_s"] += duration - child_s[i]
            elif name == "matching.match_detections":
                sums["matching.match_calls"] += 1
                sums["matching.dets_visited"] += note["kept"]
                sums["matching.candidate_pairs"] += inputs.candidate_pairs(note["score"])
                ious.add(note["iou"])
            elif name == "feature_model.annotate_distances":
                sums["feature_model.annotate_calls"] += 1
                sums["feature_model.distance_evals"] += note["entries"]
            elif name == "fsio.write_bytes":
                sums["fsio.files_written"] += 1
                sums["fsio.bytes_written"] += note["bytes"]
            elif name.startswith("ingest.load_"):
                sums["ingest.input_bytes"] += note["bytes"]
        distinct_ious += len(ious)
    calls, evals = sums["matching.match_calls"], sums["feature_model.distance_evals"]
    sums["matching.match_useful_ratio"] = distinct_ious / calls if calls else 0.0
    sums["feature_model.distance_useful_ratio"] = distinct_ids / evals if evals else 0.0
    return sums


# ---------------------------------------------------------------------- main


def prepare(workload, seed: int, runner: Runner):
    """Generate the inputs in a child; see inputs.py."""
    request = {"spec": {**workload.spec, "seed": seed},
               "train_prefixes": list(workload.train_prefixes)}
    (runner.work / "request.json").write_text(json.dumps(request), encoding="utf-8")
    child = runner.spawn((str(BENCH_DIR / "inputs.py"), "."))
    if child.exit_code != 0:
        raise RuntimeError(f"input generation failed: {child.stderr_tail}")
    return workloads.Inputs.load(runner.work)


def measure(workload, inputs, runner: Runner, seconds: float, trace: bool) -> dict:
    """Rounds of a set-up probe and passes until ``seconds`` are spent."""
    invocations = workload.invocations(inputs)
    failures: list[str] = []

    def probe() -> float:
        child = runner.spawn(SETUP_CMD)
        if child.exit_code != 0:
            failures.append(f"set-up probe: exit code {child.exit_code}: {child.stderr_tail}")
        return child.wall_s

    probe()  # fills the bytecode and file caches, which users do not pay per run
    # Probes are spread over the run, one before each round of passes, so
    # that their median does not hang on one moment's machine speed.
    setup: list[float] = []
    digests: dict[int, str] = {}
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while True:
        setup.append(probe())
        plain.append(run_pass(invocations, inputs, runner, False, digests))
        if trace:
            traced.append(run_pass(invocations, inputs, runner, True, digests))
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        # Two sets of outputs are needed to check that they are identical.
        if len(plain) + len(traced) >= 2 and elapsed * (rounds + 1) / rounds > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe())

    for p in plain + traced:
        failures.extend(p.failures)
    wall = [p.wall_s for p in plain]
    record = {
        "setup_s": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "peak_rss_mb": p.peak_rss_mb,
                    "cpu_s": p.cpu_s, "failures": p.failures} for p in plain + traced],
        "attempted": 1 + len(setup) + sum(p.attempted for p in plain + traced),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {
            "wall_s": statistics.median(wall),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
            "setup_s": statistics.median(setup),
        },
    }
    if trace:
        per_pass = [layer_metrics(p.traces, inputs) for p in traced]
        layers = {
            name: (statistics.median_low if unit in COUNT_UNITS else statistics.median)(
                [m[name] for m in per_pass])
            for name, unit in LAYER_METRICS.items()
        }
        layers["cli.cpu_s"] = statistics.median(p.cpu_s for p in plain)
        layers["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - record["end_to_end"]["wall_s"]
        )
        record["layers"] = layers
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    work = BENCH_DIR / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        inputs = prepare(workload, args.seed, runner)
        env = inputs.environment
        if Path(env["package"]).resolve().parent.parent != SRC:
            print(f"perfbench: imported {env['package']}, not the copy in {SRC}",
                  file=sys.stderr)
            return 2
        record = measure(workload, inputs, runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": workload.name, "spec": inputs.spec,
              "environment": env, **record}
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    n_traced = sum(1 for p in record["passes"] if p["traced"])
    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(record['passes']) - n_traced} plain and {n_traced} traced passes, "
          f"{len(record['setup_s'])} set-up probes; package {env['package']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"fail_ratio {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.4g}")
    if args.trace:
        shown = {name: (record["layers"][name], LAYER_METRICS[name]) for name in LAYER_METRICS}
        names = PER_LAYER
    else:
        shown = {name: (record["end_to_end"][name], unit) for name, unit in END_TO_END.items()}
        names = tuple(END_TO_END)
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": shown[name][0], "unit": shown[name][1]} for name in names},
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    if not (SRC / "t2tmetrics" / "cli.py").is_file():
        print(f"perfbench: no t2tmetrics sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
