"""The benchmark's workloads: seeded inputs, CLI invocations and output checks.

A workload is a scenario spec plus the CLI invocations of one pass. Its
inputs are generated by ``inputs.py`` in a child process from the spec with
the benchmark seed; the program under test only ever sees the written files.
Every invocation names the files it must leave behind and a check that
raises :class:`CheckFailed` when an output is missing, malformed or wrong.

This module uses the standard library only, so the measuring process stays
small: a child's max-RSS as reported by ``wait4`` starts from its parent's
RSS at fork.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Relative tolerance of a distance against the benchmark's own reference.
DISTANCE_RTOL = 1e-9
REGIMES = ("all", "med", "high")


class CheckFailed(Exception):
    """An invocation's output is missing, malformed or wrong."""


@dataclass(frozen=True)
class Invocation:
    """One ``python -m t2tmetrics.cli`` run; paths are relative to the work dir."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path], None]
    # Benchmark-side glue run first: it may collect earlier outputs and
    # returns arguments that depend on them, appended to ``argv``.
    prepare: Callable[[Path], tuple[str, ...]] | None = None


@dataclass
class Inputs:
    """What the checks and counters know about the generated files.

    ``reference`` maps each detection id to its planted kind, its score and
    the benchmark's own distance; ``pairs`` holds (score, ground truth in
    the same image) per detection.
    """

    dir: Path
    spec: dict
    pairs: list[tuple[float, int]]
    reference: dict[str, tuple[str, float, float]]
    train_prefixes: tuple[int, ...]
    environment: dict

    @classmethod
    def load(cls, work: Path) -> Inputs:
        facts = json.loads((work / "inputs" / "facts.json").read_text(encoding="utf-8"))
        return cls(
            dir=work,
            spec=facts["spec"],
            pairs=[tuple(p) for p in facts["pairs"]],
            reference={k: tuple(v) for k, v in facts["reference"].items()},
            train_prefixes=tuple(facts["train_prefixes"]),
            environment=facts["environment"],
        )

    def candidate_pairs(self, score_threshold: float) -> int:
        """Kept detections times the ground truth in their image."""
        return sum(n for score, n in self.pairs if score >= score_threshold)


@dataclass(frozen=True)
class Workload:
    name: str
    # ScenarioSpec fields without the seed, which is the benchmark seed.
    spec: dict
    invocations: Callable[[Inputs], list[Invocation]]
    # Row counts of the training-feature prefixes written beside the inputs.
    train_prefixes: tuple[int, ...] = ()


# ----------------------------------------------------------------- helpers


# A check may also fail by raising whatever reading a malformed file raises
# (a ParseError, a ValueError from float(), an IndexError); the harness
# counts any exception as a wrong output.


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _check_svg(path: Path) -> None:
    root = ET.parse(path).getroot()
    _expect(root.tag.endswith("svg"), f"{path.name}: root element is {root.tag}, not svg")


_TEST_SET = (
    "--gt", "inputs/ground_truth.json",
    "--det", "inputs/detections.json",
    "--features", "inputs/features.t2tfeat",
)


# ----------------------------------------------------------------- evaluate

_EVAL_FILES = (
    "metrics.csv", "summary.json",
    "distance_hist_tp.csv", "distance_hist_fp.csv",
    "distance_hist_tp.svg", "distance_hist_fp.svg",
)


def _check_evaluate(spec: dict, out: str, iou_grid: bool) -> Callable[[Path], None]:
    tp, fp, fn = spec["n_tp"], spec["n_fp"], spec["n_gt"] - spec["n_tp"]

    def check(work: Path) -> None:
        d = work / out
        summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
        # Planted TPs overlap their GT with IoU >= 0.77 and FPs overlap
        # nothing, and every score is >= 0.02, so the base-regime counts at
        # IoU 0.5 are exact.
        _expect(summary.get("counts") == {"tp": tp, "fp": fp, "fn": fn},
                f"summary counts {summary.get('counts')} != planted tp={tp} fp={fp} fn={fn}")
        _expect(summary.get("detections") == tp + fp, "summary detection count is wrong")
        _expect(summary.get("instances") == spec["n_gt"], "summary instance count is wrong")
        _expect(summary.get("iou_grid") is iou_grid, "summary iou_grid flag is wrong")
        ap_t2t = summary.get("metrics", {}).get("ap_t2t", {})
        _expect(sorted(ap_t2t) == sorted(REGIMES), f"summary regimes {sorted(ap_t2t)}")
        rows = _read_csv(d / "metrics.csv")
        _expect(rows[0] == ["regime", "ap_t2t", "ap", "ap_5095", "tp", "fp", "fn"],
                "metrics.csv header is wrong")
        _expect([r[0] for r in rows[1:]] == list(REGIMES), "metrics.csv regimes are wrong")
        for row in rows[1:]:
            _expect(row[4:] == [str(tp), str(fp), str(fn)], f"metrics.csv counts {row[4:]}")
            _expect(all(0.0 <= float(v) <= 1.0 for v in row[1:4]), f"metrics.csv values {row}")
        for kind, planted in (("tp", tp), ("fp", fp)):
            hist = _read_csv(d / f"distance_hist_{kind}.csv")
            _expect(hist[0] == ["bin_lo", "bin_hi", "count"], f"{kind} histogram header")
            total = sum(int(r[2]) for r in hist[1:])
            _expect(total == planted, f"{kind} histogram counts {total} entries, planted {planted}")
            _check_svg(d / f"distance_hist_{kind}.svg")

    return check


def _evaluate_invocations(inputs: Inputs) -> list[Invocation]:
    common = _TEST_SET + ("--train-features", "inputs/train_features.t2tfeat")
    return [
        Invocation(
            argv=("evaluate",) + common + ("--out", "out/plain"),
            outputs=tuple(f"out/plain/{f}" for f in _EVAL_FILES),
            check=_check_evaluate(inputs.spec, "out/plain", iou_grid=False),
        ),
        Invocation(
            argv=("evaluate", "--iou-grid") + common + ("--out", "out/grid"),
            outputs=tuple(f"out/grid/{f}" for f in _EVAL_FILES),
            check=_check_evaluate(inputs.spec, "out/grid", iou_grid=True),
        ),
    ]


# ----------------------------------------------------------- wide-distances


def _check_distances_csv(path: Path, reference: dict, n_tp: int, n_fp: int) -> None:
    rows = _read_csv(path)
    _expect(rows and rows[0] == ["detection_id", "kind", "score", "distance"],
            "distances header is wrong")
    counts = {"tp": 0, "fp": 0}
    seen = set()
    for row in rows[1:]:
        _expect(len(row) == 4, f"distances row {row} does not have four columns")
        det_id, kind, score, distance = row
        _expect(det_id in reference and det_id not in seen, f"unexpected detection {det_id}")
        seen.add(det_id)
        ref_kind, ref_score, ref_distance = reference[det_id]
        _expect(kind == ref_kind, f"{det_id}: kind {kind}, planted {ref_kind}")
        _expect(float(score) == ref_score, f"{det_id}: score {score} != {ref_score!r}")
        value = float(distance)
        _expect(
            math.isfinite(value) and abs(value - ref_distance) <= DISTANCE_RTOL * abs(ref_distance),
            f"{det_id}: distance {distance} differs from reference {ref_distance!r}",
        )
        counts[kind] += 1
    _expect(counts == {"tp": n_tp, "fp": n_fp},
            f"distance rows {counts} != planted tp={n_tp} fp={n_fp}")


def _wide_invocations(inputs: Inputs) -> list[Invocation]:
    spec = inputs.spec
    return [
        Invocation(
            argv=("distances",) + _TEST_SET
            + ("--train-features", "inputs/train_features.t2tfeat", "--out", "out/distances.csv"),
            outputs=("out/distances.csv",),
            check=lambda work: _check_distances_csv(
                work / "out/distances.csv", inputs.reference, spec["n_tp"], spec["n_fp"]
            ),
        )
    ]


# -------------------------------------------------------------- train-sweep

_MODEL_HEADER = struct.Struct("<8sQdQ")


def _check_model(path: Path, rows: int, dim: int) -> None:
    blob = path.read_bytes()
    _expect(len(blob) == _MODEL_HEADER.size + 8 * dim + 16 * dim * dim,
            f"{path.name}: {len(blob)} bytes is not a {dim}-dim model")
    magic, d, eps, count = _MODEL_HEADER.unpack_from(blob)
    _expect(magic == b"T2TMODL\x00" and d == dim and count == rows and eps > 0,
            f"{path.name}: header {magic!r} dim={d} rows={count} eps={eps}")


def _read_ap_t2t(path: Path) -> dict[str, str]:
    rows = _read_csv(path)
    _expect(rows and rows[0] == ["regime", "score_threshold", "ap_t2t"], "ap_t2t.csv header")
    values = {r[0]: r[2] for r in rows[1:] if len(r) == 3}
    _expect(list(values) == list(REGIMES) and len(rows) == len(REGIMES) + 1,
            f"ap_t2t.csv regimes {list(values)}")
    for name, value in values.items():
        _expect(0.0 <= float(value) <= 1.0, f"ap_t2t[{name}] = {value} is outside [0, 1]")
    return values


def _sweep_invocations(inputs: Inputs) -> list[Invocation]:
    dim = inputs.spec["feature_dim"]
    sizes = inputs.train_prefixes
    steps: list[Invocation] = []
    for n in sizes:
        model = f"out/model_{n}.t2tmodl"
        steps.append(Invocation(
            argv=("fit", "--train-features", f"inputs/train_{n}.t2tfeat", "--out", model),
            outputs=(model,),
            check=lambda work, model=model, n=n: _check_model(work / model, n, dim),
        ))
        steps.append(Invocation(
            argv=("ap-t2t",) + _TEST_SET + ("--model", model, "--out", f"out/ap_{n}"),
            outputs=(f"out/ap_{n}/ap_t2t.csv",),
            check=lambda work, n=n: _read_ap_t2t(work / f"out/ap_{n}/ap_t2t.csv"),
        ))

    def collect(work: Path) -> tuple[str, ...]:
        """Write the AP_t2t-vs-rows series and the 'all' regime accuracy curve."""
        values = {n: _read_ap_t2t(work / f"out/ap_{n}/ap_t2t.csv") for n in sizes}
        series = ["series,x,y"] + [
            f"{regime},{n},{values[n][regime]}" for regime in REGIMES for n in sizes
        ]
        (work / "out/series.csv").write_text("\n".join(series) + "\n", encoding="utf-8")
        curve = ["count,accuracy"] + [f"{n},{values[n]['all']}" for n in sizes]
        (work / "out/curve.csv").write_text("\n".join(curve) + "\n", encoding="utf-8")
        return ()

    def targets(work: Path) -> tuple[str, ...]:
        """A knot of the curve, and a cross-domain count with and without accuracy."""
        acc = {n: values["all"] for n, values in
               ((n, _read_ap_t2t(work / f"out/ap_{n}/ap_t2t.csv")) for n in sizes)}
        return ("--target", acc[sizes[2]],
                "--target", f"{sizes[1]}:{acc[sizes[3]]}:{acc[sizes[0]]}")

    def check_replacement(work: Path) -> None:
        rows = _read_csv(work / "out/replacement/replacement.csv")
        _expect(rows[0] == ["cross_count", "matched_count", "saturated", "gain"],
                "replacement.csv header")
        _expect(len(rows) == 3, f"replacement.csv has {len(rows) - 1} rows, expected 2")
        for row in rows[1:]:
            _expect(math.isfinite(float(row[1])) and row[2] in ("true", "false"),
                    f"replacement row {row}")
        _expect(rows[2][0] == str(sizes[1]) and math.isfinite(float(rows[2][3])),
                f"replacement gain row {rows[2]}")
        _check_svg(work / "out/replacement/replacement.svg")

    steps.append(Invocation(
        argv=("report", "--kind", "series", "--input", "out/series.csv",
              "--out", "out/series.svg", "--title", "AP_t2t vs training rows"),
        outputs=("out/series.svg",),
        check=lambda work: _check_svg(work / "out/series.svg"),
        prepare=collect,
    ))
    steps.append(Invocation(
        argv=("replacement", "--curve", "out/curve.csv", "--out", "out/replacement"),
        outputs=("out/replacement/replacement.csv", "out/replacement/replacement.svg"),
        check=check_replacement,
        prepare=targets,
    ))
    return steps


# ----------------------------------------------------------------- registry

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="evaluate",
            spec=dict(n_gt=1600, n_tp=1200, n_fp=1600, feature_dim=128, n_train=512),
            invocations=_evaluate_invocations,
        ),
        Workload(
            name="wide-distances",
            spec=dict(n_gt=4000, n_tp=3000, n_fp=4000, feature_dim=1024, n_train=8192),
            invocations=_wide_invocations,
        ),
        Workload(
            name="train-sweep",
            # At the default fp_distance_scale AP_t2t is flat at 0.75 for
            # every training size; at 1.5 the curve moves.
            spec=dict(n_gt=2000, n_tp=1500, n_fp=2000, feature_dim=128,
                      fp_distance_scale=1.5, n_train=5120),
            invocations=_sweep_invocations,
            train_prefixes=(320, 640, 1280, 2560, 5120),
        ),
    )
}
