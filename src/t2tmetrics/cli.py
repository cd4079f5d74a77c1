"""Command-line entry points.

Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

from .errors import NumericalError, ParseError, T2TError, ValidationError
from .feature_model import annotate_distances, fit_gaussian, load_model, save_model
from .fsio import write_text
from .ingest import (
    _load_json,
    _read_csv_rows,
    _shown,
    _unknown_image,
    bind_features,
    decode,
    load_detections,
    load_feature_matrix,
    load_ground_truth,
)
from .matching import IOU_GRID, match_detections
from .metrics import DEFAULT_SCORE_THRESHOLDS, RegimeError, ap_t2t_profile, metric_report
from .replacement import AccuracyCurve, average_runs, build_accuracy_curve, matching_image_count
from .report import (
    BarChart,
    Histogram,
    Series,
    SeriesPlot,
    _csv_text,
    _fmt,
    distance_histogram,
    export_csv,
    render_svg,
    replacement_rows_csv,
)
from .scenario import ScenarioSpec, generate_scenario

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """Run settings; field names are the ``--config`` keys and the flags' ``dest``."""

    ground_truth: Path | None = None
    detections: Path | None = None
    features: Path | None = None
    train_features: Path | None = None
    model: Path | None = None
    out: Path | None = None
    iou_threshold: float = 0.5
    score_thresholds: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SCORE_THRESHOLDS)
    )
    epsilon: float | None = None
    bins: int = 30
    iou_grid: bool = False


# 100,000 bins already write 8 MB of histograms; more only cost memory.
MAX_BINS = 100_000

# Each regime adds a score mask and an AP_t2t sum per IoU threshold: on 35k
# detections, `evaluate --iou-grid` takes 0.7 s with 3 regimes, 2.9 s with 100
# and 31 s with 1,000. A sweep in steps of 0.01 fits.
MAX_REGIMES = 100


def _parse_score_thresholds(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValidationError(f"score thresholds must look like name=value, got {part!r}")
        if name in out:
            raise ValidationError(f"duplicate score regime {name!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ValidationError(f"score threshold {name!r} is not a number: {value!r}") from None
    return out


# The flags whose name is not the RunConfig field's name with dashes.
_FLAG_NAMES = {"ground_truth": "--gt", "detections": "--det", "iou_threshold": "--iou"}


def _flag(key: str) -> str:
    return _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))


def _range_problem(cfg: RunConfig) -> tuple[str, str] | None:
    """The first setting out of its range, and what is wrong with it."""
    if not 0.0 < cfg.iou_threshold <= 1.0:
        return "iou_threshold", f"must be in (0, 1], got {cfg.iou_threshold}"
    if not cfg.score_thresholds:
        return "score_thresholds", "must not be empty"
    if len(cfg.score_thresholds) > MAX_REGIMES:
        return "score_thresholds", (f"must hold at most {MAX_REGIMES} regimes, "
                                    f"got {len(cfg.score_thresholds)}")
    for name, threshold in cfg.score_thresholds.items():
        if not 0.0 <= threshold <= 1.0:
            return "score_thresholds", f"regime {name!r} must be in [0, 1], got {threshold}"
    if cfg.epsilon is not None and not 0.0 <= cfg.epsilon < math.inf:
        return "epsilon", f"must be finite and >= 0, got {cfg.epsilon}"
    if cfg.bins < 1:
        return "bins", f"must be >= 1, got {cfg.bins}"
    if cfg.bins > MAX_BINS:
        return "bins", f"must be <= {MAX_BINS}, got {_shown(cfg.bins)}"
    return None


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's settings overridden by every given flag, range-checked
    before any input is read; an error names the flag, or the file and key."""
    cfg = RunConfig()
    if args.config is not None:
        cfg = decode(RunConfig, _load_json(args.config), str(args.config))
    flags = {f.name: getattr(args, f.name, None) for f in dc_fields(RunConfig)}
    if flags["score_thresholds"] is not None:
        flags["score_thresholds"] = _parse_score_thresholds(flags["score_thresholds"])
    given = {k: v for k, v in flags.items() if v is not None}
    cfg = replace(cfg, **given)
    problem = _range_problem(cfg)
    if problem is not None:
        key, text = problem
        source = _flag(key) if key in given else f"{args.config}: {key}"
        raise ValidationError(f"{source}: {text}")
    # The one score cut of `t2t distances` is a flag only, not a config key.
    cut = getattr(args, "score_threshold", 0.0)
    if not 0.0 <= cut <= 1.0:
        raise ValidationError(f"--score-threshold: must be in [0, 1], got {cut}")
    return cfg


def _require(cfg: RunConfig, *keys: str) -> None:
    missing = [_flag(k) for k in keys if getattr(cfg, k) is None]
    if missing:
        raise ValidationError(f"missing required inputs: {', '.join(missing)}")


def _fit(cfg: RunConfig):
    """The Gaussian of the training features; a numerical failure names their file."""
    try:
        return fit_gaussian(load_feature_matrix(cfg.train_features), cfg.epsilon)
    except NumericalError as exc:
        raise type(exc)(f"{cfg.train_features}: {exc}") from exc


def _load_inputs(cfg: RunConfig):
    """Ground truth, feature-bound detections and the model of a matching command.

    The model is loaded or fitted before the test features are read, so the
    training rows are freed before the test rows exist.
    """
    _require(cfg, "ground_truth", "detections", "features", "out")
    if cfg.model is None and cfg.train_features is None:
        raise ValidationError("missing required inputs: --model or --train-features")
    gts = load_ground_truth(cfg.ground_truth)
    dets = load_detections(cfg.detections)
    # The matcher would count a detection on an unlisted image as a false positive.
    unknown = _unknown_image(dets, gts)
    if unknown is not None:
        raise ValidationError(f"{cfg.detections}: detection {unknown[0]!r} "
                              f"references unknown image {unknown[1]!r}")
    model = load_model(cfg.model) if cfg.model is not None else _fit(cfg)
    features = load_feature_matrix(cfg.features)
    if features.data.shape[1] != model.dim:
        raise ValidationError(
            f"{cfg.features}: features have {features.data.shape[1]} dimensions, but the "
            f"model from {cfg.model or cfg.train_features} has {model.dim}"
        )
    return gts, bind_features(dets, features), model


def _base_regime(thresholds: dict[str, float]) -> str:
    return min(thresholds, key=lambda name: (thresholds[name], name))


# ----------------------------------------------------------------- subcommands


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    gts, dets, model = _load_inputs(cfg)

    report, annotated = metric_report(
        model, dets, gts, cfg.score_thresholds, cfg.iou_threshold, cfg.iou_grid
    )
    hist_tp, hist_fp = distance_histogram(annotated, cfg.bins)

    summary = {
        "base_regime": _base_regime(cfg.score_thresholds),
        "counts": {"tp": report.counts[0], "fp": report.counts[1], "fn": report.counts[2]},
        "detections": len(dets),
        "epsilon": model.regularization,
        "feature_dim": model.dim,
        "histogram_bins": cfg.bins,
        "instances": len(gts),
        "iou_grid": cfg.iou_grid,
        "iou_threshold": cfg.iou_threshold,
        "metrics": report.to_dict(),
        "score_thresholds": dict(cfg.score_thresholds),
        "train_rows": model.sample_count,
    }
    out = Path(cfg.out)
    write_text(out / "metrics.csv", export_csv(report))
    write_text(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_text(out / "distance_hist_tp.csv", export_csv(hist_tp))
    write_text(out / "distance_hist_fp.csv", export_csv(hist_fp))
    write_text(out / "distance_hist_tp.svg", render_svg(hist_tp))
    write_text(out / "distance_hist_fp.svg", render_svg(hist_fp))

    print(f"ap={report.ap:.6g} ap_5095={report.ap_5095:.6g}")
    for name, value in report.ap_t2t_by_regime.items():
        print(f"ap_t2t[{name}]={value:.6g}")
    print(f"wrote {out}/metrics.csv, summary.json, distance histograms")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "train_features", "out")
    model = _fit(cfg)
    save_model(model, cfg.out)
    print(
        f"fitted {model.dim}-dim model from {model.sample_count} rows "
        f"(epsilon={model.regularization:.6g}); wrote {cfg.out}"
    )
    return 0


def cmd_distances(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    gts, dets, model = _load_inputs(cfg)
    outcome = match_detections(dets, gts, cfg.iou_threshold, args.score_threshold)
    annotated = annotate_distances(model, outcome)
    write_text(cfg.out, export_csv(annotated))
    print(f"wrote {len(annotated)} distance rows to {cfg.out}")
    return 0


def cmd_ap_t2t(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    gts, dets, model = _load_inputs(cfg)
    iou_thresholds = IOU_GRID if cfg.iou_grid else (cfg.iou_threshold,)
    profile = ap_t2t_profile(model, dets, gts, cfg.score_thresholds, iou_thresholds)
    rows = [[name, _fmt(cfg.score_thresholds[name]), _fmt(v)] for name, v in profile.items()]
    out = Path(cfg.out)
    write_text(out / "ap_t2t.csv", _csv_text(["regime", "score_threshold", "ap_t2t"], rows))
    for name, value in profile.items():
        print(f"ap_t2t[{name}]={value:.6g}")
    print(f"wrote {out}/ap_t2t.csv")
    return 0


def _read_curve_file(path: Path) -> list[AccuracyCurve]:
    rows = _read_csv_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty curve file")

    def looks_like_header(row: list[str]) -> bool:
        try:
            int(row[0])
            return False
        except ValueError:
            return True

    if looks_like_header(rows[0]):
        rows = rows[1:]
    grouped: dict[str, list[tuple[int, str]]] = {}
    for lineno, row in enumerate(rows, start=1):
        if len(row) not in (2, 3):
            raise ParseError(f"{path}: row {lineno}: expected 2 or 3 columns, got {len(row)}")
        try:
            count = int(row[0])
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: image count is not an integer: {_shown(row[0])}") from None
        run = row[2].strip() if len(row) == 3 else ""
        grouped.setdefault(run, []).append((count, row[1].strip()))
    try:
        return [
            build_accuracy_curve(samples, label=run or path.stem)
            for run, samples in grouped.items()
        ]
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_target(text: str) -> tuple[int | None, str, str | None]:
    parts = text.split(":")
    if len(parts) == 1:
        return None, parts[0], None
    if len(parts) in (2, 3):
        try:
            cross = int(parts[0])
        except ValueError:
            raise ValidationError(f"target {_shown(text)}: cross count is not an integer") from None
        if cross <= 0:
            raise ValidationError(f"target {_shown(text)}: cross count must be positive")
        return cross, parts[1], parts[2] if len(parts) == 3 else None
    raise ValidationError(f"target must look like [CROSS:]WITH[:WITHOUT], got {_shown(text)}")


def cmd_replacement(args: argparse.Namespace) -> int:
    curves: list[AccuracyCurve] = []
    for path in args.curve:
        curves.extend(_read_curve_file(Path(path)))
    if not curves:
        raise ValidationError("no curves given")
    curve = average_runs(curves)
    note = curve.label if len(curves) > 1 else f"curve {curve.label!r}"
    print(f"# same-domain accuracy: {note}, {len(curve.points)} samples")

    rows = []
    bars = []
    for spec in args.target:
        cross, with_acc, without_acc = _parse_target(spec)
        result = matching_image_count(curve, with_acc, cross_domain_count=cross)
        gain = None
        if without_acc is not None:
            baseline = matching_image_count(curve, without_acc)
            gain = result.matched_same_domain_count - baseline.matched_same_domain_count
        rows.append((result, gain))
        label = str(cross) if cross is not None else with_acc
        bars.append((label, gain if gain is not None else result.matched_same_domain_count))
        gain_txt = "" if gain is None else f" gain={gain:.6g}"
        flag = " (saturated)" if result.saturated else ""
        print(f"target {spec}: matched={result.matched_same_domain_count:.6g}{flag}{gain_txt}")

    out = Path(args.out)
    any_gain = any(g is not None for _, g in rows)
    chart = BarChart(
        bars=tuple(bars),
        y_label="replacement gain (images)" if any_gain else "matched same-domain images",
        title="replacement analysis",
    )
    write_text(out / "replacement.csv", replacement_rows_csv(rows))
    write_text(out / "replacement.svg", render_svg(chart))
    print(f"wrote {out}/replacement.csv and replacement.svg")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    spec = ScenarioSpec()
    if args.spec is not None:
        spec = decode(ScenarioSpec, _load_json(args.spec), str(args.spec))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    scn = generate_scenario(spec)
    out = Path(args.out)
    paths = scn.write(out)
    write_text(out / "scenario_spec.json", json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")
    print(
        f"scenario seed={spec.seed}: {spec.n_gt} instances, "
        f"{spec.n_tp} TP + {spec.n_fp} FP detections, dim={spec.feature_dim}"
    )
    for name in ("ground_truth", "detections", "features", "train_features"):
        print(f"wrote {paths[name]}")
    return 0


def _read_report_csv(path: Path) -> list[list[str]]:
    rows = _read_csv_rows(path)
    if len(rows) < 2:
        raise ParseError(f"{path}: expected a header row and at least one data row")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ParseError(f"{path}: row {lineno}: expected {len(rows[0])} columns, got {len(row)}")
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.input)
    rows = _read_report_csv(path)
    header, body = rows[0], rows[1:]
    title = args.title or ""
    try:
        if args.kind == "series":
            if header[:3] != ["series", "x", "y"]:
                raise ParseError(f"{path}: expected columns series,x,y[,floored]")
            groups: dict[str, list[tuple[float, float]]] = {}
            for row in body:
                try:
                    groups.setdefault(row[0], []).append((float(row[1]), float(row[2])))
                except ValueError:
                    raise ParseError(f"{path}: non-numeric series row: {row!r}") from None
            plot = SeriesPlot(
                series=tuple(Series(label=k, points=tuple(v)) for k, v in groups.items()),
                x_label="training images",
                y_label="AP_t2t",
                y_scale="linear" if args.linear else "log",
                title=title,
            )
            svg = render_svg(plot)
        elif args.kind == "histogram":
            if header != ["bin_lo", "bin_hi", "count"]:
                raise ParseError(f"{path}: expected columns bin_lo,bin_hi,count")
            try:
                lows = [float(r[0]) for r in body]
                edges = lows[:1] + [float(r[1]) for r in body]
                counts = [int(r[2]) for r in body]
            except ValueError:
                raise ParseError(f"{path}: non-numeric histogram row") from None
            for i in range(1, len(body)):
                if lows[i] != edges[i]:
                    raise ParseError(f"{path}: bins are not contiguous at row {i + 1}")
            svg = render_svg(Histogram(edges=tuple(edges), counts=tuple(counts), label=title))
        else:
            if header != ["label", "value"]:
                raise ParseError(f"{path}: expected columns label,value")
            try:
                bars = tuple((r[0], float(r[1])) for r in body)
            except ValueError:
                raise ParseError(f"{path}: non-numeric bar row") from None
            svg = render_svg(BarChart(bars=bars, title=title))
    except ValidationError as exc:  # from a chart constructor, which names the value
        raise ValidationError(f"{path}: {exc}") from None
    write_text(args.out, svg)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Exits with code 1 on a usage error, like every other bad input."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(p: argparse.ArgumentParser, *, matching: bool = False) -> None:
    p.add_argument("--config", type=Path, help="JSON config file; flags override it")
    p.add_argument("--train-features", dest="train_features", type=Path,
                   help="training feature matrix")
    p.add_argument("--epsilon", type=float, help="covariance regularization (default: trace-scaled)")
    if matching:
        p.add_argument("--gt", dest="ground_truth", type=Path, help="ground-truth JSON")
        p.add_argument("--det", dest="detections", type=Path, help="detections JSON")
        p.add_argument("--features", type=Path, help="detection feature matrix")
        p.add_argument("--model", type=Path, help="fitted model file (instead of --train-features)")
        p.add_argument("--iou", dest="iou_threshold", type=float,
                       help="IoU threshold for matching (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="t2t",
        description="Quantify how well a training set represents a test set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="full pipeline: metrics, AP_t2t profile, histograms")
    _add_io_flags(p, matching=True)
    p.add_argument("--score-thresholds", help="regimes, e.g. all=0.01,med=0.1,high=0.5")
    p.add_argument("--bins", type=int, help=f"histogram bin count, 1 to {MAX_BINS} (default 30)")
    p.add_argument("--iou-grid", action="store_true", default=None,
                   help="average AP_t2t over the 0.50:0.05:0.95 IoU grid")
    p.add_argument("--out", type=Path, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fit", help="fit the training Gaussian and save it")
    _add_io_flags(p)
    p.add_argument("--out", type=Path, help="output model file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("distances", help="per-detection train2test distances as CSV")
    _add_io_flags(p, matching=True)
    p.add_argument("--score-threshold", type=float, default=0.01,
                   help="drop detections scoring below this (default 0.01)")
    p.add_argument("--out", type=Path, help="output CSV file")
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("ap-t2t", help="AP_t2t per score regime")
    _add_io_flags(p, matching=True)
    p.add_argument("--score-thresholds", help="regimes, e.g. all=0.01,med=0.1,high=0.5")
    p.add_argument("--iou-grid", action="store_true", default=None,
                   help="average AP_t2t over the 0.50:0.05:0.95 IoU grid")
    p.add_argument("--out", type=Path, help="output directory")
    p.set_defaults(func=cmd_ap_t2t)

    p = sub.add_parser("replacement", help="match accuracies to same-domain image counts")
    p.add_argument("--curve", action="append", required=True, type=Path,
                   help="curve CSV (count,accuracy[,run_id]); repeat for multiple runs")
    p.add_argument("--target", action="append", required=True,
                   help="[CROSS:]WITH[:WITHOUT] accuracy target; repeatable")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_replacement)

    p = sub.add_parser("scenario", help="generate a synthetic planted dataset")
    p.add_argument("--spec", type=Path, help="scenario spec JSON (defaults apply)")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("report", help="render an SVG chart from a report CSV")
    p.add_argument("--kind", choices=("series", "histogram", "bars"), required=True)
    p.add_argument("--input", type=Path, required=True, help="report CSV file")
    p.add_argument("--out", type=Path, required=True, help="output SVG file")
    p.add_argument("--title", help="chart title")
    p.add_argument("--linear", action="store_true", help="linear y axis for series")
    p.set_defaults(func=cmd_report)

    return parser


def _exit_code(exc: T2TError) -> int:
    causes = exc.failures.values() if isinstance(exc, RegimeError) else [exc]
    return 2 if any(isinstance(e, NumericalError) for e in causes) else 1


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except T2TError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
