"""Command-line entry points.

Exit codes: 0 success, 1 invalid input, 2 numerical failure.

The package modules are bound here as modules, not names: each loads on the
first call a command makes into it, so a command loads only what it runs.
``report``, ``replacement`` and ``--help`` load no numpy, and ``fit`` loads
``ingest`` and ``feature_model`` alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

from . import feature_model, ingest, matching, metrics, replacement, report, scenario
from .errors import NumericalError, T2TError, ValidationError
from .fsio import (
    _csv_number,
    _csv_text,
    _fmt,
    _load_json,
    _naming,
    _read_csv_rows,
    _shown,
    decode,
    write_text,
)

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
    # metrics.DEFAULT_SCORE_THRESHOLDS, written out so that a command that
    # scores nothing does not load metrics.
    score_thresholds: dict[str, float] = field(
        default_factory=lambda: {"all": 0.01, "med": 0.1, "high": 0.5}
    )
    epsilon: float | None = None
    bins: int = 30
    iou_grid: bool = False


# 100,000 bins already write 8 MB of histograms; more only cost memory.
MAX_BINS = 100_000

# Each regime adds a keep mask and an AP_t2t sum per IoU threshold: on 35k
# detections, `metrics.metric_report` with the IoU grid takes 0.15 s with 3
# regimes, 0.5 s with 100 and 3.5 s with 1,000. A sweep in steps of 0.01 fits.
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
            out[name] = _csv_number(float, value)
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
    return cfg


def _require(cfg: RunConfig, *keys: str) -> None:
    missing = [_flag(k) for k in keys if getattr(cfg, k) is None]
    if missing:
        raise ValidationError(f"missing required inputs: {', '.join(missing)}")


def _fit(cfg: RunConfig):
    """The Gaussian of the training features; a numerical failure names their file."""
    try:
        return feature_model.fit_gaussian(ingest.load_feature_matrix(cfg.train_features),
                                          cfg.epsilon)
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
    gts = ingest.load_ground_truth(cfg.ground_truth)
    dets = ingest.load_detections(cfg.detections)
    # The matcher would count a detection on an unlisted image as a false positive.
    for det_id, image_id in zip(dets.ids, dets.image_ids):
        if image_id not in gts._image_position:
            raise ValidationError(f"{cfg.detections}: detection {det_id!r} "
                                  f"references unknown image {image_id!r}")
    model = feature_model.load_model(cfg.model) if cfg.model is not None else _fit(cfg)
    features = ingest.load_feature_matrix(cfg.features)
    if features.data.shape[1] != model.dim:
        raise ValidationError(
            f"{cfg.features}: features have {features.data.shape[1]} dimensions, but the "
            f"model from {cfg.model or cfg.train_features} has {model.dim}"
        )
    return gts, ingest.bind_features(dets, features), model


def _base_regime(thresholds: dict[str, float]) -> str:
    return min(thresholds, key=lambda name: (thresholds[name], name))


# ----------------------------------------------------------------- subcommands


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    gts, dets, model = _load_inputs(cfg)

    scores, annotated = metrics.metric_report(
        model, dets, gts, cfg.score_thresholds, cfg.iou_threshold, cfg.iou_grid
    )
    hist_tp, hist_fp = report.distance_histogram(annotated, cfg.bins)

    summary = {
        "base_regime": _base_regime(cfg.score_thresholds),
        "counts": {"tp": scores.counts[0], "fp": scores.counts[1], "fn": scores.counts[2]},
        "detections": len(dets),
        "epsilon": model.regularization,
        "feature_dim": model.dim,
        "histogram_bins": cfg.bins,
        "instances": len(gts),
        "iou_grid": cfg.iou_grid,
        "iou_threshold": cfg.iou_threshold,
        "metrics": scores.to_dict(),
        "score_thresholds": dict(cfg.score_thresholds),
        "train_rows": model.sample_count,
    }
    out = Path(cfg.out)
    write_text(out / "metrics.csv", report.export_csv(scores))
    write_text(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_text(out / "distance_hist_tp.csv", report.export_csv(hist_tp))
    write_text(out / "distance_hist_fp.csv", report.export_csv(hist_fp))
    write_text(out / "distance_hist_tp.svg", report.render_svg(hist_tp))
    write_text(out / "distance_hist_fp.svg", report.render_svg(hist_fp))

    print(f"ap={scores.ap:.6g} ap_5095={scores.ap_5095:.6g}")
    for name, value in scores.ap_t2t_by_regime.items():
        print(f"ap_t2t[{name}]={value:.6g}")
    print(f"wrote {out}/metrics.csv, summary.json, distance histograms")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "train_features", "out")
    model = _fit(cfg)
    feature_model.save_model(model, cfg.out)
    print(
        f"fitted {model.dim}-dim model from {model.sample_count} rows "
        f"(epsilon={model.regularization:.6g}); wrote {cfg.out}"
    )
    return 0


def cmd_distances(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    gts, dets, model = _load_inputs(cfg)
    # The detections of the lowest regime: those that `evaluate` annotates.
    cut = min(cfg.score_thresholds.values())
    outcome = matching.match_detections(dets, gts, cfg.iou_threshold, cut)
    annotated = feature_model.annotate_distances(model, outcome)
    write_text(cfg.out, report.export_csv(annotated))
    print(f"wrote {len(annotated)} distance rows to {cfg.out}")
    return 0


def cmd_ap_t2t(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    gts, dets, model = _load_inputs(cfg)
    iou_thresholds = matching.IOU_GRID if cfg.iou_grid else (cfg.iou_threshold,)
    profile = metrics.ap_t2t_profile(model, dets, gts, cfg.score_thresholds, iou_thresholds)
    rows = [[name, _fmt(cfg.score_thresholds[name]), _fmt(v)] for name, v in profile.items()]
    out = Path(cfg.out)
    write_text(out / "ap_t2t.csv", _csv_text(["regime", "score_threshold", "ap_t2t"], rows))
    for name, value in profile.items():
        print(f"ap_t2t[{name}]={value:.6g}")
    print(f"wrote {out}/ap_t2t.csv")
    return 0


def _parse_target(text: str) -> tuple[int | None, str, str | None]:
    parts = text.split(":")
    if len(parts) == 1:
        return None, parts[0], None
    if len(parts) in (2, 3):
        try:
            cross = _csv_number(int, parts[0])
        except ValueError:
            raise ValidationError(f"target {_shown(text)}: cross count is not an integer") from None
        if cross <= 0:
            raise ValidationError(f"target {_shown(text)}: cross count must be positive")
        return cross, parts[1], parts[2] if len(parts) == 3 else None
    raise ValidationError(f"target must look like [CROSS:]WITH[:WITHOUT], got {_shown(text)}")


def cmd_replacement(args: argparse.Namespace) -> int:
    curves: list[replacement.AccuracyCurve] = []
    for path in args.curve:
        curves.extend(replacement._read_curve_file(Path(path)))
    curve = replacement.average_runs(curves)
    note = curve.label if len(curves) > 1 else f"curve {curve.label!r}"
    lines = [f"# same-domain accuracy: {note}, {len(curve.points)} samples"]

    rows = []
    bars = []
    for spec in args.target:
        cross, with_acc, without_acc = _parse_target(spec)
        result = replacement.matching_image_count(curve, with_acc, cross_domain_count=cross)
        gain = None
        if without_acc is not None:
            baseline = replacement.matching_image_count(curve, without_acc)
            gain = result.matched_same_domain_count - baseline.matched_same_domain_count
        rows.append((result, gain))
        label = str(cross) if cross is not None else with_acc
        bars.append((label, gain if gain is not None else result.matched_same_domain_count))
        gain_txt = "" if gain is None else f" gain={gain:.6g}"
        flag = " (saturated)" if result.saturated else ""
        lines.append(f"target {spec}: matched={result.matched_same_domain_count:.6g}{flag}{gain_txt}")

    out = Path(args.out)
    any_gain = any(g is not None for _, g in rows)
    chart = report.BarChart(
        bars=tuple(bars),
        y_label="replacement gain (images)" if any_gain else "matched same-domain images",
        title="replacement analysis",
    )
    write_text(out / "replacement.csv", report.replacement_rows_csv(rows))
    write_text(out / "replacement.svg", report.render_svg(chart))
    lines.append(f"wrote {out}/replacement.csv and replacement.svg")
    print("\n".join(lines))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    spec = scenario.ScenarioSpec()
    if args.spec is not None:
        spec = decode(scenario.ScenarioSpec, _load_json(args.spec), str(args.spec))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    scn = scenario.generate_scenario(spec)
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


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.input)
    rows = _read_csv_rows(path)
    with _naming(path):
        chart = report._chart_from_csv(args.kind, rows, args.title or "", args.linear)
        svg = report.render_svg(chart)
    write_text(args.out, svg)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Exits with code 1 on a usage error, like every other bad input, and lets
    a failed write of its help text reach ``main``, where argparse drops it.
    A flag is spelled out: ``--score-threshold`` is not ``--score-thresholds``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        (file or sys.stderr).write(message)


def _number(parse):
    """A flag's converter for ``int`` or ``float`` that refuses digit-group
    underscores, as ``_csv_number`` does; argparse names it in its error."""
    def convert(text: str):
        return _csv_number(parse, text)

    convert.__name__ = parse.__name__
    return convert


_INT, _FLOAT = _number(int), _number(float)


def _add_io_flags(p: argparse.ArgumentParser, *, matching: bool = False) -> None:
    p.add_argument("--config", type=Path, help="JSON config file; flags override it")
    p.add_argument("--train-features", dest="train_features", type=Path,
                   help="training feature matrix")
    p.add_argument("--epsilon", type=_FLOAT, help="covariance regularization (default: trace-scaled)")
    if matching:
        p.add_argument("--gt", dest="ground_truth", type=Path, help="ground-truth JSON")
        p.add_argument("--det", dest="detections", type=Path, help="detections JSON")
        p.add_argument("--features", type=Path, help="detection feature matrix")
        p.add_argument("--model", type=Path, help="fitted model file (instead of --train-features)")
        p.add_argument("--iou", dest="iou_threshold", type=_FLOAT,
                       help="IoU threshold for matching (default 0.5)")
        p.add_argument("--score-thresholds", help="regimes, e.g. all=0.01,med=0.1,high=0.5")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="t2t",
        description="Quantify how well a training set represents a test set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="full pipeline: metrics, AP_t2t profile, histograms")
    _add_io_flags(p, matching=True)
    p.add_argument("--bins", type=_INT, help=f"histogram bin count, 1 to {MAX_BINS} (default 30)")
    p.add_argument("--iou-grid", action="store_true", default=None,
                   help="average AP_t2t over the 0.50:0.05:0.95 IoU grid")
    p.add_argument("--out", type=Path, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fit", help="fit the training Gaussian and save it")
    _add_io_flags(p)
    p.add_argument("--out", type=Path, help="output model file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("distances", help="train2test distances of the lowest regime, as CSV")
    _add_io_flags(p, matching=True)
    p.add_argument("--out", type=Path, help="output CSV file")
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("ap-t2t", help="AP_t2t per score regime")
    _add_io_flags(p, matching=True)
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
    p.add_argument("--seed", type=_INT, help="override the spec seed")
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
    return 2 if isinstance(exc, NumericalError) else 1


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        finally:
            sys.stdout.flush()  # a closed standard output fails here, not at exit
    except T2TError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except BrokenPipeError:
        # Closing drops what is still buffered, so the flush at exit does not
        # fail a second time; the close's own flush fails once more, here.
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        print("error: standard output was closed before the output was written",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
