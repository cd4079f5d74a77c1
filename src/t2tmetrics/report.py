"""Diagnostic reports: distance histograms, scaling series, SVG and CSV emission.

Charts are emitted as self-contained SVG documents assembled from f-strings;
no plotting dependency, no external references, byte-identical output for
identical input. CSV companions carry every number the chart shows, at full
precision (17 significant digits, which round-trips float64 exactly).

On a log-scale series an AP value of exactly 0 has no position; such points
are drawn at the declared floor (1e-4) and flagged in the CSV so a reader
can tell a floored zero from a genuine small value.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from html import escape

import numpy as np

from .errors import ValidationError
from .feature_model import DistanceAnnotatedOutcome, Kind
from .metrics import MetricReport
from .replacement import ReplacementResult

LOG_FLOOR = 1e-4

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(value: float) -> str:
    """Full-precision decimal: 17 significant digits round-trip float64."""
    return format(float(value), ".17g")


# ------------------------------------------------------------------ histograms


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin counts; the final bin is closed on the right."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    kind: Kind | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.counts) + 1:
            raise ValidationError(
                f"{len(self.edges)} edges do not bound {len(self.counts)} bins"
            )
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValidationError("histogram edges must be strictly increasing")
        if any(c < 0 for c in self.counts):
            raise ValidationError("histogram counts must be non-negative")


def distance_histogram(
    annotated: DistanceAnnotatedOutcome,
    bin_count: int = 30,
    value_range: tuple[float, float] | None = None,
) -> tuple[Histogram, Histogram]:
    """TP and FP distance histograms over shared uniform bin edges.

    The default range spans [0, max distance] so every distance is counted;
    an explicit range excludes (never clamps) values outside it. With no
    entries at all the histograms are empty counts over [0, 1].
    """
    if bin_count < 1:
        raise ValidationError(f"bin_count must be >= 1, got {bin_count}")
    tp_d = annotated.distances(Kind.TP)
    fp_d = annotated.distances(Kind.FP)
    if value_range is None:
        values = np.concatenate([tp_d, fp_d])
        hi = float(values.max()) if values.size else 1.0
        lo = 0.0
        if hi <= lo:
            hi = lo + 1.0
    else:
        lo, hi = float(value_range[0]), float(value_range[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise ValidationError(f"invalid histogram range ({lo}, {hi})")
    tp_counts, edges = np.histogram(tp_d, bins=bin_count, range=(lo, hi))
    fp_counts, _ = np.histogram(fp_d, bins=bin_count, range=(lo, hi))
    shared = tuple(float(e) for e in edges)
    return (
        Histogram(edges=shared, counts=tuple(int(c) for c in tp_counts),
                  kind=Kind.TP, label="TP train2test distance"),
        Histogram(edges=shared, counts=tuple(int(c) for c in fp_counts),
                  kind=Kind.FP, label="FP train2test distance"),
    )


# ---------------------------------------------------------------- series plots


@dataclass(frozen=True)
class Series:
    label: str
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SeriesPlot:
    """One or more named series over a shared x axis."""

    series: tuple[Series, ...]
    x_label: str = "x"
    y_label: str = "y"
    y_scale: str = "linear"
    y_floor: float = LOG_FLOOR
    title: str = ""

    def __post_init__(self) -> None:
        if self.y_scale not in ("linear", "log"):
            raise ValidationError(f"y_scale must be 'linear' or 'log', got {self.y_scale!r}")
        if not self.series or any(not s.points for s in self.series):
            raise ValidationError("a series plot needs at least one non-empty series")
        for s in self.series:
            for x, y in s.points:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValidationError(f"series {s.label!r} contains a non-finite point")
                if self.y_scale == "log" and y < 0:
                    raise ValidationError(f"series {s.label!r} has y < 0 on a log scale")


def scaling_series(reports: list[tuple[int, MetricReport]]) -> SeriesPlot:
    """AP_t2t against training-set size, one series per score regime."""
    if not reports:
        raise ValidationError("scaling_series needs at least one report")
    counts = [c for c, _ in reports]
    if len(set(counts)) != len(counts):
        raise ValidationError(f"duplicate image counts in scaling series: {sorted(counts)}")
    ordered = sorted(reports, key=lambda pair: pair[0])
    regimes = list(ordered[0][1].ap_t2t_by_regime)
    for count, report in ordered:
        if list(report.ap_t2t_by_regime) != regimes:
            raise ValidationError(f"report at count {count} names different regimes")
    series = tuple(
        Series(
            label=regime,
            points=tuple((float(c), r.ap_t2t_by_regime[regime]) for c, r in ordered),
        )
        for regime in regimes
    )
    return SeriesPlot(
        series=series,
        x_label="training images",
        y_label="AP_t2t",
        y_scale="log",
        title="AP_t2t vs training-set size",
    )


# ------------------------------------------------------------------- bar charts


@dataclass(frozen=True)
class BarChart:
    bars: tuple[tuple[str, float], ...]
    y_label: str = "value"
    title: str = ""

    def __post_init__(self) -> None:
        if not self.bars:
            raise ValidationError("a bar chart needs at least one bar")
        for label, value in self.bars:
            if not math.isfinite(value):
                raise ValidationError(f"bar {label!r} has a non-finite value")


# ------------------------------------------------------------------- CSV export


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def replacement_rows_csv(
    rows: list[tuple[ReplacementResult, float | None]],
) -> str:
    """Rows of (cross_count, matched_count, saturated, gain); gain may be blank."""
    body = []
    for result, gain in rows:
        body.append([
            "" if result.cross_domain_count is None else str(result.cross_domain_count),
            _fmt(result.matched_same_domain_count),
            "true" if result.saturated else "false",
            "" if gain is None else _fmt(gain),
        ])
    return _csv_text(["cross_count", "matched_count", "saturated", "gain"], body)


def export_csv(obj) -> str:
    """Serialize a report object to CSV with full-precision numbers."""
    if isinstance(obj, MetricReport):
        tp, fp, fn = obj.counts
        rows = [
            [regime, _fmt(value), _fmt(obj.ap), _fmt(obj.ap_5095), str(tp), str(fp), str(fn)]
            for regime, value in obj.ap_t2t_by_regime.items()
        ]
        return _csv_text(["regime", "ap_t2t", "ap", "ap_5095", "tp", "fp", "fn"], rows)
    if isinstance(obj, Histogram):
        rows = [
            [_fmt(lo), _fmt(hi), str(count)]
            for lo, hi, count in zip(obj.edges, obj.edges[1:], obj.counts)
        ]
        return _csv_text(["bin_lo", "bin_hi", "count"], rows)
    if isinstance(obj, SeriesPlot):
        rows = []
        for s in obj.series:
            for x, y in s.points:
                floored = obj.y_scale == "log" and y == 0.0
                rows.append([s.label, _fmt(x), _fmt(y), "true" if floored else "false"])
        return _csv_text(["series", "x", "y", "floored"], rows)
    if isinstance(obj, BarChart):
        rows = [[label, _fmt(value)] for label, value in obj.bars]
        return _csv_text(["label", "value"], rows)
    if isinstance(obj, DistanceAnnotatedOutcome):
        rows = [
            [e.detection_id, e.kind.value, _fmt(e.score), _fmt(e.distance)]
            for e in sorted(obj.entries, key=lambda e: e.detection_id)
        ]
        return _csv_text(["detection_id", "kind", "score", "distance"], rows)
    if isinstance(obj, list) and all(isinstance(r, ReplacementResult) for r in obj):
        return replacement_rows_csv([(r, None) for r in obj])
    raise ValidationError(f"no CSV serialization for {type(obj).__name__}")


# ------------------------------------------------------------------ SVG render

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 36, 48
_PLOT_W = _W - _ML - _MR
_PLOT_H = _H - _MT - _MB


def _svg_header(title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.2f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>'
        )
    return parts


def _axis_frame() -> str:
    x0, y0 = _ML, _MT + _PLOT_H
    x1, y1 = _ML + _PLOT_W, _MT
    return (
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
        f'stroke="black" stroke-width="1"/>'
    )


def _text(x: float, y: float, s: str, anchor: str = "middle", size: int = 11) -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}">{escape(s, quote=False)}</text>'
    )


def _axis_labels(x_label: str, y_label: str) -> list[str]:
    parts = []
    if x_label:
        parts.append(_text(_ML + _PLOT_W / 2, _H - 10, x_label, size=12))
    if y_label:
        cx, cy = 16, _MT + _PLOT_H / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.2f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 {cx} {cy:.2f})">'
            f'{escape(y_label, quote=False)}</text>'
        )
    return parts


def _linear_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _decade_ticks(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1))


def _render_series(plot: SeriesPlot) -> str:
    parts = _svg_header(plot.title)
    parts.append(_axis_frame())
    parts.extend(_axis_labels(plot.x_label, plot.y_label))

    xs = [x for s in plot.series for x, _ in s.points]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    def x_pos(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * _PLOT_W

    if plot.y_scale == "log":
        raw = [y for s in plot.series for _, y in s.points]
        eff = [max(y, plot.y_floor) for y in raw]
        y_lo, y_hi = min(eff), max(eff)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo / 10, y_hi * 10
        lo_log, hi_log = math.log10(y_lo), math.log10(y_hi)
        if hi_log == lo_log:
            hi_log = lo_log + 1

        def y_pos(y: float) -> float:
            clamped = max(y, plot.y_floor)
            t = (math.log10(clamped) - lo_log) / (hi_log - lo_log)
            return _MT + _PLOT_H * (1 - t)

        for exponent in _decade_ticks(y_lo, y_hi):
            value = 10.0**exponent
            if not y_lo <= value <= y_hi:
                continue
            y = y_pos(value)
            parts.append(
                f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>'
            )
            parts.append(_text(_ML - 8, y + 4, f"1e{exponent}", anchor="end"))
    else:
        raw = [y for s in plot.series for _, y in s.points]
        y_lo, y_hi = min(raw), max(raw)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

        def y_pos(y: float) -> float:
            return _MT + _PLOT_H * (1 - (y - y_lo) / (y_hi - y_lo))

        for value in _linear_ticks(y_lo, y_hi):
            y = y_pos(value)
            parts.append(
                f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>'
            )
            parts.append(_text(_ML - 8, y + 4, f"{value:.3g}", anchor="end"))

    x_ticks = sorted(set(xs))
    if len(x_ticks) > 8:
        x_ticks = _linear_ticks(x_lo, x_hi, 6)
    for value in x_ticks:
        x = x_pos(value)
        y0 = _MT + _PLOT_H
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(_text(x, y0 + 16, f"{value:.6g}"))

    for i, s in enumerate(plot.series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{x_pos(x):.2f},{y_pos(y):.2f}" for x, y in s.points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in s.points:
            parts.append(
                f'<circle cx="{x_pos(x):.2f}" cy="{y_pos(y):.2f}" r="2.5" fill="{color}"/>'
            )
        lx = _ML + _PLOT_W - 110
        ly = _MT + 14 + 16 * i
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(_text(lx + 28, ly, s.label, anchor="start"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_histogram(hist: Histogram) -> str:
    parts = _svg_header(hist.label or "distance histogram")
    parts.append(_axis_frame())
    parts.extend(_axis_labels("train2test distance", "count"))
    lo, hi = hist.edges[0], hist.edges[-1]
    top = max(max(hist.counts), 1)

    def x_pos(x: float) -> float:
        return _ML + (x - lo) / (hi - lo) * _PLOT_W

    def y_pos(c: float) -> float:
        return _MT + _PLOT_H * (1 - c / top)

    color = "#d62728" if hist.kind is Kind.FP else "#1f77b4"
    for (e0, e1), count in zip(zip(hist.edges, hist.edges[1:]), hist.counts):
        if count == 0:
            continue
        x, w = x_pos(e0), x_pos(e1) - x_pos(e0)
        y = y_pos(count)
        h = _MT + _PLOT_H - y
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{color}" fill-opacity="0.7" stroke="white" stroke-width="0.5"/>'
        )

    for value in _linear_ticks(lo, hi):
        x = x_pos(value)
        y0 = _MT + _PLOT_H
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(_text(x, y0 + 16, f"{value:.4g}"))
    for count in sorted({0, top // 2, top}):
        y = y_pos(count)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        parts.append(_text(_ML - 8, y + 4, str(count), anchor="end"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_bars(chart: BarChart) -> str:
    parts = _svg_header(chart.title)
    parts.append(_axis_frame())
    parts.extend(_axis_labels("", chart.y_label))
    values = [v for _, v in chart.bars]
    v_lo, v_hi = min(min(values), 0.0), max(max(values), 0.0)
    if v_hi == v_lo:
        v_hi = v_lo + 1.0

    def y_pos(v: float) -> float:
        return _MT + _PLOT_H * (1 - (v - v_lo) / (v_hi - v_lo))

    n = len(chart.bars)
    slot = _PLOT_W / n
    width = slot * 0.6
    zero = y_pos(0.0)
    for i, (label, value) in enumerate(chart.bars):
        x = _ML + slot * i + (slot - width) / 2
        y = min(y_pos(value), zero)
        h = abs(y_pos(value) - zero)
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{width:.2f}" height="{h:.2f}" '
            f'fill="{_PALETTE[0]}" fill-opacity="0.8"/>'
        )
        parts.append(_text(x + width / 2, _MT + _PLOT_H + 16, label))
    for value in _linear_ticks(v_lo, v_hi):
        y = y_pos(value)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        parts.append(_text(_ML - 8, y + 4, f"{value:.4g}", anchor="end"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(obj) -> str:
    """Deterministic, self-contained SVG for a plot object."""
    if isinstance(obj, SeriesPlot):
        return _render_series(obj)
    if isinstance(obj, Histogram):
        return _render_histogram(obj)
    if isinstance(obj, BarChart):
        return _render_bars(obj)
    raise ValidationError(f"no SVG rendering for {type(obj).__name__}")
