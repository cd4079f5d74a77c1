"""Diagnostic reports: distance histograms, scaling series, SVG and CSV emission.

Charts are emitted as self-contained SVG documents assembled from f-strings;
no plotting dependency, no external references, byte-identical output for
identical input. CSV companions carry every number the chart shows, at full
precision (17 significant digits, which round-trips float64 exactly).

On a log-scale series an AP value of exactly 0 has no position; such points
are drawn at ``LOG_FLOOR`` (1e-4) and flagged in the CSV so a reader can tell
a floored zero from a genuine small value.

The module imports no numpy: the binning of :func:`distance_histogram` is
``DistanceAnnotatedOutcome.histogram``, and :mod:`.metrics` and
:mod:`.feature_model` load only when one of their objects is exported, so
``t2t report`` and ``t2t replacement`` run without numpy.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from html import escape
from typing import NamedTuple

from . import feature_model, metrics, replacement
from .errors import ParseError, ValidationError
from .fsio import _csv_number, _csv_text, _fmt

LOG_FLOOR = 1e-4

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# ------------------------------------------------------------------ histograms


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin counts; the final bin is closed on the right."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    kind: feature_model.Kind | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.counts) + 1:
            raise ValidationError(
                f"{len(self.edges)} edges do not bound {len(self.counts)} bins"
            )
        if not all(math.isfinite(e) for e in self.edges):
            raise ValidationError("histogram edges must be finite")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValidationError("histogram edges must be strictly increasing")
        if any(c < 0 for c in self.counts):
            raise ValidationError("histogram counts must be non-negative")


def distance_histogram(
    annotated: feature_model.DistanceAnnotatedOutcome, bin_count: int = 30
) -> tuple[Histogram, Histogram]:
    """TP and FP distance histograms over shared uniform bin edges.

    The range spans [0, max distance] so every distance is counted. Where that
    range is too small to hold ``bin_count`` bins, as with no entries or only
    zero distances, it is [0, 1].
    """
    if bin_count < 1:
        raise ValidationError(f"bin_count must be >= 1, got {bin_count}")
    edges, tp_counts, fp_counts = annotated.histogram(bin_count)
    return (
        Histogram(edges=edges, counts=tp_counts, kind=feature_model.Kind.TP,
                  label="TP train2test distance"),
        Histogram(edges=edges, counts=fp_counts, kind=feature_model.Kind.FP,
                  label="FP train2test distance"),
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
    title: str = ""

    def __post_init__(self) -> None:
        if self.y_scale not in ("linear", "log"):
            raise ValidationError(f"y_scale must be 'linear' or 'log', got {self.y_scale!r}")
        if not self.series or any(not s.points for s in self.series):
            raise ValidationError("a series plot needs at least one non-empty series")
        if len(self.series) > len(_PALETTE):  # one colour and one legend row each
            raise ValidationError(
                f"a series plot takes at most {len(_PALETTE)} series, got {len(self.series)}")
        for s in self.series:
            for x, y in s.points:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValidationError(f"series {s.label!r} contains a non-finite point")
                if self.y_scale == "log" and y < 0:
                    raise ValidationError(f"series {s.label!r} has y < 0 on a log scale")


def _scaling_plot(series: tuple[Series, ...], y_scale: str, title: str) -> SeriesPlot:
    """The paper's central plot: AP_t2t against the number of training images."""
    return SeriesPlot(series=series, x_label="training images", y_label="AP_t2t",
                      y_scale=y_scale, title=title)


def scaling_series(reports: list[tuple[int, metrics.MetricReport]]) -> SeriesPlot:
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
    return _scaling_plot(series, "log", "AP_t2t vs training-set size")


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


def replacement_rows_csv(
    rows: list[tuple[replacement.ReplacementResult, float | None]],
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
    """Serialize a report object to CSV with full-precision numbers.

    The types are tried in the order of the modules they need: a chart
    loads neither :mod:`.feature_model` nor :mod:`.metrics`, and an
    annotation loads no :mod:`.metrics`.
    """
    for layout in _LAYOUTS.values():
        if isinstance(obj, layout.chart):
            return _csv_text([*layout.columns, *layout.extra], layout.rows(obj))
    if isinstance(obj, feature_model.DistanceAnnotatedOutcome):
        # The ids are unique, so the rows sort by id alone.
        entries = sorted(zip(obj.ids, obj.tp.tolist(), obj.scores.tolist(), obj.dist.tolist()))
        rows = [[det_id, "tp" if tp else "fp", _fmt(score), _fmt(distance)]
                for det_id, tp, score, distance in entries]
        return _csv_text(["detection_id", "kind", "score", "distance"], rows)
    if isinstance(obj, metrics.MetricReport):
        tp, fp, fn = obj.counts
        rows = [
            [regime, _fmt(value), _fmt(obj.ap), _fmt(obj.ap_5095), str(tp), str(fp), str(fn)]
            for regime, value in obj.ap_t2t_by_regime.items()
        ]
        return _csv_text(["regime", "ap_t2t", "ap", "ap_5095", "tp", "fp", "fn"], rows)
    raise ValidationError(f"no CSV serialization for {type(obj).__name__}")


# ------------------------------------------------------------------ SVG render

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 36, 48
_PLOT_W = _W - _ML - _MR
_PLOT_H = _H - _MT - _MB
_X_AXIS_Y = _MT + _PLOT_H


# Characters that XML 1.0 does not allow in a document, not even escaped.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _escaped(s: str) -> str:
    """``s`` escaped for SVG text; a character that XML cannot hold is refused."""
    bad = _NOT_XML.search(s)
    if bad:
        raise ValidationError(f"text {s!r} holds {bad.group()!r}, which XML does not allow")
    return escape(s, quote=False)


def _text(x: float, y: float, s: str, anchor: str = "middle", size: int = 11) -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}">{_escaped(s)}</text>'
    )


def _svg(title: str, x_label: str, y_label: str, body: list[str]) -> str:
    """The chart frame (title, axes, axis labels) around the chart's own elements."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.2f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escaped(title)}</text>'
        )
    parts.append(
        f'<path d="M {_ML} {_MT} L {_ML} {_X_AXIS_Y} L {_ML + _PLOT_W} {_X_AXIS_Y}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    if x_label:
        parts.append(_text(_ML + _PLOT_W / 2, _H - 10, x_label, size=12))
    if y_label:
        cy = _MT + _PLOT_H / 2
        parts.append(
            f'<text x="16" y="{cy:.2f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 16 {cy:.2f})">'
            f'{_escaped(y_label)}</text>'
        )
    return "\n".join(parts + body + ["</svg>"]) + "\n"


def _x_at(v: float, lo: float, hi: float) -> float:
    return _ML + (v - lo) / (hi - lo) * _PLOT_W


def _y_at(t: float) -> float:
    """The pixel row of the fraction ``t`` of the y range, 0 at the x axis."""
    return _MT + _PLOT_H * (1 - t)


def _x_ticks(ticks: list[tuple[float, str]]) -> list[str]:
    parts = []
    for x, label in ticks:
        parts.append(f'<line x1="{x:.2f}" y1="{_X_AXIS_Y}" x2="{x:.2f}" y2="{_X_AXIS_Y + 4}" '
                     f'stroke="black"/>')
        parts.append(_text(x, _X_AXIS_Y + 16, label))
    return parts


def _y_ticks(ticks: list[tuple[float, str]]) -> list[str]:
    parts = []
    for y, label in ticks:
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        parts.append(_text(_ML - 8, y + 4, label, anchor="end"))
    return parts


def _linear_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _check_length(axis: tuple[float, float], what: str, lo: float, hi: float) -> None:
    """Refuses an axis on which a tick or a position would not be a float: six
    ticks, the most a chart draws, need ``5 * (axis[1] - axis[0])``."""
    if not all(map(math.isfinite, _linear_ticks(*axis, 6))):
        raise ValidationError(f"{what} from {lo!r} to {hi!r} span more than a chart axis can hold")


def _linear_axis(lo: float, hi: float, what: str) -> tuple[float, float]:
    """The ends of a linear axis over values from ``lo`` to ``hi``: equal values
    get 0.5 on each side, or half their size where rounding loses 0.5 both ways."""
    axis = (lo, hi)
    if hi == lo:
        pad = 0.5 if lo - 0.5 < lo or hi + 0.5 > hi else abs(lo) / 2
        axis = (lo - pad, hi + pad)
    _check_length(axis, what, lo, hi)
    return axis


def _render_series(plot: SeriesPlot) -> str:
    xs = [x for s in plot.series for x, _ in s.points]
    ys = [y for s in plot.series for _, y in s.points]
    x_lo, x_hi = _linear_axis(min(xs), max(xs), "x values")
    if plot.y_scale == "log":
        y_lo, y_hi = max(min(ys), LOG_FLOOR), max(max(ys), LOG_FLOOR)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo / 10, y_hi * 10
        if not y_hi <= 1e308:  # the decade tick at or above y_hi must be a float
            raise ValidationError(f"y values up to {max(ys)!r} need a log axis beyond 1e308")
        lo_log, hi_log = math.log10(y_lo), math.log10(y_hi)
        if hi_log == lo_log:
            hi_log = lo_log + 1

        def y_pos(y: float) -> float:
            return _y_at((math.log10(max(y, LOG_FLOOR)) - lo_log) / (hi_log - lo_log))

        decades = range(math.floor(lo_log), math.ceil(math.log10(y_hi)) + 1)
        y_ticks = [(y_pos(10.0**e), f"1e{e}") for e in decades if y_lo <= 10.0**e <= y_hi]
    else:
        y_lo, y_hi = _linear_axis(min(ys), max(ys), "y values")

        def y_pos(y: float) -> float:
            return _y_at((y - y_lo) / (y_hi - y_lo))

        y_ticks = [(y_pos(v), f"{v:.3g}") for v in _linear_ticks(y_lo, y_hi)]

    x_values = sorted(set(xs))
    if len(x_values) > 8:
        x_values = _linear_ticks(x_lo, x_hi, 6)
    body = _y_ticks(y_ticks) + _x_ticks([(_x_at(v, x_lo, x_hi), f"{v:.6g}") for v in x_values])
    for i, s in enumerate(plot.series):
        color = _PALETTE[i]
        points = [(_x_at(x, x_lo, x_hi), y_pos(y)) for x, y in s.points]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        body.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>'
                    for x, y in points)
        lx = _ML + _PLOT_W - 110
        ly = _MT + 14 + 16 * i
        body.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                    f'stroke="{color}" stroke-width="1.5"/>')
        body.append(_text(lx + 28, ly, s.label, anchor="start"))
    return _svg(plot.title, plot.x_label, plot.y_label, body)


def _render_histogram(hist: Histogram) -> str:
    lo, hi = hist.edges[0], hist.edges[-1]
    _check_length((lo, hi), "histogram edges", lo, hi)
    top = max(max(hist.counts), 1)
    color = "#d62728" if hist.kind == "fp" else "#1f77b4"
    body = []
    for e0, e1, count in zip(hist.edges, hist.edges[1:], hist.counts):
        if count == 0:
            continue
        x, y = _x_at(e0, lo, hi), _y_at(count / top)
        body.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{_x_at(e1, lo, hi) - x:.2f}" '
            f'height="{_X_AXIS_Y - y:.2f}" '
            f'fill="{color}" fill-opacity="0.7" stroke="white" stroke-width="0.5"/>'
        )
    body += _x_ticks([(_x_at(v, lo, hi), f"{v:.4g}") for v in _linear_ticks(lo, hi)])
    body += _y_ticks([(_y_at(c / top), str(c)) for c in sorted({0, top // 2, top})])
    return _svg(hist.label or "distance histogram", "train2test distance", "count", body)


def _render_bars(chart: BarChart) -> str:
    values = [v for _, v in chart.bars]
    v_lo, v_hi = min(min(values), 0.0), max(max(values), 0.0)
    if v_hi == v_lo:
        v_hi = v_lo + 1.0
    _check_length((v_lo, v_hi), "bar values", min(values), max(values))

    def y_pos(v: float) -> float:
        return _y_at((v - v_lo) / (v_hi - v_lo))

    slot = _PLOT_W / len(chart.bars)
    width = slot * 0.6
    zero = y_pos(0.0)
    body = []
    for i, (label, value) in enumerate(chart.bars):
        x = _ML + slot * i + (slot - width) / 2
        y = y_pos(value)
        body.append(
            f'<rect x="{x:.2f}" y="{min(y, zero):.2f}" width="{width:.2f}" '
            f'height="{abs(y - zero):.2f}" fill="{_PALETTE[0]}" fill-opacity="0.8"/>'
        )
        body.append(_text(x + width / 2, _X_AXIS_Y + 16, label))
    body += _y_ticks([(y_pos(v), f"{v:.4g}") for v in _linear_ticks(v_lo, v_hi)])
    return _svg(chart.title, "", chart.y_label, body)


def render_svg(obj) -> str:
    """Deterministic, self-contained SVG for a plot object."""
    for layout in _LAYOUTS.values():
        if isinstance(obj, layout.chart):
            return layout.render(obj)
    raise ValidationError(f"no SVG rendering for {type(obj).__name__}")


# --------------------------------------------------------------- chart layouts


def _series_rows(plot: SeriesPlot) -> list[list[str]]:
    return [[s.label, _fmt(x), _fmt(y), "true" if plot.y_scale == "log" and y == 0.0 else "false"]
            for s in plot.series for x, y in s.points]


def _series_chart(rows: list[list], title: str, linear: bool) -> SeriesPlot:
    groups: dict[str, list[tuple[float, float]]] = {}
    for label, x, y in rows:
        groups.setdefault(label, []).append((x, y))
    series = tuple(Series(label=k, points=tuple(v)) for k, v in groups.items())
    return _scaling_plot(series, "linear" if linear else "log", title)


def _histogram_rows(hist: Histogram) -> list[list[str]]:
    return [[_fmt(lo), _fmt(hi), str(count)]
            for lo, hi, count in zip(hist.edges, hist.edges[1:], hist.counts)]


def _histogram_chart(rows: list[list], title: str, linear: bool) -> Histogram:
    for i in range(1, len(rows)):
        if rows[i][0] != rows[i - 1][1]:
            raise ParseError(f"bins are not contiguous at row {i + 1}")
    edges = (rows[0][0], *(hi for _, hi, _ in rows))
    return Histogram(edges=edges, counts=tuple(count for *_, count in rows), label=title)


def _bar_rows(chart: BarChart) -> list[list[str]]:
    return [[label, _fmt(value)] for label, value in chart.bars]


def _bar_chart(rows: list[list], title: str, linear: bool) -> BarChart:
    return BarChart(bars=tuple(map(tuple, rows)), title=title)


class _Layout(NamedTuple):
    """A chart kind: its type, the CSV columns ``t2t report`` reads with their cell
    parsers, the ``extra`` ones ``export_csv`` writes after them, the refusal of a
    row that does not parse, and how to write its rows, build it and draw it."""

    chart: type
    columns: dict[str, Callable[[str], object]]
    extra: tuple[str, ...]
    refusal: str
    rows: Callable
    build: Callable
    render: Callable


_FLOAT, _INT = partial(_csv_number, float), partial(_csv_number, int)

_LAYOUTS = {
    "series": _Layout(SeriesPlot, {"series": str, "x": _FLOAT, "y": _FLOAT}, ("floored",),
                      "non-numeric series row: {row!r}", _series_rows, _series_chart,
                      _render_series),
    "histogram": _Layout(Histogram, {"bin_lo": _FLOAT, "bin_hi": _FLOAT, "count": _INT}, (),
                         "non-numeric histogram row", _histogram_rows, _histogram_chart,
                         _render_histogram),
    "bars": _Layout(BarChart, {"label": str, "value": _FLOAT}, (), "non-numeric bar row",
                    _bar_rows, _bar_chart, _render_bars),
}


def _chart_from_csv(kind: str, rows: list[list[str]], title: str, linear: bool):
    """The chart that ``t2t report --kind kind`` draws from a CSV's records. A kind
    with ``extra`` columns takes any columns after the ones it reads; ``linear``
    gives a series a linear y axis, and the other kinds ignore it."""
    layout = _LAYOUTS[kind]
    if len(rows) < 2:
        raise ParseError("expected a header row and at least one data row")
    header, body = rows[0], rows[1:]
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ParseError(f"row {lineno}: expected {len(header)} columns, got {len(row)}")
    names = list(layout.columns)
    if header[:len(names)] != names or (len(header) > len(names) and not layout.extra):
        shown = ",".join(names) + "".join(f"[,{c}]" for c in layout.extra)
        raise ParseError(f"expected columns {shown}")
    parsed = []
    for row in body:
        try:
            parsed.append([parse(cell) for parse, cell in zip(layout.columns.values(), row)])
        except ValueError:
            raise ParseError(layout.refusal.format(row=row)) from None
    return layout.build(parsed, title, linear)
