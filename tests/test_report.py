import csv
import io
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2tmetrics import (
    AnnotatedEntry,
    BarChart,
    Histogram,
    Kind,
    MetricReport,
    ReplacementResult,
    Series,
    SeriesPlot,
    ValidationError,
    distance_histogram,
    export_csv,
    render_svg,
    replacement_rows_csv,
    scaling_series,
)
from oracles import histogram_recount
from records import annotated_outcome


def make_annotated(tp_distances, fp_distances, total_gt=None):
    entries = [
        AnnotatedEntry(detection_id=f"t{i}", kind=Kind.TP, score=0.9, distance=d)
        for i, d in enumerate(tp_distances)
    ]
    entries += [
        AnnotatedEntry(detection_id=f"f{i}", kind=Kind.FP, score=0.4, distance=d)
        for i, d in enumerate(fp_distances)
    ]
    if total_gt is None:
        total_gt = len(tp_distances)
    return annotated_outcome(entries=tuple(entries), total_gt=total_gt)


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


# ------------------------------------------------------------------ histograms


def test_histogram_worked_example():
    # The FP at 2.0 is the largest distance, so the range is [0, 2].
    annotated = make_annotated([0.5, 1.5, 1.6], [2.0])
    tp, fp = distance_histogram(annotated, bin_count=2)
    assert tp.edges == fp.edges == (0.0, 1.0, 2.0)
    assert tp.counts == (1, 2)
    assert fp.counts == (0, 1)
    assert tp.kind is Kind.TP and fp.kind is Kind.FP


def test_histogram_final_bin_right_closed():
    annotated = make_annotated([2.0], [])
    tp, _ = distance_histogram(annotated, bin_count=2)
    assert tp.edges == (0.0, 1.0, 2.0)
    assert tp.counts == (0, 1)


def test_histogram_default_range_spans_all():
    annotated = make_annotated([0.5, 3.0], [12.0])
    tp, fp = distance_histogram(annotated, bin_count=4)
    assert tp.edges[0] == 0.0
    assert tp.edges[-1] == 12.0
    assert sum(tp.counts) == 2
    assert sum(fp.counts) == 1
    assert tp.edges == fp.edges


def test_histogram_empty_annotated():
    annotated = annotated_outcome(entries=(), total_gt=0)
    tp, fp = distance_histogram(annotated, bin_count=3)
    assert tp.edges == (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
    assert tp.counts == (0, 0, 0)
    assert fp.counts == (0, 0, 0)


def test_histogram_of_only_zero_distances_spans_0_to_1():
    # A range of [0, 0] has no width to split into bins.
    annotated = make_annotated([0.0, 0.0], [0.0])
    edges, tp_counts, fp_counts = annotated.histogram(4)
    assert edges == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert (tp_counts, fp_counts) == ((2, 0, 0, 0), (1, 0, 0, 0))
    tp, fp = distance_histogram(annotated, bin_count=4)
    assert tp.edges == fp.edges == edges
    assert (tp.counts, fp.counts) == (tp_counts, fp_counts)


def test_histogram_counts_match_recount_oracle():
    rng = np.random.default_rng(51)
    tp_d = rng.uniform(0, 50, 600)
    fp_d = rng.uniform(0, 50, 400)
    annotated = make_annotated(tp_d, fp_d)
    tp, fp = distance_histogram(annotated, bin_count=17)
    assert sum(tp.counts) == 600
    assert sum(fp.counts) == 400
    assert list(tp.counts) == histogram_recount(tp_d, tp.edges)
    assert list(fp.counts) == histogram_recount(fp_d, fp.edges)


def test_histogram_validation():
    annotated = make_annotated([1.0], [])
    with pytest.raises(ValidationError):
        distance_histogram(annotated, bin_count=0)
    with pytest.raises(ValidationError):
        Histogram(edges=(0.0, 1.0), counts=(1, 2))
    with pytest.raises(ValidationError):
        Histogram(edges=(0.0, 0.0, 1.0), counts=(1, 2))
    with pytest.raises(ValidationError):
        Histogram(edges=(0.0, 1.0, 2.0), counts=(1, -2))


@pytest.mark.parametrize("edges", [
    (float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 0.0, 1.0), (0.0, float("nan"), 1.0),
])
def test_histogram_refuses_non_finite_edges(edges):
    with pytest.raises(ValidationError, match="histogram edges must be finite"):
        Histogram(edges=edges, counts=(1,) * (len(edges) - 1))


# -------------------------------------------------------------------- series


def report_with(ap_t2t_by_regime):
    return MetricReport(ap=0.5, ap_5095=0.25, ap_t2t_by_regime=ap_t2t_by_regime)


def test_scaling_series_one_series_per_regime():
    plot = scaling_series(
        [
            (20, report_with({"all": 0.5, "high": 0.2})),
            (5, report_with({"all": 0.1, "high": 0.05})),
            (10, report_with({"all": 0.3, "high": 0.1})),
        ]
    )
    assert plot.y_scale == "log"
    assert [s.label for s in plot.series] == ["all", "high"]
    assert plot.series[0].points == ((5.0, 0.1), (10.0, 0.3), (20.0, 0.5))
    assert plot.series[1].points == ((5.0, 0.05), (10.0, 0.1), (20.0, 0.2))


def test_scaling_series_validation():
    with pytest.raises(ValidationError):
        scaling_series([])
    with pytest.raises(ValidationError) as err:
        scaling_series([(5, report_with({"all": 0.1})), (5, report_with({"all": 0.2}))])
    assert "duplicate" in str(err.value)
    with pytest.raises(ValidationError):
        scaling_series([(5, report_with({"all": 0.1})), (10, report_with({"med": 0.2}))])


def test_series_plot_validation():
    with pytest.raises(ValidationError):
        SeriesPlot(series=(), y_scale="linear")
    with pytest.raises(ValidationError):
        SeriesPlot(series=(Series(label="a", points=((0.0, -0.1),)),), y_scale="log")
    with pytest.raises(ValidationError):
        SeriesPlot(series=(Series(label="a", points=((0.0, 1.0),)),), y_scale="sqrt")
    # y = 0 on a log scale is allowed; it renders at the floor
    SeriesPlot(series=(Series(label="a", points=((0.0, 0.0),)),), y_scale="log")


# ----------------------------------------------------------------- csv export


def test_metric_report_csv():
    report = MetricReport(
        ap=5.0 / 6.0, ap_5095=0.3,
        ap_t2t_by_regime={"all": 2.0 / 3.0, "med": 0.5}, counts=(3, 2, 1),
    )
    rows = rows_of(export_csv(report))
    assert rows[0] == ["regime", "ap_t2t", "ap", "ap_5095", "tp", "fp", "fn"]
    assert len(rows) == 3
    assert rows[1][0] == "all"
    assert float(rows[1][1]) == 2.0 / 3.0
    assert float(rows[1][2]) == 5.0 / 6.0
    assert float(rows[1][3]) == 0.3
    assert rows[1][4:] == ["3", "2", "1"]
    assert rows[2][0] == "med"


def test_histogram_csv_round_trips_exactly():
    rng = np.random.default_rng(52)
    annotated = make_annotated(rng.uniform(0, 13, 50), [])
    tp, _ = distance_histogram(annotated, bin_count=7)
    rows = rows_of(export_csv(tp))
    assert rows[0] == ["bin_lo", "bin_hi", "count"]
    assert len(rows) == 8
    for row, e0, e1, c in zip(rows[1:], tp.edges, tp.edges[1:], tp.counts):
        assert float(row[0]) == e0
        assert float(row[1]) == e1
        assert int(row[2]) == c


def test_series_csv_flags_floored_zeros():
    plot = SeriesPlot(
        series=(Series(label="all", points=((5.0, 0.0), (10.0, 0.25))),),
        y_scale="log",
    )
    rows = rows_of(export_csv(plot))
    assert rows[0] == ["series", "x", "y", "floored"]
    assert rows[1] == ["all", "5", "0", "true"]
    assert rows[2][3] == "false"

    linear = SeriesPlot(
        series=(Series(label="all", points=((5.0, 0.0),)),), y_scale="linear"
    )
    assert rows_of(export_csv(linear))[1][3] == "false"


def test_annotated_csv_sorted_by_id():
    annotated = make_annotated([1.0, 0.25], [2.0])
    rows = rows_of(export_csv(annotated))
    assert rows[0] == ["detection_id", "kind", "score", "distance"]
    assert [r[0] for r in rows[1:]] == ["f0", "t0", "t1"]
    assert rows[1][1] == "fp"
    assert float(rows[2][3]) == 1.0


def test_replacement_csv():
    rows_text = replacement_rows_csv(
        [
            (ReplacementResult(7.5, False, cross_domain_count=100), 2.5),
            (ReplacementResult(10.0, True), None),
        ]
    )
    rows = rows_of(rows_text)
    assert rows[0] == ["cross_count", "matched_count", "saturated", "gain"]
    assert rows[1] == ["100", "7.5", "false", "2.5"]
    assert rows[2] == ["", "10", "true", ""]


def test_bar_chart_csv():
    chart = BarChart(bars=(("gain", 12.5), ("loss", -3.0)))
    rows = rows_of(export_csv(chart))
    assert rows == [["label", "value"], ["gain", "12.5"], ["loss", "-3"]]


def test_a_bar_chart_needs_a_bar():
    with pytest.raises(ValidationError) as err:
        BarChart(bars=())
    assert str(err.value) == "a bar chart needs at least one bar"


def test_export_csv_rejects_unknown():
    with pytest.raises(ValidationError):
        export_csv(object())
    with pytest.raises(ValidationError):
        render_svg(object())


def test_csv_uses_newline_terminators():
    annotated = make_annotated([1.0], [])
    text = export_csv(annotated)
    assert "\r" not in text
    assert text.endswith("\n")


# ----------------------------------------------------------------- svg render


def assert_valid_svg(text):
    doc = xml.dom.minidom.parseString(text)
    assert doc.documentElement.tagName == "svg"
    # self-contained: the only URL is the SVG namespace
    assert text.count("http") == text.count("http://www.w3.org/2000/svg")


def test_series_svg_log_decade_ticks():
    plot = SeriesPlot(
        series=(
            Series(label="all", points=((5.0, 0.001), (10.0, 0.01), (20.0, 1.0))),
            Series(label="med", points=((5.0, 0.002), (10.0, 0.05), (20.0, 0.5))),
        ),
        y_scale="log",
        title="scaling",
    )
    svg = render_svg(plot)
    assert_valid_svg(svg)
    for label in (">1e-3<", ">1e-2<", ">1e-1<", ">1e0<"):
        assert label in svg
    assert svg.count("<polyline") == 2
    assert ">all<" in svg and ">med<" in svg


def test_series_svg_linear():
    plot = SeriesPlot(
        series=(Series(label="a", points=((0.0, 0.0), (1.0, 2.0))),), y_scale="linear"
    )
    svg = render_svg(plot)
    assert_valid_svg(svg)
    assert "1e" not in svg


def test_floored_zero_drawn_at_floor():
    plot = SeriesPlot(
        series=(Series(label="a", points=((0.0, 0.0), (1.0, 1.0))),), y_scale="log"
    )
    svg = render_svg(plot)
    assert_valid_svg(svg)
    # the zero point sits at the bottom of the axis (the 1e-4 floor)
    assert ">1e-4<" in svg


def test_histogram_svg():
    annotated = make_annotated([0.5, 1.5, 1.6], [4.0])
    tp, fp = distance_histogram(annotated, bin_count=4)
    for hist in (tp, fp):
        svg = render_svg(hist)
        assert_valid_svg(svg)
    assert render_svg(tp).count("<rect") >= 2  # background + at least one bar


def test_bar_svg_zero_baseline():
    chart = BarChart(bars=(("a", 5.0), ("b", -2.0)), title="gains")
    svg = render_svg(chart)
    assert_valid_svg(svg)
    assert svg.count('fill-opacity="0.8"') == 2


def test_render_is_deterministic():
    annotated = make_annotated([0.5, 1.5], [2.5])
    tp, _ = distance_histogram(annotated, bin_count=3)
    assert render_svg(tp) == render_svg(tp)
    assert export_csv(tp) == export_csv(tp)


# Charts within the renderer's range: magnitudes up to 1e6 and labels without
# control characters. A series plot draws up to 8 series. One with more series
# than the palette's 6 colours is refused, because its colours would repeat
# and, from the 24th series on, its legend would run below the canvas; the
# strategy then gives the refusal in place of the plot.
values = st.floats(-1e6, 1e6)
labels = st.text(st.characters(exclude_categories=("Cc", "Cs")), max_size=12)


@st.composite
def series_plots(draw, values=values, labels=labels):
    log = draw(st.booleans())
    points = st.lists(st.tuples(values, values.map(abs) if log else values),
                      min_size=1, max_size=10)
    series = draw(st.lists(st.builds(Series, label=labels, points=points.map(tuple)),
                           min_size=1, max_size=8))
    try:
        return SeriesPlot(series=tuple(series), x_label=draw(labels), y_label=draw(labels),
                          y_scale="log" if log else "linear", title=draw(labels))
    except ValidationError as exc:
        return exc


def _refused_for_its_series(chart) -> bool:
    """Whether ``chart`` is the refusal of a series plot with more than 6
    series; a series plot that was built has at most 6."""
    if isinstance(chart, ValidationError):
        assert str(chart) in ("a series plot takes at most 6 series, got 7",
                              "a series plot takes at most 6 series, got 8"), chart
        return True
    assert not isinstance(chart, SeriesPlot) or len(chart.series) <= 6
    return False


@st.composite
def histograms(draw, edges=None, labels=labels):
    if edges is None:
        edges = [draw(values)]
        for width in draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30)):
            edges.append(edges[-1] + width)
    else:
        edges = sorted(draw(edges))
    counts = draw(st.lists(st.integers(0, 10**6), min_size=len(edges) - 1,
                           max_size=len(edges) - 1))
    return Histogram(edges=tuple(edges), counts=tuple(counts),
                     kind=draw(st.sampled_from([None, Kind.TP, Kind.FP])), label=draw(labels))


def bar_charts(values=values, labels=labels):
    return st.builds(BarChart, bars=st.lists(st.tuples(labels, values), min_size=1,
                                             max_size=12).map(tuple),
                     y_label=labels, title=labels)


CANVAS = {"x": 640, "x1": 640, "x2": 640, "cx": 640, "y": 420, "y1": 420, "y2": 420, "cy": 420}


@settings(max_examples=300, deadline=None)
@given(chart=st.one_of(series_plots(), histograms(), bar_charts()))
def test_every_chart_parses_and_stays_inside_the_canvas(chart):
    if not _refused_for_its_series(chart):
        _assert_parses_inside_the_canvas(render_svg(chart))


# Any finite value, any magnitude, and any text but lone surrogates, which
# UTF-8 input cannot hold.
finite = st.floats(allow_nan=False, allow_infinity=False)
any_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(chart=st.one_of(
    series_plots(finite, any_text),
    histograms(st.lists(finite, min_size=2, max_size=31, unique=True), any_text),
    bar_charts(finite, any_text),
))
def test_every_chart_of_finite_values_is_drawn_well_formed_or_refused(chart):
    if _refused_for_its_series(chart):
        return
    try:
        svg = render_svg(chart)
    except ValidationError as exc:
        refusals = ("span more than a chart axis can hold", "need a log axis beyond 1e308",
                    "which XML does not allow")
        assert any(refusal in str(exc) for refusal in refusals), exc
        return
    _assert_parses_inside_the_canvas(svg)


def _assert_parses_inside_the_canvas(svg):
    doc = xml.dom.minidom.parseString(svg)
    assert doc.documentElement.getAttribute("viewBox") == "0 0 640 420"
    for element in doc.getElementsByTagName("*"):
        for name, limit in CANVAS.items():
            if element.hasAttribute(name):
                assert 0 <= float(element.getAttribute(name)) <= limit, (element.tagName, name)
        if element.tagName == "rect":
            x, y = (float(element.getAttribute(a) or 0) for a in ("x", "y"))
            assert x + float(element.getAttribute("width")) <= 640
            assert y + float(element.getAttribute("height")) <= 420
        for point in element.getAttribute("points").split():
            x, y = map(float, point.split(","))
            assert 0 <= x <= 640 and 0 <= y <= 420, point
