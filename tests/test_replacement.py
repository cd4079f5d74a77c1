import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from t2tmetrics import (
    AccuracyCurve,
    ValidationError,
    average_runs,
    build_accuracy_curve,
    matching_image_count,
)


def curve(samples, label=""):
    return build_accuracy_curve(list(samples), label=label)


# -------------------------------------------------------------- curve building


def test_build_sorts_by_count():
    c = curve([(10, 0.4), (5, 0.2)])
    assert c.counts == (5, 10)
    assert c.points == ((5, Fraction(1, 5)), (10, Fraction(2, 5)))


def test_build_validation():
    with pytest.raises(ValidationError):
        curve([(5, 0.2)])
    with pytest.raises(ValidationError) as err:
        curve([(5, 0.2), (5, 0.3)])
    assert "duplicate" in str(err.value)
    with pytest.raises(ValidationError):
        curve([(5, 0.2), (10, 1.2)])
    with pytest.raises(ValidationError):
        curve([(5, 0.2), (10.0, 0.4)])
    with pytest.raises(ValidationError):
        curve([(0, 0.2), (10, 0.4)])
    with pytest.raises(ValidationError):
        curve([(5, "abc"), (10, 0.4)])


@pytest.mark.parametrize("points, message", [
    (((5, Fraction(1, 5)),), "a curve needs at least two samples, got 1"),
    (((0, Fraction(1, 5)), (10, Fraction(2, 5))), "image counts must be positive"),
    (((10, Fraction(1, 5)), (5, Fraction(2, 5))),
     "image counts must be strictly increasing after sorting"),
    (((5, Fraction(1, 5)), (5, Fraction(2, 5))),
     "image counts must be strictly increasing after sorting"),
])
def test_curve_constructor_refuses_what_build_would_refuse(points, message):
    # build_accuracy_curve checks first, so only a curve built directly gets here.
    with pytest.raises(ValidationError) as err:
        AccuracyCurve(points=points)
    assert str(err.value) == message


def test_build_warns_off_grid(caplog):
    with caplog.at_level(logging.WARNING):
        curve([(5, 0.2), (12, 0.4)])
    assert any("12" in m and "5" in m for m in caplog.messages)

    caplog.clear()
    with caplog.at_level(logging.WARNING):
        curve([(5, 0.2), (10, 0.4)])
    assert not caplog.messages


def test_accuracies_stored_as_decimals():
    c = curve([(5, 0.2), (10, 0.3)])
    assert c.points[0][1] == Fraction(1, 5)
    assert c.points[1][1] == Fraction(3, 10)
    # strings are parsed to the same exact values
    assert curve([(5, "0.2"), (10, "0.3")]).points == c.points


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_accuracy_is_refused_naming_the_sample(value):
    with pytest.raises(ValidationError) as err:
        curve([(5, value), (10, 0.5)])
    assert str(err.value) == f"curve sample 0: not a number: '{value}'"


# Every decimal text of a float keeps its exact value, and a refusal shows the float.
@given(value=st.floats(allow_nan=False, allow_infinity=False),
       form=st.sampled_from(["r", ".17e", ".17g"]))
def test_decimal_text_of_a_float_keeps_its_exact_value(value, form):
    text = repr(value) if form == "r" else format(value, form)
    if 0 <= value <= 1:
        assert curve([(5, text), (10, 0.5)]).points[0][1] == Fraction(text)
    else:
        with pytest.raises(ValidationError) as err:
            curve([(5, text), (10, 0.5)])
        assert str(err.value) == f"curve sample 0: accuracy must lie in [0, 1], got {value}"


# ------------------------------------------------------------------- averaging


def test_average_runs_exact():
    runs = [
        curve([(5, 0.2), (10, 0.5)]),
        curve([(5, 0.3), (10, 0.6)]),
        curve([(5, 0.4), (10, 0.7)]),
    ]
    mean = average_runs(runs)
    assert mean.points == ((5, Fraction(3, 10)), (10, Fraction(3, 5)))
    assert mean.label == "mean of 3 runs"


def test_average_single_run_is_identity():
    c = curve([(5, 0.2), (10, 0.5)], label="run-0")
    assert average_runs([c]) is c


def test_average_requires_identical_grids():
    with pytest.raises(ValidationError) as err:
        average_runs([curve([(5, 0.2), (10, 0.4)]), curve([(5, 0.2), (15, 0.4)])])
    assert "15" in str(err.value)
    with pytest.raises(ValidationError):
        average_runs([])


def test_average_commutes_with_affine_transforms():
    rng = np.random.default_rng(31)
    grid = (5, 10, 15, 20)
    runs = [
        curve([(c, float(np.round(rng.uniform(0.1, 0.6), 3))) for c in grid])
        for _ in range(4)
    ]
    # scale and shift chosen to keep accuracies inside [0, 1]
    a, b = Fraction(1, 2), Fraction(1, 4)
    transformed = [
        AccuracyCurve(points=tuple((c, a * acc + b) for c, acc in r.points), label=r.label)
        for r in runs
    ]
    lhs = average_runs(transformed)
    rhs = AccuracyCurve(
        points=tuple((c, a * acc + b) for c, acc in average_runs(runs).points)
    )
    assert lhs.points == rhs.points


# ------------------------------------------------------------- inverse lookups


def test_linear_midpoint_is_exact():
    c = curve([(5, 0.2), (10, 0.4)])
    result = matching_image_count(c, 0.3)
    assert result.matched_same_domain_count == 7.5
    assert result.saturated is False
    assert result.cross_domain_count is None


def test_knot_hit_returns_knot_count():
    c = curve([(5, 0.2), (10, 0.4)])
    result = matching_image_count(c, 0.4)
    assert result.matched_same_domain_count == 10.0
    assert result.saturated is False
    assert matching_image_count(c, 0.2).matched_same_domain_count == 5.0


def test_saturation_clamps_and_flags():
    c = curve([(5, 0.2), (10, 0.4)])
    above = matching_image_count(c, 0.5)
    assert above.matched_same_domain_count == 10.0
    assert above.saturated is True
    below = matching_image_count(c, 0.1)
    assert below.matched_same_domain_count == 5.0
    assert below.saturated is True


def test_every_knot_is_recovered_exactly():
    rng = np.random.default_rng(32)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        counts = np.cumsum(rng.integers(1, 4, n)) * 5
        accs = np.sort(np.round(rng.uniform(0.05, 0.95, n), 4))
        if len(set(accs)) != n:
            continue
        c = curve([(int(cnt), float(acc)) for cnt, acc in zip(counts, accs)])
        for cnt, acc in zip(counts, accs):
            result = matching_image_count(c, float(acc))
            assert result.matched_same_domain_count == float(cnt)
            assert result.saturated is False


def test_monotone_curve_gives_monotone_counts():
    c = curve([(5, 0.1), (10, 0.3), (15, 0.35), (20, 0.8)])
    targets = [0.1, 0.15, 0.3, 0.32, 0.5, 0.8]
    matched = [matching_image_count(c, t).matched_same_domain_count for t in targets]
    assert matched == sorted(matched)


def test_first_crossing_wins_on_non_monotone_curve(caplog):
    c = curve([(5, 0.2), (10, 0.6), (15, 0.3), (20, 0.8)])
    with caplog.at_level(logging.WARNING):
        result = matching_image_count(c, 0.5)
    assert result.matched_same_domain_count == 8.75
    assert result.saturated is False
    assert any("crossed 3 times" in m for m in caplog.messages)


def test_plateau_counts_once():
    c = curve([(5, 0.2), (10, 0.4), (15, 0.4), (20, 0.9)])
    result = matching_image_count(c, 0.4)
    assert result.matched_same_domain_count == 10.0
    assert result.saturated is False


def test_cross_domain_count_is_carried():
    c = curve([(5, 0.2), (10, 0.4)])
    result = matching_image_count(c, 0.3, cross_domain_count=500)
    assert result.cross_domain_count == 500


def test_target_validation():
    c = curve([(5, 0.2), (10, 0.4)])
    with pytest.raises(ValidationError):
        matching_image_count(c, 1.5)
    with pytest.raises(ValidationError):
        matching_image_count(c, -0.1)


# ------------------------------------------------------------------------ gain


def test_replacement_gain():
    # the gain is the difference of two lookups, as `t2t replacement` reports it
    c = curve([(20, 0.1), (60, 0.3), (100, 0.5), (140, 0.6)])

    def gain(with_acc, without_acc):
        return (matching_image_count(c, with_acc).matched_same_domain_count
                - matching_image_count(c, without_acc).matched_same_domain_count)

    assert gain(0.5, 0.3) == 40.0
    assert gain(0.3, 0.3) == 0.0
    assert gain(0.2, 0.3) == -20.0


def test_gain_zero_when_both_saturate_at_top():
    c = curve([(5, 0.2), (10, 0.4)])
    assert matching_image_count(c, 0.9).matched_same_domain_count == 10.0
    assert matching_image_count(c, 0.8).matched_same_domain_count == 10.0
    assert matching_image_count(c, 0.9).saturated is True
    assert matching_image_count(c, 0.8).saturated is True
