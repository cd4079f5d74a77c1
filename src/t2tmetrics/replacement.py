"""Accuracy-curve interpolation: how many same-domain images match a target accuracy.

Accuracies are decimal-valued (they arrive as text or as floats printed from
text), so the curve stores them as exact rationals via their shortest decimal
form. Inverse lookups then interpolate in exact arithmetic: a target sitting
on a knot returns that knot's count exactly, and the midpoint of a segment
lands exactly between the counts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, ValidationError
from .fsio import _csv_number, _naming, _read_csv_rows, _shown

logger = logging.getLogger(__name__)


def _exact_decimal(text: str, where: str) -> Fraction:
    """The exact value of a decimal or ``p/q`` text. ``Fraction("1eN")`` builds
    10**N, so an exponent no float reaches is refused before that. The
    digit-group underscores that ``Decimal`` and ``Fraction`` accept are
    refused: ``0.1_5`` is not 0.15."""
    try:
        if "_" in text:
            raise ValueError(text)
        if "/" in text:
            return Fraction(text)
        number = Decimal(text)
        exponent = number.adjusted() if number else 0
        if -324 <= exponent <= 308:
            return Fraction(number)  # raises for NaN and infinity
    except (ArithmeticError, ValueError):  # InvalidOperation is an ArithmeticError
        raise ValidationError(f"{where}: not a number: {_shown(text)}") from None
    if exponent > 308:
        raise ValidationError(f"{where}: accuracy must lie in [0, 1], got {_shown(text)}")
    raise ValidationError(f"{where}: accuracy {_shown(text)} is too close to 0 for a float")


def _as_accuracy(value: float | str | Fraction, where: str) -> Fraction:
    if isinstance(value, (str, float)):
        # A float's repr() is the shortest decimal that round-trips, i.e. the
        # number the user actually wrote.
        acc = _exact_decimal(value if isinstance(value, str) else repr(float(value)), where)
    elif isinstance(value, (int, Fraction)):
        acc = Fraction(value)
    else:
        raise ValidationError(f"{where}: accuracy must be numeric, got {type(value).__name__}")
    if not 0 <= acc <= 1:
        try:
            rounded = float(acc)
        except OverflowError:  # too large for a float
            rounded = None
        # Show the float, unless it cannot hold the value or rounds it into [0, 1].
        shown = _shown(value) if rounded is None or 0 <= rounded <= 1 else str(rounded)
        raise ValidationError(f"{where}: accuracy must lie in [0, 1], got {shown}")
    return acc


@dataclass(frozen=True)
class AccuracyCurve:
    """Accuracy as a function of training image count, sorted by count."""

    points: tuple[tuple[int, Fraction], ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValidationError(f"a curve needs at least two samples, got {len(self.points)}")
        counts = [c for c, _ in self.points]
        if any(c <= 0 for c in counts):
            raise ValidationError("image counts must be positive")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValidationError("image counts must be strictly increasing after sorting")

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.points)


def build_accuracy_curve(
    samples: list[tuple[int, float | str | Fraction]], label: str = ""
) -> AccuracyCurve:
    """Validate and sort (count, accuracy) samples into a curve.

    Counts off the usual 5-image grid are accepted with a warning; duplicate
    counts are rejected.
    """
    if len(samples) < 2:
        raise ValidationError(f"a curve needs at least two samples, got {len(samples)}")
    points = []
    for i, (count, acc) in enumerate(samples):
        where = f"curve sample {i}"
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValidationError(f"{where}: image count must be an integer, got {count!r}")
        if count <= 0:
            raise ValidationError(f"{where}: image count must be positive, got {count}")
        points.append((count, _as_accuracy(acc, where)))
    counts = [c for c, _ in points]
    if len(set(counts)) != len(counts):
        dup = sorted(c for c in set(counts) if counts.count(c) > 1)
        raise ValidationError(f"duplicate image counts in curve: {dup}")
    off_grid = sorted(c for c in counts if c % 5 != 0)
    if off_grid:
        logger.warning("curve counts %s are not multiples of 5", off_grid)
    points.sort(key=lambda p: p[0])
    return AccuracyCurve(points=tuple(points), label=label)


def _common_grid(curves: list[AccuracyCurve]) -> tuple[int, ...]:
    """The count grid that every run samples; two that differ are named by label."""
    grid = curves[0].counts
    for curve in curves[1:]:
        if curve.counts != grid:
            raise ValidationError(f"runs {curves[0].label!r} and {curve.label!r} sample "
                                  f"different count grids: {grid} vs {curve.counts}")
    return grid


def average_runs(curves: list[AccuracyCurve]) -> AccuracyCurve:
    """Pointwise mean of several runs sampled on the identical count grid."""
    if not curves:
        raise ValidationError("average_runs needs at least one curve")
    if len(curves) == 1:
        return curves[0]
    grid = _common_grid(curves)
    n = len(curves)
    points = tuple(
        (count, sum((c.points[i][1] for c in curves), Fraction(0)) / n)
        for i, count in enumerate(grid)
    )
    return AccuracyCurve(points=points, label=f"mean of {n} runs")


def _read_curve_file(path: Path) -> list[AccuracyCurve]:
    """The curves of a ``count,accuracy[,run_id]`` CSV file, one per run id, on one grid."""
    rows = _read_csv_rows(path)

    def is_number(text: str) -> bool:
        try:
            (Fraction if "/" in text else Decimal)(text)
            return True
        except (ArithmeticError, ValueError):
            return False

    with _naming(path):
        if not rows:
            raise ParseError("empty curve file")
        # A header such as count,accuracy holds no number; a first row that does is data.
        if len(rows[0]) >= 2 and not is_number(rows[0][0]) and not is_number(rows[0][1]):
            rows = rows[1:]
            if not rows:
                raise ParseError("no curve rows after the header")
        grouped: dict[str, list[tuple[int, str]]] = {}
        for lineno, row in enumerate(rows, start=1):
            if len(row) not in (2, 3):
                raise ParseError(f"row {lineno}: expected 2 or 3 columns, got {len(row)}")
            try:
                count = _csv_number(int, row[0])
            except ValueError:
                raise ParseError(f"row {lineno}: image count is not an integer: {_shown(row[0])}") from None
            run = row[2].strip() if len(row) == 3 else ""
            grouped.setdefault(run, []).append((count, row[1].strip()))
        curves = [build_accuracy_curve(samples, label=run or path.stem)
                  for run, samples in grouped.items()]
        _common_grid(curves)
        return curves


@dataclass(frozen=True)
class ReplacementResult:
    """Outcome of one inverse lookup on the same-domain accuracy curve."""

    matched_same_domain_count: float
    saturated: bool
    cross_domain_count: int | None = None


def matching_image_count(
    curve: AccuracyCurve,
    target_accuracy: float | str | Fraction,
    cross_domain_count: int | None = None,
) -> ReplacementResult:
    """Lowest image count at which the interpolated curve reaches the target.

    Piecewise-linear inverse lookup. On non-monotone curves the first
    (lowest-count) crossing wins and a warning reports the others. Targets
    outside the curve's accuracy range clamp to the first or last count with
    ``saturated=True``.
    """
    target = _as_accuracy(target_accuracy, "target accuracy")
    crossings: list[Fraction] = []
    points = curve.points
    for i, (count, acc) in enumerate(points):
        if acc == target:
            if not (crossings and i > 0 and points[i - 1][1] == target):
                crossings.append(Fraction(count))
            continue
        if i + 1 < len(points):
            nxt_count, nxt_acc = points[i + 1]
            if (acc < target < nxt_acc) or (nxt_acc < target < acc):
                w = (target - acc) / (nxt_acc - acc)
                crossings.append(Fraction(count) + w * (nxt_count - count))
    if crossings:
        if len(crossings) > 1:
            logger.warning(
                "target accuracy %s crossed %d times; using the lowest count %s",
                float(target), len(crossings), float(crossings[0]),
            )
        return ReplacementResult(
            matched_same_domain_count=float(crossings[0]),
            saturated=False,
            cross_domain_count=cross_domain_count,
        )
    accs = [a for _, a in points]
    if target > max(accs):
        clamp = points[-1][0]
    else:
        clamp = points[0][0]
    return ReplacementResult(
        matched_same_domain_count=float(clamp),
        saturated=True,
        cross_domain_count=cross_domain_count,
    )
