"""Length values with exact rational arithmetic.

Lengths carry a rational magnitude and a unit (``pt``, ``em``, ``ex``),
plus optional stretch and shrink components for glue-like values.  All
arithmetic stays in :class:`fractions.Fraction`; conversion to points
happens only at the edge, given the em size in points.  One ex is half
an em.  A :class:`Dimension` is a ``NamedTuple``, so it compares equal
to a plain tuple of the same fields.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

__all__ = ["Numberish", "as_fraction", "format_number", "Dimension"]

Numberish = Union[int, str, Fraction, float]

_UNITS = ("pt", "em", "ex")


def as_fraction(value: Numberish) -> Fraction:
    """Exact conversion; floats are read through their decimal repr."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def format_number(q: Fraction) -> str:
    """Shortest exact decimal form, or ``n/d`` when no finite decimal exists."""
    if q < 0:
        return "-" + format_number(-q)
    if q.denominator == 1:
        return str(q.numerator)
    rest = q.denominator
    for prime in (2, 5):
        while rest % prime == 0:
            rest //= prime
    if rest != 1:
        return f"{q.numerator}/{q.denominator}"
    digits = 0
    scaled = q
    while scaled.denominator != 1:
        scaled *= 10
        digits += 1
    text = str(scaled.numerator).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def _component(value: Numberish, unit: str) -> tuple[Fraction, str]:
    if unit not in _UNITS:
        raise ValueError(f"unknown unit {unit!r}")
    return as_fraction(value), unit


class Dimension(NamedTuple):
    """A length; build one through :meth:`of` to have its units checked."""

    value: Fraction
    unit: str
    stretch: tuple[Fraction, str] | None = None
    shrink: tuple[Fraction, str] | None = None

    @classmethod
    def of(
        cls,
        value: Numberish,
        unit: str,
        *,
        plus: tuple[Numberish, str] | None = None,
        minus: tuple[Numberish, str] | None = None,
    ) -> "Dimension":
        return cls(
            *_component(value, unit),
            _component(*plus) if plus is not None else None,
            _component(*minus) if minus is not None else None,
        )

    @classmethod
    def pt(cls, value: Numberish) -> "Dimension":
        return cls(as_fraction(value), "pt")

    @classmethod
    def em(cls, value: Numberish) -> "Dimension":
        return cls(as_fraction(value), "em")

    @classmethod
    def ex(cls, value: Numberish) -> "Dimension":
        return cls(as_fraction(value), "ex")

    def to_pt(self, em_size_pt: Fraction) -> Fraction:
        return _scalar_pt(self.value, self.unit, em_size_pt)

    def stretch_pt(self, em_size_pt: Fraction) -> Fraction | None:
        if self.stretch is None:
            return None
        return _scalar_pt(self.stretch[0], self.stretch[1], em_size_pt)

    def shrink_pt(self, em_size_pt: Fraction) -> Fraction | None:
        if self.shrink is None:
            return None
        return _scalar_pt(self.shrink[0], self.shrink[1], em_size_pt)

    def add(self, other: "Dimension", em_size_pt: Fraction | None = None) -> "Dimension":
        """Sum of the base values; same-unit sums keep the unit.

        Mixed units need ``em_size_pt`` and produce a result in points.
        Stretch and shrink do not participate.
        """
        if self.unit == other.unit:
            return Dimension(self.value + other.value, self.unit)
        if em_size_pt is None:
            raise ValueError("adding mixed units requires the em size")
        return Dimension(self.to_pt(em_size_pt) + other.to_pt(em_size_pt), "pt")

    def __str__(self) -> str:
        text = f"{format_number(self.value)}{self.unit}"
        if self.stretch is not None:
            text += f" plus {format_number(self.stretch[0])}{self.stretch[1]}"
        if self.shrink is not None:
            text += f" minus {format_number(self.shrink[0])}{self.shrink[1]}"
        return text


def _scalar_pt(value: Fraction, unit: str, em_size_pt: Fraction) -> Fraction:
    if unit == "pt":
        return value
    if unit == "em":
        return value * em_size_pt
    if unit == "ex":
        return value * em_size_pt / 2
    raise ValueError(f"unknown unit {unit!r}")

