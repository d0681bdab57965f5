"""Length values with exact rational arithmetic.

A :class:`Dimension` carries a rational magnitude and a unit (``pt``,
``em``, ``ex``), plus an optional stretch and shrink for glue; each of
those is a :class:`Dimension` too.  :meth:`Dimension.of` is the one
constructor that checks units.  All arithmetic stays in
:class:`fractions.Fraction`; conversion to points happens only at the
edge, in :meth:`Dimension.to_pt`, given the em size in points.  One ex
is half an em.  A :class:`Dimension` is a ``NamedTuple``, so it compares
equal to a plain tuple of the same fields.
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
    digits = 0
    scaled = q
    while scaled.denominator != 1:
        # Each step takes one 2 and one 5 out of the denominator; once
        # neither divides it, another prime does, and no decimal is finite.
        if scaled.denominator % 2 and scaled.denominator % 5:
            return f"{q.numerator}/{q.denominator}"
        scaled *= 10
        digits += 1
    text = str(scaled.numerator).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


class Dimension(NamedTuple):
    """A length; build one through :meth:`of` to have its units checked.

    A glue's ``stretch`` and ``shrink`` are lengths too, with no glue of
    their own.
    """

    value: Fraction
    unit: str
    stretch: Dimension | None = None
    shrink: Dimension | None = None

    @classmethod
    def of(
        cls,
        value: Numberish,
        unit: str,
        *,
        plus: tuple[Numberish, str] | None = None,
        minus: tuple[Numberish, str] | None = None,
    ) -> "Dimension":
        if unit not in _UNITS:
            raise ValueError(f"unknown unit {unit!r}")
        return cls(
            as_fraction(value),
            unit,
            cls.of(*plus) if plus is not None else None,
            cls.of(*minus) if minus is not None else None,
        )

    def to_pt(self, em_size_pt: Fraction) -> Fraction:
        if self.unit == "pt":
            return self.value
        if self.unit == "em":
            return self.value * em_size_pt
        if self.unit == "ex":
            return self.value * em_size_pt / 2
        raise ValueError(f"unknown unit {self.unit!r}")

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
            text += f" plus {self.stretch}"
        if self.shrink is not None:
            text += f" minus {self.shrink}"
        return text
