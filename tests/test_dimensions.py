"""Exact length arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citeforge.dimensions import Dimension, as_fraction, format_number

fractions = st.fractions(
    min_value=Fraction(-10_000), max_value=Fraction(10_000), max_denominator=10_000
)


class TestAsFraction:
    def test_accepts_the_usual_shapes(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction("1.5") == Fraction(3, 2)
        assert as_fraction(Fraction(7, 4)) == Fraction(7, 4)

    def test_float_reads_as_its_decimal_literal(self):
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(0.11) == Fraction(11, 100)


class TestFormatNumber:
    def test_integers_print_bare(self):
        assert format_number(Fraction(4)) == "4"
        assert format_number(Fraction(0)) == "0"

    def test_finite_decimals_print_exactly(self):
        assert format_number(Fraction(1, 2)) == "0.5"
        assert format_number(Fraction(3, 2)) == "1.5"
        assert format_number(Fraction(11, 100)) == "0.11"
        assert format_number(Fraction(-7, 100)) == "-0.07"

    def test_non_decimal_denominators_print_as_ratio(self):
        assert format_number(Fraction(1, 3)) == "1/3"
        assert format_number(Fraction(-5, 7)) == "-5/7"

    @given(fractions)
    def test_output_parses_back_to_the_same_value(self, q):
        assert Fraction(format_number(q)) == q


class TestDimension:
    def test_constructors_and_units(self):
        assert Dimension.of(1, "pt").unit == "pt"
        assert Dimension.of("0.5", "em").value == Fraction(1, 2)
        assert Dimension.of(3, "ex").unit == "ex"

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            Dimension.of(1, "cm")
        with pytest.raises(ValueError):
            Dimension.of(1, "pt", plus=(1, "mm"))
        with pytest.raises(ValueError):
            Dimension.of(1, "pt", minus=(1, "cm"))

    def test_bare_constructed_bad_unit_fails_on_conversion(self):
        with pytest.raises(ValueError, match="unknown unit 'cm'"):
            Dimension(Fraction(1), "cm").to_pt(Fraction(10))

    def test_conversion_to_points(self):
        em = Fraction(10)
        assert Dimension.of("2.5", "pt").to_pt(em) == Fraction(5, 2)
        assert Dimension.of(2, "em").to_pt(em) == Fraction(20)
        assert Dimension.of(3, "ex").to_pt(em) == Fraction(15)

    def test_ex_is_half_an_em(self):
        em = Fraction(12)
        assert Dimension.of(1, "ex").to_pt(em) * 2 == Dimension.of(1, "em").to_pt(em)

    def test_stretch_and_shrink_convert_too(self):
        glue = Dimension.of("1.5", "ex", plus=("0.5", "ex"), minus=("0.5", "ex"))
        em = Fraction(10)
        assert glue.to_pt(em) == Fraction(15, 2)
        assert glue.stretch.to_pt(em) == Fraction(5, 2)
        assert glue.shrink.to_pt(em) == Fraction(5, 2)
        rigid = Dimension.of(1, "pt")
        assert rigid.stretch is None
        assert rigid.shrink is None

    def test_glue_parts_are_lengths_without_glue(self):
        glue = Dimension.of("1.5", "ex", plus=("0.5", "ex"), minus=(1, "pt"))
        assert glue.stretch == Dimension.of("0.5", "ex") == (Fraction(1, 2), "ex", None, None)
        assert glue.shrink == Dimension.of(1, "pt")

    def test_add_same_unit_keeps_unit(self):
        total = Dimension.of(Fraction(7, 2), "em").add(Dimension.of(Fraction(1, 2), "em"))
        assert total == Dimension.of(4, "em")

    def test_add_mixed_units_needs_em_size(self):
        width = Dimension.of(1, "em")
        extra = Dimension.of(2, "pt")
        with pytest.raises(ValueError):
            width.add(extra)
        assert width.add(extra, Fraction(10)) == Dimension.of(12, "pt")

    def test_str_of_plain_length(self):
        assert str(Dimension.of(Fraction(1, 2), "pt")) == "0.5pt"
        assert str(Dimension.of(Fraction(7, 2), "em")) == "3.5em"

    def test_str_of_glue(self):
        glue = Dimension.of("1.5", "ex", plus=("0.5", "ex"), minus=("0.5", "ex"))
        assert str(glue) == "1.5ex plus 0.5ex minus 0.5ex"
        skip = Dimension.of("0.11", "em", plus=("0.33", "em"), minus=("0.07", "em"))
        assert str(skip) == "0.11em plus 0.33em minus 0.07em"

    @given(fractions, st.sampled_from(["pt", "em", "ex"]))
    def test_same_unit_addition_matches_value_arithmetic(self, q, unit):
        a = Dimension(q, unit)
        b = Dimension(Fraction(1, 3), unit)
        assert a.add(b).value == q + Fraction(1, 3)
        assert a.add(b).unit == unit

