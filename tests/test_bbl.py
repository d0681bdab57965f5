"""Bibliography file processing: items, labels, layout, styles, macros.

Label width expectations are computed in the tests by summing per
character widths by hand, and numbered-label expectations by walking an
independent counter, so nothing here restates the implementation.
"""

from fractions import Fraction
from time import perf_counter

import pytest

from citeforge.bbl import Alignment, LayoutParams, measure_label, process_bbl
from citeforge.dimensions import Dimension
from citeforge.errors import (
    MacroError,
    MacroRecursionError,
    StructureError,
    UnbalancedGroupError,
)
from citeforge.rendering import Span, Style


def run_bbl(content, *, collect_lint=None):
    return process_bbl(content, lint=collect_lint, source="test.bbl")


def keys_and_labels(bibliography):
    return [(item.key, item.label) for item in bibliography.items]


def plain(text):
    return [Span(Style.PLAIN, text)]


def wrap(widest, body):
    return f"\\begin{{thebibliography}}{{{widest}}}\n{body}\n\\end{{thebibliography}}\n"


class TestMeasureLabel:
    def test_label_counts_brackets(self):
        """Every character, the brackets included, is half an em wide."""
        label = "Knu84"
        per_char = Fraction(1, 2)
        expected = sum(per_char for _ in "[" + label + "]")
        measured = measure_label(label)
        assert measured == Dimension.of(expected, "em")
        assert expected == Fraction(7, 2)
        assert measure_label("Gödel") == measured  # characters, not UTF-8 bytes

    def test_empty_label_is_just_the_brackets(self):
        assert measure_label("") == Dimension.of(1, "em")

    def test_a_long_label_is_measured_at_once(self):
        size = 1 << 20
        label = ("Knuth84" * (size // 7 + 1))[:size]
        start = perf_counter()
        measured = measure_label(label)
        assert perf_counter() - start < 0.3
        assert measured == Dimension.of(Fraction(size + 2, 2), "em")


class TestEnvironmentSetup:
    def test_begin_sets_width_and_resets(self):
        # A second \begin, with no \end before it, after a tagged and a
        # numbered item: the width follows the new widest label, the
        # counter restarts and the alignment is decided anew.
        content = (
            "\\begin{thebibliography}{X}\n\\bibitem[T]{a}\nA.\n\\bibitem{b}\nB.\n"
            "\\begin{thebibliography}{99}\n\\bibitem{c}\nC.\n"
        )
        bibliography = run_bbl(content)
        assert bibliography.layout.biblabelwidth == Dimension.of(2, "em")
        assert bibliography.layout.biblabelextraspace == Dimension.of(Fraction(1, 2), "em")
        assert [(item.label, item.alignment) for item in bibliography.items] == [
            ("T", Alignment.LABELS_LEFT),
            ("1", Alignment.LABELS_LEFT),
            ("1", Alignment.LABELS_RIGHT),
        ]

    def test_layout_defaults(self):
        layout = LayoutParams()
        assert layout.clubpenalty == 4000
        assert layout.widowpenalty == 4000
        assert layout.tolerance == 10000
        assert layout.hfuzz == Dimension.of(Fraction(1, 2), "pt")
        assert layout.frenchspacing is True
        assert str(layout.parskip) == "1.5ex plus 0.5ex minus 0.5ex"
        assert str(layout.newblock_glue) == "0.11em plus 0.33em minus 0.07em"

    def test_hangindent_is_width_plus_extraspace(self):
        layout = LayoutParams(biblabelwidth=Dimension.of(Fraction(7, 2), "em"))
        assert layout.hangindent() == Dimension.of(4, "em")
        layout = layout._replace(biblabelextraspace=Dimension.of(1, "pt"))
        assert layout.hangindent(Fraction(10)) == Dimension.of(36, "pt")


class TestBibitem:
    def test_outside_environment_rejected(self):
        content = wrap("9", "\\bibitem{a}\nA.") + "\\bibitem{k}\n"
        with pytest.raises(StructureError, match=r"test\.bbl:5: \\bibitem outside thebibliography"):
            run_bbl(content)

    def test_numbered_items_count_and_record(self):
        keys = ["first", "second", "third"]
        bibliography = run_bbl(wrap("9", "".join(f"\\bibitem{{{key}}} Body.\n" for key in keys)))
        expected = []
        counter = 0
        for key in keys:
            counter += 1
            expected.append(str(counter))
        assert keys_and_labels(bibliography) == list(zip(keys, expected))
        assert [item.line for item in bibliography.items] == [2, 3, 4]
        assert not any(item.alpha for item in bibliography.items)

    def test_item_line_is_that_of_its_bibitem(self):
        content = (
            "\\newcommand{\\opens}{\\bibitem{m}}\n"
            + wrap("9", "\\bibitem{a}\nA\nstill A.\n\n\\opens M.\n% note\n  \\bibitem\n{b} B.")
        )
        bibliography = run_bbl(content)
        assert [(item.key, item.line) for item in bibliography.items] == [
            ("a", 3), ("m", 7), ("b", 9)
        ]

    def test_alpha_item_uses_its_tag(self):
        bibliography = run_bbl(wrap("Knu84", "\\bibitem[Knu84]{knuth} A.\n\\bibitem{b} B."))
        item, numbered = bibliography.items
        assert (item.key, item.label) == ("knuth", "Knu84")
        assert item.alpha
        assert item.alignment is Alignment.LABELS_LEFT
        assert numbered.label == "1"  # a tagged item does not count

    def test_first_item_fixes_alignment(self):
        bibliography = run_bbl(wrap("X", "\\bibitem[Tag]{a} A.\n\\bibitem{b} B."))
        first, second = bibliography.items
        assert first.alignment is Alignment.LABELS_LEFT
        assert second.alignment is Alignment.LABELS_LEFT
        assert second.label == "1"

    def test_numbered_first_keeps_labels_right(self):
        bibliography = run_bbl(wrap("X", "\\bibitem{a} A.\n\\bibitem[Tag]{b} B."))
        later = bibliography.items[1]
        assert later.alignment is Alignment.LABELS_RIGHT
        assert later.label == "Tag"


class TestProcessBbl:
    def test_numbered_items_with_blocks(self):
        content = wrap(
            "9",
            "\\bibitem{a}\nAuthor One.\n\\newblock Title One.\n\n"
            "\\bibitem{b}\nAuthor Two.\n\\newblock Title Two.\n\\newblock Extra.",
        )
        bibliography = run_bbl(content)
        assert keys_and_labels(bibliography) == [("a", "1"), ("b", "2")]
        assert bibliography.alignment is Alignment.LABELS_RIGHT
        assert bibliography.rendered.spans == plain(
            "[1] Author One. Title One.\n[2] Author Two. Title Two. Extra.\n"
        )

    def test_widest_label_drives_width(self):
        bibliography = run_bbl(wrap("Knu84", "\\bibitem{k}\nText."))
        assert bibliography.layout.biblabelwidth == Dimension.of(Fraction(7, 2), "em")

    def test_alpha_labels_and_alignment(self):
        content = wrap(
            "Lam86",
            "\\bibitem[Knu84]{knuth}\nOne.\n\n\\bibitem{plain}\nTwo.",
        )
        bibliography = run_bbl(content)
        assert keys_and_labels(bibliography) == [("knuth", "Knu84"), ("plain", "1")]
        assert bibliography.alignment is Alignment.LABELS_LEFT

    def test_empty_optional_is_numbered_and_linted(self):
        notes = []
        bibliography = run_bbl(
            wrap("9", "\\bibitem[]{k}\nBody."), collect_lint=notes.append
        )
        item = bibliography.items[0]
        assert item.label == "1"
        assert not item.alpha
        assert item.alignment is Alignment.LABELS_RIGHT
        assert any("empty optional argument" in n for n in notes)

    def test_whitespace_normalized_inside_blocks(self):
        content = wrap("9", "\\bibitem{k}\n  One   two\n\tthree.  ")
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == plain("[1] One two three.\n")

    def test_blank_blocks_dropped(self):
        content = wrap("9", "\\bibitem{k}\nBody.\n\\newblock   \n")
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == plain("[1] Body.\n")

    def test_comment_joins_words(self):
        content = wrap("9", "\\bibitem{k}\nAuth% linebreak\nor.")
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == plain("[1] Author.\n")

    def test_style_switch_scoped_to_group(self):
        content = wrap("9", "\\bibitem{k}\nSee {\\em Title Text} after.")
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == [
            Span(Style.PLAIN, "[1] See "),
            Span(Style.EMPHASIS, "Title Text"),
            Span(Style.PLAIN, " after.\n"),
        ]

    def test_nested_styles_restore(self):
        content = wrap("9", "\\bibitem{k}\n{\\em one {\\tt two} three}")
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == [
            Span(Style.PLAIN, "[1] "),
            Span(Style.EMPHASIS, "one "),
            Span(Style.TYPEWRITER, "two"),
            Span(Style.EMPHASIS, " three"),
            Span(Style.PLAIN, "\n"),
        ]

    def test_all_switches_map(self):
        content = wrap(
            "9",
            "\\bibitem{k}\n{\\it a}{\\sc b}{\\tt c}{\\em d{\\rm e}}",
        )
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == [
            Span(Style.PLAIN, "[1] "),
            Span(Style.EMPHASIS, "a"),
            Span(Style.SMALLCAPS, "b"),
            Span(Style.TYPEWRITER, "c"),
            Span(Style.EMPHASIS, "d"),
            Span(Style.PLAIN, "e\n"),
        ]

    def test_switch_eats_following_space(self):
        content = wrap("9", "\\bibitem{k}\n{\\em Word}")
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == [
            Span(Style.PLAIN, "[1] "),
            Span(Style.EMPHASIS, "Word"),
            Span(Style.PLAIN, "\n"),
        ]
        # Comments too, and the blanks after them.
        bibliography = run_bbl(wrap("9", "\\bibitem{k}\nA\\em% c\n Word"))
        assert bibliography.rendered.spans[1] == Span(Style.EMPHASIS, "Word")

    def test_unknown_command_passes_through_with_lint(self):
        notes = []
        content = wrap("9", "\\bibitem{k}\nThe \\TeX book.")
        bibliography = run_bbl(content, collect_lint=notes.append)
        assert bibliography.rendered.spans == plain("[1] The \\TeX book.\n")
        assert any("unknown command `\\TeX'" in n for n in notes)

    def test_text_before_first_bibitem_rejected(self):
        with pytest.raises(StructureError, match="before the first"):
            run_bbl(wrap("9", "stray words\n\\bibitem{k}\nBody."))

    def test_bibitem_without_begin_rejected(self):
        with pytest.raises(StructureError, match="outside thebibliography"):
            run_bbl("\\bibitem{k}\nBody.\n")

    def test_text_outside_environment_linted_and_dropped(self):
        notes = []
        content = wrap("9", "\\bibitem{k}\nBody.") + "Trailing junk.\n"
        bibliography = run_bbl(content, collect_lint=notes.append)
        assert bibliography.rendered.spans == plain("[1] Body.\n")
        assert any("outside thebibliography ignored" in n for n in notes)

    def test_stray_close_brace_rejected(self):
        with pytest.raises(UnbalancedGroupError):
            run_bbl(wrap("9", "\\bibitem{k}\nBody.}"))

    def test_unclosed_environment_linted(self):
        notes = []
        run_bbl(
            "\\begin{thebibliography}{9}\n\\bibitem{k}\nBody.\n",
            collect_lint=notes.append,
        )
        assert any("never closed" in n for n in notes)

    def test_unclosed_group_linted(self):
        notes = []
        run_bbl(wrap("9", "\\bibitem{k}\n{\\em Body."), collect_lint=notes.append)
        assert any("unbalanced group" in n for n in notes)

    def test_reopened_environment_restarts_numbering(self):
        content = (
            "\\begin{thebibliography}{9}\n\\bibitem{a}\nA.\n"
            "\\end{thebibliography}\n"
            "\\begin{thebibliography}{99}\n\\bibitem{b}\nB.\n"
            "\\end{thebibliography}\n"
        )
        bibliography = run_bbl(content)
        assert keys_and_labels(bibliography) == [("a", "1"), ("b", "1")]
        # the second widest label is the one left standing
        assert bibliography.layout.biblabelwidth == Dimension.of(2, "em")


class TestMacrosInsideBbl:
    def test_definition_then_use_in_body(self):
        content = (
            "\\newcommand{\\etal}{et al.}\n"
            + wrap("9", "\\bibitem{k}\nSmith \\etal, 1999.")
        )
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == plain("[1] Smith et al., 1999.\n")

    def test_gobbler_vanishes(self):
        content = (
            "\\newcommand{\\noopsort}[1]{}\n"
            + wrap("9", "\\bibitem{k}\n\\noopsort{key}Visible.")
        )
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == plain("[1] Visible.\n")

    def test_macro_in_widest_label(self):
        content = "\\newcommand{\\widest}{MMM}\n" + wrap(
            "\\widest", "\\bibitem{k}\nBody."
        )
        bibliography = run_bbl(content)
        assert bibliography.layout.biblabelwidth == Dimension.of(Fraction(5, 2), "em")

    def test_macro_in_alpha_label(self):
        content = "\\newcommand{\\yr}{84}\n" + wrap(
            "Knu84", "\\bibitem[Knu\\yr]{k}\nBody."
        )
        bibliography = run_bbl(content)
        assert keys_and_labels(bibliography) == [("k", "Knu84")]

    def test_macro_expanding_to_newblock_splits(self):
        content = "\\newcommand{\\sep}{\\newblock}\n" + wrap(
            "9", "\\bibitem{k}\nOne.\\sep Two."
        )
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == plain("[1] One. Two.\n")

    def test_macro_with_styled_body(self):
        content = "\\newcommand{\\title}[1]{{\\em #1}}\n" + wrap(
            "9", "\\bibitem{k}\n\\title{Deep Work}."
        )
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == [
            Span(Style.PLAIN, "[1] "),
            Span(Style.EMPHASIS, "Deep Work"),
            Span(Style.PLAIN, ".\n"),
        ]

    def test_arguments_cross_into_pending_text(self):
        content = "\\newcommand{\\swap}[2]{#2#1}\n" + wrap(
            "9", "\\bibitem{k}\n\\swap{a}{b}c"
        )
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == plain("[1] bac\n")

    def test_bad_parameter_count_carries_location(self):
        content = "\\newcommand{\\f}[10]{x}\n" + wrap("9", "\\bibitem{k}\nBody.")
        with pytest.raises(MacroError, match=r"test\.bbl:1: 10 is too many parameters"):
            run_bbl(content)

    def test_runaway_recursion_capped(self):
        content = "\\newcommand{\\cycle}{\\cycle}\n" + wrap(
            "9", "\\bibitem{k}\n\\cycle"
        )
        with pytest.raises(MacroRecursionError, match="exceeded depth 256"):
            run_bbl(content)

    def test_newcommand_scans_name_count_body(self):
        content = "\\newcommand{\\shorthand}[2]{#1 and #2}\n" + wrap(
            "9", "\\bibitem{k}\n\\shorthand{A}{B}."
        )
        assert run_bbl(content).rendered.spans == plain("[1] A and B.\n")

    def test_newcommand_bare_name_form(self):
        content = "\\newcommand\\x{body}\n" + wrap("9", "\\bibitem{k}\n\\x.")
        assert run_bbl(content).rendered.spans == plain("[1] body.\n")

    def test_redefinition_mid_file(self):
        content = (
            "\\newcommand{\\who}{First}\n"
            + "\\begin{thebibliography}{9}\n"
            + "\\bibitem{a}\n\\who.\n"
            + "\\newcommand{\\who}{Second}\n"
            + "\\bibitem{b}\n\\who.\n"
            + "\\end{thebibliography}\n"
        )
        bibliography = run_bbl(content)
        assert bibliography.rendered.spans == plain("[1] First.\n[2] Second.\n")

    def test_a_name_the_walk_acts_on_cannot_be_defined(self):
        # The walk never expands these names in the text, so a definition
        # would give them a second meaning in labels; LaTeX refuses it.
        content = "\\newcommand{\\em}{EM}\n" + wrap("\\em", "\\bibitem[\\em]{k} \\em body")
        with pytest.raises(MacroError) as info:
            run_bbl(content)
        assert str(info.value) == "test.bbl:1: command \\em already defined"

    @pytest.mark.parametrize(
        "name", ["em", "it", "sc", "tt", "rm", "begin", "end", "bibitem", "newblock", "newcommand"]
    )
    def test_every_name_the_walk_acts_on_is_refused_at_its_line(self, name):
        content = wrap("9", f"\\bibitem{{k}} Body.\n\\newcommand\\{name}[1]{{x}}")
        with pytest.raises(MacroError) as info:
            run_bbl(content)
        assert (info.value.line, info.value.source) == (3, "test.bbl")
        assert f"command \\{name} already defined" in str(info.value)
