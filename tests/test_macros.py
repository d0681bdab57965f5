"""The macro facility: definition, substitution, expansion, and limits.

``tests/test_macro_engine.py`` compares the engine with the spec on
generated macros and texts; the examples here pin what it does.
"""

from unittest import mock

import pytest

from citeforge import macros
from citeforge.bbl import process_bbl
from citeforge.errors import MacroError, MacroRecursionError
from citeforge.macros import (
    MAX_EXPANSION_DEPTH,
    MacroDef,
    define_newcommand,
    expand_macros,
    substitute_params,
)


class TestDefine:
    def test_zero_params_by_default(self):
        defs = {}
        made = define_newcommand(defs, "etal", "", "et al.")
        assert made == MacroDef("etal", 0, "et al.", ("et al.",))
        assert defs["etal"] is made

    def test_param_count_parsed(self):
        defs = {}
        assert define_newcommand(defs, "f", "2", "#1#2").num_params == 2
        assert define_newcommand(defs, "g", " 9 ", "#9").num_params == 9

    def test_param_count_must_be_numeric(self):
        with pytest.raises(MacroError, match="`two' is not a number"):
            define_newcommand({}, "f", "two", "x")

    def test_param_count_keeps_its_sign_and_blanks(self):
        assert define_newcommand({}, "f", "+3", "#3").num_params == 3
        assert define_newcommand({}, "g", "\t2\n", "#2").num_params == 2

    @pytest.mark.parametrize("blank", ["\x1c", "\x1f", "\u3000", "\x85"])
    def test_param_count_strips_every_blank_that_str_strip_strips(self, blank):
        # int() alone refuses "\x1c" to "\x1f" round the digits with a ValueError.
        assert define_newcommand({}, "f", f"{blank}2{blank}", "#2").num_params == 2
        content = f"\\begin{{thebibliography}}{{9}}\n\\newcommand{{\\x}}[2{blank}]{{#2}}\n"
        assert process_bbl(content, source="refs.bbl").items == []

    @pytest.mark.parametrize("count", ["\u0663", "\uff11", "1_0", "\u00b2", "- 1", " "])
    def test_param_count_takes_ascii_digits_only(self, count):
        # int() reads the first three as 3, 1 and 10.
        with pytest.raises(MacroError, match=f"parameter count `{count}' is not a number"):
            define_newcommand({}, "f", count, "x")

    def test_non_ascii_param_count_fails_at_its_line(self):
        content = (
            "\\begin{thebibliography}{9}\n"
            "\\newcommand{\\x}[\u0663]{<#1>}\n"
            "\\bibitem{k} \\x{a}\n"
            "\\end{thebibliography}\n"
        )
        with pytest.raises(MacroError) as info:
            process_bbl(content, source="refs.bbl")
        assert str(info.value) == "refs.bbl:2: parameter count `\u0663' is not a number"
        assert (info.value.line, info.value.source) == (2, "refs.bbl")

    def test_too_many_parameters(self):
        with pytest.raises(MacroError, match="10 is too many parameters"):
            define_newcommand({}, "f", "10", "x")

    def test_too_few_parameters(self):
        with pytest.raises(MacroError, match="-1 is too few parameters"):
            define_newcommand({}, "f", "-1", "x")

    def test_a_count_of_more_digits_than_int_reads_is_a_located_error(self):
        # Python's int() refuses a string of more than 4,300 digits.
        content = "\\newcommand{\\x}[" + "9" * 5000 + "]{y}\n"
        with pytest.raises(MacroError) as info:
            process_bbl("\n" + content, source="refs.bbl")
        assert str(info.value) == "refs.bbl:2: " + "9" * 5000 + " is too many parameters"
        with pytest.raises(MacroError, match="^-" + "9" * 5000 + " is too few parameters$"):
            define_newcommand({}, "f", "-" + "9" * 5000, "x")
        assert define_newcommand({}, "f", " +" + "0" * 5000 + "2", "#2").num_params == 2
        assert define_newcommand({}, "g", "-" + "0" * 5000, "x").num_params == 0

    def test_redefinition_overwrites_silently(self):
        defs = {}
        define_newcommand(defs, "v", "", "one")
        define_newcommand(defs, "v", "", "two")
        assert defs["v"].body == "two"

    def test_body_expands_at_definition_time(self):
        defs = {}
        define_newcommand(defs, "a", "", "A")
        made = define_newcommand(defs, "b", "1", "\\a#1")
        assert made.body == "A#1"
        # later redefinition of the ingredient does not reach back
        define_newcommand(defs, "a", "", "CHANGED")
        assert expand_macros(defs, "\\b{x}") == "Ax"

    def test_own_markers_survive_definition(self):
        defs = {}
        made = define_newcommand(defs, "wrap", "2", "(#1|#2)")
        assert made.body == "(#1|#2)"


class TestSubstitute:
    def test_basic(self):
        assert substitute_params(macros._template("#1 and #2"), ["a", "b"]) == "a and b"

    def test_markers_may_repeat_and_reorder(self):
        assert substitute_params(macros._template("#2#1#2"), ["x", "y"]) == "yxy"

    def test_plain_hash_free_text_unchanged(self):
        assert substitute_params(macros._template("{\\em text}"), []) == "{\\em text}"

    def test_out_of_range_marker(self):
        with pytest.raises(MacroError, match="parameter #3 used but only 2"):
            substitute_params(macros._template("#3"), ["a", "b"])
        with pytest.raises(MacroError, match="parameter #0 used but only 1"):
            substitute_params(macros._template("#0"), ["a"])


class TestExpand:
    def test_unknown_controls_untouched(self):
        assert expand_macros({}, "\\TeX and \\LaTeX{}") == "\\TeX and \\LaTeX{}"

    def test_simple_call(self):
        defs = {}
        define_newcommand(defs, "name", "", "Ada")
        assert expand_macros(defs, "by \\name!") == "by Ada!"

    def test_braced_argument(self):
        defs = {}
        define_newcommand(defs, "emph", "1", "<#1>")
        assert expand_macros(defs, "\\emph{some text}") == "<some text>"

    def test_single_character_argument(self):
        defs = {}
        define_newcommand(defs, "sq", "1", "#1#1")
        assert expand_macros(defs, "\\sq ab") == "aab"

    def test_control_sequence_argument(self):
        defs = {}
        define_newcommand(defs, "hold", "1", "[#1]")
        assert expand_macros(defs, "\\hold\\TeX x") == "[\\TeX] x"

    def test_argument_may_be_a_macro_call(self):
        defs = {}
        define_newcommand(defs, "inner", "", "I")
        define_newcommand(defs, "outer", "1", "(#1)")
        assert expand_macros(defs, "\\outer{\\inner}") == "(I)"

    def test_spaces_between_arguments_skipped(self):
        defs = {}
        define_newcommand(defs, "pair", "2", "#1+#2")
        assert expand_macros(defs, "\\pair {a} {b}") == "a+b"

    def test_missing_argument(self):
        defs = {}
        define_newcommand(defs, "need", "1", "#1")
        with pytest.raises(MacroError, match="missing argument for \\\\need"):
            expand_macros(defs, "\\need")

    def test_unbalanced_argument_group(self):
        defs = {}
        define_newcommand(defs, "need", "1", "#1")
        with pytest.raises(MacroError, match="unbalanced braces"):
            expand_macros(defs, "\\need{oops")

    def test_gobbler_discards_its_argument(self):
        defs = {}
        define_newcommand(defs, "noopsort", "1", "")
        assert expand_macros(defs, "a\\noopsort{1984}b") == "ab"

    def test_self_reference_hits_the_depth_cap(self):
        defs = {}
        define_newcommand(defs, "loop", "", "\\loop")
        with pytest.raises(MacroRecursionError) as info:
            expand_macros(defs, "\\loop")
        assert info.value.name == "loop"
        assert info.value.depth == MAX_EXPANSION_DEPTH
        assert "exceeded depth 256" in str(info.value)

    def test_mutual_recursion_hits_the_cap_too(self):
        defs = {
            "ping": MacroDef("ping", 0, "\\pong", macros._template("\\pong")),
            "pong": MacroDef("pong", 0, "\\ping", macros._template("\\ping")),
        }
        with pytest.raises(MacroRecursionError):
            expand_macros(defs, "\\ping")

    def test_deep_but_finite_nesting_is_fine(self):
        # Control words are letter runs, so the chained names are too.
        names = ["deep" + "i" * n for n in range(40)]
        defs = {}
        define_newcommand(defs, names[0], "", "leaf")
        for prev, name in zip(names, names[1:]):
            defs[name] = MacroDef(name, 0, "\\" + prev, macros._template("\\" + prev))
        assert expand_macros(defs, "\\" + names[-1]) == "leaf"

    def test_custom_depth_cap(self):
        defs = {"f": MacroDef("f", 0, "\\f", macros._template("\\f"))}
        with mock.patch.object(macros, "MAX_EXPANSION_DEPTH", 8):
            with pytest.raises(MacroRecursionError) as info:
                expand_macros(defs, "\\f")
        assert info.value.depth == 8
