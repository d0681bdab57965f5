"""The one macro engine, against the spec's.

:func:`expand_macros` must return what ``tests/spec.py`` returns for
the same macros and text, or raise the same error, the depth cap
patched alike on both sides.  The remaining tests pin the behaviour
the bbl walk and :func:`expand_macros` share, and check
:meth:`Expansion.arguments`, plain-group fast path included, against
the spec's argument reader over a stack of texts, seams included.
"""

import string
import tracemalloc
from unittest import mock

import pytest
import spec
from differential import outcome, spec_macros, token_text
from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import macros
from citeforge.bbl import process_bbl
from citeforge.errors import MacroError, MacroRecursionError
from citeforge.macros import (
    MAX_EXPANSION_CHARS,
    MAX_EXPANSION_DEPTH,
    Expansion,
    MacroDef,
    MacroTable,
    expand_macros,
)
from citeforge.rendering import Span, Style
from citeforge.scanner import CharStream

# --- the differential property -------------------------------------------

NAMES = ("a", "b", "pair", "gob", "wrap")

# ASCII text only (see test_non_ascii_digit_after_hash_is_literal_text
# for markers such as "#²").  Each text is a flat list of tokens joined
# once, so a call's arguments are the tokens that follow its name.
LITERALS = ["a", "b", " ", "xy", ".,", ";", "()", "!?", "0", "19", "%", "#", "#0", "\n"]
ODDITIES = ["{", "}", "{}", "{\\TeX}", "\\TeX", "\\%", "\\{", "\\"]
ARGUMENTS = ["{uv}", " {w}", "x", " y", "{u%v}", "\\TeX", "#1", "#2", "{\\a}", "{\\b{z}}"]
CALLS = ["\\" + name for name in NAMES]
texts = token_text(LITERALS + ODDITIES + ARGUMENTS + ["#9"] + CALLS * 3, 12)


def bodies(index, num_params):
    """``(num_params, body)`` for ``NAMES[index]``: a body calls only names after its own."""
    tokens = LITERALS + ODDITIES + ARGUMENTS + CALLS[index + 1 :] * 3
    if num_params:  # markers make about a quarter of the tokens
        markers = [f"#{k}" for k in range(1, num_params + 1)]
        tokens += markers * max(1, len(tokens) // (3 * num_params))
    return st.tuples(st.just(num_params), token_text(tokens, 7))


def table(definitions) -> MacroTable:
    return {
        name: MacroDef(name, num_params, body, macros._template(body))
        for name, (num_params, body) in zip(NAMES, definitions)
    }


# Every name defined, with 0, 1, 2, 3 or 9 parameters, the first two twice as often.
COUNTS = (0, 0, 1, 1, 2, 3, 9)
macro_tables = st.tuples(
    *(st.one_of(*(bodies(index, n) for n in COUNTS)) for index in range(len(NAMES)))
).map(table)
depths = st.one_of(st.just(MAX_EXPANSION_DEPTH), st.integers(min_value=0, max_value=5))


@given(macro_tables, st.tuples(texts, st.sampled_from(CALLS), texts).map("".join), depths)
@settings(max_examples=600, deadline=None)
def test_engine_matches_the_reference_wherever_it_succeeds(defs, text, max_depth):
    with mock.patch.object(macros, "MAX_EXPANSION_DEPTH", max_depth), mock.patch.object(
        spec, "MAX_EXPANSION_DEPTH", max_depth
    ):
        expected = outcome(spec.expand_macros, spec_macros(defs), text)
        assert outcome(expand_macros, defs, text) == expected


# --- shared behaviour of labels and bodies -------------------------------


def run_bbl(content):
    return process_bbl(content, source="t.bbl")


# \wrap is defined first, so its body keeps the call of \pair unexpanded.
WRAP = "\\newcommand{\\wrap}{\\pair{x}}\n\\newcommand{\\pair}[2]{(#1,#2)}\n"


def wrap(items):
    return f"\\begin{{thebibliography}}{{9}}\n{items}\n\\end{{thebibliography}}\n"


def first_item(text):
    """The rendering of a bibliography whose one item is numbered 1 and reads ``text``."""
    return [Span(Style.PLAIN, f"[1] {text}\n")]


def test_argument_past_a_replacement_in_a_body():
    bibliography = run_bbl(WRAP + wrap("\\bibitem{k}\n\\wrap{y}"))
    assert bibliography.rendered.spans == first_item("(x,y)")


def test_argument_past_a_replacement_in_a_label():
    bibliography = run_bbl(WRAP + wrap("\\bibitem[\\wrap{y}]{k}\nB."))
    assert bibliography.items[0].label == "(x,y)"


def chain_names(length):
    """Letter-only names; the macro named ``names[n]`` calls ``names[n - 1]``."""
    return ["c" + "".join(string.ascii_letters[int(d)] for d in str(n)) for n in range(length)]


def chain(length):
    """Definitions of a chain of ``length`` macros, outermost first.

    Each is defined before the one it calls, so definition-time expansion
    leaves the call in place and using the outermost takes ``length``
    nested expansions.  Returns the definitions and the outermost name.
    """
    names = chain_names(length)
    lines = [
        f"\\newcommand{{\\{names[n]}}}{{\\{names[n - 1]}}}\n" for n in range(length - 1, 0, -1)
    ]
    lines.append(f"\\newcommand{{\\{names[0]}}}{{leaf}}\n")
    return "".join(lines), names[-1]


@pytest.mark.parametrize("where", ["body", "label"])
def test_depth_cap_allows_exactly_max_nested_expansions(where):
    for length in (MAX_EXPANSION_DEPTH, MAX_EXPANSION_DEPTH + 1):
        defs, top = chain(length)
        line = defs.count("\n") + 2
        item = f"\\bibitem{{k}}\n\\{top}" if where == "body" else f"\\bibitem[\\{top}]{{k}}\nB."
        content = defs + wrap(item)
        if length == MAX_EXPANSION_DEPTH:
            bibliography = run_bbl(content)
            if where == "body":
                assert bibliography.rendered.spans == first_item("leaf")
            else:
                assert bibliography.items[0].label == "leaf"
        else:
            with pytest.raises(MacroRecursionError) as info:
                run_bbl(content)
            assert info.value.depth == MAX_EXPANSION_DEPTH
            at = line + 1 if where == "body" else line
            assert str(info.value).startswith(f"t.bbl:{at}: expansion of \\c")


def test_string_expansion_depth_matches():
    for length in (MAX_EXPANSION_DEPTH, MAX_EXPANSION_DEPTH + 1):
        names = chain_names(length)
        defs = {names[0]: MacroDef(names[0], 0, "leaf", macros._template("leaf"))}
        for prev, name in zip(names, names[1:]):
            defs[name] = MacroDef(name, 0, "\\" + prev, macros._template("\\" + prev))
        if length == MAX_EXPANSION_DEPTH:
            assert expand_macros(defs, "\\" + names[-1]) == "leaf"
        else:
            with pytest.raises(MacroRecursionError):
                expand_macros(defs, "\\" + names[-1])


def test_label_errors_carry_their_location():
    content = (
        "\\newcommand{\\p}[1]{#1}\n"
        "\\begin{thebibliography}{9}\n"
        "\\bibitem[\\p]{k}\nB.\n"
        "\\end{thebibliography}\n"
    )
    with pytest.raises(MacroError, match=r"^t\.bbl:3: missing argument for \\p$"):
        run_bbl(content)


def test_widest_label_errors_carry_their_location():
    content = "\\newcommand{\\p}[1]{#1}\n\\begin{thebibliography}{\\p}\n"
    with pytest.raises(MacroError, match=r"^t\.bbl:2: missing argument for \\p$"):
        run_bbl(content)


def test_body_errors_carry_their_location():
    content = (
        "\\newcommand{\\f}[1]{#2}\n"
        "\\begin{thebibliography}{9}\n"
        "\\bibitem{k}\n\\f{x}\n"
        "\\end{thebibliography}\n"
    )
    with pytest.raises(MacroError, match=r"^t\.bbl:4: parameter #2 used but only 1"):
        run_bbl(content)


def test_recursion_in_a_body_carries_its_location():
    content = "\\newcommand{\\cycle}{\\cycle}\n" + wrap("\\bibitem{k}\n\\cycle")
    message = r"^t\.bbl:4: expansion of \\cycle exceeded depth 256$"
    with pytest.raises(MacroRecursionError, match=message):
        run_bbl(content)


def test_non_ascii_digit_after_hash_is_literal_text():
    assert macros.substitute_params(macros._template("#²x#1"), ["a"]) == "#²xa"
    defs = {"p": MacroDef("p", 1, "[#1]", macros._template("[#1]"))}
    assert expand_macros(defs, "\\p#²") == "[#]²"
    bibliography = run_bbl("\\newcommand{\\q}[1]{#1#²}\n" + wrap("\\bibitem{k}\n\\q{a}"))
    assert bibliography.rendered.spans == first_item("a#²")


def test_percent_is_literal_in_scanned_text():
    defs = {"p": MacroDef("p", 1, "<#1>", macros._template("<#1>"))}
    assert expand_macros(defs, "50% \\p{a%b} \\p%") == "50% <a%b> <%>"


# --- Expansion.arguments against the spec's argument reader ---------------


def read_arguments(texts: list[str], comments: bool, num_params: int):
    """The arguments (or error) the package and the spec read from ``texts``.

    ``texts[0]`` is the text at the bottom, the rest replacements above
    it.  After a reading, each text's cursor and line is shown too.
    """
    expansion = Expansion(CharStream(texts[0], line=5, comments=comments))
    frames = [spec.Frame(texts[0], 5, comments)]
    for line, text in enumerate(texts[1:], start=7):
        expansion.streams.append(CharStream(text, line=line, comments=False))
        frames.append(spec.Frame(text, line, False))
    macro = MacroDef("lab", num_params, "", macros._template(""))
    actual = outcome(expansion.arguments, macro)
    expected = outcome(spec.macro_arguments, frames, "lab", num_params)
    if expected[0] == "ok":
        actual += ([(stream.position, stream.line) for stream in expansion.streams],)
        expected += ([(frame.position, frame.line) for frame in frames],)
    return actual, expected


argument_text = token_text(
    ["[", "]", "{", "}", "\\", "%", "#", "#1", "\n", " ", "\t", "é", "\\lab", "a"]
    + ["{a}", "{Qus}", " {27}", "\n{c}", "{u%v}"],  # groups, plain and not
    10,
)


@given(
    st.lists(argument_text, min_size=1, max_size=3),
    st.booleans(),
    st.integers(min_value=0, max_value=9),
)
@settings(max_examples=1000)
def test_arguments_read_like_the_general_path(texts, comments, num_params):
    actual, expected = read_arguments(texts, comments, num_params)
    assert actual == expected


LAB = "\\newcommand{\\lab}[3]{#1#3#2}\n"


def rendered_item(definitions, item):
    return run_bbl(definitions + wrap("\\bibitem{k}\n" + item)).rendered.spans


def test_arguments_split_across_streams():
    # \two is defined first, so its body keeps the call of \lab: two
    # arguments come from the replacement and the third from below it.
    two = "\\newcommand{\\two}{\\lab{a}{b}}\n"
    assert rendered_item(two + LAB, "\\two{c}") == first_item("acb")
    defs = {
        "two": MacroDef("two", 0, "\\lab{a}{b}", macros._template("\\lab{a}{b}")),
        "lab": MacroDef("lab", 3, "#1#3#2", macros._template("#1#3#2")),
    }
    assert expand_macros(defs, "\\two{c}") == "acb"


def test_comment_between_arguments():
    assert rendered_item(LAB, "\\lab{a}%\n{b}{c}") == first_item("acb")
    stream = CharStream("\\lab{a}%\n{b}{c} rest")
    stream.take_to(4)
    expansion = Expansion(stream)
    assert expansion.arguments(MacroDef("lab", 3, "", macros._template(""))) == ["a", "b", "c"]
    assert stream.line == 2
    assert stream.content[stream.position :] == " rest"
    notes = []
    item = "\\bibitem{k}\n\\lab{a}%\n{b}{c}\n\\odd"
    process_bbl(LAB + wrap(item), lint=notes.append, source="t.bbl")
    assert notes == ["t.bbl:6: unknown command `\\odd' passed through"]


def test_parameter_argument_in_a_body_takes_the_general_path():
    # A body is expanded when it is defined, with its own #n markers as
    # arguments; plain groups before and after one still read right.
    definitions = LAB + "\\newcommand{\\wrap}[1]{\\lab{x}#1{y}}\n"
    bibliography = run_bbl(definitions + wrap("\\bibitem{k}\n\\wrap{Q}"))
    assert bibliography.rendered.spans == first_item("xyQ")
    defs = {"lab": MacroDef("lab", 3, "#1#3#2", macros._template("#1#3#2"))}
    assert expand_macros(defs, "\\lab#1{x}{y}") == "#1yx"


# --- one expansion budget per bbl ----------------------------------------

# A few times the budget: what one bbl may make the engine hold at once.
PEAK_BOUND = 4 * MAX_EXPANSION_CHARS


def doubling(levels):
    """Definitions whose line ``k`` stores and queues 2**k characters."""
    names = string.ascii_letters[:levels]
    lines = ["\\newcommand\\a{xx}\n"]
    lines += [f"\\newcommand\\{name}{{\\{last}\\{last}}}\n" for last, name in zip(names, names[1:])]
    return "".join(lines), names


def peak_and_error(content):
    """The tracemalloc peak, in bytes, of reading ``content``, and its error."""
    error = None
    tracemalloc.start()
    try:
        run_bbl(content)
    except MacroError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


def test_definition_bodies_share_one_budget():
    # Each definition alone queues at most the cap, but together they
    # would store five more bodies of 4 Mi characters.
    defs, names = doubling(22)
    content = defs + "".join(f"\\newcommand\\czz{name}{{y\\v}}\n" for name in "abcde")
    peak, error = peak_and_error(content)
    assert peak < PEAK_BOUND
    assert str(error) == f"t.bbl:22: expansion of \\u exceeded {MAX_EXPANSION_CHARS} characters"


def test_walk_and_labels_share_the_budget():
    # \t stores 2**20 characters; the definitions queued 2**21 - 4.
    defs, names = doubling(20)
    assert names[-1] == "t"
    content = defs + wrap("\\bibitem[\\t]{k}\n\\t\n\\bibitem[\\t]{j}\nB.")
    with pytest.raises(MacroError) as info:
        run_bbl(content)
    assert str(info.value) == f"t.bbl:24: expansion of \\t exceeded {MAX_EXPANSION_CHARS} characters"


def test_substitution_past_the_budget_is_refused_before_it_is_built():
    # \z holds \w{<64 Ki characters>}, and \w repeats its argument 400 times.
    defs, names = doubling(16)
    content = defs + (
        f"\\newcommand\\z{{\\w{{\\{names[-1]}}}}}\n"
        "\\newcommand\\w[1]{" + "#1" * 400 + "}\n"
        "\\z\n"
    )
    peak, error = peak_and_error(content)
    assert peak < PEAK_BOUND
    assert str(error) == f"t.bbl:19: replacement text exceeded {MAX_EXPANSION_CHARS} characters"
