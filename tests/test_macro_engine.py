"""The one macro engine, against the string expander it replaced.

``_expand`` and its helpers below are the former string-recursive
expander, copied verbatim, as the reference.  Wherever it succeeds,
:func:`expand_macros` must return the same string.  The one place the
two may differ is an argument read past the end of a replacement: the
reference expands each replacement in isolation and fails there, the
engine reads on into the pending text, as the bbl reader always did.
The remaining tests pin the behaviour the two readers now share.
"""

import string
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import macros
from citeforge.bbl import process_bbl
from citeforge.errors import MacroError, MacroRecursionError
from citeforge.macros import (
    MAX_EXPANSION_CHARS,
    MAX_EXPANSION_DEPTH,
    MacroDef,
    MacroTable,
    expand_macros,
)
from citeforge.rendering import render_plain

_LETTERS = frozenset(string.ascii_letters)
_SPACES = " \t\r\n\f\v"


# --- reference: the former string expander, verbatim ---------------------


def _control_at(text: str, i: int) -> tuple[str, int]:
    """(name, length) of the control sequence starting at ``text[i]``."""
    j = i + 1
    if j >= len(text):
        return "", 1
    if text[j] not in _LETTERS:
        return text[j], 2
    k = j
    while k < len(text) and text[k] in _LETTERS:
        k += 1
    return text[j:k], k - i


def _scan_group(text: str, i: int, name: str) -> tuple[str, int]:
    # text[i] is "{"; returns content with outer braces stripped.
    depth = 0
    j = i
    while j < len(text):
        ch = text[j]
        if ch == "\\":
            j += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[i + 1 : j], j + 1
        j += 1
    raise MacroError(f"unbalanced braces in argument of \\{name}")


def _scan_argument(text: str, i: int, name: str) -> tuple[str, int]:
    while i < len(text) and text[i] in _SPACES:
        i += 1
    if i >= len(text):
        raise MacroError(f"missing argument for \\{name}")
    ch = text[i]
    if ch == "{":
        return _scan_group(text, i, name)
    if ch == "\\":
        _, length = _control_at(text, i)
        return text[i : i + length], i + length
    if ch == "#" and i + 1 < len(text) and text[i + 1].isdigit():
        return text[i : i + 2], i + 2
    return ch, i + 1


def substitute_params(body: str, args: list[str]) -> str:
    """Replace ``#1`` .. ``#9`` in ``body`` with the given arguments."""
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "#" and i + 1 < len(body) and body[i + 1].isdigit():
            index = int(body[i + 1])
            if index < 1 or index > len(args):
                raise MacroError(
                    f"parameter #{index} used but only {len(args)} argument(s) supplied"
                )
            out.append(args[index - 1])
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _expand(defs: MacroTable, text: str, depth: int, max_depth: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        name, length = _control_at(text, i)
        if name not in defs:
            out.append(text[i : i + length])
            i += length
            continue
        if depth >= max_depth:
            raise MacroRecursionError(name, max_depth)
        macro = defs[name]
        i += length
        args: list[str] = []
        for _ in range(macro.num_params):
            arg, i = _scan_argument(text, i, name)
            args.append(arg)
        replacement = substitute_params(macro.body, args)
        out.append(_expand(defs, replacement, depth + 1, max_depth))
    return "".join(out)


# --- the differential property -------------------------------------------

NAMES = ("a", "b", "pair", "gob", "wrap")

# ASCII text only: a marker such as "#²" crashes the reference (see
# test_non_ascii_digit_after_hash_is_literal_text for the new reading).
literal = st.text(alphabet="ab xy.,;()!?019%#\n", min_size=1, max_size=4)
oddity = st.sampled_from(["{", "}", "{}", "{\\TeX}", "\\TeX", "\\%", "\\{", "\\", "#"])
argument = st.sampled_from(
    ["{uv}", " {w}", "x", " y", "%", "{u%v}", "{}", "\\TeX", "#1", "#2", "{\\a}", "{\\b{z}}"]
)


def calls(names):
    return st.tuples(st.sampled_from(names), st.lists(argument, max_size=3)).map(
        lambda call: "\\" + call[0] + "".join(call[1])
    )


markers = st.sampled_from(["#1", "#2", "#9"])
texts = st.lists(
    st.one_of(literal, oddity, markers, calls(NAMES), calls(NAMES)), max_size=8
).map("".join)


@st.composite
def macro_tables(draw) -> MacroTable:
    """Every name defined; a body calls only names after its own."""
    defs = {}
    for index, name in enumerate(NAMES):
        num_params = draw(st.sampled_from([0, 0, 1, 1, 2, 3, 9]))
        options = [literal, literal, oddity]
        if index + 1 < len(NAMES):
            options.append(calls(NAMES[index + 1 :]))
        if num_params:
            options += [st.integers(min_value=1, max_value=num_params).map(lambda k: f"#{k}")] * 2
        body = "".join(draw(st.lists(st.one_of(*options), max_size=5)))
        defs[name] = MacroDef(name, num_params, body)
    return defs


depths = st.one_of(st.just(MAX_EXPANSION_DEPTH), st.integers(min_value=0, max_value=5))


@given(macro_tables(), st.tuples(texts, calls(NAMES), texts).map("".join), depths)
@settings(max_examples=600, deadline=None)
def test_engine_matches_the_reference_wherever_it_succeeds(defs, text, max_depth):
    try:
        expected = _expand(defs, text, 0, max_depth)
    except MacroError:
        return
    with mock.patch.object(macros, "MAX_EXPANSION_DEPTH", max_depth):
        assert expand_macros(defs, text) == expected


# --- shared behaviour of labels and bodies -------------------------------


def run_bbl(content):
    return process_bbl(content, source="t.bbl")


# \wrap is defined first, so its body keeps the call of \pair unexpanded.
WRAP = "\\newcommand{\\wrap}{\\pair{x}}\n\\newcommand{\\pair}[2]{(#1,#2)}\n"


def wrap(items):
    return f"\\begin{{thebibliography}}{{9}}\n{items}\n\\end{{thebibliography}}\n"


def test_argument_past_a_replacement_in_a_body():
    bibliography = run_bbl(WRAP + wrap("\\bibitem{k}\n\\wrap{y}"))
    assert render_plain(bibliography.items[0].body[0]) == "(x,y)"


def test_argument_past_a_replacement_in_a_label():
    bibliography = run_bbl(WRAP + wrap("\\bibitem[\\wrap{y}]{k}\nB."))
    assert bibliography.items[0].label == "(x,y)"
    defs = {"wrap": MacroDef("wrap", 0, "\\pair{x}"), "pair": MacroDef("pair", 2, "(#1,#2)")}
    with pytest.raises(MacroError, match="missing argument for \\\\pair"):
        _expand(defs, "\\wrap{y}", 0, MAX_EXPANSION_DEPTH)


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
            item = bibliography.items[0]
            assert (render_plain(item.body[0]) if where == "body" else item.label) == "leaf"
        else:
            with pytest.raises(MacroRecursionError) as info:
                run_bbl(content)
            assert info.value.depth == MAX_EXPANSION_DEPTH
            at = line + 1 if where == "body" else line
            assert str(info.value).startswith(f"t.bbl:{at}: expansion of \\c")


def test_string_expansion_depth_matches():
    for length in (MAX_EXPANSION_DEPTH, MAX_EXPANSION_DEPTH + 1):
        names = chain_names(length)
        defs = {names[0]: MacroDef(names[0], 0, "leaf")}
        for prev, name in zip(names, names[1:]):
            defs[name] = MacroDef(name, 0, "\\" + prev)
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
    assert macros.substitute_params("#²x#1", ["a"]) == "#²xa"
    defs = {"p": MacroDef("p", 1, "[#1]")}
    assert expand_macros(defs, "\\p#²") == "[#]²"
    bibliography = run_bbl("\\newcommand{\\q}[1]{#1#²}\n" + wrap("\\bibitem{k}\n\\q{a}"))
    assert render_plain(bibliography.items[0].body[0]) == "a#²"


def test_percent_is_literal_in_scanned_text():
    defs = {"p": MacroDef("p", 1, "<#1>")}
    assert expand_macros(defs, "50% \\p{a%b} \\p%") == "50% <a%b> <%>"


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
