"""The cheaper bbl paths: the rendering the walk writes, and the caps.

:func:`process_bbl` writes the bibliography into one fragment as it
reads the bbl; a bbl written from items, blocks and styled pieces must
render as the spec renders it, styles and boundaries included.  The
walker's spec differential in ``tests/test_bbl_walker.py`` generates
such bbls too, and ``tests/test_macro_engine.py`` checks substitution
into a definition's template against the spec.

:func:`expand_macros` reads every replacement from a stream, an
escape-free one included, so its caps are checked directly: the value
or the error text at the depth and budget caps, and the budget's total
afterwards.
"""

import string
from unittest import mock

import pytest
import spec
from differential import spans_of

from citeforge import macros
from citeforge.bbl import process_bbl
from citeforge.errors import CiteforgeError, MacroError, MacroRecursionError
from citeforge.macros import (
    MAX_EXPANSION_CHARS,
    MAX_EXPANSION_DEPTH,
    ExpansionBudget,
    MacroDef,
    define_newcommand,
    expand_macros,
    substitute_params,
)
from citeforge.rendering import RenderedFragment, Span, Style

# --- the render ---------------------------------------------------------


def write_piece(switch: str, text: str) -> str:
    """One group, ``{\\sw text}``, or ``{\\sw{}text}`` when ``text`` starts blank.

    The brace pair keeps the switch from skipping the blanks; a word run
    with no blank at its edges and no double blank is one token.
    """
    if text[:1] in ("", " ", "\n"):
        return f"{{\\{switch}{{}}{text}}}"
    return f"{{\\{switch} {text}}}"


def bbl_of(entries) -> str:
    """A bbl whose items are ``entries``: (label, blocks), a block being pieces."""
    items = "".join(
        f"\\bibitem[{label}]{{k}}"
        + "\\newblock ".join("".join(write_piece(*piece) for piece in pieces) for pieces in blocks)
        + "\n"
        for label, blocks in entries
    )
    return f"\\begin{{thebibliography}}{{9}}\n{items}\\end{{thebibliography}}\n"


def test_render_keeps_styled_edges_and_empty_items():
    em, sc, rm = ("em", "Title"), ("sc", "Doe"), ("rm", ", 2001.")
    entries = [("A", []), ("B", [[em], [sc, rm], [em]]), ("C", [[], [("tt", " ")], [em]])]
    rendered = process_bbl(bbl_of(entries)).rendered
    assert spans_of(rendered) == spec.process_bbl(bbl_of(entries)).spans
    assert rendered.spans == [
        Span(Style.PLAIN, "[A] \n[B] "),
        Span(Style.EMPHASIS, "Title"),
        Span(Style.PLAIN, " "),
        Span(Style.SMALLCAPS, "Doe"),
        Span(Style.PLAIN, ", 2001. "),
        Span(Style.EMPHASIS, "Title"),
        Span(Style.PLAIN, "\n[C] "),
        Span(Style.EMPHASIS, "Title"),
        Span(Style.PLAIN, "\n"),
    ]
    assert all(type(span) is Span for span in rendered.spans)


def test_render_of_no_items_is_empty():
    assert process_bbl("").rendered.spans == []
    assert process_bbl(bbl_of([])).rendered.spans == []


def test_one_walk_makes_one_fragment():
    made = []
    make = RenderedFragment.__init__

    def counting(self):
        made.append(self)
        make(self)

    entries = [("", [[("em", "a")], [("rm", "b c")]]), ("L", [[("sc", "d")], [], [("tt", "e")]])]
    with mock.patch.object(RenderedFragment, "__init__", counting):
        bibliography = process_bbl(bbl_of(entries))
    assert len(made) == 1
    assert made[0] is bibliography.rendered


# --- substitution -------------------------------------------------------


def outcome(call, *args):
    try:
        return ("ok", call(*args))
    except CiteforgeError as exc:
        return (type(exc), str(exc))


def test_a_body_with_no_marker_comes_back_as_it_is():
    body = "{\\sc Doe} and # and #²"
    template = define_newcommand({}, "m", "", body).template
    assert template == (body,)
    assert substitute_params(template, []) is template[0]
    assert substitute_params(template, ["unused"]) == body


def test_a_long_body_with_no_marker_is_refused():
    body = "x" * (MAX_EXPANSION_CHARS + 1)
    with pytest.raises(MacroError, match=f"^replacement text exceeded {MAX_EXPANSION_CHARS}"):
        substitute_params((body,), [])


# --- expansion ----------------------------------------------------------


def expanded(defs, text, queued):
    budget = ExpansionBudget()
    budget.queued = queued
    return outcome(lambda: expand_macros(defs, text, budget=budget)), budget.queued


def chain(length, leaf):
    """Macros ``m0`` .. ``m<length - 1>``: each calls the one before, and ``m0`` is ``leaf``."""
    names = ["m" + "".join(string.ascii_letters[int(d)] for d in str(n)) for n in range(length)]
    defs = {names[0]: MacroDef(names[0], 0, leaf, macros._template(leaf))}
    for prev, name in zip(names, names[1:]):
        body = "\\" + prev
        defs[name] = MacroDef(name, 0, body, macros._template(body))
    return defs, "\\" + names[-1]


@pytest.mark.parametrize("length", [MAX_EXPANSION_DEPTH, MAX_EXPANSION_DEPTH + 1])
@pytest.mark.parametrize("leaf", ["leaf", "\\relax"])
def test_depth_cap_on_an_escape_free_leaf(length, leaf):
    defs, top = chain(length, leaf)
    queued = sum(len(macro.body) for macro in defs.values())
    if length == MAX_EXPANSION_DEPTH:
        assert expanded(defs, top, 0) == (("ok", leaf), queued)
    else:
        # The leaf's call is one nesting too many: refused before it is charged.
        refused = (MacroRecursionError, f"expansion of \\ma exceeded depth {MAX_EXPANSION_DEPTH}")
        assert expanded(defs, top, 0) == (refused, queued - len(leaf))


def test_budget_cap_on_an_escape_free_replacement():
    defs = {"p": MacroDef("p", 1, "#1#1", macros._template("#1#1"))}
    assert expanded(defs, "a\\p{xy}b", MAX_EXPANSION_CHARS - 4) == (
        ("ok", "axyxyb"),
        MAX_EXPANSION_CHARS,
    )
    assert expanded(defs, "a\\p{xy}b", MAX_EXPANSION_CHARS - 3) == (
        (MacroError, f"expansion of \\p exceeded {MAX_EXPANSION_CHARS} characters"),
        MAX_EXPANSION_CHARS + 1,
    )
