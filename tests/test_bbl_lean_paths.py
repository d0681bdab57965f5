"""The cheaper bbl paths against verbatim copies of the code they replaced.

Two paths are checked, each against a copy of the former code:

* the bibliography's rendering, which :func:`process_bbl` now writes
  into one fragment as it reads the bbl, against the former per-block
  builder and the former render that appended each block to a
  :class:`RenderedFragment`; the bbl is written from generated items,
  so the events each former block took are known, and the spans must
  be equal, styles and boundaries included;
* :func:`substitute_params` on the template :func:`define_newcommand`
  keeps, against the former substitution that split the body at each
  call; the value or the error text must match.

:func:`expand_macros` reads every replacement from a stream, an
escape-free one included, so its caps are checked directly: the value
or the error text at the depth and budget caps, and the budget's total
afterwards.
"""

import re
import string
from typing import NamedTuple, Optional, Union
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from citeforge.rendering import STYLE_SWITCHES, RenderedFragment, Span, Style

# --- the render ---------------------------------------------------------


# bbl._BlockBuilder as it was, verbatim: one body block.
class _BlockBuilder:
    """Accumulates one body block, normalizing whitespace as it goes.

    It takes word runs and blank runs whole.  A blank run becomes a
    single space, and leading and trailing blanks disappear.  A space
    keeps the style in force where it occurred, the way a space token
    is set in the current font, so the gap before ``{\\em ...}`` stays
    plain.
    """

    __slots__ = ("fragment", "_pending_space")

    def __init__(self) -> None:
        self.fragment = RenderedFragment()
        # The style of the space before the next word: None for no space,
        # and False until the first word, since leading blanks vanish.
        self._pending_space: Union[Style, None, bool] = False

    def word(self, text: str, style: Style) -> None:
        pending = self._pending_space
        if pending is style:
            text = " " + text
        elif pending:
            self.fragment.append(pending, " ")
        self._pending_space = None
        self.fragment.append(style, text)

    def space(self, style: Style) -> None:
        if self._pending_space is None:
            self._pending_space = style

    def finish(self) -> Optional[RenderedFragment]:
        return None if self._pending_space is False else self.fragment


class ReferenceItem(NamedTuple):
    label: str
    body: list[RenderedFragment]


class ReferenceBibliography(NamedTuple):
    items: list[ReferenceItem]


# driver._render_bibliography as it was first, verbatim.
def reference_render(bibliography: ReferenceBibliography) -> RenderedFragment:
    fragment = RenderedFragment()
    for item in bibliography.items:
        fragment.append(Style.PLAIN, f"[{item.label}] ")
        for index, block in enumerate(item.body):
            if index:
                fragment.append(Style.PLAIN, " ")
            fragment.extend(block)
        fragment.append(Style.PLAIN, "\n")
    return fragment


_RUNS = re.compile(r"[ \n]+|[^ \n]+")


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


def reference_of(entries) -> RenderedFragment:
    """The former blocks and render of ``bbl_of(entries)``."""
    items, counter = [], 0
    for label, blocks in entries:
        if not label:
            counter += 1
            label = str(counter)
        body = []
        for index, pieces in enumerate(blocks):
            block = _BlockBuilder()
            for switch, text in pieces:
                for run in _RUNS.findall(text):
                    if run.isspace():
                        block.space(STYLE_SWITCHES[switch])
                    else:
                        block.word(run, STYLE_SWITCHES[switch])
            if index == len(blocks) - 1:
                block.space(Style.PLAIN)  # the line break that ends the item
            finished = block.finish()
            if finished is not None:
                body.append(finished)
        items.append(ReferenceItem(label, body))
    return reference_render(ReferenceBibliography(items))


piece = st.tuples(
    st.sampled_from(sorted(STYLE_SWITCHES)),
    st.sampled_from(["", " ", "a", "b c", "\n", " d ", "e  f", "g. "]),
)
entries = st.lists(
    st.tuples(
        st.sampled_from(["", "1", "Ab12", " "]),
        st.lists(st.lists(piece, max_size=5), max_size=4),
    ),
    max_size=8,
)


@given(entries)
@settings(max_examples=1000)
def test_render_matches_the_reference(entries):
    spans = process_bbl(bbl_of(entries)).rendered.spans
    assert spans == reference_of(entries).spans
    assert all(type(span) is Span for span in spans)


def test_render_keeps_styled_edges_and_empty_items():
    em, sc, rm = ("em", "Title"), ("sc", "Doe"), ("rm", ", 2001.")
    entries = [("A", []), ("B", [[em], [sc, rm], [em]]), ("C", [[], [("tt", " ")], [em]])]
    rendered = process_bbl(bbl_of(entries)).rendered
    assert rendered == reference_of(entries)
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

_PARAMETER = re.compile("#([0-9])")


# macros.substitute_params as it was, verbatim.
def reference_substitute(body: str, args: list[str]) -> str:
    # Text and marker digits alternate: text, digit, text, ..., text.
    pieces = _PARAMETER.split(body)
    for i in range(1, len(pieces), 2):
        index = int(pieces[i])
        if index < 1 or index > len(args):
            raise MacroError(
                f"parameter #{index} used but only {len(args)} argument(s) supplied"
            )
        pieces[i] = args[index - 1]
    if sum(map(len, pieces)) > MAX_EXPANSION_CHARS:
        raise MacroError(f"replacement text exceeded {MAX_EXPANSION_CHARS} characters")
    return "".join(pieces)


def outcome(call, *args):
    try:
        return ("ok", call(*args))
    except CiteforgeError as exc:
        return (type(exc), str(exc))


body_text = st.lists(
    st.sampled_from(["#0", "#1", "#2", "#3", "#9", "#", "#²", "##1", "a", " ", "{\\em x}", "é"]),
    max_size=8,
).map("".join)


@given(body_text, st.lists(st.sampled_from(["", "x", "#1", "long arg"]), max_size=4))
@settings(max_examples=1000)
def test_substitution_matches_the_reference(body, args):
    template = define_newcommand({}, "m", "", body).template
    assert outcome(substitute_params, template, args) == outcome(reference_substitute, body, args)


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
