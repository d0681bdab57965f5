"""The token walker in ``process_bbl`` against the spec's character walk.

``tests/spec.py`` walks a bbl one character at a time, through its own
scanner and macro engine.  Wherever the spec's walk succeeds, the
walker must build the same items (each with its key, label, alpha
shape, alignment and the line its ``\\bibitem`` was given), the same
layout (as the report shows it), the same lint and the same spans,
styles and boundaries included; wherever it raises, the walker must
raise the same error, with the same message and location.

The hypothesis examples are too small for the writer to join its
chunks as it goes, so a bbl of 300 items, styles alternating inside
each, is walked by both, and its rendering is then extended by itself.

A group that is a style switch and one word run, ``{\\sc Proceedings}``,
is one token of the walker, so the alphabet holds that shape and its
near misses: another control word, no word, double blanks, a line
break, a comment, an escape, a nested brace, a blank before the close
and no close.
"""

from __future__ import annotations

from unittest import mock

import pytest
from differential import package_bbl, spec_bbl, token_text
from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import bbl
from citeforge.rendering import RenderedFragment, Style, render_annotated, render_plain


def both(content: str):
    """The spec's walk of ``content`` and the walker's."""
    return spec_bbl(content, "refs.bbl"), package_bbl(content, "refs.bbl")


# --- generated bbls ----------------------------------------------------------

DEFINITIONS = (
    "\\newcommand{\\za}{Zed}",
    "\\newcommand{\\zb}[1]{<#1>}",
    "\\newcommand{\\zc}[2]{#2 and #1}",
    "\\newcommand\\zd[3]{#1#3#2}",
    "\\newcommand{\\zi}{\\bibitem{zk}}",
    "\\newcommand{\\zj}[1]{\\bibitem[#1]{zt} }",
    "\\newcommand{\\zn}{ \\newblock }",
    "\\newcommand{\\zs}[1]{{\\sc #1} }",
    "\\newcommand{\\gob}[1]{}",
    "\\newcommand{\\zid}[1]{#1}",
    "\\newcommand\\ {sp}",
    "\\newcommand{\\em}{shadowed}",
    "\\newcommand{\\zz}[x]{bad}",
    "\\newcommand{\\zz}[10]{bad}",
    # More digits than int() reads: a count of 1, and one far too large.
    "\\newcommand{\\zb}[" + "0" * 4300 + "1]{<#1>}",
    "\\newcommand{\\zz}[" + "9" * 4301 + "]{bad}",
    "\\newcommand{}{nameless}",
    "\\newcommand{\\zr}{\\zr}",
    "\\newcommand{\\zt}{{\\em x}{\\tt a  b}}",
)
STRUCTURE = (
    "\\begin{thebibliography}{99}",
    "\\begin{thebibliography}{\\za}",
    "\\begin{thebibliography}{é9}",
    "\\end{thebibliography}",
    "\\bibitem{k1}",
    "\\bibitem{k2} ",
    "\\bibitem[T]{k3}",
    "\\bibitem[]{k4}",
    "\\bibitem[ ]{k6}",
    "\\bibitem [\\zd{a}{b}{c}] {k5}",
    "\\bibitem[x\n",
    "\\bibitem",
    "\\newblock",
    "\\newblock ",
)
STYLE = (
    "\\em",
    "\\em ",
    "\\sc",
    "\\tt ",
    "\\rm",
    "\\it",
    "{",
    "}",
    "{\\em ",
    "{\\sc x}",
    "{\\tt 50% two}",
    "{\\rm\tx}",
    "{\\em{} a}",
    "{\\tt{}\n}",
    "\\em% c\n ",
    "{\\em x}",
    "{\\it two words}",
    "{\\sc\tx.}",
    "{\\tt 50%}",
    "{\\rm  a}",
    "{\\emph x}",
    "{\\em}",
    "{\\em x  y}",
    "{\\em\nx}",
    "{\\em x\ny}",
    "{\\em x%c\n}",
    "{\\em x\\y}",
    "{\\em x\\ y}",
    "{\\em {x}}",
    "{\\em x }",
    "{\\sc x",
    "\\{\\em x}",
)
TEXT = (
    "word",
    "two words",
    "x]y",
    "#1",
    "#",
    "[",
    " ",
    "  ",
    "\n",
    "\r\n",
    "\t",
    "\f\v",
    "\n\n  ",
    "% a comment\n",
    "%",
    "50\\%",
    "\\ ",
    "\\\n",
    "\\\t",
    "\\unknown",
    "\\foo{x}",
    "\\",
    "\\za",
    "\\zb{arg}",
    "\\zb x",
    "\\zc{1}{2}",
    "\\zd a{b}c",
    "\\zi",
    "\\zj{J}",
    "\\zn",
    "\\zs{S}",
    "\\zs{b c}",
    "\\zt",
    "\\gob{gone}",
    "\\zid",
    "\\zid\\",
    "\\zr",
)
ALPHABET = DEFINITIONS + STRUCTURE + STYLE + TEXT
PREFIXES = (
    "",
    "\\begin{thebibliography}{99}\n\\bibitem{a} ",
    "\\newcommand{\\zb}[1]{<#1>}\\newcommand\\zd[3]{#1#3#2}\\newcommand{\\zid}[1]{#1}\n"
    "\\newcommand{\\zi}{\\bibitem{zk}}\\newcommand{\\zn}{ \\newblock }\n"
    "\\begin{thebibliography}{99}\n\\bibitem[L]{a}\n",
)
BBLS = st.tuples(st.sampled_from(PREFIXES), token_text(ALPHABET, 40)).map("".join)


@given(BBLS)
@settings(max_examples=600, deadline=None)
def test_walker_matches_the_reference(content):
    expected, actual = both(content)
    assert actual == expected


@pytest.mark.parametrize(
    "content",
    [
        "",
        "\\",
        "\\begin{thebibliography}{9}\\bibitem{a}\\zid\\",
        "\\newcommand{\\zid}[1]{#1}\\begin{thebibliography}{9}\\bibitem{a} x\\zid\\",
        "\\begin{thebibliography}{9}\n\n  stray text",
        "lead\n  text \\begin{thebibliography}{9}\\bibitem{a}A\\end{thebibliography} tail",
        "\\begin{thebibliography}{9}\\bibitem{a} A  \\em B\n\n{\\sc C} \\newblock  D\\ E\\\nF}",
        "\\begin{thebibliography}{9}\\bibitem{a} {\\em x } y \\unknown\t z %c\nw",
    ],
)
def test_walker_matches_the_reference_on_edge_cases(content):
    expected, actual = both(content)
    assert actual == expected


def long_bbl(items: int) -> str:
    """A bbl whose items alternate styles inside them; the eighth is opened by a macro."""
    body = "".join(
        f"\\bibitem{{k{i}}} A. Author{i} and {{\\em Title {i}}} in {{\\sc Proc}}\n"
        f"\\newblock {{\\tt {i}}} more  {{\\em x}}\\em y {{\\rm z}} w.\n"
        if i != 7
        else "\\zi A {\\tt b} c.\n"
        for i in range(items)
    )
    return (
        "\\newcommand{\\zi}{\\bibitem{zk}}\n"
        f"\\begin{{thebibliography}}{{99}}\n{body}\\end{{thebibliography}}\n"
    )


def test_a_walk_past_the_writers_chunk_joins_matches_the_reference():
    content = long_bbl(300)
    joins = []
    join = bbl._Writer.join

    def counting(self, start=0):
        joins.append(start)
        join(self, start)

    with mock.patch.object(bbl._Writer, "join", counting):
        expected, actual = both(content)
    assert expected[0][0] == "ok"
    assert actual == expected
    assert len(joins) > 10 and joins[-1] == 0  # joined as it went, and at the end
    items, _, spans = expected[0][1]
    assert ("zk", "8") in [item[:2] for item in items]  # the item the macro opened
    text = "".join(span_text for _, span_text in spans)
    rendered = bbl.process_bbl(content).rendered
    reference = RenderedFragment()
    for style, span_text in spans:
        reference.append(Style(style), span_text)
    assert render_plain(rendered) == text
    assert render_annotated(rendered) == render_annotated(reference)
    rendered.extend(rendered)
    reference.extend(reference)
    assert rendered.spans == reference.spans
    assert len(rendered.spans) == 2 * len(spans) - 1  # the plain seam merges
    assert render_plain(rendered) == 2 * text
