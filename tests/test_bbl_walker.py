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
is one token of the walker.  The last test walks bbls of that shape and
its near misses once with the scanner's patterns and once with the same
patterns less the styled-group branch, and requires equal results.
"""

from __future__ import annotations

import re
from unittest import mock

import pytest
from differential import package_bbl, spec_bbl, token_text
from hypothesis import given, settings
from hypothesis import strategies as st
from test_outputs_pinned import load_corpus

from citeforge import bbl, scanner
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
    "\\newcommand{}{nameless}",
    "\\newcommand{\\zr}{\\zr}",
)
STRUCTURE = (
    "\\begin{thebibliography}{99}",
    "\\begin{thebibliography}{\\za}",
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


@pytest.mark.parametrize("workload", ["big-bib", "paper-cli"])
def test_benchmark_bibliographies_render_identically(workload):
    content = load_corpus().generate(workload, 1701, 0.25).bbl
    expected, actual = both(content)
    assert expected[0][0] == "ok"
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


# --- the styled-group token against the four tokens it stands for ---------


def token_patterns(template: str) -> tuple[re.Pattern[str], re.Pattern[str]]:
    """``template`` compiled as the scanner compiles TOKEN and TEXT_TOKEN."""
    return (
        re.compile(template % {"stops": r"\\{}%", "filler": scanner._FILLER.pattern}, re.DOTALL),
        re.compile(template % {"stops": r"\\{}", "filler": scanner._BLANKS.pattern}, re.DOTALL),
    )


FOUR_TOKEN, FOUR_TEXT_TOKEN = token_patterns(scanner._TOKEN.replace("|" + scanner._STYLED, ""))


def test_four_token_patterns_differ_from_the_scanners_by_the_styled_branch_only():
    assert FOUR_TOKEN.pattern != scanner.TOKEN.pattern
    assert [pattern.pattern for pattern in token_patterns(scanner._TOKEN)] == [
        scanner.TOKEN.pattern,
        scanner.TEXT_TOKEN.pattern,
    ]


def walk_result(content: str):
    lint: list[str] = []
    try:
        bibliography = bbl.process_bbl(content, lint=lint.append, source="refs.bbl")
    except Exception as exc:  # the four-token walk decides which errors are expected
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return bibliography.items, bibliography.layout, bibliography.rendered.spans, lint


# Shapes the styled token reads, and near misses that must stay four tokens:
# another control word, no word, double blanks, a line break, a comment,
# an escape, a nested brace, a blank before the close, no close.
STYLED_SHAPES = (
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
    "\\zs{a}",
    "\\zs{b c}",
    "\\zt",
    "\\bibitem{k}",
    "\\newblock ",
    "word",
    " ",
    "\n",
    "{",
    "}",
)
STYLED_PREFIXES = (
    "",
    "\\newcommand{\\zs}[1]{{\\sc #1}}\\newcommand{\\zt}{{\\em x}{\\tt a  b}}\n",
    "\\newcommand{\\zs}[1]{{\\sc #1}}\\newcommand{\\zt}{{\\em x}{\\tt a  b}}\n"
    "\\begin{thebibliography}{9}\n",
    "\\newcommand{\\zs}[1]{{\\sc #1}}\\newcommand{\\zt}{{\\em x}{\\tt a  b}}\n"
    "\\begin{thebibliography}{9}\n\\bibitem{a} ",
)


@given(st.sampled_from(STYLED_PREFIXES), token_text(STYLED_SHAPES, 12))
@settings(max_examples=600, deadline=None)
def test_styled_group_token_walks_like_its_four_tokens(prefix, shapes):
    content = prefix + shapes
    with mock.patch.object(bbl, "TOKEN", FOUR_TOKEN), mock.patch.object(
        bbl, "TEXT_TOKEN", FOUR_TEXT_TOKEN
    ):
        expected = walk_result(content)
    assert walk_result(content) == expected
