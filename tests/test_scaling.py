"""Scaling gate: the loops a pass runs over its whole input stay linear.

Each check times one loop at input size ``n`` and at ``16 n``, taking
the minimum of three timings of each, and requires the larger input to
take less than 48 times as long.  Linear growth gives about 16x; the
other 3x absorbs timer noise and cache effects at these modest sizes,
while quadratic growth (about 256x, more than 200x measured for the
former same-style span merge) fails by a wide margin.  The argument
readers' fast paths are gated on their failure side too: an input that
the pattern reads to its end and then hands to the general path, such
as a ``\\cite`` whose long note fails the one-match pattern only at
its end.  The document scan is gated on the shapes its bounded searches
are for: one comment far after many cites, comments that each hide a
cite, names and percent signs an escape takes, and long runs of escapes.
The bibliography's rendering is gated on the shape that would
be quadratic if it grew its one span by concatenation: every item
plain.  It is gated too on one item whose words alternate styles, so
that every word closes a span, which must be joined once.  So is a run
of unclosed style groups, each read to its end by the styled-group
token before that token fails.
A refused substitution is gated on memory instead: it must be refused
before its text is built.  So is the bibliography's rendering: what it
retains per character of its text, and a pass's rendering: what it
retains per character of the document, whose text it does not copy.
"""

import gc
import tracemalloc
from time import perf_counter

import pytest

from citeforge import macros
from citeforge.auxfile import read_aux
from citeforge.bbl import process_bbl
from citeforge.driver import JobConfig, run_pass
from citeforge.errors import MacroError, ScanError
from citeforge.files import MemoryFiles
from citeforge.macros import (
    MAX_EXPANSION_CHARS,
    MacroDef,
    define_newcommand,
    expand_macros,
    substitute_params,
)
from citeforge.rendering import RenderedFragment, Span, Style, render_plain
from citeforge.scanner import CharStream, CommandInvocation, next_command, scan_optional_arg
from scanning import next_item

GROWTH = 16
MAX_TIME_RATIO = 48


def best_of_three(work, size: int) -> float:
    times = []
    for _ in range(3):
        gc.collect()
        start = perf_counter()
        work(size)
        times.append(perf_counter() - start)
    return min(times)


def time_ratio(work, size: int) -> float:
    return best_of_three(work, GROWTH * size) / best_of_three(work, size)


def append_same_style(count: int) -> None:
    fragment = RenderedFragment()
    for _ in range(count):
        fragment.append(Style.PLAIN, "words, ")
    assert len(fragment.spans) == 1


def scan_one_text_run(units: int) -> None:
    # No recognized command, so the whole input is one text run; the
    # unknown commands and comments in it still stop the text search.
    text = "Some prose \\emph{here} and 50% more % a comment\n" * units
    stream = CharStream(text)
    assert next_command(stream)[1] is None
    assert stream.at_end()


def scan_unknown_controls(units: int) -> None:
    # Unknown control words, control symbols and comments only: one text
    # run, in which every escape and comment is a stop of the search.
    text = "An \\emph{x} and \\ref{y}, 50\\% of \\textbf{z}. % a comment\n" * units
    stream = CharStream(text)
    assert next_item(stream) == text.replace(" % a comment\n", " ")
    assert stream.line == units + 1


def scan_cites_then_far_comment(count: int) -> None:
    # Plain cites, then about 64 characters of text per cite, then one
    # comment: a search for the comment that ran past the next cite
    # would read the whole tail once per cite.
    document = "\\cite{k} " * count + "Some words of prose, " * (3 * count) + "% a comment\n"
    stream = CharStream(document)
    cites = 0
    while stream.position < len(document):
        cites += next_command(stream)[1] is not None
    assert cites == count


def scan_comments_hiding_cites(count: int) -> None:
    # Every comment swallows the cite the name search found in it, so the
    # name search starts again after each comment, up to the one far cite.
    stream = CharStream("% \\cite{x}\n" * count + "\\cite{k}")
    assert next_command(stream) == ([], CommandInvocation("cite", "", "k", count + 1))


def scan_escaped_candidates(count: int) -> None:
    # Names and percent signs that an escape takes, in one text run.
    document = "\\\\cite{k} " * count + "100\\% " * count
    stream = CharStream(document)
    assert next_command(stream) == ([0, len(document)], None)


def scan_long_escape_runs(count: int) -> None:
    # A run of 50 escapes before each comment, which counts, and of 51
    # before each cite, which does not: one text run of many pieces.
    unit = "\\" * 50 + "% c\n" + "\\" * 51 + "\\cite{k} "
    stream = CharStream(unit * count)
    pieces, command = next_command(stream)
    assert len(pieces) == 2 * count + 2 and command is None


def pass_over_plain_cites(count: int) -> None:
    document = "Prose \\cite[p.~3]{a,b} more.\n" * count
    aux = b"\\@citedef{a}{1}\n\\@citedef{b}{2}\n"
    result = run_pass(JobConfig("doc"), document, MemoryFiles({"doc.aux": aux}))
    assert len(result.rendered.spans) == 1


def scan_cite_failing_at_the_end(units: int) -> None:
    # The note is plain up to its last character, an escape, so the
    # one-match pattern fails there and the general path reads it again.
    stream = CharStream("\\cite[" + "p.~3, " * units + "\\x]{a}")
    assert len(next_item(stream).optional) == 6 * units + 2


def read_many_records(count: int) -> None:
    content = b"".join(
        b"\\citation{k%d}\n\\@citedef{k%d}{%d}\n" % (i, i, i) for i in range(count)
    )
    labels = {}
    read_aux(labels, content)
    assert len(labels) == count


def read_escaped_records(count: int) -> None:
    # Escaped braces in every payload, so each record takes the scanner.
    content = b"".join(
        b"\\citation{k%d\\}}\n\\@citedef{k%d}{\\{%d}\n" % (i, i, i) for i in range(count)
    )
    labels = {}
    read_aux(labels, content)
    assert len(labels) == count


def read_plain_then_other_records(count: int) -> None:
    plain = b"".join(b"\\@citedef{k%d}{%d}\n" % (i, i) for i in range(count))
    other = b"".join(b"\\@citedef{e%d}{{\\em %d}}\n" % (i, i) for i in range(count))
    labels = {}
    read_aux(labels, plain + other)
    assert len(labels) == 2 * count


# Plain text, escape pairs and one-level groups: the fast path's shape.
PLAIN_OPTIONAL = "Smith et~al. \\lab{Qus}{27}{c} (2001), \\] "


def scan_plain_optional(units: int) -> None:
    stream = CharStream("[" + PLAIN_OPTIONAL * units + "]{key}")
    assert len(scan_optional_arg(stream)) == len(PLAIN_OPTIONAL) * units


def scan_unclosed_optional(units: int) -> None:
    stream = CharStream("[" + PLAIN_OPTIONAL * units)
    with pytest.raises(ScanError, match="never closed"):
        scan_optional_arg(stream)


def expand_unclosed_argument(units: int) -> None:
    defs = {"lab": MacroDef("lab", 3, "#1#3#2", macros._template("#1#3#2"))}
    with pytest.raises(MacroError, match="unbalanced braces"):
        expand_macros(defs, "\\lab{a} {" + "words and more words " * units)


BBL_MACROS = (
    "\\newcommand{\\lab}[3]{#1#3#2}\n"
    "\\newcommand{\\surname}[1]{{\\sc #1}}\n"
    "\\newcommand{\\pages}[2]{pp.~#1--#2}\n"
)


def many_items_bbl(count: int) -> str:
    # Tagged labels through a 3-parameter macro, blocks, style groups and
    # macro calls in the bodies, as a generated bibliography has them.
    items = "".join(
        f"\\bibitem[\\lab{{Au}}{{{i % 100:02d}}}{{{chr(97 + i % 26)}}}]{{key{i}}}\n"
        f"\\surname{{Author}}, A. and B.~Other.\n"
        f"\\newblock {{\\em A title   of\tsome length}}.\n"
        f"\\newblock In {{\\sc Proceedings}}, \\pages{{{i}}}{{{i + 9}}}, 2020.\n\n"
        for i in range(count)
    )
    return f"{BBL_MACROS}\\begin{{thebibliography}}{{99}}\n{items}\\end{{thebibliography}}\n"


def walk_many_items(count: int) -> None:
    bibliography = process_bbl(many_items_bbl(count))
    assert len(bibliography.items) == count


def render_plain_items(count: int) -> None:
    items = "".join(
        f"\\bibitem{{k{i}}}\nA. Author. A title of some length. 2020.\n" for i in range(count)
    )
    content = f"\\begin{{thebibliography}}{{9}}\n{items}\\end{{thebibliography}}\n"
    assert len(process_bbl(content).rendered.spans) == 1


def render_alternating_styles(count: int) -> None:
    # One item whose words alternate between emphasis and plain, so that
    # every word closes the open span and opens the next.
    item = "\\bibitem{k}\n" + "{\\em a} b " * count
    content = f"\\begin{{thebibliography}}{{9}}\n{item}\n\\end{{thebibliography}}\n"
    spans = process_bbl(content).rendered.spans
    assert len(spans) == 2 * count + 1
    assert spans[-1] == Span(Style.PLAIN, " b\n")


def call_one_macro_many_times(count: int) -> None:
    item = "\\bibitem{k}\n" + "\\lab{Au}{27}{c} text, " * count
    content = f"{BBL_MACROS}\\begin{{thebibliography}}{{9}}\n{item}\n\\end{{thebibliography}}\n"
    bibliography = process_bbl(content)
    rendered = "[1] " + ("Auc27 text, " * count).rstrip() + "\n"
    assert bibliography.rendered.spans == [Span(Style.PLAIN, rendered)]


def walk_unclosed_styled_groups(count: int) -> None:
    # Each group is a switch and a word run that the styled-group token
    # reads to its end before failing there, at a blank and a brace.
    item = "\\bibitem{k}\n" + "{\\em word word word word word word word word " * count
    content = f"\\begin{{thebibliography}}{{9}}\n{item}\n\\end{{thebibliography}}\n"
    words = " ".join(["word"] * (8 * count))
    assert process_bbl(content).rendered.spans == [
        Span(Style.PLAIN, "[1] "),
        Span(Style.EMPHASIS, words),
        Span(Style.PLAIN, "\n"),
    ]


def test_same_style_append_is_linear():
    assert time_ratio(append_same_style, 10_000) < MAX_TIME_RATIO


def test_next_command_over_one_long_text_run_is_linear():
    assert time_ratio(scan_one_text_run, 500) < MAX_TIME_RATIO


def test_next_command_over_unknown_controls_and_comments_is_linear():
    assert time_ratio(scan_unknown_controls, 500) < MAX_TIME_RATIO


def test_next_command_with_one_comment_after_many_cites_is_linear():
    assert time_ratio(scan_cites_then_far_comment, 1000) < MAX_TIME_RATIO


def test_next_command_over_comments_hiding_cites_is_linear():
    assert time_ratio(scan_comments_hiding_cites, 1000) < MAX_TIME_RATIO


def test_next_command_over_escaped_names_and_percent_signs_is_linear():
    assert time_ratio(scan_escaped_candidates, 1000) < MAX_TIME_RATIO


def test_next_command_over_long_escape_runs_is_linear():
    assert time_ratio(scan_long_escape_runs, 100) < MAX_TIME_RATIO


def test_pass_over_many_plain_cites_is_linear():
    assert time_ratio(pass_over_plain_cites, 200) < MAX_TIME_RATIO


def test_cite_whose_note_fails_the_plain_pattern_at_its_end_is_linear():
    assert time_ratio(scan_cite_failing_at_the_end, 2000) < MAX_TIME_RATIO


def test_read_aux_over_many_records_is_linear():
    assert time_ratio(read_many_records, 500) < MAX_TIME_RATIO


def test_read_aux_over_many_escaped_records_is_linear():
    assert time_ratio(read_escaped_records, 500) < MAX_TIME_RATIO


def test_read_aux_over_plain_then_other_records_is_linear():
    assert time_ratio(read_plain_then_other_records, 500) < MAX_TIME_RATIO


def test_plain_optional_argument_is_linear():
    assert time_ratio(scan_plain_optional, 2000) < MAX_TIME_RATIO


def test_unclosed_optional_argument_is_linear():
    assert time_ratio(scan_unclosed_optional, 500) < MAX_TIME_RATIO


def test_unclosed_macro_argument_is_linear():
    assert time_ratio(expand_unclosed_argument, 2000) < MAX_TIME_RATIO


def test_process_bbl_over_many_items_is_linear():
    assert time_ratio(walk_many_items, 100) < MAX_TIME_RATIO


def test_render_of_an_all_plain_bibliography_is_linear():
    assert time_ratio(render_plain_items, 500) < MAX_TIME_RATIO


def test_render_of_an_item_alternating_styles_is_linear():
    assert time_ratio(render_alternating_styles, 500) < MAX_TIME_RATIO


def test_many_calls_of_a_three_parameter_macro_are_linear():
    assert time_ratio(call_one_macro_many_times, 200) < MAX_TIME_RATIO


def test_many_unclosed_styled_groups_are_linear():
    assert time_ratio(walk_unclosed_styled_groups, 200) < MAX_TIME_RATIO


def test_refused_substitution_peaks_far_below_its_size():
    # 400 copies of a 64 Ki-character argument: 26 Mi characters, past the cap.
    template = define_newcommand({}, "w", "1", "#1" * 400).template
    argument = "x" * (1 << 16)
    would_be = 400 * len(argument)
    assert would_be > MAX_EXPANSION_CHARS
    tracemalloc.start()
    try:
        with pytest.raises(MacroError, match="replacement text exceeded"):
            substitute_params(template, [argument])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < would_be // 1000


def test_a_bibliography_rendering_retains_few_bytes_per_character():
    # What the rendering of 1,000 items keeps once the walk is over, per
    # character of its text.  Measured at 1.67 B: the text as one string
    # (1 B a character), and a style's one-byte code and a length per span
    # (9 B per span of about 15 characters).  A style kept as a pointer
    # (16 B per span) retained 2.17 B, and a string per span 5.3 B; the
    # bound leaves a 20% margin over the measurement.
    content = many_items_bbl(1000)
    gc.collect()
    tracemalloc.start()
    try:
        rendered = process_bbl(content).rendered
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(render_plain(rendered)) < 2.0


# A paragraph of prose with unknown commands, an escaped percent sign
# and a comment, as the bulk of a document is.
PROSE = (
    "Some prose about \\emph{results} and a figure, \\ref{fig:one}, with 50\\% more "
    "words that run on % a comment to the end of the line\n"
    "and carry on to the next line of the paragraph.\n\n"
)


def test_a_pass_rendering_retains_few_bytes_per_document_character():
    # What a pass's rendering keeps once the pass is over, per character
    # of a 108 KB document with a cite every ten paragraphs.  Measured at
    # 0.239 B: a placeholder chunk and a start and an end (24 B) per
    # comment-free piece of text, and the cites' own fragments.  A copy
    # of each text run retained 0.917 B.  The bound leaves a 20% margin
    # over the measurement.
    document = "".join(PROSE * 10 + f"See \\cite{{k{i}}}.\n" for i in range(60))
    assert len(document) > 100_000
    config, files = JobConfig("doc", no_aux=True), MemoryFiles()
    run_pass(config, document, files)  # so that no first-use cache lands in the measure
    gc.collect()
    tracemalloc.start()
    try:
        rendered = run_pass(config, document, files).rendered
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert render_plain(rendered).startswith("Some prose about \\emph{results}")
    assert retained / len(document) < 0.287
