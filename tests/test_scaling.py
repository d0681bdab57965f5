"""Scaling gate: the loops a pass runs over its whole input stay linear.

Each check times one loop at input size ``n`` and at ``16 n``, taking
the minimum of three timings of each, and requires the larger input to
take less than 48 times as long.  Linear growth gives about 16x; the
other 3x absorbs timer noise and cache effects at these modest sizes,
while quadratic growth (about 256x, more than 200x measured for the
former same-style span merge) fails by a wide margin.
"""

import gc
from time import perf_counter

from citeforge.auxfile import read_aux
from citeforge.bbl import process_bbl
from citeforge.rendering import RenderedFragment, Style
from citeforge.scanner import CharStream, next_command

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
    assert isinstance(next_command(stream), str)
    assert stream.at_end()


def read_many_records(count: int) -> None:
    content = b"".join(
        b"\\citation{k%d}\n\\@citedef{k%d}{%d}\n" % (i, i, i) for i in range(count)
    )
    labels = {}
    read_aux(labels, content)
    assert len(labels) == count


BBL_MACROS = (
    "\\newcommand{\\lab}[3]{#1#3#2}\n"
    "\\newcommand{\\surname}[1]{{\\sc #1}}\n"
    "\\newcommand{\\pages}[2]{pp.~#1--#2}\n"
)


def walk_many_items(count: int) -> None:
    # Tagged labels through a 3-parameter macro, blocks, style groups and
    # macro calls in the bodies, as a generated bibliography has them.
    items = "".join(
        f"\\bibitem[\\lab{{Au}}{{{i % 100:02d}}}{{{chr(97 + i % 26)}}}]{{key{i}}}\n"
        f"\\surname{{Author}}, A. and B.~Other.\n"
        f"\\newblock {{\\em A title   of\tsome length}}.\n"
        f"\\newblock In {{\\sc Proceedings}}, \\pages{{{i}}}{{{i + 9}}}, 2020.\n\n"
        for i in range(count)
    )
    content = f"{BBL_MACROS}\\begin{{thebibliography}}{{99}}\n{items}\\end{{thebibliography}}\n"
    bibliography = process_bbl(content)
    assert len(bibliography.items) == count


def test_same_style_append_is_linear():
    assert time_ratio(append_same_style, 10_000) < MAX_TIME_RATIO


def test_next_command_over_one_long_text_run_is_linear():
    assert time_ratio(scan_one_text_run, 500) < MAX_TIME_RATIO


def test_read_aux_over_many_records_is_linear():
    assert time_ratio(read_many_records, 500) < MAX_TIME_RATIO


def test_process_bbl_over_many_items_is_linear():
    assert time_ratio(walk_many_items, 100) < MAX_TIME_RATIO
