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

from citeforge.auxfile import AuxSession, read_aux
from citeforge.citations import LabelTable
from citeforge.rendering import RenderedFragment, Style
from citeforge.scanner import DOCUMENT_COMMANDS, CharStream, next_command

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
    assert isinstance(next_command(stream, DOCUMENT_COMMANDS), str)
    assert stream.at_end()


def read_many_records(count: int) -> None:
    content = b"".join(
        b"\\citation{k%d}\n\\@citedef{k%d}{%d}\n" % (i, i, i) for i in range(count)
    )
    table = LabelTable()
    read_aux(AuxSession(), content, table)
    assert len(table) == count


def test_same_style_append_is_linear():
    assert time_ratio(append_same_style, 10_000) < MAX_TIME_RATIO


def test_next_command_over_one_long_text_run_is_linear():
    assert time_ratio(scan_one_text_run, 500) < MAX_TIME_RATIO


def test_read_aux_over_many_records_is_linear():
    assert time_ratio(read_many_records, 500) < MAX_TIME_RATIO
