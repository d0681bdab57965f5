"""Whole runs on arbitrary input: they end, their aux reads back, they rerun.

Documents, bbl files and aux files are built from a token alphabet of
the commands each one speaks, braces, brackets, ``%``, ``#n``, line
breaks and a little arbitrary text (and, for the two files, arbitrary
bytes).  Whatever comes out, a run must end within a time and size
budget or raise a :class:`CiteforgeError`; the aux file it leaves must
read back to the labels the bbl defined; and a second run over the same
files must reproduce the first run's aux bytes.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import driver
from citeforge.auxfile import AuxSession, read_aux
from citeforge.driver import JobConfig, build_report
from citeforge.errors import CiteforgeError
from citeforge.files import MemoryFiles
from citeforge.macros import MAX_EXPANSION_CHARS
from citeforge.scanner import CharStream, scan_group_arg

# Generous for inputs this small: a run over them takes milliseconds.
TIME_BUDGET_S = 2.0
SIZE_BUDGET = MAX_EXPANSION_CHARS

# Arbitrary tokens: the commands each input speaks, whole or cut short,
# and the characters that matter to the scanners.
COMMON = ["{", "}", "[", "]", "%", "#1", "#2", "#", ",", " ", "\n", "\\", "a", "b", "x y"]
DOCUMENT_TOKENS = COMMON + [
    "\\cite{", "\\cite[", "\\cite{a}", "\\cite{a,b}", "\\cite[p]{b}", "\\nocite{",
    "\\nocite{c}", "\\bibliography{", "\\bibliography{refs}", "\\bibliographystyle{plain}",
    "\\em", "\\unknown",
]
BBL_TOKENS = COMMON + [
    "\\begin{thebibliography}{9}", "\\begin{thebibliography}{", "\\end{thebibliography}",
    "\\bibitem{a}", "\\bibitem[T]{b}", "\\bibitem[", "\\bibitem", "\\newblock",
    "\\newcommand", "\\newcommand{\\m}", "\\newcommand\\n[1]", "{\\m\\m}", "[2]", "\\m", "\\n",
    "\\em", "\\sc", "\\unknown",
]
AUX_TOKENS = COMMON + [
    "\\citation{", "\\citation{a}", "\\bibdata{refs}", "\\bibstyle{", "\\@citedef{",
    "\\@citedef{a}{Z}", "}{", "\r",
]

# Well-formed pieces, so that most runs get as far as defining labels,
# reading them back and converging.
DOCUMENT_PIECES = [
    "\\cite{a}", "\\cite{a,b}", "\\cite[p]{b}", "\\cite{ b}", "\\nocite{c}", "Words ", "\n",
    "%", "\\em ", "\\unknown", "#1",
]
PREAMBLE_PIECES = [
    "\\newcommand{\\m}{M}", "\\newcommand{\\m}{\\m\\m}", "\\newcommand\\n[1]{<#1>}",
    "\\newcommand\\n[2]{#2#1}", "%", "\n", " ",
]
BODY_PIECES = ["A.", " ", "\n", "\\newblock ", "\\em ", "{x}", "\\m", "\\n{y}", "%", "#1", "\\unknown"]
AUX_PIECES = [
    "\\citation{a}\n", "\\citation{a,b}\n", "\\bibdata{refs}\n", "\\bibstyle{plain}\n",
    "\\@citedef{a}{Z}\n", "\\@citedef{b}{1}\n", "\\@cite", "def{c}{2}\n", "\r\n",
]


def text_from(pieces, tokens, max_size):
    """Mostly ``pieces``; the rest arbitrary ``tokens`` or arbitrary text."""
    piece = st.sampled_from(pieces)
    token = st.one_of(piece, piece, piece, st.sampled_from(tokens), st.text(max_size=2))
    return st.lists(token, max_size=max_size).map("".join)


def bytes_from(tokens):
    token = st.one_of(
        st.sampled_from(tokens).map(str.encode),
        st.text(max_size=2).map(str.encode),
        st.binary(max_size=2),
    )
    return st.lists(token, max_size=30).map(b"".join)


documents = st.tuples(
    text_from(DOCUMENT_PIECES, DOCUMENT_TOKENS, 30),
    st.sampled_from([
        "",
        "\\bibliography{refs}\n",
        "\\bibliographystyle{plain}\\bibliography{refs}",
        # Two sites: each installs the items, records and rendering again.
        "\\bibliography{refs}\nMore \\cite{a}.\n\\bibliography{refs}\nEnd.",
    ]),
).map("".join)


@st.composite
def bbl_texts(draw):
    parts = [draw(text_from(PREAMBLE_PIECES, BBL_TOKENS, 4)), "\\begin{thebibliography}{"]
    parts += [draw(st.sampled_from(["9", "\\m", "", "{"])), "}\n"]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        parts += [
            "\\bibitem",
            draw(st.sampled_from(["", "[]", "[T]", "[\\m]", "[x y]", "[{]}]", "[\\n{z}]"])),
            draw(st.sampled_from(["{a}", "{b}", "{c}", "{a,b}", "{ b}", "{\\}}"])),
            draw(text_from(BODY_PIECES, BBL_TOKENS, 6)),
            "\n",
        ]
    parts.append(draw(st.sampled_from(["", "\\end{thebibliography}\n"])))
    parts.append(draw(text_from(BODY_PIECES, BBL_TOKENS, 2)))
    return "".join(parts)


bbl_files = st.one_of(
    st.none(), bbl_texts().map(str.encode), bbl_texts().map(str.encode), bytes_from(BBL_TOKENS)
)
aux_files = st.one_of(
    st.none(),
    st.lists(st.sampled_from(AUX_PIECES), max_size=6).map("".join).map(str.encode),
    bytes_from(AUX_TOKENS),
)


def resolve(config, document, fs):
    """The outcome of one run, or None if it raised a CiteforgeError."""
    started = time.perf_counter()
    try:
        outcome = driver.run_to_fixpoint(config, document, fs)
    except CiteforgeError:
        outcome = None
    assert time.perf_counter() - started < TIME_BUDGET_S
    return outcome


@given(
    documents,
    bbl_files,
    aux_files,
    st.sampled_from([4, 4, 3, 2, 1]),
    st.sampled_from([False, False, False, True]),
)
@settings(max_examples=500, deadline=None)
def test_runs_end_read_back_and_rerun(document, bbl, aux, max_passes, no_aux):
    config = JobConfig(jobname="doc", max_passes=max_passes, no_aux=no_aux)
    files = {name: data for name, data in (("doc.bbl", bbl), ("doc.aux", aux)) if data is not None}
    fs = MemoryFiles(files)
    first = resolve(config, document, fs)
    if first is None:
        return
    final = first.final
    assert len(final.aux_bytes) < SIZE_BUDGET
    assert sum(len(span.text) for span in final.rendered.spans) < SIZE_BUDGET
    if no_aux or not first.converged:
        return

    labels = {}
    read_aux(labels, final.aux_bytes)
    items = final.bibliography.items if final.bibliography is not None else []
    assert labels == {item.key: item.label for item in items}

    calls = []
    run_pass = driver.run_pass

    def counting_pass(*args):
        calls.append(args)
        return run_pass(*args)

    driver.run_pass = counting_pass
    try:
        second = resolve(config, document, fs)
    finally:
        driver.run_pass = run_pass
    assert second is not None and second.converged
    assert second.aux_history == [final.aux_bytes] * len(second.aux_history)
    assert len(calls) == (1 if final.aux_read is not None else 2)
    first_report, second_report = build_report(config, first), build_report(config, second)
    del first_report["passes_used"], second_report["passes_used"]
    assert second_report == first_report


def payloads():
    """Payload text as the document scanner can deliver it: one brace group's
    content, without line breaks."""

    def scanned(text):
        try:
            return scan_group_arg(CharStream("{" + text + "}", comments=False)) == text
        except CiteforgeError:
            return False

    tokens = st.sampled_from(["{", "}", "\\", "\\{", "\\}", "%", "#1", ",", " ", "a", "é", "[]"])
    text = st.lists(tokens, max_size=8).map("".join)
    return text.filter(scanned)


records = st.one_of(
    payloads().map(lambda keys: ("citation", keys, None)),
    payloads().map(lambda databases: ("bibdata", databases, None)),
    payloads().map(lambda style: ("bibstyle", style, None)),
    st.builds(lambda key, label: ("@citedef", key, label), payloads(), payloads()),
)


@given(st.lists(records, max_size=8))
@settings(max_examples=200)
def test_aux_records_survive_serialize_and_read(written):
    session = AuxSession()
    for kind, payload, label in written:
        session.write(kind, payload, label)
    labels = {}
    read_aux(labels, session.serialize())
    expected = {}
    for kind, payload, label in written:
        if label is not None:
            expected[payload] = label
    assert labels == expected
