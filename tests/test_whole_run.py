"""Whole runs on arbitrary input: they do what the spec does, they end,
their aux reads back, and they rerun.

Documents, bbl files and aux files are built from a token alphabet of
the commands each one speaks, braces, brackets, ``%``, ``#n``, line
breaks (``\\r`` and ``\\r\\n`` included) and a few odd characters
(and, for the two files, bytes that are not UTF-8).  Whatever comes
out, a run must end within a time and size budget or raise a
:class:`CiteforgeError`; the aux file it leaves must read back to the
labels the bbl defined; and a second run over the same files must
reproduce the first run's aux bytes.  A run that ends converges in
exactly two passes, whatever pass limit of 2 or more it was given.  Aux
records written one by one read back to the labels written, wherever
line breaks split their lines.

The package must also run exactly as ``tests/spec.py``, the plain
executable spec of the protocol, over that alphabet (from no aux file,
from the drawn one, and warm from the aux file a converged run left),
over the inputs of the acceptance suite and over the benchmark's three
corpora: the aux history, passes used and convergence, the final
rendering's spans, its warnings, lint, messages and label order, the
JSON report and every file write, or else the error's type, text,
line, source and offset.  The spec runs every pass, so the warm runs
check the package's reuse of a pass that read back the aux bytes it
wrote.
"""

import time
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import spec
import test_acceptance
from differential import (
    error_of,
    outcome,
    package_bbl,
    package_run,
    spans_of,
    spec_bbl,
    spec_job,
    spec_macros,
    spec_run,
    token_text,
)
from test_outputs_pinned import SCALE, SEEDS, load_corpus

from citeforge import auxfile, bbl, driver, macros
from citeforge.auxfile import AuxSession, read_aux
from citeforge.bbl import LayoutParams
from citeforge.driver import JobConfig, build_report
from citeforge.errors import CiteforgeError
from citeforge.files import MemoryFiles
from citeforge.macros import MAX_EXPANSION_CHARS
from citeforge.rendering import STYLE_SWITCHES, render_plain
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
    "%", "\\em ", "\\unknown", "#1", "\r", "\r\n", "\\\\", "\\%", "\\\\cite{a}",
    "\\cite\n[p.~3]{a}", "\\cite% x\n[p.~3]{b}", "\\cite{a}\\nocite{b}", "% c\n\\cite{b}",
    # Undefined, blank and empty keys, and notes with a blank or a comma.
    "\\cite{u,a}", "\\cite{,u\t3, a}", "\\cite[ ]{}", "\\cite[a,b]{u\u30004,c}",
]
PREAMBLE_PIECES = [
    "\\newcommand{\\m}{M}", "\\newcommand{\\m}{\\m\\m}", "\\newcommand\\n[1]{<#1>}",
    "\\newcommand\\n[2]{#2#1}", "\\newcommand\\n[1\x1c]{(#1)}", "%", "\n", " ",
]
BODY_PIECES = ["A.", " ", "\n", "\\newblock ", "\\em ", "{x}", "\\m", "\\n{y}", "%", "#1", "\\unknown"]
AUX_PIECES = [
    "\\citation{a}\n", "\\citation{a,b}\n", "\\bibdata{refs}\n", "\\bibstyle{plain}\n",
    "\\@citedef{a}{Z}\n", "\\@citedef{b}{1}\n", "\\@cite", "def{c}{2}\n", "\r\n",
    "\\@citedef{u}{}\n", "\\@citedef{}{0}\n",
]


# Odd characters and bytes stand for arbitrary text: blanks that
# str.strip() strips and the scanners do not, a NUL, a superscript digit,
# a character outside the BMP, and bytes that are not UTF-8.
ODD_TEXT = ["é", "\x00", "\x1c", "\u3000", "\x85", "²", "😀", "\f"]
ODD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82"]


def text_from(pieces, tokens, max_size):
    """Mostly ``pieces``; the rest other ``tokens`` and odd characters."""
    return token_text(pieces * 4 + tokens + ODD_TEXT, max_size)


def bytes_from(tokens):
    return token_text([token.encode() for token in tokens + ODD_TEXT] + ODD_BYTES, 30)


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


TAGS = ["", "[]", "[T]", "[\\m]", "[x y]", "[{]}]", "[\\n{z}]"]
KEYS = ["{a}", "{b}", "{c}", "{a,b}", "{ b}", "{\\}}"]
ITEM_HEADS = [f"\n\\bibitem{tag}{key}" for tag in TAGS for key in KEYS]


def bbl_text(preamble, widest, first_item, items, end, tail):
    """A bbl: the environment opens, its items follow (each a \\bibitem with a
    tag and a key, then body pieces), and perhaps it ends."""
    return f"{preamble}\\begin{{thebibliography}}{{{widest}}}{first_item}{items}\n{end}{tail}"


bbl_texts = st.builds(
    bbl_text,
    text_from(PREAMBLE_PIECES, BBL_TOKENS, 4),
    st.sampled_from(["9", "\\m", "", "{"]),
    st.sampled_from(["", *ITEM_HEADS]),
    token_text(ITEM_HEADS + (BODY_PIECES * 3 + BBL_TOKENS + ODD_TEXT) * 3, 24),
    st.sampled_from(["", "\\end{thebibliography}\n"]),
    text_from(BODY_PIECES, BBL_TOKENS, 2),
)


bbl_files = st.one_of(
    st.none(), bbl_texts.map(str.encode), bbl_texts.map(str.encode), bytes_from(BBL_TOKENS)
)
aux_files = st.one_of(
    st.none(), token_text(AUX_PIECES, 6).map(str.encode), bytes_from(AUX_TOKENS)
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
    st.sampled_from([Fraction(10), Fraction("7.25"), Fraction(1, 3)]),
)
@settings(max_examples=500, deadline=None)
def test_runs_end_read_back_and_rerun(document, bbl, aux, max_passes, no_aux, em_size):
    config = JobConfig(jobname="doc", max_passes=max_passes, no_aux=no_aux, em_size_pt=em_size)
    files = {name: data for name, data in (("doc.bbl", bbl), ("doc.aux", aux)) if data is not None}
    assert package_run(config, document, files) == spec_run(config, document, files)
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
    # A warm start: the files the run left, its converged aux included.
    assert package_run(config, document, fs.files) == spec_run(config, document, fs.files)

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


# --- the two-pass bound ---------------------------------------------------
#
# The aux a pass writes does not depend on the aux it reads: its
# \citation, \bibdata and \bibstyle records come from the document and
# its \@citedef records from the bbl, which a run reads once; the labels
# it reads change only the rendering and the warnings.  So pass 1 writes
# what every later pass writes, and a run that ends converges by pass 2.


@pytest.mark.parametrize(
    "aux", [None, b"\\@citedef{a}{Z}\n\\citation{gone}\n"], ids=["cold", "stale"]
)
@pytest.mark.parametrize("max_passes", [2, 9])
def test_a_run_that_ends_converges_in_two_passes(aux, max_passes):
    bbl = (
        b"\\begin{thebibliography}{9}\n\\bibitem{a} A.\n\\bibitem[Knu]{b} B.\n"
        b"\\end{thebibliography}\n"
    )
    document = "See \\cite{a}, \\cite{b} and \\cite[p.~2]{a,u}.\\nocite{b}\n\\bibliography{refs}\n"
    files = {"doc.bbl": bbl} if aux is None else {"doc.bbl": bbl, "doc.aux": aux}
    fs = MemoryFiles(files)
    outcome = driver.run_to_fixpoint(JobConfig(jobname="doc", max_passes=max_passes), document, fs)
    assert (outcome.converged, outcome.passes_used) == (True, 2)
    assert outcome.aux_history[0] == outcome.aux_history[-1] == fs.files["doc.aux"]
    assert render_plain(outcome.final.rendered).startswith("See [1], [Knu] and [1, u, p.~2].")


@given(documents, bbl_files, aux_files, st.sampled_from([2, 3, 4, 9]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_every_run_that_ends_converges_in_two_passes(document, bbl, aux, max_passes, no_aux):
    config = JobConfig(jobname="doc", max_passes=max_passes, no_aux=no_aux)
    files = {name: data for name, data in (("doc.bbl", bbl), ("doc.aux", aux)) if data is not None}
    outcome = resolve(config, document, MemoryFiles(files))
    if outcome is not None:
        assert (outcome.converged, outcome.passes_used) == (True, 2)
        assert outcome.aux_history[0] == outcome.aux_history[-1]


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


# Where to break the serialized lines again (a position, taken modulo their
# length plus one), and with which line break.
line_breaks = st.lists(
    st.tuples(st.integers(0, 255), st.sampled_from([b"\n", b"\r", b"\r\n"])), max_size=6
)


@given(st.lists(records, max_size=8), line_breaks)
@settings(max_examples=200)
def test_aux_records_survive_serialize_and_read(written, breaks):
    session = AuxSession()
    for kind, payload, label in written:
        session.write(kind, payload, label)
    content = session.serialize()
    cuts = [(at % (len(content) + 1), line_break) for at, line_break in breaks]
    for cut, line_break in sorted(cuts, reverse=True):
        content = content[:cut] + line_break + content[cut:]
    labels = {}
    read_aux(labels, content)
    expected = {}
    for kind, payload, label in written:
        if label is not None:
            expected[payload] = label
    assert labels == expected


# --- the package against the spec ----------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["paper-cli", "long-doc", "big-bib"])
def test_benchmark_corpora_run_like_the_spec(workload, seed):
    generated = load_corpus().generate(workload, seed, SCALE)
    config = JobConfig(jobname="paper")
    files = {"paper.bbl": generated.bbl.encode("utf-8")}
    expected = spec_run(config, generated.document, files)
    assert expected["history"][-1] == generated.aux and expected["converged"]
    assert package_run(config, generated.document, files) == expected


# Each acceptance check, run with its calls of the package checked against the spec.
ACCEPTANCE = [
    ("test_01_aux_records_are_byte_exact", ()),
    ("test_02_second_pass_resolves_citations", ()),
    ("test_03_undefined_citation_warns_exactly_once", ()),
    *(("test_04_numbered_labels_follow_the_counter", (n,)) for n in (1, 5, 50)),
    ("test_05_quirks", ()),
    ("test_06_layout_arithmetic_is_exact", ()),
    ("test_07_newcommand_emulation_on_random_bodies", ()),
    ("test_08_aux_reader_ignores_line_breaks", ()),
    ("test_09_no_aux_mode_writes_and_warns_nothing", ()),
    ("test_10_random_documents_converge_deterministically", ()),
]


@pytest.mark.parametrize("name, args", ACCEPTANCE, ids=[name[:7] for name, _ in ACCEPTANCE])
def test_acceptance_inputs_run_like_the_spec(name, args, monkeypatch):
    checked = []

    def checked_pass(config, document, fs, *rest):
        expected = spec.run_pass(spec_job(config), document, spec.Files(fs.files))
        result = driver.run_pass(config, document, fs, *rest)
        assert (
            spans_of(result.rendered),
            result.aux_bytes,
            [(warning.line, warning.key) for warning in result.warnings],
            result.messages,
            result.lint,
            list(result.labels.items()),
        ) == (*expected[:5], list(expected.labels.items()))
        checked.append(name)
        return result

    def checked_run(config, document, fs):
        assert package_run(config, document, fs.files) == spec_run(config, document, fs.files)
        checked.append(name)
        return driver.run_to_fixpoint(config, document, fs)

    def checked_bbl(content, **options):
        assert package_bbl(content) == spec_bbl(content)
        checked.append(name)
        return bbl.process_bbl(content, **options)

    def checked_define(defs, name, count, body):
        expected = spec_macros(defs)
        spec_outcome = outcome(spec.define, expected, name, count, body, spec.Budget())
        try:
            return macros.define_newcommand(defs, name, count, body)
        except CiteforgeError as exc:
            assert error_of(exc) == spec_outcome
            raise
        finally:
            assert spec_macros(defs) == expected
            checked.append(name)

    def checked_expand(defs, text, **options):
        expected = outcome(spec.expand_macros, spec_macros(defs), text)
        assert outcome(macros.expand_macros, defs, text) == expected
        checked.append(name)
        return macros.expand_macros(defs, text, **options)

    def checked_read(labels, content, source=""):
        expected = {}
        spec.read_aux(expected, content, source)
        auxfile_read(labels, content, source)
        assert list(labels.items()) == list(expected.items())
        checked.append(name)

    auxfile_read = auxfile.read_aux
    monkeypatch.setattr(auxfile, "read_aux", checked_read)
    monkeypatch.setattr(test_acceptance, "run_pass", checked_pass)
    monkeypatch.setattr(test_acceptance, "run_to_fixpoint", checked_run)
    monkeypatch.setattr(test_acceptance, "process_bbl", checked_bbl)
    monkeypatch.setattr(test_acceptance, "define_newcommand", checked_define)
    monkeypatch.setattr(test_acceptance, "expand_macros", checked_expand)
    getattr(test_acceptance, name)(*args)
    assert checked


def test_the_spec_constants_are_the_packages():
    assert spec.MAX_EXPANSION_DEPTH == macros.MAX_EXPANSION_DEPTH
    assert spec.MAX_EXPANSION_CHARS == macros.MAX_EXPANSION_CHARS
    assert spec.MISSING_AUX_MESSAGE == auxfile.MISSING_AUX_MESSAGE
    assert spec.STYLE_SWITCHES == {name: style.value for name, style in STYLE_SWITCHES.items()}
    assert frozenset(spec.WALK_COMMANDS) == bbl.WALK_COMMANDS
    for em_size in (Fraction(10), Fraction("7.25"), Fraction(1, 3)):
        expected = driver._layout_json(LayoutParams(), em_size)
        assert spec.layout_json(spec.DEFAULT_LABEL_WIDTH, em_size) == expected
