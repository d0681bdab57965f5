"""Acceptance suite: the end-to-end guarantees this package ships with.

Each check carries its own oracle: expected labels come from an
independent counter walk, widths from summing per-character values by
hand, macro expansions from assembling the generating pieces, and the
byte-level fixtures are frozen literals.  Randomized checks use fixed
seeds so failures replay exactly.
"""

import random
import re
import time
from fractions import Fraction

import pytest

from citeforge.bbl import Alignment, process_bbl
from citeforge.dimensions import Dimension
from citeforge.driver import JobConfig, build_report, run_pass, run_to_fixpoint
from citeforge.errors import MacroError
from citeforge.files import MemoryFiles
from citeforge.macros import define_newcommand, expand_macros
from citeforge.rendering import render_annotated, render_plain
from citeforge.scanner import EMPTY_OPTIONAL, OptionalArg

GOLDEN_DOC = (
    "\\bibliographystyle{plain}\n"
    "Alpha and beta \\cite{a,b} are discussed.\n"
    "\\nocite{c}\n"
    "\\bibliography{refs}\n"
)

GOLDEN_AUX = (
    b"\\bibstyle{plain}\n"
    b"\\citation{a,b}\n"
    b"\\citation{c}\n"
    b"\\bibdata{refs}\n"
)

REFS_BBL = (
    "\\begin{thebibliography}{9}\n"
    "\n"
    "\\bibitem{a}\n"
    "AuthorA.\n"
    "\\newblock TitleA.\n"
    "\n"
    "\\bibitem{b}\n"
    "AuthorB.\n"
    "\\newblock TitleB.\n"
    "\n"
    "\\bibitem{c}\n"
    "AuthorC.\n"
    "\\newblock TitleC.\n"
    "\n"
    "\\end{thebibliography}\n"
)


def test_01_aux_records_are_byte_exact():
    started = time.monotonic()
    fs = MemoryFiles()
    result = run_pass(JobConfig(jobname="refs"), GOLDEN_DOC, fs)
    elapsed = time.monotonic() - started
    assert result.aux_bytes == GOLDEN_AUX
    assert fs.files["refs.aux"] == GOLDEN_AUX
    assert elapsed < 1.0

    # with the bbl in place, label definitions follow the same four lines
    fs = MemoryFiles({"refs.bbl": REFS_BBL.encode()})
    result = run_pass(JobConfig(jobname="refs"), GOLDEN_DOC, fs)
    assert result.aux_bytes == GOLDEN_AUX + (
        b"\\@citedef{a}{1}\n\\@citedef{b}{2}\n\\@citedef{c}{3}\n"
    )


def test_02_second_pass_resolves_citations():
    doc = "Cites: \\cite{a,b}.\n\\bibliography{refs}\n"
    config = JobConfig(jobname="refs")
    bibliography_text = (
        "[1] AuthorA. TitleA.\n"
        "[2] AuthorB. TitleB.\n"
        "[3] AuthorC. TitleC.\n"
    )

    fs = MemoryFiles({"refs.bbl": REFS_BBL.encode()})
    first = run_pass(config, doc, fs)
    assert render_annotated(first.rendered) == (
        "Cites: [\u27e8tt:a\u27e9, \u27e8tt:b\u27e9].\n" + bibliography_text + "\n"
    )
    second = run_pass(config, doc, fs)
    assert render_plain(second.rendered) == (
        "Cites: [1, 2].\n" + bibliography_text + "\n"
    )

    outcome = run_to_fixpoint(config, doc, MemoryFiles({"refs.bbl": REFS_BBL.encode()}))
    assert outcome.converged
    assert outcome.passes_used <= 3
    assert render_plain(outcome.final.rendered) == render_plain(second.rendered)


def test_03_undefined_citation_warns_exactly_once():
    doc = (
        "Opening line.\n"
        "First \\cite{x} here.\n"
        "Then \\cite{x} and \\cite{x} again.\n"
        "Later \\cite{x}.\n"
        "Finally \\cite{x}.\n"
    )
    first_cite_line = 1 + doc[: doc.index("\\cite")].count("\n")
    outcome = run_to_fixpoint(JobConfig(jobname="doc"), doc, MemoryFiles())
    assert outcome.converged
    warnings = outcome.final.warnings
    assert len(warnings) == 1
    assert warnings[0].text == f"{first_cite_line}: Undefined citation `x'."
    assert warnings[0].line == first_cite_line == 2
    assert doc.count("\\cite{x}") == 5


@pytest.mark.parametrize("n", [1, 5, 50])
def test_04_numbered_labels_follow_the_counter(n):
    keys = [f"entry{i}" for i in range(n)]
    content = (
        "\\begin{thebibliography}{99}\n"
        + "".join(f"\\bibitem{{{key}}}\nBody text.\n" for key in keys)
        + "\\end{thebibliography}\n"
    )
    fs = MemoryFiles({"doc.bbl": content.encode()})
    result = run_pass(JobConfig(jobname="doc"), "\\bibliography{refs}\n", fs)
    bibliography = result.bibliography

    expected_labels = []
    counter = 0
    for _ in keys:
        counter += 1
        expected_labels.append(str(counter))

    assert [item.label for item in bibliography.items] == expected_labels
    citedefs = re.findall(rb"\\@citedef\{(.*?)\}\{(.*?)\}\n", result.aux_bytes)
    assert [(k.decode(), v.decode()) for k, v in citedefs] == list(zip(keys, expected_labels))


def test_05_quirks():
    # an empty bracket pair numbers the item as if absent
    content = (
        "\\begin{thebibliography}{9}\n"
        "\\bibitem[]{k}\nBody.\n"
        "\\end{thebibliography}\n"
    )
    bibliography = process_bbl(content)
    assert bibliography.items[0].label == "1"
    assert not bibliography.items[0].alpha

    # the first item locks the alignment for the whole list
    content = (
        "\\begin{thebibliography}{XY99}\n"
        "\\bibitem[Tag88]{alpha}\nOne.\n"
        "\\bibitem{plain}\nTwo.\n"
        "\\end{thebibliography}\n"
    )
    bibliography = process_bbl(content)
    assert [item.alignment for item in bibliography.items] == [
        Alignment.LABELS_LEFT,
        Alignment.LABELS_LEFT,
    ]
    assert bibliography.alignment is Alignment.LABELS_LEFT

    # a space after the comma stays part of the key, and gets pointed out
    fs = MemoryFiles({"doc.aux": b""})
    result = run_pass(JobConfig(jobname="doc"), "\\cite{a, b}", fs)
    assert "1: citation key ` b' contains a space" in result.lint
    assert fs.files["doc.aux"] == b"\\citation{a, b}\n"

    # citing nothing still draws its brackets
    result = run_pass(JobConfig(jobname="doc"), "\\cite{}", MemoryFiles())
    assert render_plain(result.rendered) == "[]"


def test_06_layout_arithmetic_is_exact():
    widest = "Knu84"
    per_char = Fraction(1, 2)
    em_size = Fraction(10)
    width_em = sum(per_char for _ in "[" + widest + "]")
    assert width_em == Fraction(7, 2)

    doc = "\\cite{knuth}\n\\bibliography{refs}\n"
    bbl = (
        "\\begin{thebibliography}{Knu84}\n"
        "\\bibitem[Knu84]{knuth}\nAuthor.\n"
        "\\end{thebibliography}\n"
    )
    config = JobConfig(jobname="refs", em_size_pt=em_size)
    outcome = run_to_fixpoint(config, doc, MemoryFiles({"refs.bbl": bbl.encode()}))

    layout = outcome.final.bibliography.layout
    assert layout.biblabelwidth == Dimension.em(width_em)
    assert layout.biblabelwidth.to_pt(em_size) == width_em * em_size == Fraction(35)
    expected_hang = Fraction(35) + Fraction(1, 2) * em_size
    assert layout.hangindent(em_size).to_pt(em_size) == expected_hang == Fraction(40)

    report = build_report(config, outcome)["bibliography"]["layout"]
    assert report["biblabelwidth"]["pt"] == 35.0
    assert report["hangindent"]["pt"] == 40.0
    assert report["parskip"]["source"] == "1.5ex plus 0.5ex minus 0.5ex"
    assert report["clubpenalty"] == 4000
    assert report["widowpenalty"] == 4000
    assert report["tolerance"] == 10000
    assert report["hfuzz"]["pt"] == 0.5


def test_07_newcommand_emulation_on_random_bodies():
    rng = random.Random(80415)
    literal_alphabet = "abcdefg XYZ.,:;()!?0123456789-"

    def random_pieces(num_params):
        pieces = []
        for _ in range(rng.randint(1, 12)):
            if num_params and rng.random() < 0.4:
                pieces.append(("param", rng.randint(1, num_params)))
            else:
                length = rng.randint(1, 6)
                pieces.append(("lit", "".join(rng.choices(literal_alphabet, k=length))))
        return pieces

    for num_params in (0, 1, 9):
        for _ in range(10):
            pieces = random_pieces(num_params)
            body = "".join(
                text if kind == "lit" else f"#{text}" for kind, text in pieces
            )
            args = [
                "".join(rng.choices("uvw 012", k=rng.randint(0, 5)))
                for _ in range(num_params)
            ]
            expected = "".join(
                text if kind == "lit" else args[text - 1] for kind, text in pieces
            )
            defs = {}
            count = OptionalArg(str(num_params)) if num_params else EMPTY_OPTIONAL
            define_newcommand(defs, "probe", count, body)
            call = "\\probe" + "".join("{" + arg + "}" for arg in args)
            assert expand_macros(defs, call) == expected

    with pytest.raises(MacroError) as info:
        define_newcommand({}, "wide", OptionalArg("10"), "#1")
    assert "is too many parameters" in str(info.value)


def test_08_aux_reader_ignores_line_breaks():
    from citeforge.auxfile import read_aux

    def parse(content):
        labels = {}
        read_aux(labels, content)
        return labels

    raw = b"\\@citedef{knuth:1984}{Knu84}"
    expected = parse(raw)
    assert expected  # the unsplit record must itself define something

    rng = random.Random(1984)
    for trial in range(100):
        cuts = sorted(rng.sample(range(len(raw) + 1), 5), reverse=True)
        newline = b"\r\n" if trial % 3 == 0 else b"\n"
        mangled = raw
        for cut in cuts:
            mangled = mangled[:cut] + newline + mangled[cut:]
        assert parse(mangled) == expected


def test_09_no_aux_mode_writes_and_warns_nothing():
    fs = MemoryFiles()
    config = JobConfig(jobname="doc", no_aux=True)
    outcome = run_to_fixpoint(config, "Ghost \\cite{ghost} cite.\n", fs)
    assert fs.writes == []
    assert fs.files == {}
    assert outcome.final.warnings == []
    assert outcome.final.messages == []
    assert (
        render_annotated(outcome.final.rendered)
        == "Ghost [\u27e8tt:ghost\u27e9] cite.\n"
    )


def random_document(rng):
    keys = ["alpha", "beta", "gamma", "delta"]
    fillers = ["Words here. ", "More text ", "\n", "Line.\n", ", and "]
    parts = []
    for _ in range(rng.randint(0, 50)):
        parts.append(rng.choice(fillers))
        kind = rng.randrange(5)
        chosen = ",".join(rng.sample(keys, rng.randint(1, 3)))
        if kind == 0:
            parts.append(f"\\cite{{{chosen}}}")
        elif kind == 1:
            parts.append(f"\\cite[page {rng.randint(1, 99)}]{{{chosen}}}")
        elif kind == 2:
            parts.append(f"\\nocite{{{chosen}}}")
        elif kind == 3:
            parts.append("\\bibliographystyle{plain}")
        else:
            parts.append("\\bibliography{refs}")
    parts.append("\nThe end.\n")
    return "".join(parts)


def test_10_random_documents_converge_deterministically():
    fixed_bbl = (
        "\\begin{thebibliography}{9}\n"
        "\\bibitem{alpha}\nA.\n"
        "\\bibitem{beta}\nB.\n"
        "\\end{thebibliography}\n"
    )
    config = JobConfig(jobname="doc", max_passes=4)
    for seed in range(20):
        document = random_document(random.Random(7000 + seed))

        def fresh_fs():
            return MemoryFiles({"doc.bbl": fixed_bbl.encode()})

        first = run_to_fixpoint(config, document, fresh_fs())
        second = run_to_fixpoint(config, document, fresh_fs())
        assert first.converged, f"seed {seed} failed to converge"
        assert first.passes_used <= 4
        assert first.aux_history == second.aux_history
        assert build_report(config, first) == build_report(config, second)
