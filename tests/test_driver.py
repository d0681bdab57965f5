"""Pass orchestration: aux lifecycle, fixpoint behavior, and the report."""

import errno
import json
import tracemalloc
from fractions import Fraction

import pytest

from citeforge import driver, files
from citeforge.auxfile import MISSING_AUX_MESSAGE
from citeforge.driver import (
    FixpointResult,
    JobConfig,
    build_report,
    report_json,
    run_pass,
    run_to_fixpoint,
)
from citeforge.errors import AuxCorruptError, AuxFormatError, ScanError, UnbalancedGroupError
from citeforge.files import DirectoryFiles, MemoryFiles
from citeforge.rendering import render_annotated, render_plain

BBL = (
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
    "\\end{thebibliography}\n"
)

DOC = "Cites: \\cite{a,b}.\n\\bibliography{refs}\n"


def fs_with_bbl():
    return MemoryFiles({"refs.bbl": BBL.encode()})


class TestJobConfig:
    def test_bbl_basename_defaults_to_jobname(self):
        config = JobConfig(jobname="paper")
        assert config.bbl_basename == "paper"
        assert config.document_name == "paper.tex"

    def test_explicit_bbl_basename_kept(self):
        assert JobConfig(jobname="j", bbl_basename="refs").bbl_basename == "refs"

    def test_em_size_coerced_to_fraction(self):
        assert JobConfig(jobname="j", em_size_pt=12).em_size_pt == Fraction(12)
        assert JobConfig(jobname="j", em_size_pt="10.5").em_size_pt == Fraction(21, 2)

    def test_max_passes_must_be_positive(self):
        with pytest.raises(ValueError):
            JobConfig(jobname="j", max_passes=0)

    @pytest.mark.parametrize("size", [0, -1, "16384", Fraction(10**400)])
    def test_em_size_must_be_positive_and_at_most_maxdimen(self, size):
        with pytest.raises(ValueError, match="em size must be positive and at most 16383.99998pt"):
            JobConfig(jobname="j", em_size_pt=size)

    def test_em_size_of_maxdimen_is_accepted(self):
        maxdimen = Fraction(2**30 - 1, 2**16)
        assert JobConfig(jobname="j", em_size_pt=maxdimen).em_size_pt == maxdimen


class TestFileAccess:
    def test_memory_files_log_writes(self):
        fs = MemoryFiles()
        fs.write_bytes("a.aux", b"one")
        fs.write_bytes("a.aux", b"two")
        assert fs.read_bytes("a.aux") == b"two"
        assert fs.writes == [("a.aux", b"one"), ("a.aux", b"two")]

    def test_directory_files(self, tmp_path):
        fs = DirectoryFiles(tmp_path)
        assert not fs.exists("x.aux")
        fs.write_bytes("x.aux", b"data")
        assert fs.exists("x.aux")
        assert fs.read_bytes("x.aux") == b"data"
        assert (tmp_path / "x.aux").read_bytes() == b"data"

    def test_write_failing_midway_keeps_the_previous_aux(self, tmp_path, monkeypatch):
        (tmp_path / "refs.bbl").write_bytes(BBL.encode())
        fs = DirectoryFiles(tmp_path)
        run_pass(JobConfig(jobname="doc", bbl_basename="refs"), DOC, fs)
        previous = (tmp_path / "doc.aux").read_bytes()

        real_open = open

        class HalfWritten:
            """A file that takes half the bytes, then reports a full disk."""

            def __init__(self, *args):
                self.handle = real_open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(files, "open", HalfWritten, raising=False)
        with pytest.raises(OSError, match="No space left"):
            run_pass(JobConfig(jobname="doc", bbl_basename="refs"), DOC + "\\nocite{c}\n", fs)
        assert (tmp_path / "doc.aux").read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.aux", "refs.bbl"]


class TestRunPass:
    def test_aux_rewritten_even_without_commands(self):
        fs = MemoryFiles()
        result = run_pass(JobConfig(jobname="doc"), "only text\n", fs)
        assert fs.files["doc.aux"] == b""
        assert result.aux_bytes == b""
        assert result.messages == []

    def test_missing_aux_notice_on_first_citation_command(self):
        fs = MemoryFiles()
        result = run_pass(JobConfig(jobname="doc"), "\\cite{x}", fs)
        assert result.messages == [
            "No .aux file; I won't give you warnings about undefined citations."
        ]
        assert result.warnings == []
        assert render_annotated(result.rendered) == "[\u27e8tt:x\u27e9]"

    @pytest.mark.parametrize("aux", [b"\\@citedef{k}{7}\n", None], ids=["aux", "no-aux-file"])
    @pytest.mark.parametrize(
        "first", ["\\cite{k}", "\\nocite{k}", "\\bibliographystyle{plain}", "\\bibliography{refs}"]
    )
    def test_aux_read_once_before_the_first_command_writes(self, monkeypatch, first, aux):
        pending_at_read, sessions = [], []
        read_aux, handle_missing_aux = driver.read_aux, driver.handle_missing_aux

        class Session(driver.AuxSession):
            def __init__(self, no_aux=False):
                super().__init__(no_aux)
                sessions.append(self)

        def reading(labels, content, source):
            pending_at_read.append(list(sessions[-1].pending_writes))
            read_aux(labels, content, source)

        def missing():
            pending_at_read.append(list(sessions[-1].pending_writes))
            return handle_missing_aux()

        monkeypatch.setattr(driver, "AuxSession", Session)
        monkeypatch.setattr(driver, "read_aux", reading)
        monkeypatch.setattr(driver, "handle_missing_aux", missing)
        fs = fs_with_bbl()
        if aux is not None:
            fs.files["refs.aux"] = aux
        doc = first + "\n\\cite{k}\\nocite{k}\\bibliographystyle{s}\\bibliography{refs}\\cite{k}\n"
        result = run_pass(JobConfig(jobname="refs"), doc, fs)
        assert pending_at_read == [[]]
        assert result.aux_read == aux
        if aux is None:
            assert result.messages == [MISSING_AUX_MESSAGE]
        else:
            assert result.messages == []
            assert result.labels["k"] == "7"

    def test_no_command_reads_no_aux(self):
        fs = MemoryFiles({"doc.aux": b"\\@citedef{k}{7}\n"})
        result = run_pass(JobConfig(jobname="doc"), "only text, \\bibitem{k} included\n", fs)
        assert result.aux_read is None
        assert result.messages == []

    @pytest.mark.parametrize(
        "command, kind",
        [
            ("cite", "citation"),
            ("nocite", "citation"),
            ("bibliographystyle", "bibstyle"),
            ("bibliography", "bibdata"),
        ],
    )
    def test_unwritable_payload_is_located_at_its_command(self, command, kind):
        doc = f"text\nmore \\{command}{{a\nb}}\n"
        with pytest.raises(AuxFormatError) as info:
            run_pass(JobConfig(jobname="doc"), doc, fs_with_bbl())
        assert str(info.value) == f"doc.tex:2: {kind} payload may not contain a newline: 'a\\nb'"
        assert (info.value.source, info.value.line) == ("doc.tex", 2)

    @pytest.mark.parametrize(
        "bibitem, message",
        [
            ("\\bibitem{x\ny}", "@citedef payload may not contain a newline: 'x\\ny'"),
            ("\\bibitem[A\nB]{k}", "@citedef label may not contain a newline: 'A\\nB'"),
        ],
    )
    def test_unwritable_bbl_item_is_located_at_its_bibitem(self, bibitem, message):
        bbl = BBL.replace("\\bibitem{b}", bibitem)
        fs = MemoryFiles({"refs.bbl": bbl.encode()})
        with pytest.raises(AuxFormatError) as info:
            run_pass(JobConfig(jobname="refs"), "\n" + DOC, fs)
        assert str(info.value) == f"refs.bbl:7: {message}"

    def test_bbl_structure_error_wins_over_an_unwritable_key(self):
        # The walk finishes before any record is written.
        bbl = BBL.replace("\\bibitem{b}", "\\bibitem{x\ny}") + "}\n"
        fs = MemoryFiles({"refs.bbl": bbl.encode()})
        with pytest.raises(UnbalancedGroupError, match="refs.bbl:13: unexpected '}'"):
            run_pass(JobConfig(jobname="refs"), DOC, fs)

    def test_no_aux_mode_accepts_unwritable_payloads(self):
        bbl = BBL.replace("\\bibitem{b}", "\\bibitem{x\ny}")
        fs = MemoryFiles({"refs.bbl": bbl.encode()})
        config = JobConfig(jobname="refs", no_aux=True)
        result = run_pass(config, "\\cite{a\nb}\\nocite{c\nd}\n\\bibliography{refs}\n", fs)
        assert [item.key for item in result.bibliography.items] == ["a", "x\ny"]
        assert fs.writes == []

    def test_corrupt_aux_keeps_its_byte_offset(self):
        fs = MemoryFiles({"doc.aux": b"\\citation{a}\ngarbage"})
        with pytest.raises(AuxCorruptError) as info:
            run_pass(JobConfig(jobname="doc"), "text\n\\cite{k}", fs)
        assert str(info.value) == "doc.aux: unrecognized aux content (byte 13)"
        assert (info.value.offset, info.value.line, info.value.source) == (13, None, "doc.aux")

    def test_stale_definitions_are_honored(self):
        fs = MemoryFiles({"doc.aux": b"\\@citedef{k}{Old99}\n"})
        result = run_pass(JobConfig(jobname="doc"), "\\cite{k}", fs)
        assert render_plain(result.rendered) == "[Old99]"
        assert result.warnings == []
        assert result.undefined_keys == []

    def test_undefined_cite_warns_when_aux_present(self):
        fs = MemoryFiles({"doc.aux": b""})
        result = run_pass(JobConfig(jobname="doc"), "one\n\\cite{gone}\n", fs)
        assert result.warning_texts() == ["2: Undefined citation `gone'."]
        assert result.undefined_keys == ["gone"]

    def test_corrupt_aux_aborts(self):
        fs = MemoryFiles({"doc.aux": b"garbage"})
        with pytest.raises(AuxCorruptError):
            run_pass(JobConfig(jobname="doc"), "\\cite{k}", fs)

    def test_scan_error_aborts(self):
        fs = MemoryFiles()
        with pytest.raises(ScanError):
            run_pass(JobConfig(jobname="doc"), "\\cite{never closed", fs)

    def test_document_records_in_order(self):
        fs = fs_with_bbl()
        doc = (
            "\\bibliographystyle{plain}\n"
            "\\cite{a,b}\n"
            "\\nocite{c}\n"
            "\\bibliography{refs}\n"
        )
        result = run_pass(JobConfig(jobname="refs"), doc, fs)
        assert result.aux_bytes == (
            b"\\bibstyle{plain}\n"
            b"\\citation{a,b}\n"
            b"\\citation{c}\n"
            b"\\bibdata{refs}\n"
            b"\\@citedef{a}{1}\n"
            b"\\@citedef{b}{2}\n"
        )

    def test_missing_bbl_message(self):
        fs = MemoryFiles()
        result = run_pass(JobConfig(jobname="doc"), "\\bibliography{refs}", fs)
        assert "No file doc.bbl." in result.messages
        assert result.bibliography is None
        assert result.nobreak_before_bibliography is False

    def test_bbl_found_renders_and_marks_nobreak(self):
        fs = fs_with_bbl()
        result = run_pass(JobConfig(jobname="refs"), DOC, fs)
        assert result.nobreak_before_bibliography is True
        assert result.bibliography is not None
        assert render_plain(result.rendered) == (
            "Cites: [a, b].\n"
            "[1] AuthorA. TitleA.\n"
            "[2] AuthorB. TitleB.\n"
            "\n"
        )

    def test_bbl_basename_override(self):
        fs = MemoryFiles({"other.bbl": BBL.encode()})
        config = JobConfig(jobname="doc", bbl_basename="other")
        result = run_pass(config, "\\bibliography{ignored-arg}", fs)
        assert result.bibliography is not None

    def test_structure_commands_pass_through_in_documents(self):
        fs = MemoryFiles()
        doc = "\\bibitem{k} and \\newblock stay\n"
        result = run_pass(JobConfig(jobname="doc"), doc, fs)
        assert render_plain(result.rendered) == doc

    def test_no_aux_mode_never_touches_files(self):
        fs = MemoryFiles()
        config = JobConfig(jobname="doc", no_aux=True)
        result = run_pass(config, "\\cite{x}\\nocite{y}", fs)
        assert fs.writes == []
        assert fs.files == {}
        assert result.aux_bytes == b""
        assert result.warnings == []
        assert result.messages == []
        assert render_annotated(result.rendered) == "[\u27e8tt:x\u27e9]"

    def test_no_aux_mode_still_resolves_bbl_labels(self):
        fs = fs_with_bbl()
        config = JobConfig(jobname="refs", no_aux=True)
        result = run_pass(config, DOC, fs)
        # labels defined mid-pass by the bbl are only visible after the
        # cite site, so the cite itself still falls back this pass
        assert render_plain(result.rendered).startswith("Cites: [a, b].")
        assert result.labels["a"] == "1"
        assert fs.writes == []


class TestFixpoint:
    def test_two_passes_resolve_and_converge(self):
        fs = fs_with_bbl()
        outcome = run_to_fixpoint(JobConfig(jobname="refs"), DOC, fs)
        assert outcome.converged
        assert outcome.passes_used == 2
        assert render_plain(outcome.final.rendered) == (
            "Cites: [1, 2].\n"
            "[1] AuthorA. TitleA.\n"
            "[2] AuthorB. TitleB.\n"
            "\n"
        )
        assert outcome.aux_history[0] == outcome.aux_history[1]

    def test_stale_aux_from_before_is_replaced(self):
        fs = fs_with_bbl()
        fs.files["refs.aux"] = b"\\@citedef{zzz}{9}\n"
        outcome = run_to_fixpoint(JobConfig(jobname="refs"), DOC, fs)
        assert outcome.converged
        assert b"zzz" not in fs.files["refs.aux"]

    def test_single_pass_limit_cannot_converge(self):
        fs = fs_with_bbl()
        outcome = run_to_fixpoint(JobConfig(jobname="refs", max_passes=1), DOC, fs)
        assert not outcome.converged
        assert outcome.passes_used == 1
        assert len(outcome.aux_history) == 1

    def test_no_aux_mode_converges_trivially(self):
        fs = MemoryFiles()
        config = JobConfig(jobname="doc", no_aux=True)
        outcome = run_to_fixpoint(config, "\\cite{x}", fs)
        assert outcome.converged
        assert outcome.passes_used == 2
        assert fs.writes == []

    def test_deterministic_across_identical_runs(self):
        config = JobConfig(jobname="refs")
        first = run_to_fixpoint(config, DOC, fs_with_bbl())
        second = run_to_fixpoint(config, DOC, fs_with_bbl())
        assert build_report(config, first) == build_report(config, second)
        assert first.aux_history == second.aux_history

    def test_no_earlier_pass_is_kept_while_the_next_one_runs(self):
        # A cold run's second pass rereads what the first one wrote; if the
        # first pass's result were still held, it would add about half again.
        document = "".join(f"\\cite{{u{n}}}\n" for n in range(4000))
        config = JobConfig(jobname="doc")

        def peak(run, fs):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run(config, document, fs)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        fs = MemoryFiles()
        cold = peak(run_to_fixpoint, fs)
        warm_pass = peak(run_pass, fs)  # the converged aux is in place now
        assert cold <= 1.15 * warm_pass


class TestReport:
    def make_outcome(self, doc=DOC, fs=None, **config_kwargs):
        config = JobConfig(jobname="refs", **config_kwargs)
        outcome = run_to_fixpoint(config, doc, fs if fs is not None else fs_with_bbl())
        return config, outcome

    def test_top_level_fields(self):
        config, outcome = self.make_outcome()
        report = build_report(config, outcome)
        assert report["jobname"] == "refs"
        assert report["passes_used"] == 2
        assert report["converged"] is True
        assert report["warnings"] == []
        assert report["undefined"] == []
        assert report["rendered"] == render_plain(outcome.final.rendered)
        assert report["rendered_annotated"] == render_annotated(outcome.final.rendered)

    def test_citation_states(self):
        config, outcome = self.make_outcome(doc="\\cite{a,miss}\n\\bibliography{refs}\n")
        report = build_report(config, outcome)
        assert report["citations"]["a"] == {"status": "defined", "label": "1"}
        assert report["citations"]["miss"] == {"status": "fallback", "label": "miss"}
        assert report["undefined"] == ["miss"]
        assert report["warnings"] == [
            {"line": 1, "key": "miss", "text": "1: Undefined citation `miss'."}
        ]

    def test_bibliography_section(self):
        config, outcome = self.make_outcome()
        section = build_report(config, outcome)["bibliography"]
        assert section["nobreak_before"] is True
        assert section["alignment"] == "labels_right"
        assert section["items"] == [
            {"key": "a", "label": "1", "alpha": False},
            {"key": "b", "label": "2", "alpha": False},
        ]
        layout = section["layout"]
        assert layout["biblabelwidth"] == {"pt": 15.0, "source": "1.5em"}
        assert layout["biblabelextraspace"] == {"pt": 5.0, "source": "0.5em"}
        assert layout["hangindent"] == {"pt": 20.0, "source": "2em"}
        assert layout["parskip"] == {
            "pt": 7.5,
            "source": "1.5ex plus 0.5ex minus 0.5ex",
            "stretch_pt": 2.5,
            "shrink_pt": 2.5,
        }
        assert layout["newblock_glue"]["source"] == "0.11em plus 0.33em minus 0.07em"
        assert layout["clubpenalty"] == 4000
        assert layout["widowpenalty"] == 4000
        assert layout["tolerance"] == 10000
        assert layout["hfuzz"] == {"pt": 0.5, "source": "0.5pt"}
        assert layout["frenchspacing"] is True

    def test_bibliography_absent(self):
        config, outcome = self.make_outcome(doc="\\cite{x}\n", fs=MemoryFiles())
        assert build_report(config, outcome)["bibliography"] is None

    def test_em_size_scales_point_values(self):
        config, outcome = self.make_outcome(em_size_pt=20)
        layout = build_report(config, outcome)["bibliography"]["layout"]
        assert layout["biblabelwidth"]["pt"] == 30.0
        assert layout["hangindent"]["pt"] == 40.0

    def test_report_json_round_trips(self):
        config, outcome = self.make_outcome()
        parsed = json.loads(report_json(config, outcome))
        assert parsed == build_report(config, outcome)

    def test_lint_collected(self):
        config, outcome = self.make_outcome(doc="\\cite{a, b}\n\\bibliography{refs}\n")
        report = build_report(config, outcome)
        assert any("contains a space" in note for note in report["lint"])
