"""The pass's label map and the rendering of cite/nocite."""

import pytest

from citeforge.auxfile import AuxSession
from citeforge.citations import CiteWarning, cite, nocite
from citeforge.driver import FixpointResult, JobConfig, build_report, run_pass
from citeforge.files import MemoryFiles
from citeforge.rendering import RenderedFragment, Span, Style, render_annotated, render_plain
from citeforge.scanner import CharStream, next_command

BBL = (
    "\\begin{thebibliography}{9}\n"
    "\\bibitem{first} First.\n"
    "\\bibitem{later} Later.\n"
    "\\end{thebibliography}\n"
)


def pass_over(document, aux=b""):
    """One pass over ``document`` with ``aux`` as the aux file read."""
    config = JobConfig(jobname="doc")
    fs = MemoryFiles({"doc.aux": aux, "doc.bbl": BBL.encode()})
    result = run_pass(config, document, fs)
    return result, build_report(config, FixpointResult(result, 1, False, [result.aux_bytes]))


class TestLabelTable:
    """``PassResult.labels``: a label, None for a fallback, absent if untouched."""

    def test_unseen_key_is_undefined(self):
        result, _ = pass_over("\\nocite{x}")
        assert result.labels == {}
        result, _ = pass_over("\\cite{x}\\cite{x}")
        assert result.labels == {"x": None}
        assert result.warning_texts() == ["1: Undefined citation `x'."]

    def test_define_and_lookup(self):
        result, report = pass_over("\\cite{k}", aux=b"\\@citedef{k}{7}\n")
        assert result.labels == {"k": "7"}
        assert render_plain(result.rendered) == "[7]"
        assert report["citations"] == {"k": {"status": "defined", "label": "7"}}

    def test_fallback_then_define_upgrades(self):
        result, report = pass_over("\\cite{later}\n\\bibliography{refs}\n")
        assert result.labels == {"later": "2", "first": "1"}
        assert result.warning_texts() == ["1: Undefined citation `later'."]
        assert result.undefined_keys == [] and report["undefined"] == []

    def test_keys_in_first_touch_order(self):
        document = "\\cite{miss,later}\n\\bibliography{refs}\n\\cite{gone}\n"
        result, report = pass_over(document, aux=b"\\@citedef{old}{9}\n")
        assert list(result.labels) == ["old", "miss", "later", "first", "gone"]
        assert report["citations"] == {
            "old": {"status": "defined", "label": "9"},
            "miss": {"status": "fallback", "label": "miss"},
            "later": {"status": "defined", "label": "2"},
            "first": {"status": "defined", "label": "1"},
            "gone": {"status": "fallback", "label": "gone"},
        }
        assert list(report["citations"]) == list(result.labels)

    def test_empty_label_stays_defined(self):
        result, report = pass_over("\\cite{k}", aux=b"\\@citedef{k}{}\n")
        assert result.labels == {"k": ""}
        assert render_plain(result.rendered) == "[]"
        assert result.warnings == [] and result.undefined_keys == []
        assert report["citations"] == {"k": {"status": "defined", "label": ""}}


class TestWarningText:
    def test_with_line_number(self):
        assert CiteWarning(42, "x").text == "42: Undefined citation `x'."
        assert CiteWarning(42, "x") == (42, "x")


class TestCiteOne:
    """A cite of one key: its state decides the span and the warning."""

    def cite_key(self, key, labels, line, session=None, warnings_on=True):
        session = session or AuxSession()
        warnings = []
        fragment = RenderedFragment()
        cite(session, labels, key, "", line, fragment, warnings=warnings if warnings_on else None)
        return fragment, [w.text for w in warnings]

    def test_defined_renders_plain_label(self):
        fragment, warnings = self.cite_key("k", {"k": "12"}, 1)
        assert fragment.spans == [Span(Style.PLAIN, "[12]")]
        assert warnings == []

    def test_undefined_warns_once_and_falls_back(self):
        labels = {}
        session = AuxSession()
        first, warnings = self.cite_key("x", labels, 7, session)
        assert first.spans == [
            Span(Style.PLAIN, "["), Span(Style.TYPEWRITER, "x"), Span(Style.PLAIN, "]")
        ]
        assert warnings == ["7: Undefined citation `x'."]
        assert labels == {"x": None}
        second, again = self.cite_key("x", labels, 9, session)
        assert second.spans == first.spans
        assert again == []

    def test_fallback_set_even_with_warnings_disabled(self):
        labels = {}
        fragment, warnings = self.cite_key("x", labels, 3, warnings_on=False)
        assert warnings == []
        assert labels == {"x": None}
        assert fragment.spans == [
            Span(Style.PLAIN, "["), Span(Style.TYPEWRITER, "x"), Span(Style.PLAIN, "]")
        ]


class TestNocite:
    def test_records_verbatim(self):
        session = AuxSession()
        nocite(session, "a, b ,c")
        assert session.pending_writes == ["\\citation{a, b ,c}\n"]


class TestCite:
    def run_cite(self, keys, labels=None, note="", session=None):
        """Cite ``keys`` at line 5; ``notes`` is what scanning ``\\cite{keys}`` lints."""
        labels = labels if labels is not None else {}
        session = session or AuxSession()
        warnings = []
        notes = []
        next_command(CharStream(f"\\cite{{{keys}}}", line=5), lint=notes.append)
        fragment = RenderedFragment()
        cite(session, labels, keys, note, 5, fragment, warnings=warnings)
        return fragment, [w.text for w in warnings], notes, session

    def test_defined_pair_renders_bracketed_list(self):
        fragment, warnings, notes, _ = self.run_cite("a,b", {"a": "1", "b": "2"})
        assert render_plain(fragment) == "[1, 2]"
        assert warnings == [] and notes == []

    def test_optional_note_appended(self):
        fragment, _, _, _ = self.run_cite("a", {"a": "1"}, note="page 3")
        assert render_plain(fragment) == "[1, page 3]"

    def test_warnings_are_appended_as_line_and_key(self):
        warnings = [CiteWarning(1, "old")]
        rendered = RenderedFragment()
        cite(AuxSession(), {"a": "1"}, "miss,a,miss,new", "", 8, rendered, warnings=warnings)
        assert warnings == [CiteWarning(1, "old"), CiteWarning(8, "miss"), CiteWarning(8, "new")]

    def test_empty_keys_render_empty_brackets(self):
        fragment, warnings, _, session = self.run_cite("")
        assert render_plain(fragment) == "[]"
        assert warnings == []
        assert session.pending_writes == ["\\citation{}\n"]

    def test_payload_recorded_unsplit(self):
        _, _, _, session = self.run_cite("a, b")
        assert session.pending_writes == ["\\citation{a, b}\n"]

    @pytest.mark.parametrize(
        "key",
        [" b", "\tb", "b ", "\u3000b", "b\x1c"],
        ids=["leading-space", "tab", "trailing-space", "ideographic-space", "separator"],
    )
    def test_key_with_space_kept_and_linted(self, key):
        fragment, warnings, notes, _ = self.run_cite("a," + key)
        assert render_annotated(fragment) == f"[⟨tt:a⟩, ⟨tt:{key}⟩]"
        assert notes == [f"5: citation key `{key}' contains a space"]
        assert [w for w in warnings if f"`{key}'" in w]

    def test_warning_once_per_key_across_cites(self):
        labels = {}
        session = AuxSession()
        _, first, _, _ = self.run_cite("x", labels, session=session)
        _, second, _, _ = self.run_cite("x", labels, session=session)
        assert first == ["5: Undefined citation `x'."]
        assert second == []

    def test_no_warning_when_session_disabled(self):
        # A no-aux pass, like one that found no aux file, cites without warning.
        fs = MemoryFiles()
        result = run_pass(JobConfig(jobname="doc", no_aux=True), "\\cite{x}", fs)
        assert result.warnings == [] and result.labels == {"x": None}
        assert render_annotated(result.rendered) == "[⟨tt:x⟩]"

    def test_mixed_defined_and_fallback(self):
        fragment, warnings, _, _ = self.run_cite("a,miss", {"a": "1"})
        assert render_annotated(fragment) == "[1, ⟨tt:miss⟩]"
        assert warnings == ["5: Undefined citation `miss'."]
