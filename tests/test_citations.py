"""Label table states and the rendering of cite/nocite."""

import pytest

from citeforge.auxfile import AuxKind, AuxSession
from citeforge.citations import (
    Defined,
    Fallback,
    LabelTable,
    Undefined,
    cite,
    nocite,
    undefined_citation_warning,
)
from citeforge.rendering import Span, Style, render_annotated, render_plain
from citeforge.scanner import EMPTY_OPTIONAL, OptionalArg


class TestLabelTable:
    def test_unseen_key_is_undefined(self):
        assert LabelTable().state_for("x") == Undefined()

    def test_define_and_lookup(self):
        table = LabelTable()
        table.define("k", "7")
        assert table.state_for("k") == Defined("7")
        assert table.entries == {"k": Defined("7")}

    def test_fallback_then_define_upgrades(self):
        table = LabelTable()
        table.set_fallback("k")
        assert table.state_for("k") == Fallback("k")
        table.define("k", "3")
        assert table.state_for("k") == Defined("3")

    def test_keys_in_first_touch_order(self):
        table = LabelTable()
        table.set_fallback("later")
        table.define("first", "1")
        assert list(table.entries) == ["later", "first"]
        assert len(table) == 2


class TestWarningText:
    def test_with_line_number(self):
        assert undefined_citation_warning(42, "x") == "42: Undefined citation `x'."


class TestCiteOne:
    """A cite of one key: its state decides the span and the warning."""

    def cite_key(self, key, table, line, session=None):
        session = session or AuxSession()
        warnings = []
        fragment = cite(
            session, table, key, EMPTY_OPTIONAL, line,
            warn=lambda line, key, text: warnings.append(text),
        )
        return fragment, warnings

    def test_defined_renders_plain_label(self):
        table = LabelTable()
        table.define("k", "12")
        fragment, warnings = self.cite_key("k", table, 1)
        assert fragment.spans == [Span(Style.PLAIN, "[12]")]
        assert warnings == []

    def test_undefined_warns_once_and_falls_back(self):
        table = LabelTable()
        session = AuxSession()
        first, warnings = self.cite_key("x", table, 7, session)
        assert first.spans == [
            Span(Style.PLAIN, "["), Span(Style.TYPEWRITER, "x"), Span(Style.PLAIN, "]")
        ]
        assert warnings == ["7: Undefined citation `x'."]
        assert table.state_for("x") == Fallback("x")
        second, again = self.cite_key("x", table, 9, session)
        assert second.spans == first.spans
        assert again == []

    def test_fallback_set_even_with_warnings_disabled(self):
        table = LabelTable()
        session = AuxSession()
        session.warnings_enabled = False
        fragment, warnings = self.cite_key("x", table, 3, session)
        assert warnings == []
        assert table.state_for("x") == Fallback("x")
        assert fragment.spans == [
            Span(Style.PLAIN, "["), Span(Style.TYPEWRITER, "x"), Span(Style.PLAIN, "]")
        ]


class TestNocite:
    def test_records_verbatim(self):
        session = AuxSession()
        nocite(session, "a, b ,c")
        assert len(session.pending_writes) == 1
        assert session.pending_writes[0].kind is AuxKind.CITATION
        assert session.pending_writes[0].payload == "a, b ,c"


class TestCite:
    def run_cite(self, keys, table=None, note=EMPTY_OPTIONAL, session=None):
        table = table if table is not None else LabelTable()
        session = session or AuxSession()
        warnings = []
        notes = []
        fragment = cite(
            session,
            table,
            keys,
            note,
            5,
            warn=lambda line, key, text: warnings.append(text),
            lint=notes.append,
        )
        return fragment, warnings, notes, session

    def test_defined_pair_renders_bracketed_list(self):
        table = LabelTable()
        table.define("a", "1")
        table.define("b", "2")
        fragment, warnings, notes, _ = self.run_cite("a,b", table)
        assert render_plain(fragment) == "[1, 2]"
        assert warnings == [] and notes == []

    def test_optional_note_appended(self):
        table = LabelTable()
        table.define("a", "1")
        fragment, _, _, _ = self.run_cite("a", table, note=OptionalArg("page 3"))
        assert render_plain(fragment) == "[1, page 3]"

    def test_empty_keys_render_empty_brackets(self):
        fragment, warnings, _, session = self.run_cite("")
        assert render_plain(fragment) == "[]"
        assert warnings == []
        assert session.pending_writes[0].payload == ""

    def test_payload_recorded_unsplit(self):
        _, _, _, session = self.run_cite("a, b")
        assert session.pending_writes[0].payload == "a, b"

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
        table = LabelTable()
        session = AuxSession()
        _, first, _, _ = self.run_cite("x", table, session=session)
        _, second, _, _ = self.run_cite("x", table, session=session)
        assert first == ["5: Undefined citation `x'."]
        assert second == []

    def test_no_warning_when_session_disabled(self):
        session = AuxSession(no_aux=True)
        _, warnings, _, _ = self.run_cite("x", session=session)
        assert warnings == []

    def test_mixed_defined_and_fallback(self):
        table = LabelTable()
        table.define("a", "1")
        fragment, warnings, _, _ = self.run_cite("a,miss", table)
        assert render_annotated(fragment) == "[1, ⟨tt:miss⟩]"
        assert warnings == ["5: Undefined citation `miss'."]
