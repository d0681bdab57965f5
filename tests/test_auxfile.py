"""Aux record lines, the write queue, and the byte reader.

A record is given as its kind, payload and label, and is its line from
the moment it is written: the queue holds only text.

The newline-immunity checks are exhaustive where feasible: a record is
split at every single byte position, not just sampled ones.  The
reader, its plain-record fast path and its error offsets, and the
record lines are checked against ``tests/spec.py``, which reads the
bytes one at a time.
"""

import re
from unittest import mock

import pytest
import spec
from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import auxfile
from citeforge.auxfile import (
    MISSING_AUX_MESSAGE,
    AuxSession,
    format_record,
    handle_missing_aux,
    read_aux,
)
from citeforge.bbl import process_bbl
from citeforge.errors import AuxCorruptError, AuxFormatError, CiteforgeError


class TestFormatRecord:
    def test_each_kind_has_its_line_form(self):
        assert format_record("citation", "a,b") == "\\citation{a,b}\n"
        assert format_record("bibdata", "refs") == "\\bibdata{refs}\n"
        assert format_record("bibstyle", "plain") == "\\bibstyle{plain}\n"
        assert format_record("@citedef", "k", "12") == "\\@citedef{k}{12}\n"

    def test_payload_is_verbatim(self):
        assert format_record("citation", "a, b ,,c") == "\\citation{a, b ,,c}\n"
        assert format_record("citation", "") == "\\citation{}\n"

    def test_newlines_in_payload_rejected(self):
        with pytest.raises(AuxFormatError):
            format_record("citation", "a\nb")
        with pytest.raises(AuxFormatError):
            format_record("@citedef", "k", "1\r2")

    def test_citedef_requires_label(self):
        with pytest.raises(AuxFormatError):
            format_record("@citedef", "k")

    def test_kind_is_the_control_word(self):
        for kind in ("citation", "bibdata", "bibstyle", "@citedef"):
            label = "1" if kind == "@citedef" else None
            assert format_record(kind, "k", label).startswith(f"\\{kind}{{k}}")

    @pytest.mark.parametrize(
        "record, message",
        [
            (("bogus", "x"), "unknown aux record kind 'bogus'"),
            (("\\citation", "x"), "unknown aux record kind '\\\\citation'"),
            (("citation", "a", "L"), "citation record takes no label"),
            (("bibdata", "refs", ""), "bibdata record takes no label"),
            (("bibstyle", "plain", "x"), "bibstyle record takes no label"),
        ],
    )
    def test_writer_refuses_what_the_reader_would_not_read_back(self, record, message):
        with pytest.raises(AuxFormatError, match=f"^{re.escape(message)}$"):
            format_record(*record)
        session = AuxSession()
        with pytest.raises(AuxFormatError, match=f"^{re.escape(message)}$"):
            session.write(*record)
        assert session.pending_writes == []


class TestSession:
    def test_writes_accumulate_in_order(self):
        session = AuxSession()
        session.write("bibstyle", "plain")
        session.write("citation", "x")
        assert session.serialize() == b"\\bibstyle{plain}\n\\citation{x}\n"

    def test_checked_records_are_queued_whole_in_their_place(self):
        lines = "".join(
            format_record("@citedef", key, label) for key, label in (("a", "1"), ("b", "2"))
        )
        session = AuxSession()
        session.write("bibdata", "refs")
        session.write_checked(lines)
        session.write("citation", "a")
        session.write_checked(lines)
        assert session.pending_writes[1] is lines
        block = b"\\@citedef{a}{1}\n\\@citedef{b}{2}\n"
        assert lines.encode("utf-8") == block
        assert session.serialize() == b"\\bibdata{refs}\n" + block + b"\\citation{a}\n" + block
        dropped = AuxSession(no_aux=True)
        dropped.write_checked(lines)
        assert dropped.pending_writes == []

    def test_the_queue_is_the_lines_in_write_order(self):
        citedefs = format_record("@citedef", "a", "1") + format_record("@citedef", "b", "[X]")
        session = AuxSession()
        session.write("bibstyle", "plain")
        session.write("citation", "a, b")
        session.write("bibdata", "refs")
        session.write_checked(citedefs)
        session.write("citation", "")
        assert session.pending_writes == [
            "\\bibstyle{plain}\n",
            "\\citation{a, b}\n",
            "\\bibdata{refs}\n",
            citedefs,
            "\\citation{}\n",
        ]
        assert all(type(line) is str for line in session.pending_writes)
        assert session.pending_writes[3] is citedefs
        assert session.serialize() == "".join(session.pending_writes).encode("utf-8")

    def test_lines_are_joined_in_batches_and_a_checked_run_stays_whole(self):
        citedefs = format_record("@citedef", "a", "1")
        lines = [format_record("citation", f"k{n}") for n in range(200)]
        session = AuxSession()
        for n in range(100):
            session.write("citation", f"k{n}")
        session.write_checked(citedefs)
        for n in range(100, 200):
            session.write("citation", f"k{n}")
        assert session.pending_writes == [
            "".join(lines[:64]), *lines[64:100], citedefs, "".join(lines[100:164]), *lines[164:]
        ]
        assert session.pending_writes[37] is citedefs
        assert session.serialize() == "".join(lines[:100] + [citedefs] + lines[100:]).encode()

    def test_write_validates_immediately(self):
        session = AuxSession()
        with pytest.raises(AuxFormatError):
            session.write("citation", "bad\npayload")
        assert session.pending_writes == []

    @pytest.mark.parametrize(
        "record, message",
        [
            (("citation", "a\rb"), "citation payload may not contain a newline: 'a\\rb'"),
            (("bibstyle", "a\nb"), "bibstyle payload may not contain a newline: 'a\\nb'"),
            (("@citedef", "k\n"), "@citedef payload may not contain a newline"),
            (("@citedef", "k"), "@citedef record requires a label"),
            (("@citedef", "k", "1\n"), "@citedef label may not contain a newline: '1\\n'"),
            (("cite", "a\nb"), "unknown aux record kind 'cite'"),
            (("citation", "a\nb", "L"), "citation payload may not contain a newline"),
        ],
    )
    def test_write_and_format_reject_alike(self, record, message):
        # The first problem of a record is the one both report.
        with pytest.raises(AuxFormatError) as written:
            AuxSession().write(*record)
        with pytest.raises(AuxFormatError) as formatted:
            format_record(*record)
        assert str(written.value) == str(formatted.value)
        assert str(written.value).startswith(message)

    @given(
        st.lists(
            st.builds(
                # A label on @citedef records only, the one kind that takes one.
                lambda kind, payload, label: (kind, payload, label if kind == "@citedef" else None),
                st.sampled_from(["citation", "bibdata", "bibstyle", "@citedef"]),
                st.text(alphabet="ab,{}\\ é€😀\x00", max_size=6),
                st.text(alphabet="1aé😀", max_size=3),
            ),
            max_size=6,
        )
    )
    def test_serialize_joins_then_encodes_once(self, records):
        # Each record's line as the spec writes it, encoded on its own, then joined.
        session = AuxSession()
        for record in records:
            session.write(*record)
        expected = b"".join(spec.format_record(*r).encode("utf-8") for r in records)
        assert session.serialize() == expected

    def test_newline_payload_still_refused_at_write_time(self):
        session = AuxSession()
        session.write("citation", "ok")
        with pytest.raises(AuxFormatError) as info:
            session.write("@citedef", "k", "two\nlines")
        assert str(info.value) == "@citedef label may not contain a newline: 'two\\nlines'"
        assert session.serialize() == b"\\citation{ok}\n"

    def test_no_aux_mode_discards_everything(self):
        session = AuxSession(no_aux=True)
        session.write("citation", "x")
        assert session.pending_writes == []
        assert session.serialize() == b""

    def test_missing_aux_notice(self):
        assert handle_missing_aux() == MISSING_AUX_MESSAGE


def parse_labels(content: bytes) -> dict:
    labels = {}
    read_aux(labels, content)
    return labels


class TestReadAux:
    def test_round_trip_applies_citedefs_only(self):
        session = AuxSession()
        for record in (
            ("bibstyle", "plain"),
            ("citation", "a,b"),
            ("bibdata", "refs"),
            ("@citedef", "a", "1"),
            ("@citedef", "b", "Knu84"),
        ):
            session.write(*record)
        labels = parse_labels(session.serialize())
        assert list(labels.items()) == [("a", "1"), ("b", "Knu84")]

    def test_records_of_the_expected_items_are_entered_under_their_strings(self):
        # Keys and labels of more than one character: CPython shares the
        # one-character strings, so those would be the same object either way.
        items = process_bbl(
            "\\begin{thebibliography}{9}\n\\bibitem[Tag1]{alpha} A.\n"
            "\\bibitem[Tag2]{b{r}ace} B.\n\\end{thebibliography}\n"
        ).items
        content = (
            b"\\citation{alpha}\n\\@citedef{alpha}{Tag1}\n\\@citedef{b{r}ace}{Tag2}\n"
            b"\\@citedef{gamma}{Tag3}\n\\@citedef{alpha}{Other}\n\\@citedef{b{r}ace}{Tag2}\n"
        )
        labels = {}
        read_aux(labels, content, items=items)
        assert labels == {"alpha": "Other", "b{r}ace": "Tag2", "gamma": "Tag3"}
        alpha, brace, _ = labels
        assert alpha is items[0].key and brace is items[1].key
        assert labels[brace] is items[1].label
        assert labels == parse_labels(content)

    def test_later_definition_wins(self):
        content = b"\\@citedef{k}{old}\\@citedef{k}{new}"
        assert parse_labels(content) == {"k": "new"}

    def test_empty_content_defines_nothing(self):
        assert parse_labels(b"") == {}

    def test_split_anywhere_parses_identically(self):
        raw = b"\\@citedef{key one}{[AB]}\\citation{x,y}\\@citedef{z}{2}"
        expected = parse_labels(raw)
        for i in range(len(raw) + 1):
            for sep in (b"\n", b"\r\n", b"\r"):
                split = raw[:i] + sep + raw[i:]
                assert parse_labels(split) == expected

    def test_braces_in_payload_nest(self):
        assert parse_labels(b"\\@citedef{k}{{\\em 9}}") == {"k": "{\\em 9}"}

    def test_escaped_brace_in_payload(self):
        assert parse_labels(b"\\@citedef{k}{a\\}b}") == {"k": "a\\}b"}

    def test_unrecognized_content_reports_original_offset(self):
        content = b"\\citation{a}\nJUNK"
        with pytest.raises(AuxCorruptError) as info:
            parse_labels(content)
        assert info.value.offset == 13
        assert "(byte 13)" in str(info.value)

    def test_junk_at_start(self):
        with pytest.raises(AuxCorruptError) as info:
            parse_labels(b"hello")
        assert info.value.offset == 0

    def test_unterminated_record(self):
        with pytest.raises(AuxCorruptError, match="unterminated record"):
            parse_labels(b"\\citation{a")

    def test_citedef_without_label(self):
        content = b"\\citation{ok}\n\\@citedef{k}"
        with pytest.raises(AuxCorruptError) as info:
            parse_labels(content)
        assert "missing its label" in str(info.value)
        assert info.value.offset == 14

    def test_scanned_record_not_utf8_is_located(self):
        # The escape keeps the record off the plain pattern, so the scanner reads it.
        content = b"\\citation{a}\n\\@citedef{\\x\xff}{1}"
        with pytest.raises(AuxCorruptError) as info:
            parse_labels(content)
        assert str(info.value) == "@citedef record is not UTF-8 text (byte 13)"
        assert info.value.offset == 13

    def test_offset_survives_mid_name_splits(self):
        # The bad byte sits after a record that was itself split in two.
        content = b"\\cita\ntion{a}\nJUNK"
        with pytest.raises(AuxCorruptError) as info:
            parse_labels(content)
        assert content[info.value.offset : info.value.offset + 4] == b"JUNK"


def read_through(reader, content: bytes):
    """The labels entered, in order, and the error if there was one."""
    labels: dict = {}
    try:
        reader(labels, content, "x.aux")
    except CiteforgeError as exc:
        return list(labels.items()), type(exc), str(exc), getattr(exc, "offset", None)
    return list(labels.items()), None


aux_payload = st.text(alphabet="ab9 .é{}\\%#\t", max_size=6).map(lambda text: text.encode())
aux_record = st.one_of(
    aux_payload.map(lambda key: b"\\citation{" + key + b"}"),
    st.tuples(aux_payload, aux_payload).map(
        lambda pair: b"\\@citedef{" + pair[0] + b"}{" + pair[1] + b"}"
    ),
    st.just(b"\\bibdata{refs}"),
    st.just(b"\\bibstyle{plain}"),
)
aux_fault = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=4),  # junk
    st.tuples(aux_record, st.integers(min_value=1, max_value=30)).map(
        lambda cut: cut[0][: cut[1]]  # a truncated record
    ),
    aux_payload.map(lambda key: b"\\@citedef{" + key + b"}"),  # no label
    st.just(b"\\@citedef{k}{\xff}"),  # label not UTF-8
)


@given(st.lists(aux_record, max_size=6), aux_fault, st.lists(aux_record, max_size=2), st.data())
@settings(max_examples=300)
def test_error_offsets_match_the_origin_list(records, fault, after, data):
    content = b"".join(records) + fault + b"".join(after)
    breaks = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(content)),
                st.sampled_from([b"\n", b"\r", b"\r\n", b"\n\n"]),
            ),
            max_size=8,
        )
    )
    for position, line_break in sorted(breaks, reverse=True):
        content = content[:position] + line_break + content[position:]

    assert read_through(read_aux, content) == read_through(spec.read_aux, content)


def test_plain_records_skip_the_general_path():
    content = b"\\citation{a,b}\n\\bibstyle{plain}\\bibdata{refs}\\@citedef{a}{[Do\xc3\xa9 09]}"
    with mock.patch.object(auxfile, "_read_record", side_effect=AssertionError):
        assert parse_labels(content) == {"a": "[Doé 09]"}


def test_plain_record_not_utf8_is_located():
    content = b"\\citation{a}\n\\@citedef{a}{\xff}"
    with pytest.raises(AuxCorruptError) as info:
        parse_labels(content)
    assert str(info.value) == "@citedef record is not UTF-8 text (byte 13)"
