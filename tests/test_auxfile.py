"""Aux record serialization, the write queue, and the byte reader.

The newline-immunity checks are exhaustive where feasible: a record is
split at every single byte position, not just sampled ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge.auxfile import (
    MISSING_AUX_MESSAGE,
    AuxKind,
    AuxRecord,
    AuxSession,
    format_record,
    handle_missing_aux,
    read_aux,
)
from citeforge.errors import AuxCorruptError, AuxFormatError, UnbalancedGroupError
from citeforge.scanner import CharStream, scan_group_arg


class TestFormatRecord:
    def test_each_kind_has_its_line_form(self):
        assert format_record(AuxRecord.citation("a,b")) == "\\citation{a,b}\n"
        assert format_record(AuxRecord.bibdata("refs")) == "\\bibdata{refs}\n"
        assert format_record(AuxRecord.bibstyle("plain")) == "\\bibstyle{plain}\n"
        assert format_record(AuxRecord.citedef("k", "12")) == "\\@citedef{k}{12}\n"

    def test_payload_is_verbatim(self):
        assert format_record(AuxRecord.citation("a, b ,,c")) == "\\citation{a, b ,,c}\n"
        assert format_record(AuxRecord.citation("")) == "\\citation{}\n"

    def test_newlines_in_payload_rejected(self):
        with pytest.raises(AuxFormatError):
            format_record(AuxRecord.citation("a\nb"))
        with pytest.raises(AuxFormatError):
            format_record(AuxRecord.citedef("k", "1\r2"))

    def test_citedef_requires_label(self):
        with pytest.raises(AuxFormatError):
            format_record(AuxRecord(AuxKind.CITEDEF, "k"))


class TestSession:
    def test_writes_accumulate_in_order(self):
        session = AuxSession()
        session.write(AuxRecord.bibstyle("plain"))
        session.write(AuxRecord.citation("x"))
        assert session.serialize() == b"\\bibstyle{plain}\n\\citation{x}\n"

    def test_write_validates_immediately(self):
        session = AuxSession()
        with pytest.raises(AuxFormatError):
            session.write(AuxRecord.citation("bad\npayload"))
        assert session.pending_writes == []

    @pytest.mark.parametrize(
        "record, message",
        [
            (AuxRecord.citation("a\rb"), "citation payload may not contain a newline: 'a\\rb'"),
            (AuxRecord.bibstyle("a\nb"), "bibstyle payload may not contain a newline: 'a\\nb'"),
            (AuxRecord(AuxKind.CITEDEF, "k\n"), "@citedef payload may not contain a newline"),
            (AuxRecord(AuxKind.CITEDEF, "k"), "@citedef record requires a label"),
            (AuxRecord.citedef("k", "1\n"), "@citedef label may not contain a newline: '1\\n'"),
        ],
    )
    def test_write_and_format_reject_alike(self, record, message):
        # The first problem of a record is the one both report.
        with pytest.raises(AuxFormatError) as written:
            AuxSession().write(record)
        with pytest.raises(AuxFormatError) as formatted:
            format_record(record)
        assert str(written.value) == str(formatted.value)
        assert str(written.value).startswith(message)

    def test_no_aux_mode_discards_everything(self):
        session = AuxSession(no_aux=True)
        session.write(AuxRecord.citation("x"))
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
            AuxRecord.bibstyle("plain"),
            AuxRecord.citation("a,b"),
            AuxRecord.bibdata("refs"),
            AuxRecord.citedef("a", "1"),
            AuxRecord.citedef("b", "Knu84"),
        ):
            session.write(record)
        labels = parse_labels(session.serialize())
        assert list(labels.items()) == [("a", "1"), ("b", "Knu84")]

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

    def test_offset_survives_mid_name_splits(self):
        # The bad byte sits after a record that was itself split in two.
        content = b"\\cita\ntion{a}\nJUNK"
        with pytest.raises(AuxCorruptError) as info:
            parse_labels(content)
        assert content[info.value.offset : info.value.offset + 4] == b"JUNK"


payload_text = st.text(
    alphabet="abcdefgh XYZ0123456789.,:-", max_size=10
)
record_strategy = st.one_of(
    payload_text.map(AuxRecord.citation),
    payload_text.map(AuxRecord.bibdata),
    payload_text.map(AuxRecord.bibstyle),
    st.tuples(
        st.text(alphabet="abcdef.:-0123456789", min_size=1, max_size=8), payload_text
    ).map(lambda pair: AuxRecord.citedef(*pair)),
)


@given(st.lists(record_strategy, max_size=10), st.data())
@settings(max_examples=150)
def test_serialized_records_survive_arbitrary_line_splits(records, data):
    session = AuxSession()
    for record in records:
        session.write(record)
    raw = session.serialize()
    expected = parse_labels(raw)

    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(raw)), max_size=6)
    )
    mangled = raw
    for cut in sorted(cuts, reverse=True):
        mangled = mangled[:cut] + b"\n" + mangled[cut:]
    assert parse_labels(mangled) == expected


# The reader as it was when it mapped every kept byte to its original
# offset up front (the ``origin`` list), kept as the reference for the
# offsets now worked out only when an error is raised.
_REFERENCE_OPENERS = (
    (AuxKind.CITEDEF, "\\@citedef{"),
    (AuxKind.CITATION, "\\citation{"),
    (AuxKind.BIBDATA, "\\bibdata{"),
    (AuxKind.BIBSTYLE, "\\bibstyle{"),
)


def reference_read_aux(content: bytes, labels: dict) -> None:
    stripped = bytearray()
    origin: list[int] = []
    for index, byte in enumerate(content):
        if byte not in (0x0A, 0x0D):
            stripped.append(byte)
            origin.append(index)
    origin.append(len(content))  # sentinel for end-of-data offsets
    stream = CharStream(stripped.decode("latin-1"), comments=False)

    def utf8(text: str) -> str:
        return text.encode("latin-1").decode("utf-8")

    while not stream.at_end():
        record_start = stream.position
        for kind, opener in _REFERENCE_OPENERS:
            if stream.content.startswith(opener, record_start):
                break
        else:
            raise AuxCorruptError("unrecognized aux content", origin[record_start])
        stream.take_to(record_start + len(opener) - 1)
        offset = origin[record_start]
        try:
            payload = scan_group_arg(stream)
            if kind is AuxKind.CITEDEF:
                if stream.peek() != "{":
                    raise AuxCorruptError("@citedef record missing its label", offset)
                label = scan_group_arg(stream)
                labels[utf8(payload)] = utf8(label)
        except UnbalancedGroupError:
            raise AuxCorruptError("unterminated record", offset) from None
        except UnicodeDecodeError:
            raise AuxCorruptError("@citedef record is not UTF-8 text", offset) from None


def outcome_of(reader, content: bytes):
    labels = {}
    try:
        reader(content, labels)
    except AuxCorruptError as exc:
        return ("error", str(exc), exc.offset, labels)
    return ("ok", labels)


aux_payload = st.text(alphabet="ab9 .é{}\\", max_size=6).map(lambda text: text.encode())
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

    def current(content, labels):
        read_aux(labels, content)

    assert outcome_of(current, content) == outcome_of(reference_read_aux, content)
