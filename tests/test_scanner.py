"""Scanner behavior: streams, arguments, comma lists, and command runs.

Optional arguments, and ``next_command`` (through a ``\\cite``'s note
and keys the argument readers too, fast paths included), are checked
against ``tests/spec.py``, which reads one character at a time: value
or error, cursor, line and lint alike.
"""

import string
from unittest import mock

import pytest
import spec
from differential import outcome, token_text
from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import scanner
from citeforge.errors import ScanError, UnbalancedGroupError
from citeforge.scanner import (
    DOCUMENT_COMMANDS,
    CharStream,
    CommandInvocation,
    control_at,
    next_command,
    scan_group_arg,
    scan_optional_arg,
    skip_comment,
    skip_filler,
    split_comma_list,
)
from scanning import next_item


def optional_read(text):
    """``scan_optional_arg`` at the start of ``text``, shown as ``spec.optional_arg`` shows it.

    ``("ok", (value, end, line))``, or the error.
    """
    stream = CharStream(text)
    return outcome(lambda: (scan_optional_arg(stream), stream.position, stream.line))


class TestCharStream:
    def test_take_counts_lines(self):
        stream = CharStream("a\nb\nc")
        taken = [stream.take() for _ in range(5)]
        assert "".join(taken) == "a\nb\nc"
        assert stream.line == 3
        assert stream.at_end()

    def test_line_matches_newlines_consumed(self):
        stream = CharStream("x\ny\nz\n")
        while not stream.at_end():
            consumed = stream.content[: stream.position]
            assert stream.line == 1 + consumed.count("\n")
            stream.take()

    def test_peek_past_end_is_empty(self):
        stream = CharStream("q")
        assert stream.peek(1) == ""
        stream.take()
        assert stream.peek() == ""

    def test_take_to_returns_exact_slice(self):
        stream = CharStream("ab\ncd")
        assert stream.take_to(3) == "ab\n"
        assert stream.line == 2

    def test_jumping_past_a_control_symbol_counts_its_newline(self):
        stream = CharStream("\\\nx")
        name, end = control_at(stream.content, 0)
        assert (name, end) == ("\n", 2)
        assert stream.take_to(end) == "\\\n"
        assert stream.line == 2


class TestControlAt:
    def test_control_word_is_a_letter_run(self):
        assert control_at("x\\cite2", 1) == ("cite", 6)

    def test_control_symbol_is_one_character(self):
        assert control_at("\\%rest", 0) == ("%", 2)

    def test_lone_escape_at_end(self):
        assert control_at("tail\\", 4) == ("", 5)


class TestFiller:
    def test_skip_comment_eats_the_newline(self):
        stream = CharStream("% note\nrest")
        skip_comment(stream)
        assert stream.content[stream.position :] == "rest"

    def test_skip_filler_mixes_space_and_comments(self):
        stream = CharStream("  % one\n\t% two\n  x")
        skip_filler(stream)
        assert stream.peek() == "x"

    def test_skip_filler_stops_at_text(self):
        stream = CharStream("abc")
        skip_filler(stream)
        assert stream.position == 0


class TestOptionalArg:
    def test_absent_when_next_is_not_bracket(self):
        stream = CharStream("{group}")
        assert scan_optional_arg(stream) == ""
        assert stream.position == 0

    def test_simple(self):
        stream = CharStream("[page 9]rest")
        arg = scan_optional_arg(stream)
        assert arg == "page 9"
        assert stream.content[stream.position :] == "rest"

    def test_lookahead_skips_filler(self):
        stream = CharStream("  % comment\n [x]")
        assert scan_optional_arg(stream) == "x"

    def test_braced_close_bracket_does_not_close(self):
        text = "[a{]}b]tail"
        assert spec.optional_arg(text, 0) == ("a{]}b", 7, 1)
        assert optional_read(text) == ("ok", ("a{]}b", 7, 1))

    def test_escaped_bracket_is_literal(self):
        text = "[a\\]b]"
        assert spec.optional_arg(text, 0) == ("a\\]b", 6, 1)
        assert optional_read(text) == ("ok", ("a\\]b", 6, 1))

    def test_comment_inside_is_stripped(self):
        arg = scan_optional_arg(CharStream("[one% gone\ntwo]"))
        assert arg == "onetwo"

    def test_empty_brackets_act_absent_and_lint(self):
        notes = []
        stream = CharStream("[]x")
        arg = scan_optional_arg(stream, notes.append)
        assert arg == ""
        assert stream.peek() == "x"
        assert notes == ["1: empty optional argument '[]' treated as absent"]

    def test_unterminated_reports_opening_line(self):
        stream = CharStream("\n\n[never closed", source="f.tex")
        with pytest.raises(ScanError) as info:
            scan_optional_arg(stream)
        assert info.value.line == 3
        assert "f.tex:3:" in str(info.value)

    def test_stray_close_brace_raises(self):
        with pytest.raises(UnbalancedGroupError):
            scan_optional_arg(CharStream("[a}b]"))

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet="ab c.]\n", min_size=1, max_size=4),
                st.sampled_from(["\\]", "\\}", "\\{", "\\x", "}"]),
                st.text(alphabet="ab]", max_size=3).map(lambda s: "{" + s + "}"),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200)
    def test_agrees_with_reference_walker(self, pieces):
        text = "[" + "".join(pieces) + "]tail"
        assert optional_read(text) == outcome(spec.optional_arg, text, 0)

    @given(st.text(alphabet="abc{}] \n", max_size=6))
    def test_never_consumes_without_bracket(self, tail):
        text = "x" + tail
        stream = CharStream(text)
        assert scan_optional_arg(stream) == ""
        assert stream.position == 0


class TestOptionalArgFastPath:
    @pytest.mark.parametrize(
        "text",
        [
            "[Smith(2001)]",
            "[{Doe et~al.}(2009)]",
            "[\\lab{Qus}{27}{c}]",
            "[\\natexlab{a}]",
            "[2]",
            "[p.~7]",
            "[]",
        ],
    )
    def test_common_shapes_skip_the_general_path(self, text):
        with mock.patch.object(scanner, "_scan_to", side_effect=AssertionError):
            assert scan_optional_arg(CharStream(text + "{k}")) == text[1:-1]


class TestGroupArg:
    def test_outer_braces_stripped_inner_kept(self):
        assert scan_group_arg(CharStream("{a{b}c}")) == "a{b}c"

    def test_leading_filler_skipped(self):
        assert scan_group_arg(CharStream("  %c\n {x}")) == "x"

    def test_escaped_brace_does_not_nest(self):
        assert scan_group_arg(CharStream("{a\\}b}")) == "a\\}b"

    def test_comment_inside_is_stripped(self):
        assert scan_group_arg(CharStream("{Auth% wrap\nor}")) == "Author"

    def test_missing_open_brace(self):
        with pytest.raises(ScanError, match="expected '{'"):
            scan_group_arg(CharStream("plain"))

    def test_missing_at_end_of_input(self):
        with pytest.raises(ScanError, match="end of input"):
            scan_group_arg(CharStream("   "))

    def test_unterminated_group(self):
        with pytest.raises(UnbalancedGroupError):
            scan_group_arg(CharStream("{never"))


class TestCommaList:
    def test_empty_yields_nothing(self):
        assert split_comma_list("") == []

    def test_items_kept_verbatim(self):
        assert split_comma_list("a, b") == ["a", " b"]
        assert split_comma_list("a,,b") == ["a", "", "b"]
        assert split_comma_list(" x ") == [" x "]

    @given(st.lists(st.text(alphabet="ab c", min_size=1, max_size=5), min_size=1, max_size=6))
    def test_join_then_split_round_trips(self, items):
        assert split_comma_list(",".join(items)) == items


unknown_control = st.text(
    alphabet=string.ascii_letters, min_size=1, max_size=8
).filter(lambda name: name not in DOCUMENT_COMMANDS).map(lambda name: "\\" + name)

plain_chunk = st.text(alphabet="aA zZ09.,{}[]()<>\n\t'", min_size=1, max_size=10)

control_symbol = st.sampled_from(["\\%", "\\&", "\\,", "\\{", "\\}", "\\\\"])


class TestNextCommand:
    def test_text_run_is_maximal(self):
        stream = CharStream("one \\unknown two \\cite{k} three")
        first = next_item(stream)
        assert first == "one \\unknown two "
        second = next_item(stream)
        assert isinstance(second, CommandInvocation)
        assert second.name == "cite"
        assert second.arg == "k"
        assert next_item(stream) == " three"

    def test_unknown_prefix_of_known_name_passes_through(self):
        stream = CharStream("\\citex{k}")
        assert next_item(stream) == "\\citex{k}"

    def test_command_name_stops_at_non_letter(self):
        stream = CharStream("\\cite2")
        with pytest.raises(ScanError, match="expected '{'"):
            next_item(stream)

    def test_optional_and_note_scanned(self):
        stream = CharStream("\\cite[page 4]{a,b}")
        invocation = next_item(stream)
        assert invocation.optional == "page 4"
        assert invocation.arg == "a,b"

    def test_the_four_commands_are_recognized(self):
        assert DOCUMENT_COMMANDS == {"cite", "nocite", "bibliography", "bibliographystyle"}
        for name in sorted(DOCUMENT_COMMANDS):
            invocation = next_item(CharStream(f"\\{name} {{x}}"))
            assert invocation == CommandInvocation(name, "", "x", 1)

    @pytest.mark.parametrize("name", ["nocite", "bibliography", "bibliographystyle"])
    def test_only_cite_takes_an_optional_argument(self, name):
        assert next_item(CharStream(f"text\n\\{name}{{k}}")) == "text\n"
        # The call that reads the run before a bad command raises.
        stream = CharStream(f"text\n\\{name}[x]{{k}}", source="doc.tex")
        with pytest.raises(ScanError) as info:
            next_item(stream)
        assert str(info.value) == "doc.tex:2: expected '{' but found '['"
        assert next_item(CharStream("\\cite[x]{k}")) == CommandInvocation("cite", "x", "k", 1)

    def test_cite_keys_with_blanks_are_linted_in_key_order(self):
        notes = []
        stream = CharStream("\n\\cite[]{ a,b,c d,\te,\u3000f}", source="doc.tex")
        assert next_item(stream, lint=notes.append) == "\n"
        invocation = next_item(stream, lint=notes.append)
        assert invocation.arg == " a,b,c d,\te,\u3000f"
        assert notes == [
            "doc.tex:2: empty optional argument '[]' treated as absent",
            "doc.tex:2: citation key ` a' contains a space",
            "doc.tex:2: citation key `c d' contains a space",
            "doc.tex:2: citation key `\te' contains a space",
            "doc.tex:2: citation key `\u3000f' contains a space",
        ]

    def test_key_lint_is_at_the_command_line(self):
        notes = []
        next_item(CharStream("\\cite\n{a,\n b}", source="doc.tex"), lint=notes.append)
        assert notes == ["doc.tex:1: citation key `\n b' contains a space"]

    @pytest.mark.parametrize("name", ["nocite", "bibliography", "bibliographystyle"])
    def test_only_cite_keys_are_linted(self, name):
        notes = []
        invocation = next_item(CharStream(f"\\{name}{{a, b}}"), lint=notes.append)
        assert invocation.arg == "a, b"
        assert notes == []

    def test_key_lint_needs_a_sink(self):
        assert next_item(CharStream("\\cite{a, b}")).arg == "a, b"

    def test_filler_after_name_is_skipped(self):
        stream = CharStream("\\cite % wrapped\n  {key}")
        invocation = next_item(stream)
        assert invocation.arg == "key"

    def test_source_line_is_where_the_command_started(self):
        stream = CharStream("line one\ntwo \\cite{k}\n")
        next_item(stream)
        invocation = next_item(stream)
        assert invocation.source_line == 2

    def test_comment_joins_text_runs(self):
        stream = CharStream("half% comment\nway")
        assert next_item(stream) == "halfway"

    def test_a_run_across_comments_is_the_positions_of_its_pieces(self):
        stream = CharStream("half% comment\nway %\n\\cite{k} end % tail")
        assert next_command(stream) == ([0, 4, 14, 18], CommandInvocation("cite", "", "k", 3))
        assert stream.position == 28
        assert next_command(stream) == ([28, 33], None)
        assert next_command(CharStream("% only a comment")) == ([], None)

    def test_a_comment_hides_the_commands_in_it(self):
        stream = CharStream("a % \\cite{q} \\nocite{r}\nb \\cite{k}")
        assert next_command(stream) == ([0, 2, 24, 26], CommandInvocation("cite", "", "k", 2))

    def test_the_comment_search_reads_the_document_about_once(self):
        # A search for % stops at the next command's escape, so a comment
        # far after many cites is not searched for once per cite.
        searched = []

        class Document(str):
            def find(self, sub, start=0, end=None):
                if sub == "%":
                    searched.append((len(self) if end is None else end) - start)
                return super().find(sub, start, len(self) if end is None else end)

        document = Document("\\cite{k} " * 100 + "prose " * 100 + "% far\n")
        stream = CharStream(document)
        while stream.position < len(document):
            next_command(stream)
        assert 0 < sum(searched) <= len(document)

    def test_escaped_percent_is_not_a_comment(self):
        stream = CharStream("99\\% sure")
        assert next_item(stream) == "99\\% sure"

    def test_escapes_pair_off_before_a_name_or_a_comment(self):
        # An escaped escape leaves the next one free, so an even run of
        # escapes before a name or a % leaves it what it is.
        stream = CharStream("\\\\cite{j} \\\\\\cite{k}\\\\\\% \\\\% c\nx")
        assert next_command(stream) == ([0, 12], CommandInvocation("cite", "", "k", 1))
        assert next_command(stream) == ([20, 27, 31, 32], None)

    def test_escapes_before_the_stream_position_pair_with_nothing(self):
        # A scan starts a fresh token where the stream stands.
        stream = CharStream("\\\\cite{k}")
        stream.position = 1
        assert next_command(stream) == ([], CommandInvocation("cite", "", "k", 1))
        stream = CharStream("x\\\\% c\nrest")
        stream.position = 2
        assert next_command(stream) == ([2, 11], None)

    def test_trailing_lone_escape_passes_through(self):
        stream = CharStream("tail\\")
        assert next_item(stream) == "tail\\"

    def test_empty_input_yields_empty_text(self):
        assert next_item(CharStream("")) == ""

    @given(
        st.lists(
            st.one_of(plain_chunk, unknown_control, control_symbol),
            max_size=12,
        )
    )
    @settings(max_examples=200)
    def test_unrecognized_content_round_trips(self, pieces):
        document = " ".join(pieces)
        stream = CharStream(document)
        collected = []
        while not stream.at_end():
            item = next_item(stream)
            assert isinstance(item, str)
            collected.append(item)
        assert "".join(collected) == document

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet=" .,;:!?()'\n0123456789-", max_size=6),
                st.text(alphabet="abcxyz0189.:-", min_size=1, max_size=8),
                st.one_of(st.none(), st.text(alphabet="p. 0-9", min_size=1, max_size=5)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200)
    def test_embedded_commands_recover_their_arguments(self, entries):
        parts = []
        for filler, keys, note in entries:
            parts.append(filler)
            note_text = f"[{note}]" if note is not None else ""
            parts.append(f"\\cite{note_text}{{{keys}}}")
        stream = CharStream("".join(parts))
        seen = []
        while not stream.at_end():
            _, item = next_command(stream)
            if isinstance(item, CommandInvocation):
                seen.append((item.optional or None, item.arg))
        expected = [
            (note if note is not None else None, keys) for _, keys, note in entries
        ]
        assert seen == expected


# --- next_command against the spec -----------------------------------------


def scan_all(text: str, comments: bool):
    """Every step of the package's and the spec's scans of ``text`` to its end.

    A step is the item, cursor and line, and a scan ends at its end or
    at an error; then comes its lint.
    """
    stream = CharStream(text, line=2, source="f.tex", comments=comments)
    notes: list[str] = []
    steps = []
    while not stream.at_end():
        step = outcome(lambda: (next_command(stream, lint=notes.append), stream.position, stream.line))
        steps.append(step)
        if step[0] != "ok":
            break
    spec_notes: list[str] = []
    spec_steps = []
    i, line = 0, 2
    while i < len(text):
        step = outcome(
            spec.next_command, text, i, comments, line=line, source="f.tex", lint=spec_notes.append
        )
        spec_steps.append(step)
        if step[0] != "ok":
            break
        _, i, line = step[1]
    return (steps, notes), (spec_steps, spec_notes)


DOCUMENT_PIECES = (
    ["\\cite", "\\citex", "\\\\cite", "\\nocite[x]", "\\nocitex", "\\bibliography"]
    + ["\\bibliographystylex", "\\emph", "\\%", "\\\\", "\\\\%", "%\\cite{q}\n"]
    + ["\\cite\n[p.~3]{k}", "\\cite% x\n[p.~3]{k}", "\\cite{a}\\nocite{b}", "% c\n\\cite{k}"]
    + ["\\cite{u%v}", "\\cite{a\\}b}", "\\cite[]{k}", "\\cite{a, b}"]
    + ["\\cite[", "\\cite % c\n[", "\\cite[u%v]", "\\]", "{\n}", "\\lab{Qus}", "#"]
    + ["[", "]", "[]", "[p.~3]", "{", "}", "{a,b}", "{a b}", "{u%v}", "%", "% c\n", "\\\n"]
    + [" ", "\t", "\n", "a", ",", "é"]
)


class TestNextCommandFastPath:
    @given(
        token_text(DOCUMENT_PIECES, 16),
        st.sampled_from(["", "\\"]),
        st.booleans(),
    )
    @settings(max_examples=1000)
    def test_scans_like_the_former_loop(self, body, tail, comments):
        actual, expected = scan_all(body + tail, comments)
        assert actual == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("\\cite[p.~3]{a,b}", CommandInvocation("cite", "p.~3", "a,b", 1)),
            ("\\cite{a}", CommandInvocation("cite", "", "a", 1)),
            ("\\cite \n [Ch.~3] \n{a}", CommandInvocation("cite", "Ch.~3", "a", 1)),
            ("\\nocite{x,y}", CommandInvocation("nocite", "", "x,y", 1)),
            ("\\bibliographystyle{plain}", CommandInvocation("bibliographystyle", "", "plain", 1)),
            ("\\bibliography {refs}", CommandInvocation("bibliography", "", "refs", 1)),
        ],
    )
    def test_common_shapes_skip_the_general_path(self, text, expected):
        readers = ("skip_filler", "scan_optional_arg", "scan_group_arg")
        general = {name: mock.Mock(side_effect=AssertionError) for name in readers}
        with mock.patch.multiple(scanner, **general):
            stream = CharStream(text + "\nrest")
            assert next_item(stream) == expected
        assert (stream.position, stream.line) == (len(text), 1 + text.count("\n"))
