"""Document scanning: commands, arguments, and plain text runs.

The scanner works on a fixed character regime: ``\\`` starts a command,
``{``/``}`` delimit groups, ``%`` starts a comment running to the end
of the line, and command names are maximal ASCII letter runs (a single
non-letter character otherwise).  One token pattern, :data:`TOKEN`
(:data:`TEXT_TOKEN` for text without comments), lexes all of it: a
match at a position is a word run, a blank run, a control sequence, a
brace or a comment, and ``lastgroup`` names which.  The bbl reader walks
its text one such match at a time (after a control word, the ``after``
group spans the filler that follows it).  One more kind, ``styled``, is
a whole group of a style switch, blanks on its line and one word run,
as in ``{\\sc Proceedings}``; anything else after ``{`` is the ``open``
kind.  The macro engine's :func:`control_at` is the control-sequence
pattern matched at an escape.  Comments are stripped wherever the
scanner reads file text, including inside arguments; the comment
consumes its newline, so a line split with a trailing ``%`` joins
seamlessly.  Text scanned once already (labels, macro bodies,
replacement texts) has no comments left, so a stream over it sets
``comments`` false and any ``%`` there is an ordinary character.

Only the commands in :data:`DOCUMENT_COMMANDS` are recognized by
:func:`next_command`.  Everything else, including unknown commands,
passes through byte-for-byte as plain text, which is what makes
scanning safe on documents full of markup this package does not
understand.  Each recognized command takes one ``{...}`` argument, and
``cite`` alone also takes an optional ``[...]`` note before it.  The
scanner hands arguments on as plain strings: an optional argument is
its text, and ``""`` when it is absent or empty.  Each call of
:func:`next_command` returns a text run together with the command that
ends it, ``None`` at the end of input, so a pass makes one call per
command.  A text run is not copied: it comes back as the positions of
its comment-free pieces in the document, which a pass keeps as they are
(see :mod:`.rendering`).  The scan moves a local cursor over the
document and updates the stream's position and line once, where the
run ends, before it reads the command's arguments.

The document scanner does not stop at every control sequence.  It
searches for a recognized name, escape included, and for a ``%`` only
between where it stands and that candidate.  Escapes pair off from
where a scan starts, so a candidate counts only when the run of escapes
just before it, counted back no further than that start, has even
length: in ``\\\\cite`` the escape before ``cite`` is itself escaped,
and ``\\%`` is a percent sign, not a comment.  A comment that runs past
the candidate swallows it, and the name search goes on after the
comment.  Each search starts past where the last of its kind stopped,
and each run of escapes is counted once, so a scan is linear.

The name's pattern also reads the plain shape of its arguments whole:
blanks, for ``cite`` a non-empty note, blanks, and the group, with no
escape, brace, ``%`` or line break in the note or the group, as in
``\\cite[p.~3]{a,b}``.  Anything else goes to the argument readers,
from the end of the name.

Both argument readers first try one pattern at the cursor, for the
shapes real files are made of: :func:`scan_group_arg` a group with no
escape, brace, ``%`` or line break in it, and
:func:`scan_optional_arg` a ``[...]`` of plain text, escape pairs and
such groups, as in ``[{Doe et~al.}(2009)]`` or ``[\\lab{Qus}{27}{c}]``.
Anything else, errors included, goes to ``_scan_to``, the one
brace-group scanner, which reads the common shapes the same way.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional

from .errors import ScanError, UnbalancedGroupError, _located
from .rendering import STYLE_SWITCHES

__all__ = [
    "CharStream",
    "CommandInvocation",
    "DOCUMENT_COMMANDS",
    "control_at",
    "scan_optional_arg",
    "scan_group_arg",
    "split_comma_list",
    "next_command",
    "skip_filler",
    "skip_comment",
]

ESCAPE = "\\"
COMMENT = "%"
_FILLER_START = " \t\r\n\f\v%"
_FILLER = re.compile(r"(?:[ \t\r\n\f\v]+|%[^\n]*\n?)*")
_BLANKS = re.compile(r"[ \t\r\n\f\v]*")
# A control word, a control symbol, or a lone escape at the end of the
# text.  After a control word, ``after`` ends where skip_filler would stop.
_CONTROL = r"\\(?P<control>[A-Za-z]+(?=(?P<after>%(filler)s))|.?)"
# Words joined by single spaces, which need no normalizing, form one word run.
_WORD = r"[^%(stops)s \t\r\n\f\v]+"
_WORD_RUN = rf"{_WORD}(?: {_WORD})*"
# A group that is a style switch, blanks on one line, and one word run,
# as in ``{\sc Proceedings}``: the open, switch, word and close in one token.
_STYLED = (
    rf"\{{\\(?P<switch>{'|'.join(STYLE_SWITCHES)})(?![A-Za-z])"
    rf"[ \t\r\f\v]*(?P<styled>{_WORD_RUN})\}}"
)
_TOKEN = (
    rf"(?P<word>{_WORD_RUN})|(?P<space>[ \t\r\n\f\v]+)|{_CONTROL}|{_STYLED}"
    r"|(?P<open>\{)|(?P<close>\})|(?P<comment>%%)"
)
#: The token at a position of text with comments; ``lastgroup`` names its kind.
TOKEN = re.compile(_TOKEN % {"stops": r"\\{}%", "filler": _FILLER.pattern}, re.DOTALL)
#: The same for text without comments, where ``%`` belongs to words.
TEXT_TOKEN = re.compile(_TOKEN % {"stops": r"\\{}", "filler": _BLANKS.pattern}, re.DOTALL)
# A group with nothing in it that _scan_to would treat specially.
_PLAIN_GROUP = re.compile(r"\{[^\\{}%\n]*\}")
# An optional argument with no %, no escape before a line break and no
# group of depth two: plain text, escape pairs, and plain groups.  The
# loop is unrolled (each branch starts with a different character), so
# a failed match backtracks in linear time.
_PLAIN_OPTIONAL = re.compile(r"\[[^\\{}\]%]*(?:(?:\\[^\n]|\{[^\\{}%\n]*\})[^\\{}\]%]*)*\]")
_ARGUMENT_STOP = re.compile(r"[\\{}\]%]")
_BLANK = re.compile(r"\s")

#: Where lint notes go, one line of text each.
LintSink = Callable[[str], None]


class CharStream:
    """A character cursor over document text.

    ``line`` is 1-based and equals one plus the number of newlines
    consumed so far; for streams that carry re-injected text it can be
    seeded with the line of the injection site instead.  ``comments``
    is false for text scanned once already (see the module docstring).
    """

    __slots__ = ("content", "position", "line", "source", "comments")

    def __init__(
        self, content: str, line: int = 1, source: str = "", comments: bool = True
    ) -> None:
        self.content = content
        self.position = 0
        self.line = line
        self.source = source
        self.comments = comments

    def at_end(self) -> bool:
        return self.position >= len(self.content)

    def peek(self, offset: int = 0) -> str:
        """The character ``offset`` places ahead, or '' past the end."""
        return self.content[self.position + offset : self.position + offset + 1]

    def take(self) -> str:
        ch = self.content[self.position]
        self.position += 1
        if ch == "\n":
            self.line += 1
        return ch

    def take_to(self, end: int) -> str:
        """Consume up to index ``end`` and return the text passed over.

        Line breaks in it are counted, so jumping past a control symbol
        such as ``\\<newline>`` keeps ``line`` right.
        """
        text = self.content[self.position : end]
        self.position = end
        self.line += text.count("\n")
        return text


#: The commands acted on while scanning a document body.  Bibliography
#: structure commands are only meaningful inside a bbl file (the bbl
#: reader dispatches them itself); in a document they fall back to
#: pass-through like any unknown command.
DOCUMENT_COMMANDS = frozenset(("cite", "nocite", "bibliography", "bibliographystyle"))
# A document command's name, and after it, when they are plain, its
# arguments: blanks, an optional non-empty note (``cite`` only), blanks,
# and a group, with no escape, brace, % or line break in either.  The
# pattern starts with a literal escape, so a search skips to escapes.
_COMMAND = re.compile(
    rf"\\(?P<name>{'|'.join(sorted(DOCUMENT_COMMANDS))})(?![A-Za-z])(?:[ \t\r\n\f\v]*"
    r"(?:\[(?P<note>[^\\{}\]%\n]+)\][ \t\r\n\f\v]*)?\{(?P<arg>[^\\{}%\n]*)\})?"
)


class CommandInvocation(NamedTuple):
    name: str
    optional: str  # the ``[...]`` of ``cite``; "" when absent, empty, or another command
    arg: str
    source_line: int


_new_invocation = tuple.__new__  # skips the NamedTuple constructor's argument handling


def skip_comment(stream: CharStream) -> None:
    # Consume '%' through the end of line, newline included, so the two
    # half lines join with no space between them.
    end = stream.content.find("\n", stream.position)
    stream.take_to(len(stream.content) if end < 0 else end + 1)


def skip_filler(stream: CharStream) -> None:
    """Skip whitespace (line breaks included) and comments."""
    content, position = stream.content, stream.position
    if position < len(content) and content[position] in _FILLER_START:
        stream.take_to((_FILLER if stream.comments else _BLANKS).match(content, position).end())


def control_at(text: str, i: int) -> tuple[str, int]:
    """Name and end index of the control sequence whose escape is ``text[i]``.

    A run of ASCII letters forms a control word; any other single
    character forms a control symbol.  A lone escape at the end of the
    text yields ``("", i + 1)``.
    """
    control = TEXT_TOKEN.match(text, i)
    return control.group("control"), control.end()


def _scan_to(stream: CharStream, close: str) -> str:
    """Consume the opener at the cursor and the argument up to ``close``.

    Escape pairs are kept whole and never nest or close; comments are
    stripped; braces nest, and ``close`` ends the argument only outside
    them.  A stray ``}`` in an optional argument is an error.
    """
    open_line = stream.line
    stream.take()
    depth = 0
    parts: list[str] = []
    while (stop := _ARGUMENT_STOP.search(stream.content, stream.position)) is not None:
        parts.append(stream.take_to(stop.start()))
        ch = stop.group()
        if ch == close and depth == 0:
            stream.take()
            return "".join(parts)
        if ch == COMMENT and stream.comments:
            skip_comment(stream)
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            if depth == 0:
                raise UnbalancedGroupError(
                    "unexpected '}' inside optional argument", stream.line, stream.source
                )
            depth -= 1
        parts.append(stream.take())
        if ch == ESCAPE and not stream.at_end():
            parts.append(stream.take())
    if close == "]":
        raise ScanError(
            "unterminated optional argument ('[' never closed)", open_line, stream.source
        )
    raise UnbalancedGroupError("unbalanced group ('{' never closed)", open_line, stream.source)


def scan_optional_arg(stream: CharStream, lint: LintSink | None = None) -> str:
    """Scan ``[...]`` if the next non-space character opens one; its text.

    Spaces, line breaks, and comments before the bracket are consumed
    during lookahead.  When no bracket follows, nothing else is
    consumed and ``""`` is returned.  An empty ``[]`` returns ``""``
    too, so it is the same as no argument; the lint sink points it
    out.  A ``]`` nested inside a brace group does not close the
    argument.  A plain argument (see the module docstring) is matched
    in one go; the rest are scanned a special character at a time.
    """
    skip_filler(stream)
    if stream.peek() != "[":
        return ""
    open_line = stream.line
    plain = _PLAIN_OPTIONAL.match(stream.content, stream.position)
    if plain is not None:
        text = stream.take_to(plain.end())[1:-1]
    else:
        text = _scan_to(stream, "]")
    if text == "" and lint is not None:
        message = "empty optional argument '[]' treated as absent"
        lint(_located(message, open_line, stream.source))
    return text


def scan_group_arg(stream: CharStream) -> str:
    """Scan a mandatory ``{...}`` argument and return its content.

    Leading whitespace and comments are skipped.  Outer braces are
    stripped; inner braces are preserved.  Escaped characters do not
    count toward nesting, so ``{a\\}b}`` yields ``a\\}b``.
    """
    skip_filler(stream)
    plain = _PLAIN_GROUP.match(stream.content, stream.position)
    if plain is not None:
        return stream.take_to(plain.end())[1:-1]
    if stream.at_end() or stream.peek() != "{":
        found = "end of input" if stream.at_end() else repr(stream.peek())
        raise ScanError(f"expected '{{' but found {found}", stream.line, stream.source)
    return _scan_to(stream, "}")


def split_comma_list(text: str) -> list[str]:
    """Split at every comma, preserving items exactly.

    No trimming happens: ``"a, b"`` yields ``["a", " b"]``, and
    consecutive commas yield empty items.  The empty string yields no
    items at all.
    """
    if text == "":
        return []
    return text.split(",")


def next_command(
    stream: CharStream, *, lint: LintSink | None = None
) -> tuple[list[int], Optional[CommandInvocation]]:
    """The text run up to the next recognized command, and that command.

    Text runs are maximal: they carry everything (unknown commands
    included, byte-for-byte) up to the next command found in
    :data:`DOCUMENT_COMMANDS` or the end of input, where the command is
    ``None``.  A text run comes back as positions in ``stream.content``:
    the start and end of each of its comment-free pieces, in order, none
    of them empty, so a run with no comment is one piece and a run that
    is empty or all comment has none.  The command comes back with its
    arguments already scanned, and the stream stands after them;
    whitespace after the command name is consumed, mirroring how a
    reader that tokenizes control words would behave.  The match that
    ends the run is the command's, so it is found once.  The scan
    starts a fresh token at the stream's position, so a command's escape
    or a ``%`` counts only when the run of escapes just before it,
    counted from that position on, has even length: ``\\\\cite{k}`` is
    text, and ``\\%`` is no comment.
    The lint sink hears of an empty ``[]`` (at its line) and of each
    ``\\cite`` key with a blank in it (at the command's line).
    """
    content, begin = stream.content, stream.position
    search, comments = _COMMAND.search, stream.comments
    pieces: list[int] = []  # the start and end of each comment-free piece before ``start``
    start = position = begin  # the searches go on from ``position``
    command = search(content, begin)
    while True:
        at = len(content) if command is None else command.start()
        if comments and (sign := content.find("%", position, at)) >= 0:
            position = sign + 1
            if _escaped(content, begin, sign):
                continue
            if sign > start:  # a comment, which ends a piece
                pieces += start, sign
            line_end = content.find("\n", sign)
            start = position = len(content) if line_end < 0 else line_end + 1
            if position > at:  # the comment swallowed the candidate
                command = search(content, position)
            continue
        if command is not None and _escaped(content, begin, at):  # an escaped escape, then text
            position = at + 1
            command = search(content, position)
            continue
        if at > start:
            pieces += start, at
        stream.line += content.count("\n", begin, at)
        stream.position = at
        if command is None:
            return pieces, None
        command_line = stream.line
        name, note, arg = command.groups()
        if arg is not None and (note is None or name == "cite"):
            optional = note or ""
            stream.take_to(command.end())
        else:
            stream.take_to(command.end("name"))
            optional = scan_optional_arg(stream, lint) if name == "cite" else ""
            arg = scan_group_arg(stream)
        if name == "cite" and lint is not None and _BLANK.search(arg):
            for key in filter(_BLANK.search, split_comma_list(arg)):
                message = f"citation key `{key}' contains a space"
                lint(_located(message, command_line, stream.source))
        return pieces, _new_invocation(CommandInvocation, (name, optional, arg, command_line))


def _escaped(content: str, begin: int, at: int) -> bool:
    """Whether the run of escapes just before ``at``, counted back to ``begin``, is odd."""
    run = at
    while run > begin and content[run - 1] == ESCAPE:
        run -= 1
    return (at - run) % 2 == 1
