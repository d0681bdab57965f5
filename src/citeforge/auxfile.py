"""The aux file protocol: record lines and the per-pass write queue.

The aux file is the only channel between passes.  It holds four record
kinds, one per line when written, each named by its control word (the
``kind`` that :func:`format_record` takes):

    \\citation{keys}      what was cited, payload verbatim
    \\bibdata{databases}  argument of the bibliography command
    \\bibstyle{style}     argument of the style command
    \\@citedef{key}{label}  a resolved label, consumed on the next pass

Reading is immune to line breaks: all newline bytes are deleted first
and the concatenation is parsed, so a record split anywhere across
lines (even mid-name) still parses.  Writers must therefore never put a
newline inside a payload, which :func:`format_record` enforces; it also
refuses a record the reader would not read back as written: a kind
other than the four, or a label on any kind but ``@citedef``.  A record
is its line from then on: a pass queues only formatted text, which
:class:`AuxSession` joins 64 lines at a time as it goes, and the aux
bytes are that text joined.

Only ``\\@citedef`` carries information forward; the other three are
parsed and discarded, exactly as a reader that defines them as gobblers
would.  Anything else in the file is an error, byte offset included.
A record whose groups hold no escape or brace, which is every record a
pass writes for plain keys and labels, is matched whole by one pattern;
any other record goes through the scanner, which reads plain records
the same way and finds the errors.

This module knows no files.  The pass fetches the previous aux bytes
itself, at its first citation-shaped command, and hands them to
:func:`read_aux` with its label map, and with the bbl's items when the
run has processed the bbl already: the records the previous pass wrote
for them are then entered under the items' own strings.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import AuxCorruptError, AuxFormatError, UnbalancedGroupError
from .scanner import CharStream, scan_group_arg

if TYPE_CHECKING:
    from .bbl import BibItem

__all__ = [
    "AuxSession",
    "MISSING_AUX_MESSAGE",
    "format_record",
    "read_aux",
    "handle_missing_aux",
]

MISSING_AUX_MESSAGE = (
    "No .aux file; I won't give you warnings about undefined citations."
)


def _check_payload(text: str, kind: str, part: str = "payload") -> None:
    if "\n" in text or "\r" in text:
        raise AuxFormatError(f"{kind} {part} may not contain a newline: {text!r}")


_KINDS = frozenset(("citation", "bibdata", "bibstyle", "@citedef"))


def format_record(kind: str, payload: str, label: Optional[str] = None) -> str:
    """The record's exact one-line serialization, newline terminated.

    Raises :class:`AuxFormatError` unless the reader reads the line back
    as the record: that takes one of the four kinds, a label on
    ``@citedef`` and on no other kind, and no line break in the payload
    or the label.
    """
    if kind not in _KINDS:
        raise AuxFormatError(f"unknown aux record kind {kind!r}")
    _check_payload(payload, kind)
    if kind == "@citedef":
        if label is None:
            raise AuxFormatError("@citedef record requires a label")
        _check_payload(label, kind, "label")
        return f"\\@citedef{{{payload}}}{{{label}}}\n"
    if label is not None:
        raise AuxFormatError(f"{kind} record takes no label")
    return f"\\{kind}{{{payload}}}\n"


# How many lines AuxSession.write lets pend before it joins them.
_BATCH = 64


# perfbench/spans.py times AuxSession.serialize; until ROADMAP item 2 frees it, the class stays.
class AuxSession:
    """The lines a pass writes, in order; ``no_aux`` discards them all.

    ``pending_writes`` holds the text of the records written, in order:
    each record's line, formatted and checked when it was written, and,
    in its place in the order, each run of lines queued whole.  Once 64
    lines are pending since the last join, or since the last run queued
    whole, they are joined into one string, as the bbl walk's writer
    joins its chunks: a pass of thousands of cites then holds about one
    string per 64 lines, not one per line.  A run queued whole is never
    joined, so it stays shared with whoever queued it.
    """

    __slots__ = ("no_aux", "pending_writes", "_join_at")

    def __init__(self, no_aux: bool = False) -> None:
        self.no_aux = no_aux
        self.pending_writes: list[str] = []
        self._join_at = _BATCH  # the queue's length when its last lines are joined

    def write(self, kind: str, payload: str, label: Optional[str] = None) -> None:
        """Queue the record's line for the file rewrite; dropped in no-aux mode."""
        if not self.no_aux:
            pending = self.pending_writes
            pending.append(format_record(kind, payload, label))
            if len(pending) >= self._join_at:
                start = len(pending) - _BATCH
                pending[start:] = ["".join(pending[start:])]
                self._join_at = start + 1 + _BATCH

    def write_checked(self, lines: str) -> None:
        """Queue ``lines``, records that :func:`format_record` formatted.

        The string itself is queued and written as it is, so records
        checked and formatted once can be queued by every pass.
        """
        if not self.no_aux:
            self.pending_writes.append(lines)
            self._join_at = len(self.pending_writes) + _BATCH

    def serialize(self) -> bytes:
        """The aux file's bytes: the queued lines, joined."""
        return "".join(self.pending_writes).encode("utf-8")


_LINE_BREAKS = b"\r\n"
_KEPT_RUN = re.compile(rb"[^\r\n]+")

# A record's control word; the brace after it opens the payload.
_RECORD_OPENER = re.compile(r"\\(?:@citedef|citation|bibdata|bibstyle)(?=\{)")
# A record whose groups hold no escape or brace, so need no scanner.
_PLAIN_RECORD = re.compile(
    r"\\@citedef\{([^\\{}]*)\}\{([^\\{}]*)\}|\\(?:citation|bibdata|bibstyle)\{[^\\{}]*\}"
)
_NOT_UTF8 = "@citedef record is not UTF-8 text"


def read_aux(
    labels: dict[str, Optional[str]],
    content: bytes,
    source: str = "",
    items: Sequence[BibItem] = (),
) -> None:
    """Parse aux file bytes and enter each ``@citedef`` label in ``labels``.

    Newlines and carriage returns are deleted before parsing, which is
    what makes records immune to being split across lines.  Payloads are
    brace groups as the scanner reads them: escaped braces do not nest,
    so written payloads like ``{\\em x}`` stay parseable.  An error names
    ``source``, the file the bytes came from.

    ``items`` are the bbl items whose records the aux file is expected to
    hold, in item order, as a pass writes them.  A record whose key is
    the next expected item's is entered under that item's own key
    string, and under its own label string when the labels are equal, so
    a pass that reads the aux file after the bbl is processed holds no
    second copy of them; the item after the last is the first again.
    Any other record is entered as it was read.
    """
    enter = _entering(labels, items)
    # Latin-1 maps each byte to one character, so positions stay byte positions.
    stripped = content.translate(None, _LINE_BREAKS).decode("latin-1")
    stream = CharStream(stripped, comments=False)
    while not stream.at_end():
        record_start = stream.position
        plain = _PLAIN_RECORD.match(stripped, record_start)
        if plain is None:
            problem = _read_record(stream, enter)
        else:
            stream.position = plain.end()
            problem = None
            key, label = plain.group(1, 2)
            if label is not None:
                try:
                    enter(_utf8(key), _utf8(label))
                except UnicodeDecodeError:
                    problem = _NOT_UTF8
        if problem is not None:
            raise AuxCorruptError(problem, _original_offset(content, record_start), source)


def _entering(
    labels: dict[str, Optional[str]], items: Sequence[BibItem]
) -> Callable[[str, str], None]:
    """What enters a record's key and label in ``labels``, under ``items``' own strings."""
    if not items:
        return labels.__setitem__
    expected = 0  # the index of the item whose record comes next

    def enter(key: str, label: str) -> None:
        nonlocal expected
        item = items[expected]
        if key == item.key:
            key = item.key
            if label == item.label:
                label = item.label
            expected = (expected + 1) % len(items)
        labels[key] = label

    return enter


def _read_record(stream: CharStream, enter: Callable[[str, str], None]) -> Optional[str]:
    """Parse the record at the cursor; what is wrong with it, if it does not parse."""
    opener = _RECORD_OPENER.match(stream.content, stream.position)
    if opener is None:
        return "unrecognized aux content"
    stream.take_to(opener.end())
    try:
        payload = scan_group_arg(stream)
        if opener.group() == "\\@citedef":
            if stream.peek() != "{":
                return "@citedef record missing its label"
            label = scan_group_arg(stream)
            enter(_utf8(payload), _utf8(label))
    except UnbalancedGroupError:
        return "unterminated record"
    except UnicodeDecodeError:
        return _NOT_UTF8
    # citation/bibdata/bibstyle records are consumed and discarded
    return None


def _original_offset(content: bytes, position: int) -> int:
    """Offset in ``content`` of byte ``position`` of its line-break-free copy.

    Only errors need it, so it is worked out when one is raised: the
    kept bytes are counted run by run.
    """
    for run in _KEPT_RUN.finditer(content):
        length = run.end() - run.start()
        if position < length:
            return run.start() + position
        position -= length


def _utf8(text: str) -> str:
    return text.encode("latin-1").decode("utf-8")


# perfbench/spans.py times this call; until ROADMAP item 2 frees it, the function stays.
def handle_missing_aux() -> str:
    """The notice a pass shows when there is no aux file to read."""
    return MISSING_AUX_MESSAGE
