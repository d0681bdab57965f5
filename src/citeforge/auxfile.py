"""The aux file protocol: typed records and the per-pass write queue.

The aux file is the only channel between passes.  It holds four record
kinds, one per line when written:

    \\citation{keys}      what was cited, payload verbatim
    \\bibdata{databases}  argument of the bibliography command
    \\bibstyle{style}     argument of the style command
    \\@citedef{key}{label}  a resolved label, consumed on the next pass

Reading is immune to line breaks: all newline bytes are deleted first
and the concatenation is parsed, so a record split anywhere across
lines (even mid-name) still parses.  Writers must therefore never put a
newline inside a payload, which :func:`format_record` enforces.

Only ``\\@citedef`` carries information forward; the other three are
parsed and discarded, exactly as a reader that defines them as gobblers
would.  Anything else in the file is an error, byte offset included.

This module knows no files.  The pass fetches the previous aux bytes
itself, at its first citation-shaped command, and hands them to
:func:`read_aux` with its label map.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, Optional

from .errors import AuxCorruptError, AuxFormatError, UnbalancedGroupError
from .scanner import CharStream, scan_group_arg

__all__ = [
    "AuxKind",
    "AuxRecord",
    "AuxSession",
    "MISSING_AUX_MESSAGE",
    "format_record",
    "read_aux",
    "handle_missing_aux",
]

MISSING_AUX_MESSAGE = (
    "No .aux file; I won't give you warnings about undefined citations."
)


class AuxKind(enum.Enum):
    CITATION = "citation"
    BIBDATA = "bibdata"
    BIBSTYLE = "bibstyle"
    CITEDEF = "@citedef"


class AuxRecord(NamedTuple):
    """One aux record.  ``label`` is used by CITEDEF records only."""

    kind: AuxKind
    payload: str
    label: Optional[str] = None

    @classmethod
    def citation(cls, keys: str) -> "AuxRecord":
        return cls(AuxKind.CITATION, keys)

    @classmethod
    def bibdata(cls, databases: str) -> "AuxRecord":
        return cls(AuxKind.BIBDATA, databases)

    @classmethod
    def bibstyle(cls, style: str) -> "AuxRecord":
        return cls(AuxKind.BIBSTYLE, style)

    @classmethod
    def citedef(cls, key: str, label: str) -> "AuxRecord":
        return cls(AuxKind.CITEDEF, key, label)


def _check_payload(text: str, kind: AuxKind, part: str = "payload") -> None:
    if "\n" in text or "\r" in text:
        raise AuxFormatError(f"{kind.value} {part} may not contain a newline: {text!r}")


def _check_record(record: AuxRecord) -> None:
    """Raise :class:`AuxFormatError` unless the record fits on one line."""
    _check_payload(record.payload, record.kind)
    if record.kind is AuxKind.CITEDEF:
        if record.label is None:
            raise AuxFormatError("@citedef record requires a label")
        _check_payload(record.label, AuxKind.CITEDEF, "label")


def format_record(record: AuxRecord) -> str:
    """The record's exact one-line serialization, newline terminated."""
    _check_record(record)
    if record.kind is AuxKind.CITEDEF:
        return f"\\@citedef{{{record.payload}}}{{{record.label}}}\n"
    return f"\\{record.kind.value}{{{record.payload}}}\n"


# perfbench/spans.py times AuxSession.serialize; until ROADMAP item 2 frees it, the class stays.
class AuxSession:
    """The records a pass writes, in order; ``no_aux`` discards them all."""

    __slots__ = ("no_aux", "pending_writes")

    def __init__(self, no_aux: bool = False) -> None:
        self.no_aux = no_aux
        self.pending_writes: list[AuxRecord] = []

    def write(self, record: AuxRecord) -> None:
        """Queue ``record`` for the file rewrite; dropped in no-aux mode."""
        if self.no_aux:
            return
        _check_record(record)  # reject unserializable records at write time
        self.pending_writes.append(record)

    def serialize(self) -> bytes:
        return b"".join(format_record(r).encode("utf-8") for r in self.pending_writes)


_LINE_BREAKS = b"\r\n"
_KEPT_RUN = re.compile(rb"[^\r\n]+")

_RECORD_OPENERS = (
    (AuxKind.CITEDEF, "\\@citedef{"),
    (AuxKind.CITATION, "\\citation{"),
    (AuxKind.BIBDATA, "\\bibdata{"),
    (AuxKind.BIBSTYLE, "\\bibstyle{"),
)


def read_aux(labels: dict[str, Optional[str]], content: bytes, source: str = "") -> None:
    """Parse aux file bytes and enter each ``@citedef`` label in ``labels``.

    Newlines and carriage returns are deleted before parsing, which is
    what makes records immune to being split across lines.  Payloads are
    brace groups as the scanner reads them: escaped braces do not nest,
    so written payloads like ``{\\em x}`` stay parseable.  An error names
    ``source``, the file the bytes came from.
    """
    # Latin-1 maps each byte to one character, so positions stay byte positions.
    stripped = content.translate(None, _LINE_BREAKS).decode("latin-1")
    stream = CharStream(stripped, comments=False)
    while not stream.at_end():
        record_start = stream.position
        problem = _read_record(stream, labels)
        if problem is not None:
            raise AuxCorruptError(problem, _original_offset(content, record_start), source)


def _read_record(stream: CharStream, labels: dict[str, Optional[str]]) -> Optional[str]:
    """Parse the record at the cursor; what is wrong with it, if it does not parse."""
    start = stream.position
    for kind, opener in _RECORD_OPENERS:
        if stream.content.startswith(opener, start):
            break
    else:
        return "unrecognized aux content"
    stream.take_to(start + len(opener) - 1)
    try:
        payload = scan_group_arg(stream)
        if kind is AuxKind.CITEDEF:
            if stream.peek() != "{":
                return "@citedef record missing its label"
            label = scan_group_arg(stream)
            labels[_utf8(payload)] = _utf8(label)
    except UnbalancedGroupError:
        return "unterminated record"
    except UnicodeDecodeError:
        return "@citedef record is not UTF-8 text"
    # citation/bibdata/bibstyle records are consumed and discarded
    return None


def _original_offset(content: bytes, position: int) -> int:
    """Offset in ``content`` of byte ``position`` of its line-break-free copy.

    Only errors need it, so it is worked out when one is raised: the
    kept bytes are counted run by run.  Past the last kept byte it is
    ``len(content)``.
    """
    for run in _KEPT_RUN.finditer(content):
        length = run.end() - run.start()
        if position < length:
            return run.start() + position
        position -= length
    return len(content)


def _utf8(text: str) -> str:
    return text.encode("latin-1").decode("utf-8")


# perfbench/spans.py times this call; until ROADMAP item 2 frees it, the function stays.
def handle_missing_aux() -> str:
    """The notice a pass shows when there is no aux file to read."""
    return MISSING_AUX_MESSAGE
