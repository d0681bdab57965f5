"""Citation resolution: the label table and the cite commands.

Labels live in a table keyed by the raw citation key.  Each key is in
one of three states:

* undefined: never seen; a cite falls back to the raw key in
  typewriter type and may warn, once.
* fallback: an undefined key that has already been cited; renders the
  same way but never warns again.
* defined: carries the label text to typeset.

``cite`` renders the bracketed list and queues one ``\\citation``
record whose payload is the raw key text, unsplit and untrimmed; the
comma split happens only for rendering.  ``nocite`` does the recording
without rendering anything.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Union

from ._value import Value
from .auxfile import AuxRecord, AuxSession
from .rendering import RenderedFragment, Style
from .scanner import OptionalArg, split_comma_list

__all__ = [
    "Undefined",
    "Fallback",
    "Defined",
    "LabelState",
    "UNDEFINED",
    "LabelTable",
    "undefined_citation_warning",
    "nocite",
    "cite",
]


class Undefined(Value):
    __slots__ = ()


class Fallback(Value):
    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key


class Defined(Value):
    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label


LabelState = Union[Undefined, Fallback, Defined]

UNDEFINED = Undefined()


class LabelTable:
    """Label states for this pass, keyed by citation key in first-touched order."""

    def __init__(self) -> None:
        self.entries: dict[str, LabelState] = {}

    def state_for(self, key: str) -> LabelState:
        return self.entries.get(key, UNDEFINED)

    def define(self, key: str, label: str) -> None:
        """Install a resolved label, replacing any fallback state."""
        self.entries[key] = Defined(label)

    def set_fallback(self, key: str) -> None:
        self.entries[key] = Fallback(key)

    def __len__(self) -> int:
        return len(self.entries)


_BLANK = re.compile(r"\s")


def undefined_citation_warning(line: int, key: str) -> str:
    return f"{line}: Undefined citation `{key}'."


def nocite(session: AuxSession, keys: str) -> None:
    """Record ``keys`` as cited, verbatim, rendering nothing.

    The first citation-shaped command in a pass is what pulls the
    previous aux file in, so this forces the read before writing.
    """
    session.ensure_read()
    session.write(AuxRecord.citation(keys))


WarnSink = Callable[[int, str, str], None]
LintSink = Callable[[str], None]


def cite(
    session: AuxSession,
    table: LabelTable,
    keys: str,
    note: OptionalArg,
    line: int,
    *,
    warn: Optional[WarnSink] = None,
    lint: Optional[LintSink] = None,
) -> RenderedFragment:
    """Render ``[k1, k2, note]`` and queue the citation record.

    ``keys`` is recorded bytewise before any splitting, so whatever was
    written between the braces is what lands in the aux file.  Split
    items are not trimmed either: ``a, b`` cites the key `` b``, space
    and all, which the lint sink points out.

    A defined key renders as its label.  Any other key renders as the
    raw key in typewriter type; an undefined one is moved to the
    fallback state, so later cites of it stay silent, and warns once
    if the session allows warnings.  The state changes either way.
    """
    nocite(session, keys)
    fragment = RenderedFragment()
    fragment.append(Style.PLAIN, "[")
    for index, key in enumerate(split_comma_list(keys)):
        if index:
            fragment.append(Style.PLAIN, ", ")
        if lint is not None and _BLANK.search(key):
            lint(f"{line}: citation key `{key}' contains a space")
        state = table.state_for(key)
        if isinstance(state, Defined):
            fragment.append(Style.PLAIN, state.label)
            continue
        fragment.append(Style.TYPEWRITER, key)
        if isinstance(state, Undefined):
            table.set_fallback(key)
            if session.warnings_enabled and warn is not None:
                warn(line, key, undefined_citation_warning(line, key))
    if note.present_nonempty:
        fragment.append(Style.PLAIN, ", " + note.text)
    fragment.append(Style.PLAIN, "]")
    return fragment
