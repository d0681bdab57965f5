"""Citation resolution: the cite commands over the pass's label map.

A pass keeps its labels in a dict keyed by the raw citation key, in
first-touched order:

* a key mapped to a string is defined, and renders as that label (an
  empty label included);
* a key mapped to ``None`` is a fallback: an undefined key that has
  already been cited, which renders as the raw key in typewriter type
  and never warns again;
* a key that is absent is undefined: the first cite of it falls back
  the same way and may warn, once.

``cite`` renders the bracketed list and queues one ``\\citation``
line, formatted as it is queued, whose payload is the raw key text,
unsplit and untrimmed; the comma split happens only for rendering, and
a split key keeps its blanks.  The scanner's ``next_command`` lints
such keys while it reads the ``\\cite``, so ``cite`` takes no lint
sink.  ``nocite`` does the recording without rendering anything.
Neither reads the aux file: the pass has read it before its first
citation-shaped command.  An undefined key's first cite is a :class:`CiteWarning`, its line and key;
the warning text is worked out from them when it is shown.

A cite renders into the pass's fragment, with no fragment of its own,
and makes one append per span: the texts of each plain run are
collected and joined once, so a cite whose keys are all defined makes
one append, which merges into the plain text before it.  An empty key
with no label renders nothing between its separators.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .auxfile import AuxSession
from .rendering import _PLAIN, RenderedFragment, Style
from .scanner import split_comma_list

__all__ = ["CiteWarning", "nocite", "cite"]


class CiteWarning(NamedTuple):
    """The first cite of an undefined key: where it is, and the key."""

    line: int
    key: str

    @property
    def text(self) -> str:
        return f"{self.line}: Undefined citation `{self.key}'."


def nocite(session: AuxSession, keys: str) -> None:
    """Record ``keys`` as cited, verbatim, rendering nothing."""
    session.write("citation", keys)


def cite(
    session: AuxSession,
    labels: dict[str, Optional[str]],
    keys: str,
    note: str,
    line: int,
    rendered: RenderedFragment,
    *,
    warnings: Optional[list[CiteWarning]] = None,
) -> None:
    """Append ``[k1, k2, note]`` to ``rendered`` and queue the citation record's line.

    An empty ``note`` renders nothing, the same as no note.  The spans
    merge into ``rendered`` by :meth:`RenderedFragment.append`'s rule.

    ``keys`` is recorded bytewise before any splitting, so whatever was
    written between the braces is what lands in the aux file.  Split
    items are not trimmed either: ``a, b`` cites the key `` b``, space
    and all, which the scanner's lint points out.

    A defined key renders as its label.  Any other key renders as the
    raw key in typewriter type; an undefined one is entered in
    ``labels`` as a fallback, so later cites of it stay silent, and
    warns once: its :class:`CiteWarning` goes on ``warnings`` when
    that list is given.
    """
    nocite(session, keys)
    plain = ["["]  # the texts of the plain run still open
    for index, key in enumerate(split_comma_list(keys)):
        if index:
            plain.append(", ")
        label = labels.get(key)
        if label is not None:
            plain.append(label)
            continue
        if key:
            rendered.append(_PLAIN, "".join(plain))
            rendered.append(Style.TYPEWRITER, key)
            plain = []
        if key not in labels:
            labels[key] = None
            if warnings is not None:
                warnings.append(CiteWarning(line, key))
    if note:
        plain.append(", " + note)
    plain.append("]")
    rendered.append(_PLAIN, "".join(plain))
