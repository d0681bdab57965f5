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
record whose payload is the raw key text, unsplit and untrimmed; the
comma split happens only for rendering.  ``nocite`` does the recording
without rendering anything.  Neither reads the aux file: the pass has
read it before its first citation-shaped command.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from .auxfile import AuxRecord, AuxSession
from .rendering import RenderedFragment, Style
from .scanner import OptionalArg, split_comma_list

__all__ = ["undefined_citation_warning", "nocite", "cite"]

_BLANK = re.compile(r"\s")


def undefined_citation_warning(line: int, key: str) -> str:
    return f"{line}: Undefined citation `{key}'."


def nocite(session: AuxSession, keys: str) -> None:
    """Record ``keys`` as cited, verbatim, rendering nothing."""
    session.write(AuxRecord.citation(keys))


WarnSink = Callable[[int, str, str], None]
LintSink = Callable[[str], None]


def cite(
    session: AuxSession,
    labels: dict[str, Optional[str]],
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
    raw key in typewriter type; an undefined one is entered in
    ``labels`` as a fallback, so later cites of it stay silent, and
    warns once through ``warn`` when one is given.
    """
    nocite(session, keys)
    fragment = RenderedFragment()
    fragment.append(Style.PLAIN, "[")
    for index, key in enumerate(split_comma_list(keys)):
        if index:
            fragment.append(Style.PLAIN, ", ")
        if lint is not None and _BLANK.search(key):
            lint(f"{line}: citation key `{key}' contains a space")
        label = labels.get(key)
        if label is not None:
            fragment.append(Style.PLAIN, label)
            continue
        fragment.append(Style.TYPEWRITER, key)
        if key not in labels:
            labels[key] = None
            if warn is not None:
                warn(line, key, undefined_citation_warning(line, key))
    if note.present_nonempty:
        fragment.append(Style.PLAIN, ", " + note.text)
    fragment.append(Style.PLAIN, "]")
    return fragment
