"""Rendered output model: flat styled text spans.

Rendering does not attempt typesetting.  Output is a flat sequence of
(style, text) spans; styles never nest.  Two string renderers are
provided: ``render_plain`` keeps only the text, ``render_annotated``
wraps styled spans in visible markers so fidelity can be checked in
tests and on the command line.

Fragments are built by appending, and most appends merge into the last
span (a document body is one long plain span).  The merged text is
kept as chunks and joined once when the spans are read, so building a
fragment takes time linear in its text rather than quadratic.  The bbl
walk appends the whole bibliography to one fragment this way.  A caller
that merged its spans itself hands them over whole with
:meth:`RenderedFragment.of_merged`.

:data:`STYLE_SWITCHES` names the commands that set a style, for the
scanner's token pattern and the bbl walk alike.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple, Optional

__all__ = [
    "Style",
    "Span",
    "RenderedFragment",
    "render_plain",
    "render_annotated",
]


class Style(enum.Enum):
    PLAIN = "plain"
    TYPEWRITER = "tt"
    EMPHASIS = "em"
    SMALLCAPS = "sc"


#: The commands that set the style for the rest of their group, and the
#: style each sets.
STYLE_SWITCHES: Mapping[str, Style] = {
    "em": Style.EMPHASIS,
    "it": Style.EMPHASIS,
    "sc": Style.SMALLCAPS,
    "tt": Style.TYPEWRITER,
    "rm": Style.PLAIN,
}


class Span(NamedTuple):
    style: Style
    text: str


class RenderedFragment:
    """An ordered run of styled spans, built by appending.

    ``append`` merges adjacent spans of equal style, so a fragment is
    always in normal form: no empty spans, no two neighbours sharing a
    style.  Text merged into the last span waits in a chunk list and is
    joined when ``spans`` is next read, so a span built from many
    appends costs time linear in its length.
    """

    __slots__ = ("_spans", "_tail")

    def __init__(self) -> None:
        self._spans: list[Span] = []
        # The last span's text as chunks, once something was merged into it.
        self._tail: Optional[list[str]] = None

    @classmethod
    def of_merged(cls, spans: list[Span]) -> "RenderedFragment":
        """The fragment of ``spans``, which must be in normal form already."""
        fragment = cls()
        fragment._spans = spans
        return fragment

    @property
    def spans(self) -> list[Span]:
        if self._tail is not None:
            self._join_tail()
        return self._spans

    def _join_tail(self) -> None:
        self._spans[-1] = Span(self._spans[-1].style, "".join(self._tail))
        self._tail = None

    def append(self, style: Style, text: str) -> None:
        if not text:
            return
        spans = self._spans
        if spans and spans[-1].style is style:
            if self._tail is None:
                self._tail = [spans[-1].text, text]
            else:
                self._tail.append(text)
        else:
            if self._tail is not None:
                self._join_tail()
            spans.append(Span(style, text))

    def extend(self, other: "RenderedFragment") -> None:
        spans = other.spans
        if spans:
            # Only the first span can merge; the rest already alternate.
            rest = spans[1:]
            self.append(*spans[0])
            if rest and self._tail is not None:
                self._join_tail()
            self._spans.extend(rest)

    def __bool__(self) -> bool:
        return bool(self._spans)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.spans == other.spans

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RenderedFragment(spans={self.spans!r})"


def render_plain(fragment: RenderedFragment) -> str:
    """Concatenated span texts with styling dropped."""
    return "".join(span.text for span in fragment.spans)


def render_annotated(fragment: RenderedFragment) -> str:
    """Span texts with non-plain styles wrapped as ⟨tt:...⟩ markers."""
    parts: list[str] = []
    for span in fragment.spans:
        if span.style is Style.PLAIN:
            parts.append(span.text)
        else:
            parts.append(f"⟨{span.style.value}:{span.text}⟩")
    return "".join(parts)
