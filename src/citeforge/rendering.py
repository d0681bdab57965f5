"""Rendered output model: flat styled text spans.

Rendering does not attempt typesetting.  Output is a flat sequence of
(style, text) spans; styles never nest.  Two string renderers are
provided: ``render_plain`` keeps only the text, ``render_annotated``
wraps styled spans in visible markers so fidelity can be checked in
tests and on the command line.

Fragments are built by appending, and most appends merge into the last
span (a document body is one long plain span).  A fragment keeps its
finished spans in a list and its last span open, as a style and a list
of texts; the texts are joined once, when a text of another style
closes the span or when the spans are read, so building a fragment
takes time linear in its text rather than quadratic.  The bbl walk's
writer is a fragment that adds a word of the open span's style straight
to its texts, in the one call it makes per word, and sends a word of
another style through the fragment's merge rule.  A caller that merged
its spans itself hands them over whole with
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


# Span(style, text) without the Python-level ``__new__`` of a NamedTuple.
_new_span = tuple.__new__


class RenderedFragment:
    """An ordered run of styled spans, built by appending.

    ``append`` merges adjacent spans of equal style, so a fragment is
    always in normal form: no empty spans, no two neighbours sharing a
    style.  The finished spans are kept in a list; the last span stays
    open as its style and a list of texts, and becomes one :class:`Span`
    when a text of another style closes it or when ``spans`` is read.
    So a span built from many appends costs time linear in its length.
    """

    __slots__ = ("_spans", "_style", "_texts")

    def __init__(self) -> None:
        self._spans: list[Span] = []
        # The open span, or None: its texts wait to be joined once.
        self._style: Optional[Style] = None
        self._texts: list[str] = []

    @classmethod
    def of_merged(cls, spans: list[Span]) -> "RenderedFragment":
        """The fragment of ``spans``, which must be in normal form already."""
        fragment = cls()
        fragment._spans = spans
        return fragment

    @property
    def spans(self) -> list[Span]:
        if self._style is not None:
            self._spans.append(_new_span(Span, (self._style, "".join(self._texts))))
            self._style, self._texts = None, []
        return self._spans

    def append(self, style: Style, text: str) -> None:
        if not text:
            return
        if style is self._style:
            self._texts.append(text)
        else:
            self._switch(style, text)

    def _switch(self, style: Style, text: str) -> None:
        """The merge rule for a nonempty ``text`` not of the open span's style.

        The open span, if any, becomes a finished one and ``text`` opens
        the next; with no open span, a finished last span of ``style``
        (one just read) is reopened.
        """
        if self._style is not None:
            self._spans.append(_new_span(Span, (self._style, "".join(self._texts))))
            self._texts = [text]
        elif self._spans and self._spans[-1].style is style:
            self._texts = [self._spans.pop().text, text]
        else:
            self._texts = [text]
        self._style = style

    def extend(self, other: "RenderedFragment") -> None:
        """Append ``other``'s spans; ``other`` shares no list with this fragment."""
        spans = other.spans
        if spans:
            # Only the first span can merge; the rest already alternate.
            rest = spans[1:]
            self.append(*spans[0])
            if rest:
                self.spans.extend(rest)

    def __bool__(self) -> bool:
        return self._style is not None or bool(self._spans)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RenderedFragment):
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
