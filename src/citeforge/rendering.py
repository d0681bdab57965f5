"""Rendered output model: flat styled text spans.

Rendering does not attempt typesetting.  Output is a flat sequence of
(style, text) spans; styles never nest.  Two string renderers are
provided: ``render_plain`` keeps only the text, ``render_annotated``
wraps styled spans in visible markers so fidelity can be checked in
tests and on the command line.

Fragments are built by appending, and most appends merge into the last
span (a document body is one long plain span).  A fragment keeps its
text as a list of chunks, whose concatenation is the text, and its
spans as two parallel lists: each span's style and each span's length.
Span boundaries do not depend on how the text is chunked, so an append
adds its text as one more chunk and moves no text: a text of the last
span's style adds its length to that span's, and so does a first span
of that style when one fragment extends another.  No :class:`Span` and
no string per span is stored: ``spans`` builds them on each read from
the joined text, and ``render_plain`` joins the chunks.  The bbl walk's
writer is a fragment that adds a word of the last span's style straight
to its chunks, in the one call it makes per word, and sends a word of
another style through the fragment's merge rule.  It joins its chunks
as it goes, so a bibliography's rendering keeps its text as one string.

:data:`STYLE_SWITCHES` names the commands that set a style, for the
scanner's token pattern and the bbl walk alike.
"""

from __future__ import annotations

import enum
from typing import Iterator, Mapping, NamedTuple, Optional

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
    style.  The text is kept as chunks whose concatenation is the
    fragment's text, and the spans as two parallel lists, their styles
    and their lengths; no :class:`Span` is stored.  An append adds one
    chunk, and either adds its length to the last span's or opens a
    span, so a span built from many appends costs time linear in its
    length.  ``spans`` builds a fresh list of :class:`Span` on each
    read; changing that list leaves the fragment as it was.
    """

    __slots__ = ("_chunks", "_styles", "_lengths", "_style")

    def __init__(self) -> None:
        self._chunks: list[str] = []
        self._styles: list[Style] = []
        self._lengths: list[int] = []
        self._style: Optional[Style] = None  # the last span's, None with no span

    @property
    def spans(self) -> list[Span]:
        return [_new_span(Span, pair) for pair in self._pairs()]

    def _pairs(self) -> Iterator[tuple[Style, str]]:
        """Each span's style and text, cut from the chunks joined once."""
        text, start = "".join(self._chunks), 0
        for style, length in zip(self._styles, self._lengths):
            yield style, text[start : start + length]
            start += length

    def append(self, style: Style, text: str) -> None:
        if not text:
            return
        if style is self._style:
            self._chunks.append(text)
            self._lengths[-1] += len(text)
        else:
            self._switch(style, text)

    def _switch(self, style: Style, text: str) -> None:
        """Open the next span with a nonempty ``text`` not of the last span's style."""
        self._chunks.append(text)
        self._styles.append(style)
        self._lengths.append(len(text))
        self._style = style

    def extend(self, other: "RenderedFragment") -> None:
        """Append ``other``'s spans: its chunks are shared, its two lists copied.

        One span of the last span's style adds its chunks and its length.
        Otherwise only the first span can merge, since the rest already
        alternate: the lists are extended whole and a merged first span is
        folded into the span before it, so that no slice is copied and
        ``other`` may be this fragment.
        """
        styles = other._styles
        if not styles:
            return
        if len(styles) == 1 and styles[0] is self._style:
            self._chunks += other._chunks
            self._lengths[-1] += other._lengths[0]
            return
        count = len(self._styles)
        self._chunks += other._chunks
        self._styles += styles
        self._lengths += other._lengths
        if styles[0] is self._style:  # still the style before ``other``'s spans
            del self._styles[count]
            self._lengths[count - 1] += self._lengths.pop(count)
        self._style = self._styles[-1]

    def __bool__(self) -> bool:
        return bool(self._styles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RenderedFragment):
            return NotImplemented
        return self.spans == other.spans

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RenderedFragment(spans={self.spans!r})"


def render_plain(fragment: RenderedFragment) -> str:
    """Concatenated span texts with styling dropped."""
    return "".join(fragment._chunks)


def render_annotated(fragment: RenderedFragment) -> str:
    """Span texts with non-plain styles wrapped as ⟨tt:...⟩ markers."""
    return "".join(
        text if style is Style.PLAIN else f"⟨{style.value}:{text}⟩"
        for style, text in fragment._pairs()
    )
