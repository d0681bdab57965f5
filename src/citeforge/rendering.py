"""Rendered output model: flat styled text spans.

Rendering does not attempt typesetting.  Output is a flat sequence of
(style, text) spans; styles never nest.  Two string renderers are
provided: ``render_plain`` keeps only the text, ``render_annotated``
wraps styled spans in visible markers so fidelity can be checked in
tests and on the command line.

Fragments are built by appending, and most appends merge into the last
span (a document body is one long plain span).  A fragment keeps its
text as a list of chunks, whose concatenation is the text, and its
spans as two parallel sequences: each span's style, as a one-byte code
in a ``bytearray``, and each span's length, in a list.  Span boundaries
do not depend on how the text is chunked, so an append adds its text as
one more chunk and moves no text: a text of the last span's style adds
its length to that span's, and so does a first span of that style when
one fragment extends another.  Text that already lies in a string, as a
pass's text runs lie in its document, is not copied at all:
``append_slices`` keeps each piece as its start and end in that string,
the fragment's one source, and a ``None`` chunk stands for the piece
where it falls in the text.  No :class:`Span` and no string per span or
per piece is stored: ``spans`` builds them on each read from the joined
text, and ``render_plain`` joins the chunks, each piece cut from the
source as it goes.  The bbl walk's writer is a fragment that adds a
word of the last span's style straight to its chunks, in the one call
it makes per word, and sends a word of another style through the
fragment's merge rule.  It joins its chunks as it goes, so a
bibliography's rendering keeps its text as one string and a byte and a
length per span.

:data:`STYLE_SWITCHES` names the commands that set a style, for the
scanner's token pattern and the bbl walk alike.
"""

from __future__ import annotations

import enum
from array import array
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
# Each style by its code, the one byte a fragment keeps per span: its index here.
_STYLES = tuple(Style)
# The plain style for the pass's per-run and per-cite appends: looking an
# enum member up on its class costs about as much as the append itself.
_PLAIN = Style.PLAIN


class RenderedFragment:
    """An ordered run of styled spans, built by appending.

    ``append`` merges adjacent spans of equal style, so a fragment is
    always in normal form: no empty spans, no two neighbours sharing a
    style.  The text is kept as chunks whose concatenation is the
    fragment's text, and the spans as their styles' codes, one byte
    each, and their lengths; no :class:`Span` is stored.  An append
    adds one chunk, and either adds its length to the last span's or
    opens a span, so a span built from many appends costs time linear
    in its length.  ``append_slices`` adds text that lies in a string already,
    such as a pass's document, as positions: the fragment refers to one
    such source string, and each piece of it is a ``None`` chunk and a
    start and an end in one ``array('q')``, with no object of its own.
    ``spans`` builds a fresh list of :class:`Span` on each read;
    changing that list leaves the fragment as it was.
    """

    __slots__ = ("_chunks", "_styles", "_lengths", "_style", "_source", "_cuts")

    def __init__(self) -> None:
        self._chunks: list[Optional[str]] = []  # None: the next piece in ``_cuts``
        self._styles = bytearray()  # each span's style, as its index in _STYLES
        self._lengths: list[int] = []
        self._style: Optional[Style] = None  # the last span's, None with no span
        # The string the pieces are cut from, and each piece's start and
        # end in it; None until the first piece, as most fragments have none.
        self._source: Optional[str] = None
        self._cuts: Optional[array] = None

    @property
    def spans(self) -> list[Span]:
        return [_new_span(Span, pair) for pair in self._pairs()]

    def _pairs(self) -> Iterator[tuple[Style, str]]:
        """Each span's style and text, cut from the chunks joined once."""
        text, start = "".join(self._texts()), 0
        for code, length in zip(self._styles, self._lengths):
            yield _STYLES[code], text[start : start + length]
            start += length

    def _texts(self) -> list[str]:
        """The chunks, each ``None`` replaced by the piece it stands for."""
        source, cuts = self._source, iter(self._cuts or ())
        return [source[next(cuts) : next(cuts)] if c is None else c for c in self._chunks]

    def append(self, style: Style, text: str) -> None:
        if not text:
            return
        self._chunks.append(text)
        if style is self._style:
            self._lengths[-1] += len(text)
        else:
            self._switch(style, len(text))

    def _switch(self, style: Style, length: int) -> None:
        """Open the next span, of a style not the last span's and a nonzero length."""
        self._styles.append(_STYLES.index(style))
        self._lengths.append(length)
        self._style = style

    def _keeps(self, source: str) -> bool:
        """Whether pieces of ``source`` are kept as positions: it is the first source."""
        if self._source is None:
            self._source, self._cuts = source, array("q")
        return source is self._source

    def append_slices(self, style: Style, source: str, cuts: list[int]) -> None:
        """Append the pieces of ``source`` that ``cuts`` gives, in order.

        ``cuts`` holds each piece's start and end.  The pieces are kept
        as positions when ``source`` is the fragment's source or it has
        none yet; text from another string is copied.  Empty pieces add
        nothing to the text.
        """
        if source is not self._source and not self._keeps(source):
            ends = iter(cuts)
            return self.append(style, "".join([source[start : next(ends)] for start in ends]))
        self._chunks += (None,) * (len(cuts) // 2)  # for one piece, no new tuple
        self._cuts.fromlist(cuts)  # type: ignore[union-attr]
        length = cuts[1] - cuts[0] if len(cuts) == 2 else sum(cuts[1::2]) - sum(cuts[::2])
        if style is self._style:
            self._lengths[-1] += length
        elif length:  # no empty span is opened
            self._switch(style, length)

    def extend(self, other: "RenderedFragment") -> None:
        """Append ``other``'s spans: its chunks are shared, its styles and lengths copied.

        Pieces of ``other``'s source are kept as positions when it is this
        fragment's source too, or this fragment has none yet; otherwise
        their text is copied.  One span of the last span's style adds its
        chunks and its length.  Otherwise only the first span can merge,
        since the rest already alternate: the styles and lengths are
        extended whole and a merged first span is folded into the span
        before it, so that no slice is copied and ``other`` may be this
        fragment.
        """
        styles = other._styles
        if not styles:
            return
        keep = other._source is None or self._keeps(other._source)
        self._chunks += other._chunks if keep else other._texts()
        if keep and other._source is not None:
            self._cuts += other._cuts  # type: ignore[operator]
        merges = _STYLES[styles[0]] is self._style
        if merges and len(styles) == 1:
            self._lengths[-1] += other._lengths[0]
            return
        count = len(self._styles)
        self._styles.extend(styles)  # unlike +=, copies a bytearray into itself
        self._lengths += other._lengths
        if merges:
            del self._styles[count]
            self._lengths[count - 1] += self._lengths.pop(count)
        self._style = _STYLES[self._styles[-1]]

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
    return "".join(fragment._texts())


def render_annotated(fragment: RenderedFragment) -> str:
    """Span texts with non-plain styles wrapped as ⟨tt:...⟩ markers."""
    return "".join(
        text if style is Style.PLAIN else f"⟨{style.value}:{text}⟩"
        for style, text in fragment._pairs()
    )
