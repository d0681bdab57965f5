"""Rendered output model: flat styled text spans.

Rendering does not attempt typesetting.  Output is a flat sequence of
(style, text) spans; styles never nest.  Two string renderers are
provided: ``render_plain`` keeps only the text, ``render_annotated``
wraps styled spans in visible markers so fidelity can be checked in
tests and on the command line.

Fragments are built by appending, and most appends merge into the last
span (a document body is one long plain span).  A fragment keeps its
finished spans as two parallel lists, styles and texts, and its last
span open, as a style and a list of pieces; the pieces are joined once,
when a text of another style closes the span or when the fragment is
read, so building a fragment takes time linear in its text rather than
quadratic.  No :class:`Span` is stored: ``spans`` builds them on each
read, and ``render_plain`` joins the texts and pieces as they are.  The
bbl walk's writer is a fragment that adds a word of the open span's
style straight to its pieces, in the one call it makes per word, and
sends a word of another style through the fragment's merge rule.  Spans
already in normal form make a fragment whole with
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
    style.  The finished spans are kept as two parallel lists, their
    styles and their texts, and no :class:`Span` is stored.  The last
    span stays open as its style and a list of pieces, joined once when
    a text of another style or a read closes it.  So a span built from
    many appends costs time linear in its length.  ``spans`` builds a
    fresh list of :class:`Span` on each read; changing that list leaves
    the fragment as it was.
    """

    __slots__ = ("_styles", "_texts", "_style", "_pieces")

    def __init__(self) -> None:
        self._styles: list[Style] = []
        self._texts: list[str] = []
        # The open span, or None: its pieces wait to be joined once.
        self._style: Optional[Style] = None
        self._pieces: list[str] = []

    @classmethod
    def of_merged(cls, spans: list[Span]) -> "RenderedFragment":
        """The fragment of ``spans``, which must be in normal form already."""
        fragment = cls()
        fragment._styles = [span.style for span in spans]
        fragment._texts = [span.text for span in spans]
        return fragment

    @property
    def spans(self) -> list[Span]:
        self._close()
        return [_new_span(Span, pair) for pair in zip(self._styles, self._texts)]

    def _close(self) -> None:
        """Join the open span, if any, into the finished lists."""
        if self._style is not None:
            self._styles.append(self._style)
            self._texts.append("".join(self._pieces))
            self._style, self._pieces = None, []

    def append(self, style: Style, text: str) -> None:
        if not text:
            return
        if style is self._style:
            self._pieces.append(text)
        else:
            self._switch(style, text)

    def _switch(self, style: Style, text: str) -> None:
        """The merge rule for a nonempty ``text`` not of the open span's style.

        The open span, if any, is closed and ``text`` opens the next,
        unless the last finished span is of ``style`` (with no span open
        after a read or an ``extend``): that one is reopened.
        """
        self._close()
        if self._styles and self._styles[-1] is style:
            self._styles.pop()
            self._pieces = [self._texts.pop(), text]
        else:
            self._pieces = [text]
        self._style = style

    def extend(self, other: "RenderedFragment") -> None:
        """Append ``other``'s spans, copied: the two share no list."""
        other._close()
        # Only the first span can merge; the rest already alternate.  They
        # are copied first, since the merge may reopen ``other``'s last span
        # when ``other`` is this fragment.
        styles, texts = other._styles[1:], other._texts[1:]
        if other._styles:
            self.append(other._styles[0], other._texts[0])
        if styles:
            self._close()
            self._styles += styles
            self._texts += texts

    def __bool__(self) -> bool:
        return self._style is not None or bool(self._styles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RenderedFragment):
            return NotImplemented
        return self.spans == other.spans

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RenderedFragment(spans={self.spans!r})"


def render_plain(fragment: RenderedFragment) -> str:
    """Concatenated span texts with styling dropped."""
    return "".join(fragment._texts + fragment._pieces)


def render_annotated(fragment: RenderedFragment) -> str:
    """Span texts with non-plain styles wrapped as ⟨tt:...⟩ markers."""
    fragment._close()
    return "".join(
        text if style is Style.PLAIN else f"⟨{style.value}:{text}⟩"
        for style, text in zip(fragment._styles, fragment._texts)
    )
