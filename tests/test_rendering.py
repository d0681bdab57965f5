"""Span model: normal form and the two string renderers.

The properties check the span merge against the spec's (``spec.add``).
"""

from types import SimpleNamespace

import spec
from differential import spans_of
from hypothesis import given
from hypothesis import strategies as st

from citeforge.rendering import (
    RenderedFragment,
    Span,
    Style,
    render_annotated,
    render_plain,
)

STYLES = list(Style)
# Two strings for ``append_slices`` to cut pieces from.
SOURCES = ("ab a%b c", "c ba ab ")


def add(fragment, piece) -> None:
    """Append ``(style, text)``, or ``(style, source, bounds)`` by position."""
    if len(piece) == 2:
        fragment.append(*piece)
    else:
        style, source, bounds = piece
        fragment.append_slices(style, SOURCES[source], bounds)


def build(cls, pieces):
    fragment = cls()
    for piece in pieces:
        add(fragment, piece)
    return fragment


def test_append_skips_empty_text():
    fragment = RenderedFragment()
    fragment.append(Style.PLAIN, "")
    assert fragment.spans == []
    assert not fragment


def test_append_merges_adjacent_same_style():
    fragment = RenderedFragment()
    fragment.append(Style.PLAIN, "a")
    fragment.append(Style.PLAIN, "b")
    fragment.append(Style.TYPEWRITER, "c")
    fragment.append(Style.TYPEWRITER, "d")
    assert fragment.spans == [
        Span(Style.PLAIN, "ab"),
        Span(Style.TYPEWRITER, "cd"),
    ]


def test_extend_merges_at_the_seam():
    left = build(RenderedFragment, [(Style.PLAIN, "a")])
    right = build(RenderedFragment, [(Style.PLAIN, "b"), (Style.EMPHASIS, "c")])
    left.extend(right)
    assert left.spans == [Span(Style.PLAIN, "ab"), Span(Style.EMPHASIS, "c")]


def test_a_fragment_extended_by_itself_repeats_its_spans():
    pieces = [(Style.PLAIN, "a"), (Style.EMPHASIS, "b"), (Style.PLAIN, "c")]
    fragment = build(RenderedFragment, pieces)
    fragment.extend(fragment)
    assert fragment.spans == build(RenderedFragment, pieces + pieces).spans


def test_spans_is_a_fresh_list_on_each_read():
    fragment = build(RenderedFragment, [(Style.PLAIN, "a"), (Style.EMPHASIS, "b")])
    first, second = fragment.spans, fragment.spans
    assert first == second == [Span(Style.PLAIN, "a"), Span(Style.EMPHASIS, "b")]
    assert first is not second


def test_changing_the_spans_read_leaves_the_fragment():
    fragment = build(RenderedFragment, [(Style.PLAIN, "a"), (Style.EMPHASIS, "b")])
    spans = fragment.spans
    spans.append(Span(Style.PLAIN, "c"))
    spans[0] = Span(Style.TYPEWRITER, "z")
    del spans[1]
    assert fragment.spans == [Span(Style.PLAIN, "a"), Span(Style.EMPHASIS, "b")]
    assert render_plain(fragment) == "ab"


@given(
    st.lists(
        st.tuples(st.sampled_from(STYLES), st.text(max_size=8)),
        max_size=30,
    )
)
def test_fragment_normal_form(pieces):
    fragment = RenderedFragment()
    for style, text in pieces:
        fragment.append(style, text)
    assert all(span.text for span in fragment.spans)
    for first, second in zip(fragment.spans, fragment.spans[1:]):
        assert first.style is not second.style
    assert render_plain(fragment) == "".join(text for _, text in pieces)


def test_render_plain_drops_styling():
    fragment = build(
        RenderedFragment, [(Style.PLAIN, "see "), (Style.TYPEWRITER, "key"), (Style.PLAIN, ".")]
    )
    assert render_plain(fragment) == "see key."


def test_render_annotated_marks_styled_spans():
    fragment = build(
        RenderedFragment,
        [
            (Style.PLAIN, "a "),
            (Style.TYPEWRITER, "b"),
            (Style.EMPHASIS, "c"),
            (Style.SMALLCAPS, "d"),
        ],
    )
    assert render_annotated(fragment) == "a ⟨tt:b⟩⟨em:c⟩⟨sc:d⟩"


def test_annotated_equals_plain_when_all_plain():
    fragment = build(RenderedFragment, [(Style.PLAIN, "just text")])
    assert render_annotated(fragment) == render_plain(fragment) == "just text"


def add_to_reference(spans: list, piece) -> None:
    """``add`` for the spec's spans, ``[style, chunks]`` lists."""
    if len(piece) == 2:
        spec.add(spans, piece[0].value, piece[1])
    else:
        style, source, bounds = piece
        for start, end in zip(bounds[::2], bounds[1::2]):
            spec.add(spans, style.value, SOURCES[source][start:end])


def reference(pieces) -> list:
    spans = []
    for piece in pieces:
        add_to_reference(spans, piece)
    return spans


def extend_reference(spans: list, other: list) -> None:
    for style, text in spec.finished(other):
        spec.add(spans, style, text)


TEXTS = st.text(alphabet="ab ", max_size=4)
# Pieces of a source: each a start and an end, empty pieces included.
BOUNDS = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted), max_size=3).map(
    lambda pairs: [position for pair in pairs for position in pair]
)
PIECE = st.one_of(
    st.tuples(st.sampled_from(STYLES), TEXTS),
    st.tuples(st.sampled_from(STYLES), st.sampled_from(range(len(SOURCES))), BOUNDS),
)
PIECES = st.lists(PIECE, max_size=6)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), PIECE),
        st.tuples(st.just("extend-appended"), PIECES),
        st.tuples(st.just("extend-self"),),
        st.tuples(st.just("read"),),
    ),
    max_size=30,
)


@given(PIECES, OPERATIONS)
def test_spans_match_the_reference_merge(initial, operations):
    """Random append/extend sequences give exactly the reference spans.

    Text comes as strings and as pieces of either source, which the
    reference appends as slices.  ``spans`` is read in between to rejoin
    the chunks mid-sequence.
    """
    fragment = build(RenderedFragment, initial)
    expected = reference(initial)
    for operation in operations:
        kind = operation[0]
        if kind == "append":
            add(fragment, operation[1])
            add_to_reference(expected, operation[1])
        elif kind == "extend-appended":
            fragment.extend(build(RenderedFragment, operation[1]))
            extend_reference(expected, reference(operation[1]))
        elif kind == "extend-self":
            fragment.extend(fragment)
            extend_reference(expected, expected)
        else:
            assert spans_of(fragment) == spec.finished(expected)
        assert bool(fragment) == bool(expected)
    assert spans_of(fragment) == spec.finished(expected)
    pieces = [(Style(style), text) for style, text in spec.finished(expected)]
    assert fragment == build(RenderedFragment, pieces)


def test_equality_compares_spans_only_between_fragments():
    built = build(RenderedFragment, [(Style.PLAIN, "a"), (Style.PLAIN, "b")])
    assert built == build(RenderedFragment, [(Style.PLAIN, "ab")])
    assert built != build(RenderedFragment, [(Style.PLAIN, "a"), (Style.EMPHASIS, "b")])
    assert built != SimpleNamespace(spans=[Span(Style.PLAIN, "ab")])
    assert repr(built) == "RenderedFragment(spans=[Span(style=<Style.PLAIN: 'plain'>, text='ab')])"


@given(PIECES, OPERATIONS)
def test_extended_fragments_keep_their_spans(initial, operations):
    """A fragment passed to ``extend`` shares no list or array with the target.

    Appends to the target after the extend, and reads of it, leave every
    fragment it was extended with as it was, whichever of them holds
    pieces of a source, and of which source.  Those fragments are read
    only at the end, so that a read cannot undo a shared list first.
    """
    fragment = build(RenderedFragment, initial)
    extended = []
    for operation in operations:
        kind = operation[0]
        if kind == "append":
            add(fragment, operation[1])
        elif kind == "extend-appended":
            other = build(RenderedFragment, operation[1])
            fragment.extend(other)
            extended.append((other, reference(operation[1])))
        elif kind == "extend-self":
            fragment.extend(fragment)
        else:
            fragment.spans
    for style in STYLES:
        fragment.append(style, "tail")
        for source in SOURCES:
            fragment.append_slices(style, source, [0, 3])
    for other, expected in extended:
        assert spans_of(other) == spec.finished(expected)
    # Nor do appends to those fragments change the target or themselves
    # read pieces the target added.
    spans = fragment.spans
    more = [(Style.PLAIN, source, [1, 5]) for source in range(len(SOURCES))]
    for other, expected in extended:
        for piece in [*more, (Style.EMPHASIS, "more")]:
            add(other, piece)
            add_to_reference(expected, piece)
        assert spans_of(other) == spec.finished(expected)
    assert fragment.spans == spans
