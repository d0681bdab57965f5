"""Bibliography (.bbl) processing.

A bbl file is one ``thebibliography`` environment, usually preceded by
macro definitions.  Processing walks it once and produces:

* a :class:`BibItem` per ``\\bibitem``, each carrying its key, label,
  alignment, body blocks (split at ``\\newblock``) and the line of its
  ``\\bibitem``;
* the :class:`LayoutParams` in force, the widest-label measurement
  included.

The result is a value: the walk defines no labels and writes no aux
records.  The pass that meets ``\\bibliography`` does both from the
items, in order.

Labeling follows the two classic shapes.  A bare ``\\bibitem{key}``
counts: 1, 2, 3, ...; the label box pads on the left so the numbers
align right.  ``\\bibitem[tag]{key}`` uses the tag and pads on the
right.  The first item decides the alignment and later items cannot
change it, even when the shapes are mixed.  An empty ``[]`` is the
same as no optional at all, so such an item is numbered.

All processing state (macro definitions, the item counter, alignment,
the items) is local to one :func:`process_bbl` call.  Body text is
normalized the way a typesetter would: whitespace runs collapse to
single spaces and block edges are trimmed.  ``\\em``, ``\\it``, ``\\sc``, ``\\tt`` and
``\\rm`` switch the style for the rest of their group; other unknown
commands pass through as text with a lint note.

The walk takes one token of :data:`~citeforge.scanner.TOKEN` per step:
a word run (words joined by single spaces), a blank run, a control
sequence, a brace or a comment.  Inside an item, word and blank runs go
to the block whole, so a block costs a step per run, not per
character.  Outside an item, text is taken as one run up to the next
command, brace or comment, and stray text is reported once per run.

Macros have one meaning everywhere.  The walk reads the file through
the macro engine (:class:`~citeforge.macros.Expansion`), so a call in
a body is replaced in place and its replacement may open items, split
blocks, or call further macros.  Labels, the widest label and
definition bodies are expanded by the same engine through
:func:`~citeforge.macros.expand_macros`.  In both, an argument missing
at the end of a replacement is read from the text after the call, and
the same depth cap applies.  All of them share one expansion budget per
:func:`process_bbl` call, so what a file can make the engine queue, and
store in definitions, is capped for the file as a whole.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Union

from .dimensions import Dimension
from .errors import MacroError, StructureError, UnbalancedGroupError
from .macros import (
    Expansion,
    ExpansionBudget,
    MacroDef,
    define_newcommand,
    expand_macros,
    substitute_params,
)
from .rendering import RenderedFragment, Style
from .scanner import (
    ESCAPE,
    TEXT_TOKEN,
    TOKEN,
    CharStream,
    control_at,
    scan_group_arg,
    scan_optional_arg,
    skip_comment,
    skip_filler,
)

__all__ = [
    "Alignment",
    "LayoutParams",
    "BibItem",
    "Bibliography",
    "measure_label",
    "process_bbl",
]

LintSink = Callable[[str], None]

_STYLE_SWITCHES: Mapping[str, Style] = {
    "em": Style.EMPHASIS,
    "it": Style.EMPHASIS,
    "sc": Style.SMALLCAPS,
    "tt": Style.TYPEWRITER,
    "rm": Style.PLAIN,
}

_BLOCK_SPACES = " \t\r\n\f\v"
_TEXT_STOP = re.compile(r"[\\{}%]")
_TEXT_STOP_NO_COMMENTS = re.compile(r"[\\{}]")


class Alignment(enum.Enum):
    LABELS_LEFT = "labels_left"
    LABELS_RIGHT = "labels_right"


class LayoutParams(NamedTuple):
    """Paragraph shape and page-breaking parameters for the item list.

    ``hangindent`` is derived: label width plus the extra space, never
    stored separately, so the two cannot drift apart.
    """

    biblabelwidth: Dimension = Dimension.pt(0)
    biblabelextraspace: Dimension = Dimension.em(Fraction(1, 2))
    parskip: Dimension = Dimension.of("1.5", "ex", plus=("0.5", "ex"), minus=("0.5", "ex"))
    newblock_glue: Dimension = Dimension.of(
        "0.11", "em", plus=("0.33", "em"), minus=("0.07", "em")
    )
    clubpenalty: int = 4000
    widowpenalty: int = 4000
    tolerance: int = 10000
    hfuzz: Dimension = Dimension.pt(Fraction(1, 2))
    frenchspacing: bool = True

    def hangindent(self, em_size_pt: Fraction | None = None) -> Dimension:
        return self.biblabelwidth.add(self.biblabelextraspace, em_size_pt)


class BibItem(NamedTuple):
    key: str
    label: str
    alpha: bool
    alignment: Alignment
    body: list[RenderedFragment]
    line: int  # of its \bibitem, or of the macro call that opened it


class Bibliography(NamedTuple):
    items: list[BibItem]
    layout: LayoutParams

    @property
    def alignment(self) -> Optional[Alignment]:
        return self.items[0].alignment if self.items else None


def measure_label(label: str) -> Dimension:
    """Width of the bracketed label ``[label]`` as typeset, in em.

    Every character, the brackets included, is half an em wide.
    """
    return Dimension.em(Fraction(len(label) + 2, 2))


class _BlockBuilder:
    """Accumulates one body block, normalizing whitespace as it goes.

    It takes word runs and blank runs whole.  A blank run becomes a
    single space, and leading and trailing blanks disappear.  A space
    keeps the style in force where it occurred, the way a space token
    is set in the current font, so the gap before ``{\\em ...}`` stays
    plain.
    """

    __slots__ = ("fragment", "_pending_space")

    def __init__(self) -> None:
        self.fragment = RenderedFragment()
        # The style of the space before the next word: None for no space,
        # and False until the first word, since leading blanks vanish.
        self._pending_space: Union[Style, None, bool] = False

    def word(self, text: str, style: Style) -> None:
        pending = self._pending_space
        if pending is style:
            text = " " + text
        elif pending:
            self.fragment.append(pending, " ")
        self._pending_space = None
        self.fragment.append(style, text)

    def space(self, style: Style) -> None:
        if self._pending_space is None:
            self._pending_space = style

    def finish(self) -> Optional[RenderedFragment]:
        return None if self._pending_space is False else self.fragment


def _scan_macro_name_arg(stream: CharStream) -> str:
    """The name argument of ``newcommand``: ``{\\name}`` or bare ``\\name``."""
    skip_filler(stream)
    name = ""
    if stream.peek() == "{":
        name = scan_group_arg(stream).strip().removeprefix("\\")
    elif stream.peek() == "\\":
        name, end = control_at(stream.content, stream.position)
        stream.take_to(end)
    if not name:
        raise MacroError("expected a macro name")
    return name


def process_bbl(
    content: str, *, lint: Optional[LintSink] = None, source: str = ""
) -> Bibliography:
    """Walk a bbl file and build the bibliography it describes.

    Nothing escapes but the result and the lint notes.  A
    :class:`MacroError` raised while handling a command gets that
    command's ``source:line``.
    """
    def note(message: str) -> None:
        if lint is not None:
            lint(message)

    macros: dict[str, MacroDef] = {}
    items: list[BibItem] = []
    layout = LayoutParams()
    counter = 0
    alignment: Optional[Alignment] = None
    in_environment = False
    budget = ExpansionBudget()
    expansion = Expansion(CharStream(content, source=source), budget)
    streams = expansion.streams
    style_stack: list[Style] = [Style.PLAIN]
    current_item: Optional[BibItem] = None
    block = _BlockBuilder()

    def close_block() -> None:
        nonlocal block
        finished = block.finish()
        if finished is not None and current_item is not None:
            current_item.body.append(finished)
        block = _BlockBuilder()

    def close_item() -> None:
        nonlocal current_item
        close_block()
        current_item = None

    def outside_item(text: str, line: int) -> None:
        if text.strip(_BLOCK_SPACES) == "":
            return
        if in_environment:
            raise StructureError("text before the first \\bibitem", line, source)
        note(f"{source}:{line}: text outside thebibliography ignored")

    def command(stream: CharStream, token: re.Match[str], line: int) -> bool:
        """Act on a control sequence token; true when it queued a replacement."""
        nonlocal current_item, layout, counter, alignment, in_environment
        name = token.group("control")
        if name == "\n":
            stream.line += 1
        try:
            if name in _STYLE_SWITCHES:
                style_stack[-1] = _STYLE_SWITCHES[name]
                skip_filler(stream)
            elif name == "begin":
                close_item()
                scan_group_arg(stream)  # environment name; any counts as ours
                widest = expand_macros(macros, scan_group_arg(stream), budget=budget)
                # (Re)opening sets the label box width and restarts the
                # counter and the alignment decision.
                layout = layout._replace(biblabelwidth=measure_label(widest))
                counter, alignment, in_environment = 0, None, True
            elif name == "end":
                close_item()
                scan_group_arg(stream)  # environment name, discarded
                in_environment = False
            elif name == "bibitem":
                close_item()
                optional = scan_optional_arg(stream, lint)
                key = scan_group_arg(stream)
                if not in_environment:
                    raise StructureError("\\bibitem outside thebibliography", line, source)
                # A nonempty optional is the label (alpha shape, labels
                # left); otherwise the item is numbered (labels right).
                # Only the environment's first item decides the alignment.
                alpha = optional.present_nonempty
                if alpha:
                    label = expand_macros(macros, optional.text, budget=budget)
                    alignment = alignment or Alignment.LABELS_LEFT
                else:
                    counter += 1
                    label = str(counter)
                    alignment = alignment or Alignment.LABELS_RIGHT
                current_item = BibItem(key, label, alpha, alignment, [], line)
                items.append(current_item)
                skip_filler(stream)
            elif name == "newblock":
                skip_filler(stream)
                if current_item is not None:
                    close_block()
            elif name == "newcommand":
                macro_name = _scan_macro_name_arg(stream)
                nparams = scan_optional_arg(stream, lint)
                body = scan_group_arg(stream)
                define_newcommand(macros, macro_name, nparams, body, budget=budget)
            elif name in macros:
                macro = macros[name]
                args = expansion.arguments(macro)
                expansion.push(name, substitute_params(macro.body, args), line)
                return True
            else:
                raw = token.group()
                note(f"{source}:{line}: unknown command `{raw}' passed through")
                if current_item is None:
                    outside_item(raw, line)
                elif raw[-1] in _BLOCK_SPACES:  # a control space: escape, then a space
                    block.word(ESCAPE, style_stack[-1])
                    block.space(style_stack[-1])
                else:
                    block.word(raw, style_stack[-1])
        except MacroError as exc:
            exc.locate(line, source)
            raise
        return False

    # One token of the top stream per event, read until the stream ends
    # or a macro call queues its replacement above it.  Outside an item,
    # text is taken as one run up to the next command, brace or comment.
    while streams:
        stream = streams[-1]
        content, content_end = stream.content, len(stream.content)
        match = (TOKEN if stream.comments else TEXT_TOKEN).match
        text_stop = _TEXT_STOP if stream.comments else _TEXT_STOP_NO_COMMENTS
        while (position := stream.position) < content_end:
            token = match(content, position)
            kind = token.lastgroup
            if current_item is None and (kind == "word" or kind == "space"):
                stop = text_stop.search(content, position)
                line = stream.line
                outside_item(stream.take_to(content_end if stop is None else stop.start()), line)
                continue
            stream.position = token.end()
            if kind == "word":
                block.word(token.group(), style_stack[-1])
            elif kind == "space":
                stream.line += token.group().count("\n")
                block.space(style_stack[-1])
            elif kind == "open":
                style_stack.append(style_stack[-1])
            elif kind == "close":
                if len(style_stack) == 1:
                    raise UnbalancedGroupError("unexpected '}'", stream.line, source)
                style_stack.pop()
            elif kind == "comment":
                skip_comment(stream)
            elif command(stream, token, stream.line):
                break
        else:
            streams.pop()

    close_item()
    if in_environment:
        note(f"{source}: thebibliography environment never closed")
    if len(style_stack) != 1:
        note(f"{source}: unbalanced group at end of file")
    return Bibliography(items, layout)

