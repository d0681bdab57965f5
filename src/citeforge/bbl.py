"""Bibliography (.bbl) processing.

A bbl file is one ``thebibliography`` environment, usually preceded by
macro definitions.  Processing walks it once and produces:

* a :class:`BibItem` per ``\\bibitem``, each carrying its key, label,
  alignment and the line of its ``\\bibitem``;
* the :class:`LayoutParams` in force, the widest-label measurement
  included;
* the rendering of the list, written as the walk reads: each item as
  ``[label] ``, its body blocks (split at ``\\newblock``) joined by
  single plain spaces, and a newline.  The writer is itself the
  :class:`RenderedFragment`: the walk makes one call per word, which
  adds the word to the fragment's chunks when its style is the last
  span's, and goes through the fragment's merge rule otherwise.  The
  chunks are joined as the walk goes, into one string at its end.

The result is a value: the walk defines no labels and writes no aux
records.  The driver formats the items' ``@citedef`` records once per
run, and each pass that meets ``\\bibliography`` defines the labels and
queues those records' lines, in item order.

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
sequence, a brace or a comment.  A group that is a style switch and one
word run, ``{\\sc Proceedings}``, is one token too, and the walk does
with it what it does with its four tokens.  Inside an item, word and
blank runs go to the rendering whole, so a block costs a step per run,
not per character.  Outside an item, text is taken as one run up to
the next command, brace or comment, and stray text is reported once
per run.

Macros have one meaning everywhere.  A ``\\newcommand`` of a name the
walk acts on itself (:data:`WALK_COMMANDS`) is an error, as in LaTeX,
so no such name gets a second meaning.  The walk reads the file through
the macro engine (:class:`~citeforge.macros.Expansion`), so a call in
a body is replaced in place and its replacement may open items, split
blocks, or call further macros.  Labels, the widest label and
definition bodies are expanded by the same engine through
:func:`~citeforge.macros.expand_macros`.  In both, an argument missing
at the end of a replacement is read from the text after the call, and
the same depth cap applies.  All of them share one expansion budget per
:func:`process_bbl` call, so what a file can make the engine queue, and
store in definitions, is capped for the file as a whole.  A call
substitutes its arguments into the template its definition keeps, and
a style switch or ``\\newblock`` skips the blanks after it in the same
move as its name, since its token marked where they end.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Union

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
from .rendering import _PLAIN, STYLE_SWITCHES, RenderedFragment, Style
from .scanner import (
    ESCAPE,
    TEXT_TOKEN,
    TOKEN,
    CharStream,
    LintSink,
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

_BLOCK_SPACES = " \t\r\n\f\v"
#: The control words the walk acts on itself; ``\\newcommand`` refuses them,
#: as LaTeX refuses a name that is already defined.
WALK_COMMANDS = frozenset((*STYLE_SWITCHES, "begin", "end", "bibitem", "newblock", "newcommand"))
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

    biblabelwidth: Dimension = Dimension.of(0, "pt")
    biblabelextraspace: Dimension = Dimension.of(Fraction(1, 2), "em")
    parskip: Dimension = Dimension.of("1.5", "ex", plus=("0.5", "ex"), minus=("0.5", "ex"))
    newblock_glue: Dimension = Dimension.of(
        "0.11", "em", plus=("0.33", "em"), minus=("0.07", "em")
    )
    clubpenalty: int = 4000
    widowpenalty: int = 4000
    tolerance: int = 10000
    hfuzz: Dimension = Dimension.of(Fraction(1, 2), "pt")
    frenchspacing: bool = True

    def hangindent(self, em_size_pt: Fraction | None = None) -> Dimension:
        return self.biblabelwidth.add(self.biblabelextraspace, em_size_pt)


class BibItem(NamedTuple):
    key: str
    label: str
    alpha: bool
    alignment: Alignment
    line: int  # of its \bibitem, or of the macro call that opened it


class Bibliography(NamedTuple):
    items: list[BibItem]
    layout: LayoutParams
    rendered: RenderedFragment

    @property
    def alignment(self) -> Optional[Alignment]:
        return self.items[0].alignment if self.items else None


def measure_label(label: str) -> Dimension:
    """Width of the bracketed label ``[label]`` as typeset, in em.

    Every character, the brackets included, is half an em wide.
    """
    return Dimension.of(Fraction(len(label) + 2, 2), "em")


class _Writer(RenderedFragment):
    """Renders the bibliography while the walk reads it, normalizing blanks.

    Each item is ``[label] ``, its blocks joined by plain spaces, and a
    newline.  Word runs and blank runs come whole.  A blank run becomes
    a single space; the blanks at either edge of a block disappear, and
    so does a block with no word.  A space keeps the style in force
    where it occurred, the way a space token is set in the current font,
    so the gap before ``{\\em ...}`` stays plain.

    A word of the last span's style is one more chunk, added in the one
    call ``word``; any other goes through the fragment's merge rule.
    Span lengths do not depend on the chunks, so the chunks are joined
    as the walk goes, and once more at its end: the rendering keeps its
    text as one string.
    """

    __slots__ = ("_pending_space", "_joined")

    def __init__(self) -> None:
        super().__init__()
        # The style of the space before the next word: None for no space,
        # and False until the item's first word, since leading blanks
        # vanish.  A block closed after a word leaves a plain one pending.
        self._pending_space: Union[Style, None, bool] = False
        self._joined = 0  # the chunks before this index are joined ones

    def open_item(self, label: str) -> None:
        self.append(_PLAIN, f"[{label}] ")
        self._pending_space = False

    def close_item(self) -> None:
        self.append(_PLAIN, "\n")
        # Once 64 chunks have piled up since the last join, they are joined:
        # a word's own string then lives for a few items only, and one join
        # covers several items.
        if len(self._chunks) > self._joined + 64:
            self.join(self._joined)

    def join(self, start: int = 0) -> None:
        """Join the chunks from ``start`` on into one."""
        self._chunks[start:] = ["".join(self._chunks[start:])]
        self._joined = start + 1

    def close_block(self) -> None:
        if self._pending_space is not False:
            self._pending_space = _PLAIN

    def word(self, text: str, style: Style) -> None:
        """Add a word run (never empty) and the space pending before it."""
        pending = self._pending_space
        if pending is style:
            text = " " + text
        elif pending:
            self.append(pending, " ")
        self._pending_space = None
        self._chunks.append(text)
        if style is self._style:
            self._lengths[-1] += len(text)
        else:
            self._switch(style, len(text))

    def space(self, style: Style) -> None:
        if self._pending_space is None:
            self._pending_space = style


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
    style_stack: list[Style] = [Style.PLAIN]
    in_item = False
    writer = _Writer()

    def close_item() -> None:
        nonlocal in_item
        if in_item:
            writer.close_item()
            in_item = False

    def outside_item(text: str, line: int) -> None:
        if text.strip(_BLOCK_SPACES) == "":
            return
        if in_environment:
            raise StructureError("text before the first \\bibitem", line, source)
        note(f"{source}:{line}: text outside thebibliography ignored")

    def command(stream: CharStream, token: re.Match[str], line: int) -> bool:
        """Act on a control sequence token; true when it queued a replacement."""
        nonlocal in_item, layout, counter, alignment, in_environment
        name = token.group("control")
        if name == "\n":
            stream.line += 1
        try:
            if name in STYLE_SWITCHES:
                style_stack[-1] = STYLE_SWITCHES[name]
                stream.take_to(token.end("after"))
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
                alpha = optional != ""
                if alpha:
                    label = expand_macros(macros, optional, budget=budget)
                    alignment = alignment or Alignment.LABELS_LEFT
                else:
                    counter += 1
                    label = str(counter)
                    alignment = alignment or Alignment.LABELS_RIGHT
                items.append(BibItem(key, label, alpha, alignment, line))
                writer.open_item(label)
                in_item = True
                skip_filler(stream)
            elif name == "newblock":
                stream.take_to(token.end("after"))
                writer.close_block()
            elif name == "newcommand":
                macro_name = _scan_macro_name_arg(stream)
                nparams = scan_optional_arg(stream, lint)
                body = scan_group_arg(stream)
                if macro_name in WALK_COMMANDS:
                    raise MacroError(f"command \\{macro_name} already defined")
                define_newcommand(macros, macro_name, nparams, body, budget=budget)
            elif name in macros:
                macro = macros[name]
                args = expansion.arguments(macro)
                expansion.push(name, substitute_params(macro.template, args), line)
                return True
            else:
                raw = token.group()
                note(f"{source}:{line}: unknown command `{raw}' passed through")
                if not in_item:
                    outside_item(raw, line)
                elif raw[-1] in _BLOCK_SPACES:  # a control space: escape, then a space
                    writer.word(ESCAPE, style_stack[-1])
                    writer.space(style_stack[-1])
                else:
                    writer.word(raw, style_stack[-1])
        except MacroError as exc:
            exc.locate(line, source)
            raise
        return False

    # One token of the top stream per event, read until the stream ends
    # or a macro call queues its replacement above it.  Outside an item,
    # text is taken as one run up to the next command, brace or comment.
    while (stream := expansion.top()) is not None:
        content, content_end = stream.content, len(stream.content)
        match = (TOKEN if stream.comments else TEXT_TOKEN).match
        text_stop = _TEXT_STOP if stream.comments else _TEXT_STOP_NO_COMMENTS
        while (position := stream.position) < content_end:
            token = match(content, position)
            kind = token.lastgroup
            if not in_item and (kind == "word" or kind == "space"):
                stop = text_stop.search(content, position)
                line = stream.line
                outside_item(stream.take_to(content_end if stop is None else stop.start()), line)
                continue
            stream.position = token.end()
            if kind == "word":
                writer.word(token.group(), style_stack[-1])
            elif kind == "space":
                stream.line += token.group().count("\n")
                writer.space(style_stack[-1])
            elif kind == "styled":  # the same as its four tokens: open, switch, word, close
                if in_item:
                    writer.word(token.group("styled"), STYLE_SWITCHES[token.group("switch")])
                else:
                    outside_item(token.group("styled"), stream.line)
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

    close_item()
    writer.join()
    if in_environment:
        note(f"{source}: thebibliography environment never closed")
    if len(style_stack) != 1:
        note(f"{source}: unbalanced group at end of file")
    return Bibliography(items, layout, writer)

