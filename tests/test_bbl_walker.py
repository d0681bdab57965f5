"""The token walker in ``process_bbl`` against the character walker it replaced.

The code under "reference" below is the former walk, copied verbatim:
``process_bbl``, ``_BlockBuilder``, ``BibItem``, ``BblState``,
``begin_thebibliography`` and ``bibitem`` from ``bbl``, the label
states and ``LabelTable`` from ``citations``,
``skip_filler``, ``scan_group_arg`` and ``control_at`` from
``scanner``, and ``Expansion.top``/``_argument`` and ``expand_macros``
from ``macros``.  While it runs, the real modules' ``expand_macros``
and ``skip_filler`` are swapped for the copies, so labels, definition
bodies and optional arguments go through the old paths too.

Wherever the reference succeeds, the walker must build the same items
(each with the line its ``\\bibitem`` was given), layout, lint, and
labels; wherever it raises, the walker must raise the same error, with
the same message and location.  The walker's labels are the ones a
pass enters from its items.  The reference queued ``@citedef``
records as it went; its session here is in no-aux mode, which drops
them unchecked, because the walker leaves writing them, and reporting
an unwritable one, to the pass.
"""

from __future__ import annotations

import contextlib
import importlib.util
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import bbl, driver, macros, scanner
from citeforge.auxfile import AuxRecord, AuxSession
from citeforge.bbl import Alignment, Bibliography, LayoutParams, measure_label
from citeforge.errors import MacroError, ScanError, StructureError, UnbalancedGroupError
from citeforge.macros import (
    Expansion,
    ExpansionBudget,
    MacroDef,
    define_newcommand,
    substitute_params,
)
from citeforge.rendering import RenderedFragment, Span, Style
from citeforge.scanner import (
    COMMENT,
    ESCAPE,
    CharStream,
    OptionalArg,
    _scan_to,
    scan_optional_arg,
    skip_comment,
)

# --- reference: the character walker, verbatim ------------------------------


class Value:
    """Equality, hash and repr over the fields named in ``__slots__``.

    Instances equal only instances of the very same class, so two value
    classes with equal fields never compare equal.  Fields are not
    guarded against assignment; treat instances as immutable, since
    they may be hashed.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((self.__class__, self._fields()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Undefined(Value):
    __slots__ = ()


class Fallback(Value):
    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key


class Defined(Value):
    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label


LabelState = Union[Undefined, Fallback, Defined]

UNDEFINED = Undefined()


class LabelTable:
    """Label states for this pass, keyed by citation key in first-touched order."""

    def __init__(self) -> None:
        self.entries: dict[str, LabelState] = {}

    def state_for(self, key: str) -> LabelState:
        return self.entries.get(key, UNDEFINED)

    def define(self, key: str, label: str) -> None:
        """Install a resolved label, replacing any fallback state."""
        self.entries[key] = Defined(label)

    def set_fallback(self, key: str) -> None:
        self.entries[key] = Fallback(key)

    def __len__(self) -> int:
        return len(self.entries)


_WHITESPACE = " \t\r\n\f\v"
_CONTROL_WORD = re.compile("[A-Za-z]*")
_DIGITS = frozenset("0123456789")
_STYLE_SWITCHES = bbl._STYLE_SWITCHES
_BLOCK_SPACES = " \t\r\n\f\v"
_TEXT_STOP = re.compile(r"[\\{}%]")
_TEXT_STOP_NO_COMMENTS = re.compile(r"[\\{}]")
LintSink = Callable[[str], None]


class BibItem(NamedTuple):
    key: str
    label: str
    alpha: bool
    alignment: Alignment
    body: list[RenderedFragment]


class BblState:
    """Mutable state for a single bbl run; make a fresh one per call.

    Everything starts at its initial value.  ``expansion_budget`` counts
    the replacement text every expansion of the run queues.
    """

    __slots__ = (
        "layout",
        "item_counter",
        "alignment",
        "in_environment",
        "macros",
        "items",
        "expansion_budget",
    )

    def __init__(self) -> None:
        self.layout = LayoutParams()
        self.item_counter = 0
        self.alignment: Optional[Alignment] = None
        self.in_environment = False
        self.macros: dict[str, MacroDef] = {}
        self.items: list[BibItem] = []
        self.expansion_budget = ExpansionBudget()


def begin_thebibliography(widest: str, state: BblState) -> None:
    """Open (or reopen) the environment.

    Sets the label box width from the widest label and resets the item
    counter and the alignment decision.
    """
    state.layout = state.layout._replace(biblabelwidth=measure_label(widest))
    state.item_counter = 0
    state.alignment = None
    state.in_environment = True


def bibitem(
    state: BblState,
    optional: OptionalArg,
    key: str,
    session: AuxSession,
    table: LabelTable,
    line: Optional[int] = None,
    source: str = "",
) -> BibItem:
    """Start a new item; defines its label and queues the aux record.

    A nonempty optional is the label (alpha shape, left alignment); an
    absent or empty one numbers the item (right alignment).  Alignment
    is only decided by the first item of the environment.  Alpha labels
    are expanded against the file's own macro definitions before use.
    """
    if not state.in_environment:
        raise StructureError("\\bibitem outside thebibliography", line, source)
    if optional.present_nonempty:
        label = expand_macros(state.macros, optional.text, budget=state.expansion_budget)
        alpha = True
        if state.alignment is None:
            state.alignment = Alignment.LABELS_LEFT
    else:
        state.item_counter += 1
        label = str(state.item_counter)
        alpha = False
        if state.alignment is None:
            state.alignment = Alignment.LABELS_RIGHT
    table.define(key, label)
    session.write(AuxRecord.citedef(key, label))
    item = BibItem(key, label, alpha, state.alignment, [])
    state.items.append(item)
    return item



def skip_filler(stream: CharStream) -> None:
    """Skip whitespace (line breaks included) and comments."""
    while not stream.at_end():
        ch = stream.peek()
        if ch in _WHITESPACE:
            stream.take()
        elif ch == COMMENT and stream.comments:
            skip_comment(stream)
        else:
            return


def control_at(text: str, i: int) -> tuple[str, int]:
    end = _CONTROL_WORD.match(text, i + 1).end()
    if end > i + 1:
        return text[i + 1 : end], end
    if i + 1 < len(text):
        return text[i + 1], i + 2
    return "", i + 1


def scan_group_arg(stream: CharStream) -> str:
    skip_filler(stream)
    if stream.at_end() or stream.peek() != "{":
        found = "end of input" if stream.at_end() else repr(stream.peek())
        raise ScanError(f"expected '{{' but found {found}", stream.line, stream.source)
    return _scan_to(stream, "}")


class ReferenceExpansion(Expansion):
    def top(self) -> Optional[CharStream]:
        """The stream to read next, or None once everything is read."""
        streams = self.streams
        while streams and streams[-1].at_end():
            streams.pop()
        return streams[-1] if streams else None

    def _argument(self, name: str) -> str:
        streams = self.streams
        stream = streams[-1]
        skip_filler(stream)
        while stream.at_end():
            if len(streams) == 1:
                raise MacroError(f"missing argument for \\{name}")
            streams.pop()
            stream = streams[-1]
            skip_filler(stream)
        ch = stream.peek()
        if ch == "{":
            try:
                return scan_group_arg(stream)
            except UnbalancedGroupError:
                raise MacroError(f"unbalanced braces in argument of \\{name}") from None
        if ch == ESCAPE:
            return stream.take_to(control_at(stream.content, stream.position)[1])
        if ch == "#" and stream.peek(1) in _DIGITS:
            return stream.take_to(stream.position + 2)
        return stream.take()


def expand_macros(defs, text, *, budget=None) -> str:
    expansion = ReferenceExpansion(CharStream(text, comments=False), budget)
    out: list[str] = []
    while (stream := expansion.top()) is not None:
        content, start = stream.content, stream.position
        escape = content.find(ESCAPE, start)
        if escape != start:
            out.append(stream.take_to(len(content) if escape < 0 else escape))
            continue
        name, end = control_at(content, start)
        raw = stream.take_to(end)
        macro = defs.get(name)
        if macro is None:
            out.append(raw)
        else:
            args = expansion.arguments(macro)
            expansion.push(name, substitute_params(macro.body, args), stream.line)
    return "".join(out)


class _BlockBuilder:
    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._style: Style = Style.PLAIN
        self._chunks: list[str] = []
        self._pending_space: Optional[Style] = None
        self._has_text = False

    def _flush(self) -> None:
        if self._chunks:
            self._spans.append(Span(self._style, "".join(self._chunks)))
            self._chunks = []

    def _emit(self, text: str, style: Style) -> None:
        if style is not self._style:
            self._flush()
            self._style = style
        self._chunks.append(text)

    def add(self, text: str, style: Style) -> None:
        for ch in text:
            if ch in _BLOCK_SPACES:
                if self._has_text and self._pending_space is None:
                    self._pending_space = style
                continue
            if self._pending_space is not None:
                self._emit(" ", self._pending_space)
                self._pending_space = None
            self._emit(ch, style)
            self._has_text = True

    def finish(self) -> Optional[RenderedFragment]:
        self._flush()
        if not self._has_text:
            return None
        fragment = RenderedFragment()
        for span in self._spans:
            fragment.append(*span)
        return fragment


def _scan_macro_name_arg(stream: CharStream) -> str:
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
    content: str,
    state: BblState,
    session: AuxSession,
    table: LabelTable,
    *,
    lint: Optional[LintSink] = None,
    source: str = "",
) -> Bibliography:
    def note(message: str) -> None:
        if lint is not None:
            lint(message)

    budget = state.expansion_budget
    expansion = ReferenceExpansion(CharStream(content, source=source), budget)
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

    def handle_text(text: str, line: int, src: str) -> None:
        if current_item is not None:
            block.add(text, style_stack[-1])
            return
        if text.strip(_BLOCK_SPACES) == "":
            return
        if state.in_environment:
            raise StructureError("text before the first \\bibitem", line, src)
        note(f"{src}:{line}: text outside thebibliography ignored")

    while (stream := expansion.top()) is not None:
        ch = stream.peek()
        if ch == "%" and stream.comments:
            skip_comment(stream)
            continue
        if ch == "{":
            stream.take()
            style_stack.append(style_stack[-1])
            continue
        if ch == "}":
            if len(style_stack) == 1:
                raise UnbalancedGroupError("unexpected '}'", stream.line, stream.source)
            stream.take()
            style_stack.pop()
            continue
        if ch != "\\":
            line = stream.line
            text_stop = _TEXT_STOP if stream.comments else _TEXT_STOP_NO_COMMENTS
            stop = text_stop.search(stream.content, stream.position)
            text = stream.take_to(len(stream.content) if stop is None else stop.start())
            handle_text(text, line, stream.source)
            continue

        line = stream.line
        name, end = control_at(stream.content, stream.position)
        raw = stream.take_to(end)
        try:
            if name in _STYLE_SWITCHES:
                style_stack[-1] = _STYLE_SWITCHES[name]
                skip_filler(stream)
            elif name == "begin":
                close_item()
                scan_group_arg(stream)  # environment name; any counts as ours
                widest = scan_group_arg(stream)
                widest = expand_macros(state.macros, widest, budget=budget)
                begin_thebibliography(widest, state)
            elif name == "end":
                close_item()
                scan_group_arg(stream)  # environment name, discarded
                state.in_environment = False
            elif name == "bibitem":
                close_item()
                optional = scan_optional_arg(stream, lint)
                key = scan_group_arg(stream)
                current_item = bibitem(
                    state, optional, key, session, table, line, stream.source
                )
                skip_filler(stream)
            elif name == "newblock":
                skip_filler(stream)
                if current_item is not None:
                    close_block()
            elif name == "newcommand":
                macro_name = _scan_macro_name_arg(stream)
                nparams = scan_optional_arg(stream, lint)
                body = scan_group_arg(stream)
                define_newcommand(state.macros, macro_name, nparams, body, budget=budget)
            elif name in state.macros:
                macro = state.macros[name]
                args = expansion.arguments(macro)
                expansion.push(name, substitute_params(macro.body, args), line)
            else:
                note(f"{stream.source}:{line}: unknown command `{raw}' passed through")
                handle_text(raw, line, stream.source)
        except MacroError as exc:
            exc.locate(line, stream.source)
            raise

    close_item()
    if state.in_environment:
        note(f"{source}: thebibliography environment never closed")
    if len(style_stack) != 1:
        note(f"{source}: unbalanced group at end of file")
    return Bibliography(items=state.items, layout=state.layout)


# --- running both walkers ----------------------------------------------------


@contextlib.contextmanager
def reference_helpers():
    """Route the real modules' expansion and filler skipping to the copies."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(bbl, "expand_macros", expand_macros))
        stack.enter_context(mock.patch.object(macros, "expand_macros", expand_macros))
        stack.enter_context(mock.patch.object(scanner, "skip_filler", skip_filler))
        yield


def outcome(walk, content: str):
    """What a walk produces and its rendering, or the error it raised.

    A walk returns its bibliography, its labels as (key, label) pairs
    and the line of each item.
    """
    lint: list[str] = []
    try:
        bibliography, labels, lines = walk(content, lint.append)
    except Exception as exc:  # the reference decides which errors are expected
        line, source = getattr(exc, "line", None), getattr(exc, "source", None)
        return ("error", type(exc), str(exc), line, source), None
    items = [
        (item.key, item.label, item.alpha, item.alignment, [block.spans for block in item.body], line)
        for item, line in zip(bibliography.items, lines, strict=True)
    ]
    result = ("ok", items, bibliography.layout, lint, labels)
    return result, driver._render_bibliography(bibliography).spans


def reference_walk(content: str, lint: LintSink):
    state, session, table, lines = BblState(), AuxSession(no_aux=True), LabelTable(), []
    reference_bibitem = bibitem  # the copy above; the patch below replaces the name

    def noting_line(state, optional, key, session, table, line=None, source=""):
        lines.append(line)
        return reference_bibitem(state, optional, key, session, table, line, source)

    with reference_helpers(), mock.patch.object(sys.modules[__name__], "bibitem", noting_line):
        bibliography = process_bbl(content, state, session, table, lint=lint, source="refs.bbl")
    return bibliography, [(key, state.label) for key, state in table.entries.items()], lines


def walker(content: str, lint: LintSink):
    bibliography = bbl.process_bbl(content, lint=lint, source="refs.bbl")
    labels = {}
    for item in bibliography.items:
        labels[item.key] = item.label
    return bibliography, list(labels.items()), [item.line for item in bibliography.items]


def both(content: str):
    return outcome(reference_walk, content), outcome(walker, content)


# --- generated bbls ----------------------------------------------------------

DEFINITIONS = (
    "\\newcommand{\\za}{Zed}",
    "\\newcommand{\\zb}[1]{<#1>}",
    "\\newcommand{\\zc}[2]{#2 and #1}",
    "\\newcommand\\zd[3]{#1#3#2}",
    "\\newcommand{\\zi}{\\bibitem{zk}}",
    "\\newcommand{\\zj}[1]{\\bibitem[#1]{zt} }",
    "\\newcommand{\\zn}{ \\newblock }",
    "\\newcommand{\\zs}[1]{{\\sc #1} }",
    "\\newcommand{\\gob}[1]{}",
    "\\newcommand{\\zid}[1]{#1}",
    "\\newcommand\\ {sp}",
    "\\newcommand{\\em}{shadowed}",
    "\\newcommand{\\zz}[x]{bad}",
    "\\newcommand{\\zz}[10]{bad}",
    "\\newcommand{}{nameless}",
    "\\newcommand{\\zr}{\\zr}",
)
STRUCTURE = (
    "\\begin{thebibliography}{99}",
    "\\begin{thebibliography}{\\za}",
    "\\end{thebibliography}",
    "\\bibitem{k1}",
    "\\bibitem{k2} ",
    "\\bibitem[T]{k3}",
    "\\bibitem[]{k4}",
    "\\bibitem [\\zd{a}{b}{c}] {k5}",
    "\\bibitem[x\n",
    "\\bibitem",
    "\\newblock",
    "\\newblock ",
)
STYLE = ("\\em", "\\em ", "\\sc", "\\tt ", "\\rm", "\\it", "{", "}", "{\\em ", "{\\sc x}")
TEXT = (
    "word",
    "two words",
    "x]y",
    "#1",
    "#",
    "[",
    " ",
    "  ",
    "\n",
    "\r\n",
    "\t",
    "\f\v",
    "\n\n  ",
    "% a comment\n",
    "%",
    "50\\%",
    "\\ ",
    "\\\n",
    "\\\t",
    "\\unknown",
    "\\foo{x}",
    "\\",
    "\\za",
    "\\zb{arg}",
    "\\zb x",
    "\\zc{1}{2}",
    "\\zd a{b}c",
    "\\zi",
    "\\zj{J}",
    "\\zn",
    "\\zs{S}",
    "\\gob{gone}",
    "\\zid",
    "\\zid\\",
    "\\zr",
)
ALPHABET = DEFINITIONS + STRUCTURE + STYLE + TEXT
PREFIXES = (
    "",
    "\\begin{thebibliography}{99}\n\\bibitem{a} ",
    "\\newcommand{\\zb}[1]{<#1>}\\newcommand\\zd[3]{#1#3#2}\\newcommand{\\zid}[1]{#1}\n"
    "\\newcommand{\\zi}{\\bibitem{zk}}\\newcommand{\\zn}{ \\newblock }\n"
    "\\begin{thebibliography}{99}\n\\bibitem[L]{a}\n",
)
BBLS = st.builds(
    lambda prefix, tokens: prefix + "".join(tokens),
    st.sampled_from(PREFIXES),
    st.lists(st.sampled_from(ALPHABET), max_size=40),
)


@given(BBLS)
@settings(max_examples=600, deadline=None)
def test_walker_matches_the_reference(content):
    expected, actual = both(content)
    assert actual == expected


@pytest.mark.parametrize(
    "content",
    [
        "",
        "\\",
        "\\begin{thebibliography}{9}\\bibitem{a}\\zid\\",
        "\\newcommand{\\zid}[1]{#1}\\begin{thebibliography}{9}\\bibitem{a} x\\zid\\",
        "\\begin{thebibliography}{9}\n\n  stray text",
        "lead\n  text \\begin{thebibliography}{9}\\bibitem{a}A\\end{thebibliography} tail",
        "\\begin{thebibliography}{9}\\bibitem{a} A  \\em B\n\n{\\sc C} \\newblock  D\\ E\\\nF}",
        "\\begin{thebibliography}{9}\\bibitem{a} {\\em x } y \\unknown\t z %c\nw",
    ],
)
def test_walker_matches_the_reference_on_edge_cases(content):
    expected, actual = both(content)
    assert actual == expected


def _load_corpus_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["big-bib", "paper-cli"])
def test_benchmark_bibliographies_render_identically(workload):
    content = _load_corpus_module().generate(workload, 1701, 0.25).bbl
    expected, actual = both(content)
    assert expected[0][0] == "ok"
    assert actual == expected
