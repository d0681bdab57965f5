"""An executable specification of the protocol, for the differential tests.

This is the whole protocol written out plainly and slowly, from the
guarantees README states and, where README says nothing, from the
behaviour the pinned outputs and the acceptance suite fix: the document
scan (with its lint), the aux reader and the aux record lines, the bbl
walk (``\\newcommand``, the depth cap and the one expansion budget per
file included), cite rendering, the two renderings, the report and the
fixpoint.  It reads its input one character at a time, uses no regular
expression and runs every pass of a run; only the bbl is read once per
run, as README says.  From the package it takes only the error
classes, so that an error compares by type, text and location.

The pieces are plain functions at the grain the tests compare:

* readers take ``(text, position, comments)``, with ``line`` and
  ``source`` as keywords, and return ``(value, end, line)``;
  :func:`next_command` returns a text run as the start and end of each
  of its comment-free pieces, with the command that ends it;
* the macro engine reads a stack of :class:`Frame`\\ s, the text at the
  bottom and above it the replacements not yet read to the end;
* :func:`process_bbl` returns the items, the label width and the
  spans, each span a ``(style, text)`` pair, a style being the value
  of the package's ``Style`` (``"plain"``, ``"tt"``, ``"em"``,
  ``"sc"``);
* :func:`run` runs passes over a :class:`Files` until the aux bytes
  repeat or the pass limit is reached.

Lines end at ``\\n`` only: a ``\\r`` is text, and counts no line.
"""

from __future__ import annotations

import json
import string
from fractions import Fraction
from typing import NamedTuple, Optional

from citeforge.errors import (
    AuxCorruptError,
    AuxFormatError,
    MacroError,
    MacroRecursionError,
    ScanError,
    StructureError,
    UnbalancedGroupError,
)

MAX_EXPANSION_DEPTH = 256
MAX_EXPANSION_CHARS = 1 << 22
MISSING_AUX_MESSAGE = (
    "No .aux file; I won't give you warnings about undefined citations."
)
STYLE_SWITCHES = {"em": "em", "it": "em", "sc": "sc", "tt": "tt", "rm": "plain"}
# The names the bbl walk acts on itself, which ``\\newcommand`` refuses.
WALK_COMMANDS = (*STYLE_SWITCHES, "begin", "end", "bibitem", "newblock", "newcommand")
DOCUMENT_COMMANDS = ("cite", "nocite", "bibliography", "bibliographystyle")
RECORD_KINDS = ("citation", "bibdata", "bibstyle", "@citedef")
# The record each document command writes.
COMMAND_RECORDS = {
    "cite": "citation",
    "nocite": "citation",
    "bibliographystyle": "bibstyle",
    "bibliography": "bibdata",
}

BLANKS = " \t\r\n\f\v"
LETTERS = string.ascii_letters
DIGITS = "0123456789"


def located(message: str, line: Optional[int], source: str) -> str:
    """``source:line: message``, leaving out what is not known."""
    where = ":".join(str(part) for part in (source, line) if part not in ("", None))
    return f"{where}: {message}" if where else message


# --- the scanner ------------------------------------------------------------


def lines_in(text: str, start: int, end: int, line: int) -> int:
    """``line`` plus the line breaks in ``text[start:end]``."""
    return line + text.count("\n", start, end)


def control_at(text: str, i: int) -> tuple[str, int]:
    """The name and end of the control sequence whose escape is ``text[i]``.

    ASCII letters after the escape form a control word; any other one
    character a control symbol; a lone escape at the end is named ``""``.
    """
    end = i + 1
    while end < len(text) and text[end] in LETTERS:
        end += 1
    if end > i + 1:
        return text[i + 1 : end], end
    if end < len(text):
        return text[end], end + 1
    return "", end


def skip_comment(text: str, i: int, line: int) -> tuple[int, int]:
    """Past the comment at ``i``, its line break included."""
    while i < len(text) and text[i] != "\n":
        i += 1
    if i < len(text):
        return i + 1, line + 1
    return i, line


def skip_filler(text: str, i: int, line: int, comments: bool) -> tuple[int, int]:
    """Past the blanks (and, where there are comments, the comments) at ``i``."""
    while i < len(text):
        if text[i] in BLANKS:
            if text[i] == "\n":
                line += 1
            i += 1
        elif text[i] == "%" and comments:
            i, line = skip_comment(text, i, line)
        else:
            break
    return i, line


def read_group(text, i, comments, close, *, line=1, source=""):
    """The argument whose opener is at ``i``, read to ``close`` outside braces.

    An escape keeps the character after it, braces nest, and comments
    are dropped.  A ``}`` with no brace open ends a ``{`` argument and is
    an error in a ``[`` one.
    """
    open_line = line
    i += 1
    depth = 0
    kept = []
    while i < len(text):
        ch = text[i]
        if ch == close and depth == 0:
            return "".join(kept), i + 1, line
        if ch == "%" and comments:
            i, line = skip_comment(text, i, line)
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            if depth == 0:
                raise UnbalancedGroupError("unexpected '}' inside optional argument", line, source)
            depth -= 1
        elif ch == "\\" and i + 1 < len(text):
            kept.append(ch)
            i += 1
            ch = text[i]
        if ch == "\n":
            line += 1
        kept.append(ch)
        i += 1
    if close == "]":
        raise ScanError("unterminated optional argument ('[' never closed)", open_line, source)
    raise UnbalancedGroupError("unbalanced group ('{' never closed)", open_line, source)


def group_arg(text, i, comments=True, *, line=1, source=""):
    """A mandatory ``{...}`` argument after any filler: ``(value, end, line)``."""
    i, line = skip_filler(text, i, line, comments)
    if i >= len(text) or text[i] != "{":
        found = "end of input" if i >= len(text) else repr(text[i])
        raise ScanError(f"expected '{{' but found {found}", line, source)
    return read_group(text, i, comments, "}", line=line, source=source)


def optional_arg(text, i, comments=True, *, line=1, source="", lint=None):
    """A ``[...]`` argument after any filler, ``""`` when there is none.

    The filler is passed over either way.  An empty ``[]`` is the same
    as none, and the lint hears of it at the bracket's line.
    """
    i, line = skip_filler(text, i, line, comments)
    if i >= len(text) or text[i] != "[":
        return "", i, line
    value, end, end_line = read_group(text, i, comments, "]", line=line, source=source)
    if value == "" and lint is not None:
        lint(located("empty optional argument '[]' treated as absent", line, source))
    return value, end, end_line


def split_keys(keys: str) -> list[str]:
    """The keys of a list, split at every comma and not trimmed; none for ``""``."""
    return keys.split(",") if keys else []


def next_command(text, i, comments=True, *, line=1, source="", lint=None):
    """The text run from ``i`` to the next document command, and that command.

    A run is the start and end of each of its comment-free pieces, none
    of them empty.  The command is read as ``(name, note, argument,
    line)``, the note given by ``\\cite`` only, and is None at the end
    of the text.  The lint hears of each ``\\cite`` key with a blank in
    it, at the command's line.
    """
    pieces: list[int] = []
    start = i
    while i < len(text):
        ch = text[i]
        if ch == "%" and comments:
            if i > start:
                pieces += [start, i]
            i, line = skip_comment(text, i, line)
            start = i
            continue
        if ch != "\\":
            if ch == "\n":
                line += 1
            i += 1
            continue
        name, end = control_at(text, i)
        if name not in DOCUMENT_COMMANDS:
            line = lines_in(text, i, end, line)
            i = end
            continue
        if i > start:
            pieces += [start, i]
        command, i, line = read_command(
            text, name, end, comments, line=line, source=source, lint=lint
        )
        return (pieces, command), i, line
    if i > start:
        pieces += [start, i]
    return (pieces, None), i, line


def read_command(text, name, i, comments, *, line, source, lint):
    """The arguments of the document command ``name``, read from ``i``."""
    command_line = line
    note = ""
    if name == "cite":
        note, i, line = optional_arg(text, i, comments, line=line, source=source, lint=lint)
    arg, i, line = group_arg(text, i, comments, line=line, source=source)
    if name == "cite" and lint is not None:
        for key in split_keys(arg):
            if any(ch.isspace() for ch in key):
                lint(located(f"citation key `{key}' contains a space", command_line, source))
    return (name, note, arg, command_line), i, line


# --- aux records ------------------------------------------------------------


def format_record(kind: str, payload: str, label: Optional[str] = None) -> str:
    """The record's line, or AuxFormatError for one the reader would not read back."""

    def check(part: str, text: str) -> None:
        if "\n" in text or "\r" in text:
            raise AuxFormatError(f"{kind} {part} may not contain a newline: {text!r}")

    if kind not in RECORD_KINDS:
        raise AuxFormatError(f"unknown aux record kind {kind!r}")
    check("payload", payload)
    if kind != "@citedef":
        if label is not None:
            raise AuxFormatError(f"{kind} record takes no label")
        return "\\" + kind + "{" + payload + "}\n"
    if label is None:
        raise AuxFormatError("@citedef record requires a label")
    check("label", label)
    return "\\@citedef{" + payload + "}{" + label + "}\n"


def read_aux(labels: dict, content: bytes, source: str = "") -> None:
    """Enter each ``\\@citedef`` of the aux bytes in ``labels``, in order.

    Line breaks (``\\n`` and ``\\r``) are dropped first, so a record may be
    split anywhere.  The payloads are brace groups with no comments;
    only ``\\@citedef``'s key and label must be UTF-8.  A record that
    does not read raises AuxCorruptError at the offset of its first
    byte in ``content``.
    """
    kept = [offset for offset, byte in enumerate(content) if byte not in b"\r\n"]
    text = "".join(chr(content[offset]) for offset in kept)  # one character per byte
    i = 0
    while i < len(text):
        problem, end = read_record(text, i, labels)
        if problem is not None:
            raise AuxCorruptError(problem, kept[i], source)
        i = end


def read_record(text: str, i: int, labels: dict) -> tuple[Optional[str], int]:
    """What is wrong with the record at ``i``, if anything, and its end."""
    for kind in RECORD_KINDS:
        if text.startswith("\\" + kind + "{", i):
            break
    else:
        return "unrecognized aux content", i
    i += len(kind) + 1
    try:
        payload, i, _ = group_arg(text, i, False)
        if kind == "@citedef":
            if not text.startswith("{", i):
                return "@citedef record missing its label", i
            label, i, _ = group_arg(text, i, False)
            key, label = utf8(payload), utf8(label)
            labels[key] = label
    except UnbalancedGroupError:
        return "unterminated record", i
    except UnicodeDecodeError:
        return "@citedef record is not UTF-8 text", i
    return None, i


def utf8(text: str) -> str:
    """The characters of ``text``, each one byte, read as UTF-8."""
    return bytes(ord(ch) for ch in text).decode("utf-8")


# --- the macro engine -------------------------------------------------------


class Frame:
    """A text being read: a file, or a replacement above the text it came from.

    ``position`` is the next character to read and ``line`` the line it
    is on.  A replacement starts at the line of its call and has no
    comments.
    """

    __slots__ = ("text", "position", "line", "comments", "source")

    def __init__(self, text: str, line: int = 1, comments: bool = True, source: str = "") -> None:
        self.text = text
        self.position = 0
        self.line = line
        self.comments = comments
        self.source = source

    def at_end(self) -> bool:
        return self.position >= len(self.text)

    def take(self, end: int) -> str:
        """The text up to ``end``, passed over."""
        taken = self.text[self.position : end]
        self.line = lines_in(self.text, self.position, end, self.line)
        self.position = end
        return taken

    def read(self, reader, **options):
        """What ``reader`` reads at the cursor; the cursor moves past it."""
        value, self.position, self.line = reader(
            self.text, self.position, self.comments, line=self.line, source=self.source, **options
        )
        return value

    def skip_filler(self) -> None:
        self.position, self.line = skip_filler(self.text, self.position, self.line, self.comments)


def top(frames: list[Frame]) -> Optional[Frame]:
    """The frame to read next, once the frames read to the end are dropped."""
    while frames and frames[-1].at_end():
        frames.pop()
    return frames[-1] if frames else None


def macro_arguments(frames: list[Frame], name: str, count: int) -> list[str]:
    """The ``count`` arguments of a call of ``name``, read from the top frame.

    An argument missing at the end of a replacement is read from the
    frame below.  Each is, after blanks, a brace group (braces
    stripped), a control sequence, a ``#`` and a digit, or one character.
    """
    args = []
    for _ in range(count):
        frame = frames[-1]
        frame.skip_filler()
        while frame.at_end():
            if len(frames) == 1:
                raise MacroError(f"missing argument for \\{name}")
            frames.pop()
            frame = frames[-1]
            frame.skip_filler()
        text, i = frame.text, frame.position
        if text[i] == "{":
            try:
                args.append(frame.read(group_arg))
            except UnbalancedGroupError:
                raise MacroError(f"unbalanced braces in argument of \\{name}") from None
            continue
        end = i + 1
        if text[i] == "\\":
            end = control_at(text, i)[1]
        elif text[i] == "#" and end < len(text) and text[end] in DIGITS:
            end += 1
        args.append(frame.take(end))
    return args


def substitute(body: str, args: list[str]) -> str:
    """``body`` with each ``#`` and ASCII digit replaced by that argument."""
    out = []
    i = 0
    while i < len(body):
        if body[i] == "#" and i + 1 < len(body) and body[i + 1] in DIGITS:
            index = int(body[i + 1])
            if not 1 <= index <= len(args):
                raise MacroError(
                    f"parameter #{index} used but only {len(args)} argument(s) supplied"
                )
            out.append(args[index - 1])
            i += 2
        else:
            out.append(body[i])
            i += 1
    if sum(len(piece) for piece in out) > MAX_EXPANSION_CHARS:
        raise MacroError(f"replacement text exceeded {MAX_EXPANSION_CHARS} characters")
    return "".join(out)


class Budget:
    """The replacement text the expansions of one bbl file have queued."""

    __slots__ = ("queued",)

    def __init__(self) -> None:
        self.queued = 0


def push(frames: list[Frame], budget: Budget, name: str, replacement: str, line: int) -> None:
    """Read ``replacement`` next, unless the depth cap or the budget stops it.

    The frames counted for the depth include the ones read to the end
    but not dropped yet.
    """
    if len(frames) > MAX_EXPANSION_DEPTH:
        raise MacroRecursionError(name, MAX_EXPANSION_DEPTH)
    budget.queued += len(replacement)
    if budget.queued > MAX_EXPANSION_CHARS:
        raise MacroError(f"expansion of \\{name} exceeded {MAX_EXPANSION_CHARS} characters")
    if replacement:
        frames.append(Frame(replacement, line, False, frames[0].source))


def call(frames: list[Frame], macros: dict, budget: Budget, name: str, line: int) -> None:
    """Replace the call of ``name`` whose arguments follow with its replacement."""
    count, body = macros[name]
    push(frames, budget, name, substitute(body, macro_arguments(frames, name, count)), line)


def expand_macros(macros: dict, text: str, budget: Optional[Budget] = None) -> str:
    """``text`` with every call of a macro in ``macros`` replaced, again and again.

    A macro is ``(parameter count, body)``; other control sequences and
    text stay as they are.
    """
    budget = Budget() if budget is None else budget
    frames = [Frame(text, comments=False)]
    out = []
    while (frame := top(frames)) is not None:
        i = frame.position
        if frame.text[i] != "\\":
            out.append(frame.take(i + 1))
            continue
        name, end = control_at(frame.text, i)
        raw = frame.take(end)
        if name in macros:
            call(frames, macros, budget, name, frame.line)
        else:
            out.append(raw)
    return "".join(out)


def define(macros: dict, name: str, count_text: str, body: str, budget: Budget) -> None:
    """``\\newcommand``: a count of ASCII digits, a sign and blanks allowed; 0 to 9.

    The body is expanded against the macros defined so far.
    """
    count = 0
    if count_text:
        digits = count_text.strip()
        unsigned = digits[1:] if digits[:1] in ("+", "-") else digits
        if not unsigned or any(ch not in DIGITS for ch in unsigned):
            raise MacroError(f"parameter count `{count_text}' is not a number")
        # int() refuses a string of thousands of digits, so the leading zeros go first.
        value = unsigned.lstrip("0") or "0"
        if digits[0] == "-" and value != "0":
            raise MacroError(f"-{value} is too few parameters")
        if len(value) > 1:
            raise MacroError(f"{value} is too many parameters")
        count = int(value)
    macros[name] = (count, expand_macros(macros, body, budget))


def macro_name_arg(text, i, comments, *, line, source):
    """``\\newcommand``'s name: ``{\\name}`` (blanks and one escape dropped) or ``\\name``."""
    i, line = skip_filler(text, i, line, comments)
    name = ""
    if text.startswith("{", i):
        group, i, line = group_arg(text, i, comments, line=line, source=source)
        name = group.strip().removeprefix("\\")
    elif text.startswith("\\", i):
        name, end = control_at(text, i)
        line, i = lines_in(text, i, end, line), end
    if not name:
        raise MacroError("expected a macro name")
    return name, i, line


# --- rendering --------------------------------------------------------------


def add(spans: list, style: str, text: str) -> None:
    """Append ``text``; it joins a last span of its style.  Spans are ``[style, chunks]``."""
    if not text:
        return
    if spans and spans[-1][0] == style:
        spans[-1][1].append(text)
    else:
        spans.append([style, [text]])


def finished(spans: list) -> list[tuple[str, str]]:
    return [(style, "".join(chunks)) for style, chunks in spans]


def render_plain(spans: list[tuple[str, str]]) -> str:
    return "".join(text for _, text in spans)


def render_annotated(spans: list[tuple[str, str]]) -> str:
    return "".join(text if style == "plain" else f"⟨{style}:{text}⟩" for style, text in spans)


# --- the bbl walk -----------------------------------------------------------


def blank_and_word_runs(text: str) -> list[str]:
    """``text`` cut into its maximal runs of blanks and of other characters."""
    runs: list[str] = []
    for ch in text:
        if runs and (ch in BLANKS) == (runs[-1][-1] in BLANKS):
            runs[-1] += ch
        else:
            runs.append(ch)
    return runs


class Bibliography(NamedTuple):
    """``items`` are ``(key, label, alpha, alignment, line)``; ``label_width`` a length."""

    items: list
    label_width: tuple
    spans: list


def process_bbl(content: str, lint=None, source: str = "") -> Bibliography:
    """Walk a bbl file: its items, the widest label's width, and its rendering.

    Each item renders as ``[label] ``, its blocks (split at
    ``\\newblock``) joined by one plain space, and a line break.  Blank
    runs in a block are one space, in the style where they start, and a
    block's edges lose their blanks.  A bare ``\\bibitem`` is numbered
    and aligns right, ``[tag]`` is the label and aligns left, and the
    first item of an environment decides the alignment.  Macros are
    expanded where they are met, under one budget per file.
    """

    def note(message: str) -> None:
        if lint is not None:
            lint(message)

    macros: dict = {}
    budget = Budget()
    items = []
    label_width = DEFAULT_LABEL_WIDTH
    counter, alignment, in_environment = 0, None, False
    styles = ["plain"]
    spans: list = []
    in_item = False
    # The style of the blank before the next word; None for no blank, and
    # False until the item's first word.
    pending = False
    frames = [Frame(content, source=source)]

    def word(text: str, style: str) -> None:
        nonlocal pending
        if pending:
            add(spans, pending, " ")
        pending = None
        add(spans, style, text)

    def blank(style: str) -> None:
        nonlocal pending
        if pending is None:
            pending = style

    def close_item() -> None:
        nonlocal in_item
        if in_item:
            add(spans, "plain", "\n")
            in_item = False

    def outside_item(text: str, line: int) -> None:
        if all(ch in BLANKS for ch in text):
            return
        if in_environment:
            raise StructureError("text before the first \\bibitem", line, source)
        note(f"{source}:{line}: text outside thebibliography ignored")

    while (frame := top(frames)) is not None:
        text, i, line = frame.text, frame.position, frame.line
        ch = text[i]
        if ch == "%" and frame.comments:
            frame.position, frame.line = skip_comment(text, i, line)
        elif ch == "{":
            frame.take(i + 1)
            styles.append(styles[-1])
        elif ch == "}":
            if len(styles) == 1:
                raise UnbalancedGroupError("unexpected '}'", line, source)
            frame.take(i + 1)
            styles.pop()
        elif ch != "\\":  # text, up to the next command, brace or comment
            stops = "\\{}%" if frame.comments else "\\{}"
            end = i
            while end < len(text) and text[end] not in stops:
                end += 1
            run = frame.take(end)
            if not in_item:
                outside_item(run, line)
                continue
            for piece in blank_and_word_runs(run):
                if piece[0] in BLANKS:
                    blank(styles[-1])
                else:
                    word(piece, styles[-1])
        else:
            name, end = control_at(text, i)
            raw = frame.take(end)
            try:
                if name in STYLE_SWITCHES:
                    styles[-1] = STYLE_SWITCHES[name]
                    frame.skip_filler()
                elif name == "begin":
                    close_item()
                    frame.read(group_arg)
                    widest = expand_macros(macros, frame.read(group_arg), budget)
                    label_width = label_box(widest)
                    counter, alignment, in_environment = 0, None, True
                elif name == "end":
                    close_item()
                    frame.read(group_arg)
                    in_environment = False
                elif name == "bibitem":
                    close_item()
                    tag = frame.read(optional_arg, lint=lint)
                    key = frame.read(group_arg)
                    if not in_environment:
                        raise StructureError("\\bibitem outside thebibliography", line, source)
                    if tag:
                        label = expand_macros(macros, tag, budget)
                        alignment = alignment or "labels_left"
                    else:
                        counter += 1
                        label = str(counter)
                        alignment = alignment or "labels_right"
                    items.append((key, label, tag != "", alignment, line))
                    add(spans, "plain", f"[{label}] ")
                    in_item, pending = True, False
                    frame.skip_filler()
                elif name == "newblock":
                    frame.skip_filler()
                    if pending is not False:
                        pending = "plain"
                elif name == "newcommand":
                    macro_name = frame.read(macro_name_arg)
                    count = frame.read(optional_arg, lint=lint)
                    body = frame.read(group_arg)
                    if macro_name in WALK_COMMANDS:
                        raise MacroError(f"command \\{macro_name} already defined")
                    define(macros, macro_name, count, body, budget)
                elif name in macros:
                    call(frames, macros, budget, name, line)
                else:
                    note(f"{source}:{line}: unknown command `{raw}' passed through")
                    if not in_item:
                        outside_item(raw, line)
                    elif raw[-1] in BLANKS:  # a control space: the escape, then a blank
                        word("\\", styles[-1])
                        blank(styles[-1])
                    else:
                        word(raw, styles[-1])
            except MacroError as exc:
                exc.locate(line, source)
                raise

    close_item()
    if in_environment:
        note(f"{source}: thebibliography environment never closed")
    if len(styles) != 1:
        note(f"{source}: unbalanced group at end of file")
    return Bibliography(items, label_width, finished(spans))


# --- layout -----------------------------------------------------------------

# A length is (value, unit), a glue (value, unit, stretch, shrink).
DEFAULT_LABEL_WIDTH = (Fraction(0), "pt")
LABEL_EXTRA_SPACE = (Fraction(1, 2), "em")
PARSKIP = (Fraction(3, 2), "ex", (Fraction(1, 2), "ex"), (Fraction(1, 2), "ex"))
NEWBLOCK_GLUE = (
    Fraction(11, 100), "em", (Fraction(33, 100), "em"), (Fraction(7, 100), "em"),
)
HFUZZ = (Fraction(1, 2), "pt")


def label_box(widest: str) -> tuple:
    """The width of ``[widest]``: half an em a character, brackets included."""
    return (Fraction(len(widest) + 2, 2), "em")


def in_points(length: tuple, em_size: Fraction) -> Fraction:
    value, unit = length[:2]
    return value * {"pt": 1, "em": em_size, "ex": em_size / 2}[unit]


def decimal(value: Fraction) -> str:
    """The shortest exact decimal, or ``n/d`` when there is none."""
    if value < 0:
        return "-" + decimal(-value)
    rest = value.denominator
    for prime in (2, 5):
        while rest % prime == 0:
            rest //= prime
    if rest != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = 0
    while (value * 10**digits).denominator != 1:
        digits += 1
    if digits == 0:
        return str(value.numerator)
    text = str((value * 10**digits).numerator).rjust(digits + 1, "0")
    return text[:-digits] + "." + text[-digits:]


def length_json(length: tuple, em_size: Fraction) -> dict:
    value, unit, *glue = length
    source = decimal(value) + unit
    data = {"pt": float(in_points(length, em_size))}
    for word, part in zip(("plus", "minus"), glue):
        source += f" {word} {decimal(part[0])}{part[1]}"
    data["source"] = source
    for name, part in zip(("stretch_pt", "shrink_pt"), glue):
        data[name] = float(in_points(part, em_size))
    return data


def layout_json(label_width: tuple, em_size: Fraction) -> dict:
    """The report's layout: every parameter fixed but the label width."""
    if label_width[1] == LABEL_EXTRA_SPACE[1]:
        hangindent = (label_width[0] + LABEL_EXTRA_SPACE[0], label_width[1])
    else:
        hangindent = (in_points(label_width, em_size) + in_points(LABEL_EXTRA_SPACE, em_size), "pt")
    return {
        "biblabelwidth": length_json(label_width, em_size),
        "biblabelextraspace": length_json(LABEL_EXTRA_SPACE, em_size),
        "hangindent": length_json(hangindent, em_size),
        "parskip": length_json(PARSKIP, em_size),
        "newblock_glue": length_json(NEWBLOCK_GLUE, em_size),
        "clubpenalty": 4000,
        "widowpenalty": 4000,
        "tolerance": 10000,
        "hfuzz": length_json(HFUZZ, em_size),
        "frenchspacing": True,
    }


# --- passes and the fixpoint ------------------------------------------------


class Job(NamedTuple):
    jobname: str
    bbl_basename: Optional[str] = None  # the jobname when None
    no_aux: bool = False
    max_passes: int = 4
    em_size: Fraction = Fraction(10)
    document_name: str = ""  # the jobname and ``.tex`` when empty

    @property
    def aux_name(self) -> str:
        return f"{self.jobname}.aux"

    @property
    def bbl_name(self) -> str:
        return f"{self.jobname if self.bbl_basename is None else self.bbl_basename}.bbl"

    @property
    def source(self) -> str:
        return self.document_name or f"{self.jobname}.tex"


class Files:
    """Files by name, and every write in order."""

    __slots__ = ("files", "writes")

    def __init__(self, files: Optional[dict] = None) -> None:
        self.files = dict(files or {})
        self.writes: list[tuple[str, bytes]] = []

    def write(self, name: str, data: bytes) -> None:
        self.files[name] = data
        self.writes.append((name, data))


class Pass(NamedTuple):
    spans: list
    aux_bytes: bytes
    warnings: list  # (line, key)
    messages: list
    lint: list
    labels: dict
    bibliography: Optional[Bibliography]


class Run(NamedTuple):
    final: Pass
    passes_used: int
    converged: bool
    history: list


def cite(labels: dict, keys: str, note: str, line: int, warn: bool):
    """The spans of ``[k1, k2, note]`` and the warnings of the keys cited undefined.

    A key with a label renders as it, and any other key as itself in
    typewriter type; an undefined one becomes a fallback, and warns
    (once, when ``warn``).
    """
    spans: list = []
    warnings = []
    add(spans, "plain", "[")
    for index, key in enumerate(split_keys(keys)):
        if index:
            add(spans, "plain", ", ")
        if labels.get(key) is not None:
            add(spans, "plain", labels[key])
            continue
        add(spans, "tt", key)
        if key not in labels:
            labels[key] = None
            if warn:
                warnings.append((line, key))
    if note:
        add(spans, "plain", ", " + note)
    add(spans, "plain", "]")
    return finished(spans), warnings


def read_bbl(data: bytes, name: str) -> tuple[Bibliography, list]:
    """The bibliography of a bbl file's bytes, and its lint."""
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScanError(f"not UTF-8 text (byte {exc.start})", source=name) from None
    lint: list = []
    return process_bbl(content, lint.append, name), lint


def run_pass(job: Job, document: str, files: Files, bbls: Optional[dict] = None) -> Pass:
    """One pass: scan, read the aux at the first command, rewrite the aux.

    ``bbls`` holds each bbl file read in this run, by name, with its
    lint: a run reads a bbl once, at the first ``\\bibliography`` that
    finds it.
    """
    bbls = {} if bbls is None else bbls
    labels: dict = {}
    messages: list = []
    lint: list = []
    warnings: list = []
    records: list = []
    spans: list = []
    bibliography = None
    aux_read = None
    read_done = job.no_aux
    i, line = 0, 1
    while i < len(document):
        (pieces, item), i, line = next_command(
            document, i, line=line, source=job.source, lint=lint.append
        )
        for start, end in zip(pieces[::2], pieces[1::2]):
            add(spans, "plain", document[start:end])
        if item is None:
            break
        name, note, arg, command_line = item
        if not read_done:
            read_done = True
            if job.aux_name in files.files:
                aux_read = files.files[job.aux_name]
                read_aux(labels, aux_read, job.aux_name)
            else:
                messages.append(MISSING_AUX_MESSAGE)
        if not job.no_aux:
            try:
                records.append(format_record(COMMAND_RECORDS[name], arg))
            except AuxFormatError as exc:
                exc.locate(command_line, job.source)
                raise
        if name == "cite":
            cited, found = cite(labels, arg, note, command_line, aux_read is not None)
            warnings += found
            for style, text in cited:
                add(spans, style, text)
        elif name == "bibliography":
            if job.bbl_name not in files.files:
                messages.append(f"No file {job.bbl_name}.")
                continue
            if job.bbl_name not in bbls:
                bbls[job.bbl_name] = read_bbl(files.files[job.bbl_name], job.bbl_name)
            bibliography, bbl_lint = bbls[job.bbl_name]
            for key, label, _, _, item_line in bibliography.items:
                labels[key] = label
                if not job.no_aux:
                    try:
                        records.append(format_record("@citedef", key, label))
                    except AuxFormatError as exc:
                        exc.locate(item_line, job.bbl_name)
                        raise
            lint += bbl_lint
            for style, text in bibliography.spans:
                add(spans, style, text)
    aux_bytes = b""
    if not job.no_aux:
        aux_bytes = "".join(records).encode("utf-8")
        files.write(job.aux_name, aux_bytes)
    return Pass(finished(spans), aux_bytes, warnings, messages, lint, labels, bibliography)


def run(job: Job, document: str, files: Files) -> Run:
    """Passes until one writes the aux bytes the one before it wrote, or the limit."""
    history: list = []
    bbls: dict = {}
    for number in range(1, job.max_passes + 1):
        result = run_pass(job, document, files, bbls)
        history.append(result.aux_bytes)
        if number > 1 and history[-2] == result.aux_bytes:
            return Run(result, number, True, history)
    return Run(result, job.max_passes, False, history)


def report(job: Job, outcome: Run) -> dict:
    """The machine-readable account of the final pass."""
    final = outcome.final
    data = {
        "jobname": job.jobname,
        "passes_used": outcome.passes_used,
        "converged": outcome.converged,
        "warnings": [
            {"line": line, "key": key, "text": f"{line}: Undefined citation `{key}'."}
            for line, key in final.warnings
        ],
        "messages": list(final.messages),
        "lint": list(final.lint),
        "citations": {
            key: {"status": "fallback", "label": key}
            if label is None
            else {"status": "defined", "label": label}
            for key, label in final.labels.items()
        },
        "undefined": [key for key, label in final.labels.items() if label is None],
        "rendered": render_plain(final.spans),
        "rendered_annotated": render_annotated(final.spans),
        "bibliography": None,
    }
    if final.bibliography is not None:
        items = final.bibliography.items
        data["bibliography"] = {
            "nobreak_before": True,
            "alignment": items[0][3] if items else None,
            "items": [{"key": key, "label": label, "alpha": alpha} for key, label, alpha, *_ in items],
            "layout": layout_json(final.bibliography.label_width, job.em_size),
        }
    return data


def report_json(job: Job, outcome: Run) -> str:
    return json.dumps(report(job, outcome), indent=2)
