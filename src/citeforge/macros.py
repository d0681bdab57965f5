"""The macro engine: newcommand-style definitions and their expansion.

Definitions take 0 to 9 positional parameters.  The body is expanded
once at definition time against the macros already defined, with the
new macro's own ``#n`` markers left in place, and split at those markers
once into the definition's template; a call then substitutes its
arguments into the template and the result is read again.  Templates
live in the definitions, so nothing is kept from one table to the next.

:class:`Expansion` is the one engine: a stack of streams, the text
being read at the bottom and above it the replacements of calls not yet
read to the end.  The bbl reader walks it directly; :func:`expand_macros`
walks it to expand a string, reading each replacement from a stream.
Arguments are scanned the undelimited way: skip blanks, then take a
brace group (braces stripped), a whole control sequence, a ``#n``
marker, or a single character.  Plain groups come
first: the leading arguments that match one pattern at the cursor of the
top stream (blanks, then braces around text with no escape, brace,
``%`` or line break) are taken with one move of the stream, and the
rest are read the general way, one at a time.  An argument missing at
the end of a replacement is read from the text pending below it, so with
``\\wrap`` expanding to ``\\pair{x}``, ``\\wrap{y}`` gives ``\\pair`` the
arguments ``x`` and ``y``.  Up to :data:`MAX_EXPANSION_DEPTH` nested
expansions succeed and one more raises, and so does a replacement that
takes its :class:`ExpansionBudget` past :data:`MAX_EXPANSION_CHARS`
queued characters.  The bbl reader gives all the readings of one file
(the walk, labels, the widest label and definition bodies) one budget.
Errors carry no location; the bbl reader adds the line of the command
it was handling.
"""

from __future__ import annotations

import re
from typing import Dict, NamedTuple, Optional

from .errors import MacroError, MacroRecursionError, UnbalancedGroupError
from .scanner import ESCAPE, CharStream, control_at, scan_group_arg, skip_filler

__all__ = [
    "MAX_EXPANSION_DEPTH",
    "MAX_EXPANSION_CHARS",
    "MacroDef",
    "ExpansionBudget",
    "Expansion",
    "define_newcommand",
    "expand_macros",
    "substitute_params",
]

MAX_EXPANSION_DEPTH = 256
#: The most replacement text one budget may queue, in characters, over
#: all the expansions it covers.  A definition can double what the next
#: one queues, so without a cap 30 short lines need gigabytes.  A
#: 2,000-item bbl with 5,600 macro calls queues about 68,000.
MAX_EXPANSION_CHARS = 1 << 22

# Parameter markers and counts take ASCII digits only: "²".isdigit() is
# true too, and int() reads "٣", "１" and "1_0".
_DIGITS = frozenset("0123456789")
_PARAMETER = re.compile("#([0-9])")
_COUNT = re.compile("[+-]?[0-9]+")
# Blanks and a group that _argument would read as scan_group_arg's plain group.
_PLAIN_ARGUMENT = re.compile(r"[ \t\r\n\f\v]*\{([^\\{}%\n]*)\}")


class MacroDef(NamedTuple):
    name: str
    num_params: int
    body: str
    #: ``body`` split at its ``#n`` markers: text, index, text, ..., text,
    #: made once per definition by :func:`define_newcommand`.
    template: tuple


MacroTable = Dict[str, MacroDef]


def define_newcommand(
    defs: MacroTable,
    name: str,
    nparams: str,
    body: str,
    *,
    budget: Optional[ExpansionBudget] = None,
) -> MacroDef:
    """Define ``name``; redefinition silently overwrites.

    ``nparams`` is the text of the ``[...]`` parameter count: ASCII
    digits, with an optional sign and blanks around them.  An absent
    (or empty) count, ``""``, means zero parameters.  The body is
    expanded now against ``defs``, so macros used inside it are frozen
    at their current meaning.
    """
    count = 0
    if nparams:
        digits = nparams.strip()  # int() strips fewer blanks: not "\x1c", say
        if not _COUNT.fullmatch(digits):
            raise MacroError(f"parameter count `{nparams}' is not a number")
        # Read as int() would, but int() refuses a string of thousands of digits.
        magnitude = digits.lstrip("+-").lstrip("0") or "0"
        if digits[0] == "-" and magnitude != "0":
            raise MacroError(f"-{magnitude} is too few parameters")
        if len(magnitude) > 1:
            raise MacroError(f"{magnitude} is too many parameters")
        count = int(magnitude)
    expanded = expand_macros(defs, body, budget=budget)
    definition = MacroDef(name, count, expanded, _template(expanded))
    defs[name] = definition
    return definition


def _template(body: str) -> tuple:
    # Text and marker digits alternate: text, digit, text, ..., text.
    pieces = _PARAMETER.split(body)
    pieces[1::2] = map(int, pieces[1::2])
    return tuple(pieces)


def substitute_params(template: tuple, args: list[str]) -> str:
    """Replace the ``#1`` .. ``#9`` markers of ``template`` with the given arguments.

    ``template`` is a definition's :attr:`MacroDef.template`.  A body
    with no marker comes back as it is.  A result longer than
    :data:`MAX_EXPANSION_CHARS` could never be queued, so it is refused
    before it is built: a short body that repeats one long argument
    would otherwise take gigabytes.
    """
    pieces = [*template]
    count = len(args)
    for i in range(1, len(pieces), 2):
        index = pieces[i]
        if not 0 < index <= count:
            raise MacroError(f"parameter #{index} used but only {count} argument(s) supplied")
        pieces[i] = args[index - 1]
    if sum(map(len, pieces)) > MAX_EXPANSION_CHARS:
        raise MacroError(f"replacement text exceeded {MAX_EXPANSION_CHARS} characters")
    return "".join(pieces)


class ExpansionBudget:
    """Replacement text queued so far by the readings that share it."""

    __slots__ = ("queued",)

    def __init__(self) -> None:
        self.queued = 0


class Expansion:
    """The stream stack of one reading: the text and pending replacements.

    A reader reads the stream that :meth:`top` gives; on reading a macro
    call it collects :meth:`arguments` and hands the substituted body to
    :meth:`push`.  What it queues is charged to ``budget``, a
    fresh one unless the reading shares one.
    """

    __slots__ = ("streams", "budget")

    def __init__(self, text: CharStream, budget: Optional[ExpansionBudget] = None) -> None:
        self.streams = [text]
        self.budget = ExpansionBudget() if budget is None else budget

    def top(self) -> Optional[CharStream]:
        """The stream to read next, or None once everything is read."""
        streams = self.streams
        while streams and streams[-1].at_end():
            streams.pop()
        return streams[-1] if streams else None

    def arguments(self, macro: MacroDef) -> list[str]:
        """Scan the call's arguments, crossing into pending text if need be.

        Leading plain groups on the top stream are matched one pattern
        each and taken in one move; from the first argument that is not
        one on, :meth:`_argument` reads them.
        """
        stream = self.streams[-1]
        content, position = stream.content, stream.position
        args: list[str] = []
        while len(args) < macro.num_params:
            plain = _PLAIN_ARGUMENT.match(content, position)
            if plain is None:
                break
            args.append(plain.group(1))
            position = plain.end()
        stream.take_to(position)
        while len(args) < macro.num_params:
            args.append(self._argument(macro.name))
        return args

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

    def push(self, name: str, replacement: str, line: int) -> None:
        """Read ``replacement`` next; the call of ``name`` sits at ``line``."""
        streams = self.streams
        if len(streams) > MAX_EXPANSION_DEPTH:
            raise MacroRecursionError(name, MAX_EXPANSION_DEPTH)
        budget = self.budget
        budget.queued += len(replacement)
        if budget.queued > MAX_EXPANSION_CHARS:
            raise MacroError(f"expansion of \\{name} exceeded {MAX_EXPANSION_CHARS} characters")
        if replacement:
            streams.append(CharStream(replacement, line, streams[0].source, False))


def expand_macros(
    defs: MacroTable,
    text: str,
    *,
    budget: Optional[ExpansionBudget] = None,
) -> str:
    """Expand every defined macro in ``text`` until none remain.

    Unknown control sequences pass through untouched.  Each expansion
    result is read again, so macros may produce further macro calls; the
    nesting depth is capped (:data:`MAX_EXPANSION_DEPTH`) to turn runaway
    recursion into an error naming the offending macro, and so is the
    text the expansions queue (:data:`MAX_EXPANSION_CHARS`), counted in
    ``budget`` when given and from zero otherwise.
    """
    expansion = Expansion(CharStream(text, comments=False), budget)
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
            expansion.push(name, substitute_params(macro.template, args), stream.line)
    return "".join(out)
