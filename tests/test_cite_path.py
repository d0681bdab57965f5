"""``cite`` against the two-function cite path it replaced.

``cite_one`` and ``cite`` under "reference" below are the former
``citations`` functions, copied verbatim: ``cite`` built a fragment per
key with ``cite_one`` and extended its own with it.  So are the label
states, the label table and the session they used, which held the
warnings flag that the pass now keeps itself.  Over any sequence of
cites sharing a table and a session, the real ``cite`` over a label
dict (a label, or None for a fallback) must render the same spans and
leave the same labels, warnings, lint and queued aux records.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import auxfile, citations
from citeforge.auxfile import AuxRecord, _check_record, format_record
from citeforge.citations import _BLANK, nocite, undefined_citation_warning
from citeforge.rendering import RenderedFragment, Style
from citeforge.scanner import EMPTY_OPTIONAL, OptionalArg, split_comma_list

# --- reference: the former cite path, verbatim ------------------------------


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


class AuxSession:
    """Per-pass aux state: the read-once guard and the write queue.

    In ``no_aux`` mode the session starts with the read already marked
    done, warnings disabled, and every write discarded, so no aux file
    is ever touched.
    """

    __slots__ = ("no_aux", "read_done", "warnings_enabled", "pending_writes")

    def __init__(self, no_aux: bool = False) -> None:
        self.no_aux = no_aux
        self.read_done = no_aux
        self.warnings_enabled = not no_aux
        self.pending_writes: list[AuxRecord] = []

    def write(self, record: AuxRecord) -> None:
        """Queue ``record`` for the file rewrite; dropped in no-aux mode."""
        if self.no_aux:
            return
        _check_record(record)  # reject unserializable records at write time
        self.pending_writes.append(record)

    def serialize(self) -> bytes:
        return b"".join(format_record(r).encode("utf-8") for r in self.pending_writes)


def cite_one(
    key: str,
    table: LabelTable,
    warnings_enabled: bool,
    line: int,
) -> tuple[RenderedFragment, Optional[str]]:
    """Render a single key; returns the fragment and at most one warning.

    An undefined key renders as the raw key in typewriter type and is
    moved to the fallback state so later cites of it stay silent; the
    state changes whether or not the warning was allowed to fire.
    """
    state = table.state_for(key)
    fragment = RenderedFragment()
    if isinstance(state, Defined):
        fragment.append(Style.PLAIN, state.label)
        return fragment, None
    if isinstance(state, Fallback):
        fragment.append(Style.TYPEWRITER, key)
        return fragment, None
    table.set_fallback(key)
    fragment.append(Style.TYPEWRITER, key)
    warning = None
    if warnings_enabled:
        warning = undefined_citation_warning(line, key)
    return fragment, warning


WarnSink = Callable[[int, str, str], None]
LintSink = Callable[[str], None]


def cite(
    session: AuxSession,
    table: LabelTable,
    keys: str,
    note: OptionalArg,
    line: int,
    *,
    warn: Optional[WarnSink] = None,
    lint: Optional[LintSink] = None,
) -> RenderedFragment:
    """Render ``[k1, k2, note]`` and queue the citation record.

    ``keys`` is recorded bytewise before any splitting, so whatever was
    written between the braces is what lands in the aux file.  Split
    items are not trimmed either: ``a, b`` cites the key `` b``, space
    and all, which the lint sink points out.
    """
    nocite(session, keys)
    fragment = RenderedFragment()
    fragment.append(Style.PLAIN, "[")
    for index, key in enumerate(split_comma_list(keys)):
        if index:
            fragment.append(Style.PLAIN, ", ")
        if lint is not None and _BLANK.search(key):
            lint(f"{line}: citation key `{key}' contains a space")
        rendered, warning = cite_one(key, table, session.warnings_enabled, line)
        fragment.extend(rendered)
        if warning is not None and warn is not None:
            warn(line, key, warning)
    if note.present_nonempty:
        fragment.append(Style.PLAIN, ", " + note.text)
    fragment.append(Style.PLAIN, "]")
    return fragment


# --- the differential property -----------------------------------------------

DEFINED = {"d1": "1", "d2": "Knu84", "sp ace": "7", "": "0", "e": ""}
FALLBACK = ("f1", "f 2")
# Undefined at the start; blank-containing and empty keys included.
UNDEFINED = ("u1", "u2", " u1", "u\t3", "u　4", "")

key_lists = st.lists(
    st.sampled_from(sorted(DEFINED) + list(FALLBACK) + list(UNDEFINED)), max_size=5
).map(",".join)
notes = st.sampled_from(
    [EMPTY_OPTIONAL, OptionalArg("p. 3"), OptionalArg(" "), OptionalArg("a,b")]
)
cites = st.lists(
    st.tuples(key_lists, notes, st.integers(min_value=1, max_value=99), st.booleans()),
    max_size=8,
)


def run(cite_function, session, table, warn_allowed: bool, sinks: bool, calls):
    warnings: list[tuple[int, str, str]] = []
    lint: list[str] = []
    spans = []
    for keys, note, line, warn_sink in calls:
        fragment = cite_function(
            session,
            table,
            keys,
            note,
            line,
            warn=(
                (lambda *warning: warnings.append(warning))
                if sinks and warn_sink and warn_allowed
                else None
            ),
            lint=lint.append if sinks else None,
        )
        spans.append(fragment.spans)
    return spans, warnings, lint, session.pending_writes


@given(st.booleans(), st.booleans(), st.booleans(), cites)
@settings(max_examples=400, deadline=None)
def test_cite_matches_the_reference(with_empty_defined, warnings_on, sinks, calls):
    defined = {key: label for key, label in DEFINED.items() if key or with_empty_defined}
    session = AuxSession()
    session.warnings_enabled = warnings_on
    table = LabelTable()
    for key, label in defined.items():
        table.define(key, label)
    for key in FALLBACK:
        table.set_fallback(key)
    expected = run(cite, session, table, True, sinks, calls)
    expected_labels = {
        key: state.label if isinstance(state, Defined) else None
        for key, state in table.entries.items()
    }

    # The pass passes no warn sink when warnings are off.
    labels = {**defined, **dict.fromkeys(FALLBACK)}
    actual = run(citations.cite, auxfile.AuxSession(), labels, warnings_on, sinks, calls)
    assert actual == expected
    assert list(labels.items()) == list(expected_labels.items())
