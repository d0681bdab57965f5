"""``cite`` against the two-function cite path it replaced.

``cite_one`` and ``cite`` under "reference" below are the former
``citations`` functions, copied verbatim: ``cite`` built a fragment per
key with ``cite_one`` and extended its own with it.  Over any sequence
of cites sharing a table and a session, the real ``cite`` must render
the same spans and leave the same table entries, warnings, lint and
queued aux records.
"""

from __future__ import annotations

from typing import Callable, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import citations
from citeforge.auxfile import AuxSession
from citeforge.citations import (
    _BLANK,
    Defined,
    Fallback,
    LabelTable,
    nocite,
    undefined_citation_warning,
)
from citeforge.rendering import RenderedFragment, Style
from citeforge.scanner import EMPTY_OPTIONAL, OptionalArg, split_comma_list

# --- reference: the former cite path, verbatim ------------------------------


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

DEFINED = {"d1": "1", "d2": "Knu84", "sp ace": "7", "": "0"}
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


def run(cite_function, with_empty_defined: bool, warnings_on: bool, sinks: bool, calls):
    session = AuxSession()
    session.warnings_enabled = warnings_on
    table = LabelTable()
    for key, label in DEFINED.items():
        if key or with_empty_defined:
            table.define(key, label)
    for key in FALLBACK:
        table.set_fallback(key)
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
            warn=(lambda *warning: warnings.append(warning)) if sinks and warn_sink else None,
            lint=lint.append if sinks else None,
        )
        spans.append(fragment.spans)
    return spans, list(table.entries.items()), warnings, lint, session.pending_writes


@given(st.booleans(), st.booleans(), st.booleans(), cites)
@settings(max_examples=400, deadline=None)
def test_cite_matches_the_reference(with_empty_defined, warnings_on, sinks, calls):
    expected = run(cite, with_empty_defined, warnings_on, sinks, calls)
    actual = run(citations.cite, with_empty_defined, warnings_on, sinks, calls)
    assert actual == expected
