"""``cite`` against the spec's cite.

Over any sequence of cites sharing a label map (a label, or None for a
fallback), the real ``cite`` must render the spans that the spec's
``cite`` renders, styles and boundaries included, warn for the same
``(line, key)`` pairs, and leave the same labels in the same order; the
aux lines it queues must be the spec's ``\\citation`` lines.  Each cite
is also scanned from ``\\cite{keys}`` by the package's and the spec's
scanner, which lint keys with blanks, and the notes must be the same.
A cite is given its warning list or not, as a pass gives it one only
when it read an aux file.
"""

from __future__ import annotations

import spec
from hypothesis import given, settings
from hypothesis import strategies as st

from citeforge import citations
from citeforge.auxfile import AuxSession
from citeforge.rendering import RenderedFragment
from citeforge.scanner import CharStream
from scanning import next_item


def package_cites(labels, calls):
    session = AuxSession()
    spans, warnings, lint = [], [], []
    for keys, note, line, warn in calls:
        assert next_item(CharStream(f"\\cite{{{keys}}}", line), lint=lint.append).arg == keys
        found = [] if warn else None
        fragment = RenderedFragment()
        citations.cite(session, labels, keys, note, line, fragment, warnings=found)
        spans.append([(span.style.value, span.text) for span in fragment.spans])
        warnings += [(warning.line, warning.key) for warning in found or ()]
    return spans, warnings, lint, session.pending_writes, list(labels.items())


def spec_cites(labels, calls):
    spans, warnings, lint, lines = [], [], [], []
    for keys, note, line, warn in calls:
        spec.next_command(f"\\cite{{{keys}}}", 0, line=line, lint=lint.append)
        lines.append(spec.format_record("citation", keys))
        cited, found = spec.cite(labels, keys, note, line, warn)
        spans.append(cited)
        warnings += found
    return spans, warnings, lint, lines, list(labels.items())


DEFINED = {"d1": "1", "d2": "Knu84", "sp ace": "7", "": "0", "e": ""}
FALLBACK = ("f1", "f 2")
# Undefined at the start; blank-containing and empty keys included.
UNDEFINED = ("u1", "u2", " u1", "u\t3", "u　4", "")

key_lists = st.lists(
    st.sampled_from(sorted(DEFINED) + list(FALLBACK) + list(UNDEFINED)), max_size=5
).map(",".join)
notes = st.sampled_from(["", "p. 3", " ", "a,b"])
cites = st.lists(
    st.tuples(key_lists, notes, st.integers(min_value=1, max_value=99), st.booleans()),
    max_size=8,
)


@given(st.booleans(), cites)
@settings(max_examples=400, deadline=None)
def test_cite_matches_the_reference(with_empty_defined, calls):
    defined = {key: label for key, label in DEFINED.items() if key or with_empty_defined}
    labels = {**defined, **dict.fromkeys(FALLBACK)}
    assert package_cites(dict(labels), calls) == spec_cites(dict(labels), calls)
