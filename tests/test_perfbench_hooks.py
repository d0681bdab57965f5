"""The benchmark's per-layer tracer still finds every call it wraps.

``perfbench/spans.py`` times each layer by swapping module attributes
for timing wrappers.  A refactor that renames or drops one of those
attributes would make ``perfbench/run.py --trace 1`` fail, so each one
is checked here.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute} ({span})"
        for owner, attribute, span, _ in spans._entry_points()
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []
