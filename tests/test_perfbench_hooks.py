"""The benchmark's per-layer tracer still finds every call it wraps.

``perfbench/spans.py`` times each layer by swapping module attributes
for timing wrappers.  A refactor that renames or drops one of those
attributes would make ``perfbench/run.py --trace 1`` fail, so each one
is checked here.  The tracer also keeps some call arguments by
position (the aux bytes are ``read_aux``'s second), so a resolve under
it must report the bytes read and written and the passes run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_entry_point_resolves():
    spans = load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute} ({span})"
        for owner, attribute, span, _ in spans._entry_points()
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []


def test_tracer_records_what_a_resolve_read_wrote_and_ran(tmp_path, capsys, monkeypatch):
    """The values the tracer keeps come from the argument positions it expects."""
    from citeforge import cli, driver

    spans = load_spans()
    (tmp_path / "paper.tex").write_text("See \\cite{k,old}.\n\\bibliography{refs}\n")
    (tmp_path / "paper.bbl").write_text(
        "\\begin{thebibliography}{9}\n\\bibitem{k} A. Author. A title.\n\\end{thebibliography}\n"
    )
    stale = b"\\citation{old}\n\\@citedef{old}{7}\n\\@citedef{k}{9}\n"
    (tmp_path / "paper.aux").write_bytes(stale)

    passes = []
    run_pass = driver.run_pass

    def counting(*args):
        passes.append(args)
        return run_pass(*args)

    monkeypatch.setattr(driver, "run_pass", counting)  # the tracer wraps this
    tracer = spans.Tracer()
    with tracer:
        assert cli.main(["resolve", str(tmp_path / "paper.tex")]) == 1
    capsys.readouterr()
    summary = tracer.summary()

    # The stale aux makes a second pass, which writes what it read.
    final = (tmp_path / "paper.aux").read_bytes()
    assert final != stale and len(passes) == 2
    assert summary["driver.passes"] == len(passes)
    assert summary["auxfile.read_bytes"] == len(stale) + len(final)
    assert summary["auxfile.bytes_written"] == 2 * len(final)
