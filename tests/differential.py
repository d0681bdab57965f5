"""The package and the spec (``tests/spec.py``) seen the same way, for the tests.

Each pair of functions runs the same input through the package and
through the spec and returns what they did as plain values, so that a
test compares the two with one ``==``: spans as ``(style value, text)``
pairs, warnings as ``(line, key)``, and an error as its type, text,
line, source and offset.
"""

from fractions import Fraction

import spec
from hypothesis import strategies as st

from citeforge import bbl, driver
from citeforge.driver import report_json
from citeforge.errors import CiteforgeError
from citeforge.files import MemoryFiles


def error_of(exc: CiteforgeError) -> tuple:
    return type(exc), str(exc), exc.line, exc.source, getattr(exc, "offset", None)


def outcome(call, *args, **options):
    """``("ok", value)``, or the error that the call raised."""
    try:
        return "ok", call(*args, **options)
    except CiteforgeError as exc:
        return error_of(exc)


def spans_of(fragment) -> list:
    return [(span.style.value, span.text) for span in fragment.spans]


def package_run(config, document, files):
    """What ``run_to_fixpoint`` shows over ``files``, or its error; and the files after."""
    fs = MemoryFiles(dict(files))
    try:
        run = driver.run_to_fixpoint(config, document, fs)
    except CiteforgeError as exc:
        return {"error": error_of(exc), "writes": fs.writes, "files": fs.files}
    final = run.final
    return {
        "history": run.aux_history,
        "passes_used": run.passes_used,
        "converged": run.converged,
        "spans": spans_of(final.rendered),
        "warnings": [(warning.line, warning.key) for warning in final.warnings],
        "lint": final.lint,
        "messages": final.messages,
        "labels": list(final.labels.items()),
        "report": report_json(config, run),
        "writes": fs.writes,
        "files": fs.files,
    }


def spec_job(config) -> spec.Job:
    return spec.Job(
        config.jobname,
        config.bbl_basename,
        config.no_aux,
        config.max_passes,
        config.em_size_pt,
        config.document_name,
    )


def spec_run(config, document, files):
    """The same as :func:`package_run`, from the spec."""
    job, fs = spec_job(config), spec.Files(files)
    try:
        run = spec.run(job, document, fs)
    except CiteforgeError as exc:
        return {"error": error_of(exc), "writes": fs.writes, "files": fs.files}
    final = run.final
    return {
        "history": run.history,
        "passes_used": run.passes_used,
        "converged": run.converged,
        "spans": final.spans,
        "warnings": final.warnings,
        "lint": final.lint,
        "messages": final.messages,
        "labels": list(final.labels.items()),
        "report": spec.report_json(job, run),
        "writes": fs.writes,
        "files": fs.files,
    }


def package_bbl(content, source=""):
    """``process_bbl``'s items, layout (as the report shows it) and spans, and its lint."""
    lint = []

    def walk():
        bibliography = bbl.process_bbl(content, lint=lint.append, source=source)
        items = [(*item[:3], item.alignment.value, item.line) for item in bibliography.items]
        layout = driver._layout_json(bibliography.layout, Fraction(10))
        return items, layout, spans_of(bibliography.rendered)

    return outcome(walk), lint


def spec_bbl(content, source=""):
    """The same as :func:`package_bbl`, from the spec."""
    lint = []

    def walk():
        items, label_width, spans = spec.process_bbl(content, lint.append, source)
        return items, spec.layout_json(label_width, Fraction(10)), spans

    return outcome(walk), lint


def spec_macros(defs) -> dict:
    """The spec's form of the package's macro table: name to (count, body)."""
    return {name: (macro.num_params, macro.body) for name, macro in defs.items()}


def token_text(tokens, max_size):
    """Texts (or bytes) of up to ``max_size`` of ``tokens``, drawn as one byte string.

    Each byte picks a token, so a text costs hypothesis one draw, and it
    shrinks towards fewer tokens and the first ones.
    """
    empty = tokens[0][:0]
    return st.binary(max_size=max_size).map(
        lambda picks: empty.join([tokens[pick % len(tokens)] for pick in picks])
    )
