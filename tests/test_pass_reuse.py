"""A pass that reads back the aux bytes it writes is not run again.

``run_to_fixpoint`` stops recomputing once a pass writes exactly the
aux bytes it read, and counts the pass that would have confirmed it.
``reference_run_to_fixpoint`` below is the loop it replaced, copied
verbatim, which runs every pass.  Both must give the same outcome over
warm, cold, stale and no-aux starts and every pass limit: aux history,
passes used, convergence, rendering, warnings, messages, lint, the
report, and every file write.
"""

import re
from typing import Optional

import pytest
from test_bbl_once_per_run import DOCUMENTS, PLAIN_BBL, RICH_BBL

from citeforge import driver
from citeforge.driver import FixpointResult, JobConfig, PassResult, _ProcessedBbl, build_report
from citeforge.files import MemoryFiles
from citeforge.rendering import render_annotated

# --- reference: the loop before pass reuse, verbatim ---------------------


def reference_run_to_fixpoint(config, document, fs) -> FixpointResult:
    previous: Optional[PassResult] = None
    history: list[bytes] = []
    processed_bbls: dict[str, _ProcessedBbl] = {}
    for pass_number in range(1, config.max_passes + 1):
        result = driver.run_pass(config, document, fs, processed_bbls)
        history.append(result.aux_bytes)
        if previous is not None and result.aux_bytes == previous.aux_bytes:
            return FixpointResult(result, pass_number, True, history)
        previous = result
    assert previous is not None
    return FixpointResult(previous, config.max_passes, False, history)


# -------------------------------------------------------------------------

AUX_STATES = ["warm", "cold", "stale", "no-aux"]
FIRST_CITEDEF_LABEL = re.compile(rb"(\\@citedef\{[^}]*\}\{)([^}]*)")


def reads_aux(document):
    return any(command in document for command in ("\\cite", "\\nocite", "\\bibliography"))


def start_files(bbl, document, aux_state):
    """The files a run starts from: the bbl, plus an aux file unless cold.

    None for a stale start when the aux file has no label to change.
    """
    files = {"refs.bbl": bbl.encode()}
    if aux_state == "cold":
        return files
    config = JobConfig(jobname="doc", bbl_basename="refs")
    warm = reference_run_to_fixpoint(config, document, MemoryFiles(dict(files)))
    aux = warm.final.aux_bytes
    if aux_state == "stale":
        aux, changed = FIRST_CITEDEF_LABEL.subn(rb"\1stale", aux, count=1)
        if not changed:
            return None
    files["doc.aux"] = aux
    return files


def outcome_of(run, config, document, files):
    fs = MemoryFiles(dict(files))
    outcome = run(config, document, fs)
    final = outcome.final
    return {
        "history": outcome.aux_history,
        "passes_used": outcome.passes_used,
        "converged": outcome.converged,
        "aux": final.aux_bytes,
        "annotated": render_annotated(final.rendered),
        "warnings": final.warning_texts(),
        "messages": final.messages,
        "lint": final.lint,
        "report": build_report(config, outcome),
        "writes": fs.writes,
        "files": fs.files,
    }


def counted_run(monkeypatch):
    """``driver.run_to_fixpoint`` with a counter of its ``run_pass`` calls."""
    calls = []
    run_pass = driver.run_pass

    def counting_pass(*args):
        calls.append(args)
        return run_pass(*args)

    def run(config, document, fs):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(driver, "run_pass", counting_pass)
            return driver.run_to_fixpoint(config, document, fs)

    return run, calls


@pytest.mark.parametrize("max_passes", [1, 2, 3, 4])
@pytest.mark.parametrize("aux_state", AUX_STATES)
@pytest.mark.parametrize("bbl", [PLAIN_BBL, RICH_BBL], ids=["plain-bbl", "rich-bbl"])
def test_outcome_equals_the_reference_loop(bbl, aux_state, max_passes, monkeypatch):
    config = JobConfig(
        jobname="doc", bbl_basename="refs", max_passes=max_passes, no_aux=aux_state == "no-aux"
    )
    run, calls = counted_run(monkeypatch)
    for document in DOCUMENTS:
        files = start_files(bbl, document, aux_state)
        if files is None:
            continue
        expected = outcome_of(reference_run_to_fixpoint, config, document, files)
        assert outcome_of(run, config, document, files) == expected
        if max_passes == 4:
            recomputed = 1 if aux_state == "warm" and reads_aux(document) else 2
            assert len(calls) == recomputed
            assert expected["passes_used"] == 2


def test_stale_aux_really_differs():
    document = DOCUMENTS[-1]
    warm = start_files(PLAIN_BBL, document, "warm")["doc.aux"]
    stale = start_files(PLAIN_BBL, document, "stale")["doc.aux"]
    assert b"\\@citedef{alpha}{stale}" in stale
    assert stale != warm


def test_pass_result_records_the_aux_it_read():
    config = JobConfig(jobname="doc", bbl_basename="refs")
    fs = MemoryFiles({"refs.bbl": PLAIN_BBL.encode(), "doc.aux": b"\\citation{x}\n"})
    assert driver.run_pass(config, "\\cite{alpha}", fs).aux_read == b"\\citation{x}\n"
    # missing file, no citation-shaped command, no-aux mode
    assert driver.run_pass(config, "\\cite{alpha}", MemoryFiles()).aux_read is None
    assert driver.run_pass(config, "No citations.", fs).aux_read is None
    no_aux = JobConfig(jobname="doc", bbl_basename="refs", no_aux=True)
    assert driver.run_pass(no_aux, "\\cite{alpha}", fs).aux_read is None
