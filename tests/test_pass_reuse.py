"""A pass that reads back the aux bytes it writes is not run again.

``run_to_fixpoint`` stops recomputing once a pass writes exactly the
aux bytes it read, and counts the pass that would have confirmed it.
``tests/spec.py`` runs every pass.  Both must give the same outcome over
warm, cold, stale and no-aux starts and every pass limit: aux history,
passes used, convergence, rendering, warnings, messages, lint, labels,
the report, and every file write.
"""

import functools
import re

import pytest
from differential import package_run, spec_run
from test_bbl_once_per_run import DOCUMENTS, PLAIN_BBL, RICH_BBL

from citeforge import driver
from citeforge.driver import JobConfig
from citeforge.files import MemoryFiles

AUX_STATES = ["warm", "cold", "stale", "no-aux"]
FIRST_CITEDEF_LABEL = re.compile(rb"(\\@citedef\{[^}]*\}\{)([^}]*)")


def reads_aux(document):
    return any(command in document for command in ("\\cite", "\\nocite", "\\bibliography"))


@functools.lru_cache(maxsize=None)
def converged_aux(bbl, document):
    """The aux bytes a run over ``bbl`` alone converges to."""
    config = JobConfig(jobname="doc", bbl_basename="refs")
    return spec_run(config, document, {"refs.bbl": bbl.encode()})["history"][-1]


def start_files(bbl, document, aux_state):
    """The files a run starts from: the bbl, plus an aux file unless cold.

    None for a stale start when the aux file has no label to change.
    """
    files = {"refs.bbl": bbl.encode()}
    if aux_state == "cold":
        return files
    aux = converged_aux(bbl, document)
    if aux_state == "stale":
        aux, changed = FIRST_CITEDEF_LABEL.subn(rb"\1stale", aux, count=1)
        if not changed:
            return None
    files["doc.aux"] = aux
    return files


def counted_passes(monkeypatch):
    """The ``run_pass`` calls made by ``driver.run_to_fixpoint`` from now on."""
    calls = []
    run_pass = driver.run_pass

    def counting_pass(*args):
        calls.append(args)
        return run_pass(*args)

    monkeypatch.setattr(driver, "run_pass", counting_pass)
    return calls


@pytest.mark.parametrize("max_passes", [1, 2, 3, 4])
@pytest.mark.parametrize("aux_state", AUX_STATES)
@pytest.mark.parametrize("bbl", [PLAIN_BBL, RICH_BBL], ids=["plain-bbl", "rich-bbl"])
def test_outcome_equals_the_reference_loop(bbl, aux_state, max_passes, monkeypatch):
    config = JobConfig(
        jobname="doc", bbl_basename="refs", max_passes=max_passes, no_aux=aux_state == "no-aux"
    )
    calls = counted_passes(monkeypatch)
    for document in DOCUMENTS:
        files = start_files(bbl, document, aux_state)
        if files is None:
            continue
        expected = spec_run(config, document, files)
        calls.clear()
        assert package_run(config, document, files) == expected
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
