"""A run processes its bbl once, yet every pass equals a pass run alone.

``run_to_fixpoint`` processes the bbl at the first ``\\bibliography``
site and installs the result in every pass; ``run_pass`` on its own
processes it afresh.  Each pass of a run is replayed alone on a copy of
the files as they were when that pass started, and every output must
agree: aux bytes, annotated rendering, warnings, messages, lint in
order, and the report.
"""

import random

import pytest
from test_acceptance import random_document

from citeforge import driver
from citeforge.driver import FixpointResult, JobConfig, build_report
from citeforge.files import MemoryFiles
from citeforge.rendering import render_annotated

PLAIN_BBL = (
    "\\begin{thebibliography}{9}\n"
    "\\bibitem{alpha}\nA.\n"
    "\\bibitem{beta}\nB.\n"
    "\\end{thebibliography}\n"
)

# Macros, [tag] and numbered items, an empty [], an unknown command
# (lint) and text on both sides of the environment (lint).
RICH_BBL = (
    "Text before the environment.\n"
    "\\newcommand{\\au}[2]{#1 and #2}\n"
    "\\newcommand\\tag[1]{T#1}\n"
    "\\begin{thebibliography}{\\tag{99}}\n"
    "\\bibitem[\\tag{a}]{alpha} \\au{Ann}{Bo}. \\newblock {\\em Title} \\unknown{x}.\n"
    "\\bibitem{beta} Numbered. \\newblock \\sc Small caps.\n"
    "\\bibitem[]{gamma} Empty brackets, so numbered.\n"
    "\\bibitem{delta} \\au{C}{D}.\n"
    "\\end{thebibliography}\n"
    "Text after the environment.\n"
)

TWO_BIBLIOGRAPHIES = (
    "See \\cite{alpha} and \\cite[p.~2]{beta,zeta}.\n"
    "\\bibliography{refs}\n"
    "Then \\cite{gamma,delta}.\n"
    "\\bibliographystyle{plain}\n"
    "\\bibliography{refs}\n"
)

DOCUMENTS = [random_document(random.Random(7000 + seed)) for seed in range(20)]
DOCUMENTS.append(TWO_BIBLIOGRAPHIES)


def outputs(config, result):
    report = build_report(config, FixpointResult(result, 1, True, [result.aux_bytes]))
    return {
        "aux": result.aux_bytes,
        "annotated": render_annotated(result.rendered),
        "warnings": result.warning_texts(),
        "messages": result.messages,
        "lint": result.lint,
        "report": report,
    }


def passes_of_run(config, document, files, monkeypatch):
    """Each pass of a run with the files it started from, and the bbl count."""
    passes = []
    bbl_contents = []
    run_pass, process_bbl = driver.run_pass, driver.process_bbl

    def recording_pass(config, document, fs, *args):
        before = dict(fs.files)
        result = run_pass(config, document, fs, *args)
        passes.append((before, result))
        return result

    def counting_bbl(content, *args, **kwargs):
        bbl_contents.append(content)
        return process_bbl(content, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(driver, "run_pass", recording_pass)
        patch.setattr(driver, "process_bbl", counting_bbl)
        driver.run_to_fixpoint(config, document, MemoryFiles(dict(files)))
    return passes, len(bbl_contents)


@pytest.mark.parametrize("no_aux", [False, True], ids=["aux", "no-aux"])
@pytest.mark.parametrize("bbl", [PLAIN_BBL, RICH_BBL], ids=["plain-bbl", "rich-bbl"])
def test_every_pass_equals_a_standalone_pass(bbl, no_aux, monkeypatch):
    config = JobConfig(jobname="doc", bbl_basename="refs", max_passes=4, no_aux=no_aux)
    files = {"refs.bbl": bbl.encode()}
    for document in DOCUMENTS:
        passes, bbl_runs = passes_of_run(config, document, files, monkeypatch)
        assert bbl_runs == (1 if "\\bibliography{" in document else 0)
        for before, result in passes:
            alone = driver.run_pass(config, document, MemoryFiles(before))
            assert outputs(config, result) == outputs(config, alone)


def test_rich_bbl_exercises_lint_and_both_label_shapes():
    config = JobConfig(jobname="doc", bbl_basename="refs")
    files = MemoryFiles({"refs.bbl": RICH_BBL.encode()})
    outcome = driver.run_to_fixpoint(config, TWO_BIBLIOGRAPHIES, files)
    final = outcome.final
    assert outcome.passes_used == 2
    assert [item.label for item in final.bibliography.items] == ["Ta", "1", "2", "3"]
    bbl_lint = [
        "refs.bbl:1: text outside thebibliography ignored",
        "refs.bbl:5: unknown command `\\unknown' passed through",
        "refs.bbl:7: empty optional argument '[]' treated as absent",
        "refs.bbl:9: text outside thebibliography ignored",
    ]
    assert final.lint == bbl_lint * 2
