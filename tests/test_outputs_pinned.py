"""What a user sees stays byte-identical: outputs pinned by their digests.

Each case writes its files into a fresh directory and runs the CLI in
process twice, once plainly and once with ``--report json``, each time
from the same starting files.  A run is seen as its exit code, its
standard output and error, and the sequence of files it wrote with
their bytes.  The digest of the two runs must equal the one recorded in
``outputs_pinned.json``.

The cases are the benchmark's three workloads (``perfbench/corpus.py``)
at scale 0.25 over two seeds and five modes, the quirk documents of the
acceptance suite, and a corrupt aux file, which pins an error and the
order in which errors win.  After a change that is meant to alter
output, rewrite the data file with ``python tools/pin_outputs.py`` and
name each changed case and the reason in the change's notes.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from citeforge import cli
from citeforge.files import DirectoryFiles

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("outputs_pinned.json")
SCALE = 0.25
SEEDS = (4242, 1301)
JOBNAME = "paper"

# Mode name: the CLI options, and whether the converged aux is in place.
MODES = {
    "cold": ((), False),
    "warm": ((), True),
    "no_aux": (("--no-aux-file",), True),
    "max_passes_1": (("--max-passes", "1"), True),
    "em_size_7.25": (("--em-size", "7.25"), True),
}

_BBL = "\\begin{thebibliography}{%s}\n%s\\end{thebibliography}\n"

# Name: document, bbl (or None) and aux (or None).
QUIRKS = {
    "quirk_empty_bracket_label": (
        "See \\cite{k}.\n\\bibliography{refs}\n",
        _BBL % ("9", "\\bibitem[]{k}\nBody.\n"),
        None,
    ),
    "quirk_first_item_locks_alignment": (
        "\\cite{alpha,plain}\n\\bibliography{refs}\n",
        _BBL % ("XY99", "\\bibitem[Tag88]{alpha}\nOne.\n\\bibitem{plain}\nTwo.\n"),
        None,
    ),
    "quirk_blank_after_comma": ("\\cite{a, b}", None, ""),
    "quirk_empty_cite": ("\\cite{}", None, None),
    "quirk_empty_note": ("A \\cite[]{k} and \\cite[ ]{k}.\n", None, ""),
    # The corrupt aux is read at the first cite, so it wins over the
    # unclosed group further down.
    "corrupt_aux": ("See \\cite{a}.\n\\cite{b", None, "\\citation{a}\ngarbage"),
    "unclosed_group": ("See \\cite{a}.\n\\cite{b", None, None),
}


def load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    return corpus


def cases() -> dict[str, tuple[dict[str, str], tuple[str, ...]]]:
    """Every case by name: its starting files and CLI options."""
    corpus = load_corpus()
    found = {}
    for workload in corpus.SHAPES:
        for seed in SEEDS:
            generated = corpus.generate(workload, seed, SCALE)
            for mode, (options, warm) in MODES.items():
                files = {f"{JOBNAME}.tex": generated.document, f"{JOBNAME}.bbl": generated.bbl}
                if warm:
                    files[f"{JOBNAME}.aux"] = generated.aux.decode("utf-8")
                found[f"{workload}-{seed}-{mode}"] = (files, options)
    for name, (document, bbl, aux) in QUIRKS.items():
        files = {f"{JOBNAME}.tex": document}
        if bbl is not None:
            files[f"{JOBNAME}.bbl"] = bbl
        if aux is not None:
            files[f"{JOBNAME}.aux"] = aux
        found[name] = (files, ())
    return found


def run_cli(files: dict[str, str], options: tuple[str, ...]) -> dict:
    """One CLI run over ``files`` in a fresh directory: what it showed and wrote."""
    writes = []
    write_bytes = DirectoryFiles.write_bytes

    def recording(self, name, data):
        writes.append([name, hashlib.sha256(data).hexdigest()])
        return write_bytes(self, name, data)

    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            (Path(directory) / name).write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(DirectoryFiles, "write_bytes", recording), contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            code = cli.main(["resolve", str(Path(directory) / f"{JOBNAME}.tex"), *options])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "writes": writes}


def digest(files: dict[str, str], options: tuple[str, ...]) -> str:
    runs = [run_cli(files, options), run_cli(files, (*options, "--report", "json"))]
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode("utf-8")).hexdigest()


CASES = cases()


def digests() -> dict[str, str]:
    return {name: digest(files, options) for name, (files, options) in CASES.items()}


def pinned() -> dict[str, str]:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert sorted(pinned()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_pinned(name):
    files, options = CASES[name]
    assert digest(files, options) == pinned()[name]
