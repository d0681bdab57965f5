"""Checks that the benchmark itself can be trusted.

    python3 perfbench/selfcheck.py

1. The generator is deterministic: the same workload, seed and scale
   give the same bytes, and another seed gives other bytes.
2. The generator's expectation agrees with real resolves at small size
   on several seeds, through every entry the benchmark uses (in-process
   ``run_to_fixpoint``, in-process ``cli.main``, a CLI process, and a
   CLI process with ``--report json``), and a wrong expectation is
   caught.
3. Every metric ``BENCHMARK.json`` names is printed, with its unit, in
   both modes on every workload, and the printed workloads and metrics
   are exactly the ones the benchmark code defines.
4. Without the program's sources the benchmark fails without a result.

Exits 0 when everything holds and prints one line per failed check
otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import corpus
import run

SEEDS = range(5)
SMALL = 0.2  # the smallest scale at which paper-cli and big-bib keep an undefined cite


def check_determinism() -> list[str]:
    failures = []
    for workload in corpus.SHAPES:
        first = corpus.generate(workload, 7, SMALL)
        if corpus.generate(workload, 7, SMALL) != first:
            failures.append(f"{workload}: seed 7 gave two different corpora")
        if corpus.generate(workload, 8, SMALL).document == first.document:
            failures.append(f"{workload}: seeds 7 and 8 gave the same document")
    return failures


def check_oracle(work: Path) -> list[str]:
    failures = []
    for workload in corpus.SHAPES:
        for seed in SEEDS:
            job = run.Job(workload, seed, work / f"{workload}-{seed}", SMALL)
            for entry in (job.run_to_fixpoint, job.cli_main, job.cli_process, job.cli_report):
                job.prepare()
                problems, _ = entry()()
                if problems:
                    failures.append(f"{workload} seed {seed} {entry.__name__}: {problems}")
            # The same comparison must notice a single wrong label.
            wrong = job.corpus.rendered.replace("[", "[0", 1)
            job.corpus = dataclasses.replace(job.corpus, rendered=wrong)
            job.prepare()
            if not job.run_to_fixpoint()()[0]:
                failures.append(f"{workload} seed {seed}: a wrong expectation went unnoticed")
    return failures


def check_printed_metrics() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from corpus.SHAPES")
    for trace, key, units in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        if named != units:
            failures.append(f"BENCHMARK.json {key} differs from run.py")
        for workload in run.WORKLOADS:
            lines = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"]:
                failures.append(f"{workload} trace {trace}: wrong output")
            for name, unit in named.items():
                printed = result["metrics"].get(name)
                if printed is None or printed["unit"] != unit:
                    failures.append(f"{workload} trace {trace}: {name} missing or not in {unit}")
                if not any(line.split()[:3:2] == [name, unit] for line in lines[:-1]):
                    failures.append(f"{workload} trace {trace}: no readable line for {name}")
            if set(result["metrics"]) != set(named):
                failures.append(f"{workload} trace {trace}: unexpected metrics")
    return failures


def check_fails_without_program(work: Path) -> list[str]:
    bare = work / "bare"
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/ the benchmark still exited 0 or printed a result"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        failures = (
            check_determinism()
            + check_oracle(work)
            + check_fails_without_program(work)
            + check_printed_metrics()
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
