"""The citeforge benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload long-doc --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; it imports citeforge from
the checkout's ``src/`` and writes only under ``.perfbench_work/`` at
the checkout root, which it removes again.

With ``--trace 0`` it measures what a user waits for: the median wall
time of one resolve to fixpoint, repeated for ``--seconds``; the
tracemalloc peak of one more, untimed resolve; the passes it took; and
the set-up time (generating and writing the corpus plus one warm-up
resolve, median of five set-ups).  Both times are scaled for the
machine's speed during the run (see ``REFERENCE_S``).  With ``--trace 1`` it resolves
through ``cli.main`` in-process with timing wrappers installed around
each layer (see ``spans.py``), alternating with unwrapped resolves to
measure the wrappers' cost, and with traced resolves at half size
for the scaling ratios.

Every resolve is checked against the generator's own expectation
(``corpus.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat the metrics for people, with sample counts and the workload's
input properties.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import corpus
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = tuple(corpus.SHAPES)
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_SAMPLES = 5  # timed resolves per run, even past --seconds
IMPORT_REPS = 5  # child processes timing `import citeforge.cli`

END_TO_END = {
    "resolve_s": "s",
    "peak_alloc_mib": "MiB",
    "passes_used": "count",
    "setup_s": "s",
}
PER_LAYER = {
    "scanner.self_s": "s",
    "scanner.calls": "count",
    "scanner.chars_per_s": "chars/s",
    "rendering.self_s": "s",
    "rendering.appends": "count",
    "rendering.spans_out": "count",
    "citations.self_s": "s",
    "citations.cites": "count",
    "bbl.self_s": "s",
    "bbl.items": "count",
    "bbl.chars_per_s": "chars/s",
    "macros.self_s": "s",
    "macros.calls": "count",
    "auxfile.read_s": "s",
    "auxfile.records_read": "count",
    "auxfile.read_bytes": "B",
    "auxfile.serialize_s": "s",
    "auxfile.bytes_written": "B",
    "files.read_s": "s",
    "files.write_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "driver.self_s": "s",
    "driver.passes": "count",
    **{f"{layer}.scale2x": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "frac",
    "trace.residual_s": "s",
}

# The machine the bounds were set on shares its two cores with other
# tenants, and its speed drifts by tens of percent over minutes.  So a
# fixed pure-Python task that does not touch citeforge is timed before
# every resolve, and the run's end-to-end times are multiplied by
# (REFERENCE_S / the run's median reference time) ** SPEED_EXPONENT.
# REFERENCE_S is the task's usual time on that machine, so scaled times
# read as seconds there at its usual speed.  The exponent is below 1
# because resolves slow down less than the reference when the machine
# does: over 25 runs of the three workloads there, log resolve time
# against log reference time had a pooled slope of 0.75 (0.73 to 0.82
# per workload).
REFERENCE_S = 0.0194
SPEED_EXPONENT = 0.75


def _reference_s() -> float:
    start = perf_counter()
    counts: dict[str, int] = {}
    keys = []
    for i in range(30_000):
        key = "k%d" % (i % 997)
        counts[key] = counts.get(key, 0) + i
        keys.append(key)
    "".join(keys)
    return perf_counter() - start


# What the `citeforge` console script runs.
_CLI_SCRIPT = "import sys\nfrom citeforge.cli import main\nsys.exit(main())"
_IMPORT_PROBE = (
    "import time\nstart = time.perf_counter()\nimport citeforge.cli\n"
    "print(time.perf_counter() - start)"
)


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Job:
    """One generated corpus, written into its own directory.

    Each resolve method does the work and returns a check to call after
    the clock has stopped; the check gives the names of the outputs that
    differ from the generator's expectation and the passes used, when
    the entry shows them.
    """

    def __init__(self, workload: str, seed: int, directory: Path, scale: float = 1.0) -> None:
        from citeforge.driver import JobConfig
        from citeforge.files import DirectoryFiles

        self.corpus = corpus.generate(workload, seed, scale)
        self.warm = corpus.SHAPES[workload].warm
        self.directory = directory
        directory.mkdir(parents=True)
        name = corpus.JOBNAME
        self.tex = directory / f"{name}.tex"
        self.aux = directory / f"{name}.aux"
        self.tex.write_text(self.corpus.document, encoding="utf-8")
        (directory / f"{name}.bbl").write_text(self.corpus.bbl, encoding="utf-8")
        self.document = self.tex.read_text(encoding="utf-8")
        self.config = JobConfig(jobname=name)
        self.files = DirectoryFiles(directory)
        # paper-cli is what a user of the CLI waits for; the others are library calls.
        by_cli = workload == "paper-cli"
        self.timed = self.cli_process if by_cli else self.run_to_fixpoint
        self.in_process = self.cli_main if by_cli else self.run_to_fixpoint

    def prepare(self) -> None:
        """Put the aux file in its start state: kept when warm, gone when cold."""
        if not self.warm:
            self.aux.unlink(missing_ok=True)

    def run_to_fixpoint(self):
        from citeforge import driver
        from citeforge.rendering import render_plain

        outcome = driver.run_to_fixpoint(self.config, self.document, self.files)

        def check():
            final = outcome.final
            code = (1 if final.undefined_keys else 0) if outcome.converged else 2
            problems = self._compare(
                code=code, rendered=render_plain(final.rendered), warnings=final.warning_texts(),
                undefined=final.undefined_keys, aux=final.aux_bytes,
            )
            return problems, outcome.passes_used

        return check

    def _spawn(self, *options: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", _CLI_SCRIPT, "resolve", self.tex.name, *options],
            cwd=self.directory, env=_child_env(), capture_output=True,
        )

    def cli_process(self):
        proc = self._spawn()
        return lambda: (self._compare_cli(proc.returncode, proc.stdout.decode(), proc.stderr.decode()), None)

    def cli_main(self):
        from citeforge import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["resolve", str(self.tex)])
        return lambda: (self._compare_cli(code, out.getvalue(), err.getvalue()), None)

    def cli_report(self):
        """A CLI process with ``--report json``, which also tells the passes used."""
        proc = self._spawn("--report", "json")

        def check():
            report = json.loads(proc.stdout)
            problems = self._compare(
                code=proc.returncode, rendered=report["rendered"],
                warnings=[w["text"] for w in report["warnings"]], undefined=report["undefined"],
            )
            labels = {key: entry["label"] for key, entry in report["citations"].items()
                      if entry["status"] == "defined"}
            if any(labels.get(key) != label for key, label in self.corpus.labels.items()):
                problems.append("citation labels")
            return problems, report["passes_used"]

        return check

    def _compare_cli(self, code: int, stdout: str, stderr: str) -> list[str]:
        # Plain CLI output names undefined keys only through the warning lines.
        return self._compare(code=code, rendered=stdout, warnings=stderr.splitlines())

    def _compare(self, *, code, rendered, warnings, undefined=None, aux=None) -> list[str]:
        expected = self.corpus
        checks = {
            "aux file": self.aux.read_bytes() == expected.aux,
            "aux bytes": aux is None or aux == expected.aux,
            "rendered text": rendered == expected.rendered,
            "warning lines": list(warnings) == expected.warnings,
            "undefined keys": undefined is None or list(undefined) == expected.undefined,
            "exit code": code == expected.exit_code,
        }
        return [name for name, ok in checks.items() if not ok]


class Tally:
    """Resolves attempted and failed in one run, and which outputs were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: set[str] = set()
        self.passes: set[int] = set()
        self.reference: list[float] = []

    def resolve(self, job: Job, entry, around=None) -> float:
        """Run ``entry`` once from its start state, inside the context
        manager ``around`` if given, then check it; returns its wall seconds."""
        self.reference.append(_reference_s())
        job.prepare()
        gc.collect()
        with around or contextlib.nullcontext():
            start = perf_counter()
            check = entry()
            elapsed = perf_counter() - start
        problems, passes = check()
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.update(problems)
        if passes is not None:
            self.passes.add(passes)
        return elapsed


@contextlib.contextmanager
def _peak_mib(peaks: list[float]):
    """Append the tracemalloc peak of the block, in MiB, to ``peaks``."""
    tracemalloc.start()
    try:
        yield
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()


def _set_up(workload: str, seed: int, directory: Path, tally: Tally, scale: float = 1.0) -> Job:
    job = Job(workload, seed, directory, scale)
    tally.resolve(job, job.timed)
    return job


def measure_end_to_end(workload: str, seed: int, seconds: float, work: Path):
    tally = Tally()
    setups = []
    for index in range(SETUPS):
        start = perf_counter()
        job = Job(workload, seed, work / f"setup{index}")
        written = perf_counter() - start
        setups.append(written + tally.resolve(job, job.timed))

    times = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(times) < MIN_SAMPLES:
        times.append(tally.resolve(job, job.timed))

    peaks: list[float] = []
    tally.resolve(job, job.in_process, _peak_mib(peaks))
    if job.timed == job.cli_process:
        tally.resolve(job, job.cli_report)
    if len(tally.passes) != 1:
        tally.problems.add(f"passes_used varies: {sorted(tally.passes)}")

    speed = (REFERENCE_S / statistics.median(tally.reference)) ** SPEED_EXPONENT
    resolve_s, setup_s = statistics.median(times), statistics.median(setups)
    metrics = {
        "resolve_s": resolve_s * speed,
        "peak_alloc_mib": peaks[0],
        "passes_used": max(tally.passes),
        "setup_s": setup_s * speed,
    }
    scaled = f"x {speed:.4f} for machine speed ({len(tally.reference)} reference timings)"
    notes = {
        "resolve_s": f"median of {len(times)} resolves, {resolve_s:.4f} s unscaled{_tail(times)}; {scaled}",
        "peak_alloc_mib": "tracemalloc peak of 1 untimed resolve",
        "passes_used": "the same on every resolve that reports it",
        "setup_s": f"median of {SETUPS} set-ups, {setup_s:.4f} s unscaled; {scaled}",
    }
    return job, tally, metrics, notes


def _tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(times) <= 20:
        return ""
    percent = 100 * (len(times) - 10) // len(times)
    value = statistics.quantiles(times, n=100)[percent - 1]
    return f", p{percent} {value:.4f} s"


def _import_s() -> float:
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=_child_env(),
            capture_output=True, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def measure_per_layer(workload: str, seed: int, seconds: float, work: Path):
    tally = Tally()
    tracer = Tracer()
    job = _set_up(workload, seed, work / "full", tally)
    half_job = _set_up(workload, seed, work / "half", tally, scale=0.5)
    # One untraced, one traced and one traced half-size resolve per round,
    # so that drift in machine speed falls on all three alike.
    plain, traced, full, half = [], [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < MIN_SAMPLES:
        plain.append(tally.resolve(job, job.cli_main))
        traced.append(tally.resolve(job, job.cli_main, tracer))
        full.append(tracer.summary())
        tally.resolve(half_job, half_job.cli_main, tracer)
        half.append(tracer.summary())

    def median(summaries, name):
        return statistics.median(summary[name] for summary in summaries)

    metrics = {name: median(full, name) for name in PER_LAYER if name in full[0]}
    metrics["cli.import_s"] = _import_s()
    for layer in LAYERS:
        name = f"{layer}.layer_s"
        metrics[f"{layer}.scale2x"] = median(full, name) / median(half, name)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.residual_s"] = statistics.median(
        wall - summary["traced_sum_s"] for wall, summary in zip(traced, full))
    rounds = len(traced)
    notes = {name: f"median of {rounds} traced resolves" for name in metrics}
    notes["cli.import_s"] = f"median of {IMPORT_REPS} child processes"
    notes.update({f"{layer}.scale2x": f"full / half size, medians of {rounds} traced resolves each"
                  for layer in LAYERS})
    notes["trace.overhead_frac"] = f"median traced / median untraced - 1, {rounds} resolves each"
    return job, tally, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "citeforge" / "__init__.py").is_file():
        print(f"perfbench: no citeforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        job, tally, metrics, notes = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    units = PER_LAYER if args.trace else END_TO_END
    start = "warm" if job.warm else "cold"
    print(f"workload {args.workload}, seed {args.seed}, {start} start")
    print("  " + ", ".join(f"{k}={v}" for k, v in job.corpus.properties.items()))
    for name, value in metrics.items():
        print(f"  {name:24} {value:<14.6g} {units[name]:8} {notes[name]}")
    print(f"  {'wrong_output_frac':24} {tally.failed / tally.attempted:<14.6g} {'frac':8} "
          f"{tally.failed} of {tally.attempted} resolves; wrong: {sorted(tally.problems) or 'none'}")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
