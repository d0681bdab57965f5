"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

    python tools/bench_record.py --number 21 --seed 4711

Runs the unchanged ``perfbench/run.py`` on every workload it knows,
once with ``--trace 0`` and once with ``--trace 1``, all on one seed
and for the ``run_seconds`` that ``BENCHMARK.json`` sets, and writes
``BENCH_<number>.json`` at the checkout root.  The file holds the
commit checked out (and the paths under ``src/``, ``perfbench/``,
``tools/`` or ``BENCHMARK.json`` that differ from it), a digest of the
``.py`` files under ``src/citeforge``, the seed, the run length,
``sys.version``, the machine's ``python -c pass`` time, each run's
JSON line and readable lines, and the unscaled medians the readable
lines give.  The files chart a trajectory; a speed claim still needs
alternating runs of the two commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
STARTUP_REPS = 11
# "median of 40 resolves, 0.0931 s unscaled" and "median of 5 set-ups, 0.2101 s unscaled".
_UNSCALED = re.compile(r"^\s+(\w+)\s.*\bmedian of \d+ [\w-]+, ([0-9.eE+-]+) s unscaled")


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout


def source_digest() -> str:
    """SHA-256 over the path and bytes of every ``.py`` file under ``src/citeforge``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "citeforge").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def startup_s() -> float:
    """Median wall time of ``python -c pass`` on this machine."""
    times = []
    for _ in range(STARTUP_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    unscaled = {}
    for line in lines[:-1]:
        match = _UNSCALED.match(line)
        if match:
            unscaled[match.group(1)] = float(match.group(2))
    return {"workload": workload, "trace": trace, "result": json.loads(lines[-1]),
            "readable": lines[:-1], "unscaled_medians_s": unscaled}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="the n of BENCH_<n>.json")
    parser.add_argument("--seed", type=int, required=True, help="at least 1000")
    args = parser.parse_args(argv)
    if args.seed < 1000:
        parser.error("--seed must be at least 1000")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for trace in (0, 1):
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            print(f"bench_record: {workload} --trace {trace}", file=sys.stderr)
            runs.append(run(workload, args.seed, benchmark["run_seconds"], trace))
    record = {
        "commit": git("rev-parse", "HEAD").strip(),
        "differs_from_commit": git("status", "--porcelain", "--", "src", "perfbench", "tools",
                                   "BENCHMARK.json").splitlines(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "seconds": benchmark["run_seconds"],
        "python": sys.version,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "python_startup_s": startup_s(),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench_record: wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
