"""Every committed ``BENCH_<n>.json`` is a readable point of the trajectory.

``tools/bench_record.py`` writes these files; this test only reads
them, so it never runs the benchmark.  Each file must name the commit
it measured and its seed, and hold, for every workload in
``BENCHMARK.json``, one run per trace mode that was correct, failed no
operation and reported metrics, with every end-to-end metric in the
untraced run.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS, "no BENCH_*.json at the checkout root"


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_its_commit_seed_and_metrics(path):
    assert re.fullmatch(r"BENCH_\d+\.json", path.name)
    record = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
    assert isinstance(record["seed"], int) and record["seed"] >= 1000
    assert isinstance(record["python"], str) and record["python_startup_s"] > 0

    runs = {(run["workload"], run["trace"]): run for run in record["runs"]}
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert sorted(runs) == sorted((workload, trace) for workload in workloads for trace in (0, 1))
    for run in record["runs"]:
        assert run["result"]["correct"] is True, (run["workload"], run["trace"])
        assert run["result"]["failed"] == 0, (run["workload"], run["trace"])
        assert run["result"]["metrics"], (run["workload"], run["trace"])
    for workload in workloads:
        run = runs[workload, 0]
        metrics = run["result"]["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            assert metrics[metric["name"]]["unit"] == metric["unit"], (workload, metric["name"])
            assert isinstance(metrics[metric["name"]]["value"], (int, float))
        assert set(run["unscaled_medians_s"]) == {"resolve_s", "setup_s"}
        assert run["readable"][0].startswith(f"workload {workload}, seed {record['seed']}")
