"""Smoke test of the benchmark at its smallest size.

Run from the repository root: ``python3 -m pytest bench/test_smoke.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace: int, section: str) -> None:
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 12
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_workloads_in_spec_exist() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_command_order_changes_no_artifact(tmp_path: Path) -> None:
    work = tmp_path / "work"  # one directory: the report manifest records run paths
    digests = []
    for order_seed in (1, 2):
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "chain.py"), "--workload", "smoke",
             "--scenario-seed", "0", "--order-seed", str(order_seed), "--work", str(work)],
            cwd=ROOT, env={**os.environ, "SOURCE_DATE_EPOCH": "0"}, check=True, timeout=120,
        )
        result = json.loads((work / "result.json").read_text())
        digests.append({
            str(p.relative_to(work / "chain")): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (work / "chain").rglob("*") if p.is_file()
        })
        digests[-1]["order"] = [c["out"] for c in result["commands"]]
    assert digests[0].pop("order") != digests[1].pop("order")
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
