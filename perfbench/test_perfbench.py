"""Self-test of the benchmark at the tiny size.

Run from the root of the checkout:

    python3 -m pytest -q perfbench

It checks that every metric named in BENCHMARK.json is printed with its
unit, that the exact counts of the traced run repeat at a fixed seed, that a
held-out seed runs clean, and that the benchmark refuses to run without the
package source next to it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED, HELD_OUT_SEED = 3, 1017

sys.path.insert(0, str(HERE))
from tracing import exact_count_metrics  # noqa: E402


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out, lines[:-1]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, section):
    out, lines = result(run(workload, SEED, trace))
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(out["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert out["metrics"][name]["unit"] == unit
        assert isinstance(out["metrics"][name]["value"], float)
        pattern = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$"
        assert any(re.match(pattern, line) for line in lines), name
    assert out["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first, _ = result(run(workload, SEED, 1))
    second, _ = result(run(workload, SEED, 1))
    for name in exact_count_metrics():
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_clean(workload):
    out, lines = result(run(workload, HELD_OUT_SEED, 0))
    assert out["correct"]
    # every failed check is one of the workloads' KNOWN_FAILING checks
    known = sum(line.startswith("[FAIL]") and "known failing" in line for line in lines)
    failed = sum(line.startswith("[FAIL]") for line in lines)
    assert failed == known


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
