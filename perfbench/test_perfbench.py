"""Self-tests of the benchmark, on small inputs.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def _run_cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind: str) -> dict:
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", sorted(run.TINY_WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_dry_run(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert meta["seed"] == 7 and meta["order"]
    assert set(meta["samples"]) == set(declared)


def test_tiny_traced_counts_and_layer():
    ref = run.load_reference(tiny=True)["nonsep_connected"]
    bench = run.Bench(ROOT, ref["argv"], ref)
    first = bench.traced(0)[1]
    second = bench.traced(1)[1]
    assert first["counts"] == second["counts"]
    assert first["counts"]["nonsep.types"] > 0 and first["counts"]["poly.calls"] > 0
    assert first["metrics"]["nonsep.s"] > 0


def test_tampered_digest_counts_as_failure():
    ref = dict(run.load_reference(tiny=True)["table_connected"])
    ref["sha256"] = "0" * 64
    bench = run.Bench(ROOT, ref["argv"], ref)
    result = bench.timed(seed=1, seconds=0.1, setup_probes=1, min_samples=2)
    fail_rate = result["failed"] / result["attempted"]
    assert fail_rate > 0
    assert result["values"]["pass_rate"] == 1 - fail_rate


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "spectrum", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
