"""Benchmark of the realhurwitz command line, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is one fixed CLI invocation (see WORKLOADS). The benchmark
starts it as a cold child process, ``python3 -m realhurwitz ...`` with
``src/`` on the path, in a closed loop: one client, one child at a time, the
next started only after the previous one exited. Inputs have no random part;
the seed only shuffles the interleaving of set-up probes and repetitions,
and it is recorded with the results.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median time of one invocation, from spawn to exit.
* ``peak_rss_mb``: median peak resident memory of the child (``os.wait4``).
* ``pass_rate``: share of invocations whose exit code and stdout sha256
  equal the reference pinned in ``reference.json``; 1 - fail rate.
* ``setup_s``: median time for a cold interpreter to import
  ``realhurwitz.cli`` and call ``build_parser()``.

Times are calibrated: a fixed pure-Python child (CAL_CODE) runs before the
first step and after every step, and each step's wall time is multiplied by
CAL_REF_S over the mean of the two calibration times around it. On a shared
host whose speed drifts, this keeps the run-to-run spread of the medians
within the bounds; the unscaled times are in the meta line.

``--trace 1`` runs the workload under ``tracer.py`` in fresh processes (the
package's caches would make a repeat in one process free) and reports the
per-module metrics, plus ``trace.overhead_s``: traced minus untraced wall
time. Size counters must agree exactly between traced repetitions; a
difference is a benchmark error (exit code 3), not noise.

Metric names and units are those declared in ``BENCHMARK.json``; a metric
measured but not declared there, or declared but not measured, is a
benchmark error. Before the result, one line ``{"meta": ...}`` records the versions, CPU
count, commit, seed, run order, sample counts and units. The last line of
stdout is the result: ``{"correct", "attempted", "failed", "metrics"}``.
Spans of traced runs are written under ``.bench_build/perfbench/``.

``--tiny`` runs the same loop on small inputs with their own pinned
references; the self-tests in this directory use it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = {
    "table_connected": "table --max-degree 3 --max-m 8 --connected --format csv",
    "table_disconnected": "table --max-degree 6 --max-m 10 --format csv",
    "verify_oracle": "verify --suite oracle --max-size 5",
    "spectrum": "spectrum --nplus 4 --nminus 2 --format json",
    "nonsep_connected": "nonsep --max-n 5 --max-m 8 --connected --format csv",
}

# same commands on small inputs, for the self-tests
TINY_WORKLOADS = {
    "table_connected": "table --max-degree 2 --max-m 3 --connected --format csv",
    "table_disconnected": "table --max-degree 2 --max-m 3 --format csv",
    "verify_oracle": "verify --suite oracle --max-size 2",
    "spectrum": "spectrum --nplus 2 --nminus 1 --format json",
    "nonsep_connected": "nonsep --max-n 3 --max-m 3 --connected --format csv",
}

SETUP_PROBES = 5      # set-up samples per run
MIN_SAMPLES = 3       # workload invocations per run, however long they take
MIN_TRACED = 2        # traced invocations per traced run
CHILD_LIMIT_S = 170   # a child running longer than this is killed
SETUP_CODE = "import realhurwitz.cli as c; c.build_parser()"

# Calibration: fixed pure-Python work of the kind the package does (exact
# fractions, dict updates, small sorted tuples), about 0.2 s on a 2-CPU
# Xeon VM. The host's throughput drifts by up to 2x over tens of seconds;
# rescaling each step by this child's time, taken just before and after it,
# removes most of that drift from the reported times.
CAL_CODE = """
from fractions import Fraction
acc = Fraction(0)
d = {}
for i in range(1, 40000):
    acc += Fraction(i % 97, i % 13 + 1)
    d[(i % 5000, i % 7)] = acc
    t = tuple(sorted((i % 11, i % 5, i % 3), reverse=True))
"""
CAL_REF_S = 0.2       # calibration time that defines the reported seconds

class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


class Invocation(NamedTuple):
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes


def invoke(cmd: list[str], env: dict, cwd: str) -> Invocation:
    """Run one child to completion; wall time and peak memory from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd)
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024, proc.returncode, out)


class Bench:
    """One workload in one checkout, with its pinned reference."""

    def __init__(self, root: str, argv: list[str], reference: dict) -> None:
        self.root = root
        self.argv = argv
        self.reference = reference
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.order: list[str] = []

    def _matches(self, exit_code: int, digest: str) -> bool:
        return (exit_code == self.reference["exit_code"]
                and digest == self.reference["sha256"])

    def setup_probe(self) -> float:
        inv = invoke([sys.executable, "-c", SETUP_CODE], self.env, self.root)
        if inv.exit_code != 0:
            raise BenchError(f"importing realhurwitz.cli failed with exit code {inv.exit_code}")
        return inv.wall_s

    def plain(self) -> tuple[Invocation, bool]:
        inv = invoke([sys.executable, "-m", "realhurwitz", *self.argv], self.env, self.root)
        return inv, self._matches(inv.exit_code, hashlib.sha256(inv.stdout).hexdigest())

    def traced(self, rep: int) -> tuple[float, dict, bool]:
        spans = os.path.join(self.root, ".bench_build", "perfbench", f"spans-{rep}.json")
        spec = json.dumps({"argv": self.argv, "spans_path": spans})
        inv = invoke([sys.executable, os.path.join(HERE, "tracer.py"), spec],
                     self.env, self.root)
        if inv.exit_code != 0:
            raise BenchError(f"traced run exited with code {inv.exit_code}")
        report = json.loads(inv.stdout.decode().strip().splitlines()[-1])
        ok = self._matches(report["exit_code"], report["sha256"])
        return inv.wall_s - report["extra_s"], report, ok

    def calibrate(self) -> float:
        inv = invoke([sys.executable, "-c", CAL_CODE], self.env, self.root)
        if inv.exit_code != 0:
            raise BenchError(f"calibration exited with code {inv.exit_code}")
        return inv.wall_s

    def timed(self, seed: int, seconds: float, setup_probes: int = SETUP_PROBES,
              min_samples: int = MIN_SAMPLES) -> dict:
        """Set-up probes and invocations in seeded order, each between two
        calibration children; a step's time is rescaled by CAL_REF_S over
        the mean of the two calibrations around it."""
        steps = ["setup"] * setup_probes + ["work"] * min_samples
        random.Random(seed).shuffle(steps)
        self.setup_probe()  # warm-up: compiles the package's bytecode
        walls, setups, rss, cals = [], [], [], [self.calibrate()]
        raw = {"wall_s": [], "setup_s": []}
        failed = 0
        start = time.perf_counter()
        while steps or (time.perf_counter() - start + statistics.median(raw["wall_s"])
                        + statistics.median(cals) <= seconds):
            step = steps.pop() if steps else "work"
            self.order.append(step)
            if step == "setup":
                t = self.setup_probe()
            else:
                inv, ok = self.plain()
                t = inv.wall_s
                rss.append(inv.peak_rss_mb)
                failed += not ok
            cals.append(self.calibrate())
            scale = CAL_REF_S / ((cals[-2] + cals[-1]) / 2)
            (walls if step == "work" else setups).append(t * scale)
            raw["wall_s" if step == "work" else "setup_s"].append(t)
        attempted = len(walls)
        values = {"wall_s": statistics.median(walls),
                  "peak_rss_mb": statistics.median(rss),
                  "pass_rate": (attempted - failed) / attempted,
                  "setup_s": statistics.median(setups)}
        samples = {"wall_s": attempted, "peak_rss_mb": attempted,
                   "pass_rate": attempted, "setup_s": len(setups)}
        raw.update(peak_rss_mb=rss, calibration_s=cals,
                   median_unscaled_wall_s=statistics.median(raw["wall_s"]))
        return {"attempted": attempted, "failed": failed, "values": values,
                "samples": samples, "raw": raw}

    def traced_run(self, seed: int, seconds: float) -> dict:
        """Traced and untraced invocations in seeded order, then alternating
        while the next one fits in the time budget."""
        steps = ["traced"] * MIN_TRACED + ["plain"]
        random.Random(seed).shuffle(steps)
        self.setup_probe()  # warm-up: compiles the package's bytecode
        plain_walls, traced_walls, reports = [], [], []
        failed = 0
        start = time.perf_counter()
        while True:
            if steps:
                step = steps.pop()
            else:
                step = "plain" if len(plain_walls) < len(traced_walls) else "traced"
                est = statistics.median(plain_walls if step == "plain" else traced_walls)
                if time.perf_counter() - start + est > seconds:
                    break
            self.order.append(step)
            if step == "plain":
                inv, ok = self.plain()
                plain_walls.append(inv.wall_s)
            else:
                wall, report, ok = self.traced(len(reports))
                traced_walls.append(wall)
                reports.append(report)
            failed += not ok
        counts = reports[0]["counts"]
        for rep, report in enumerate(reports[1:], start=1):
            diff = {k: (counts[k], report["counts"][k]) for k in counts
                    if report["counts"][k] != counts[k]}
            if diff:
                raise BenchError(f"traced repetition {rep} changed exact counters: {diff}")
        values = {k: statistics.median(r["metrics"][k] for r in reports)
                  for k in reports[0]["metrics"]}
        values.update(counts)
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(plain_walls))
        samples = dict.fromkeys(values, len(reports))
        samples["trace.overhead_s"] = min(len(reports), len(plain_walls))
        raw = {"traced_wall_s": traced_walls, "plain_wall_s": plain_walls,
               "spans": [r["spans"] for r in reports]}
        attempted = len(plain_walls) + len(reports)
        return {"attempted": attempted, "failed": failed, "values": values,
                "samples": samples, "raw": raw}


def load_reference(tiny: bool) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["tiny" if tiny else "full"]


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest(root: str) -> str:
    """sha256 over the package sources, identifying the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "realhurwitz")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run(args, root: str) -> dict:
    table = TINY_WORKLOADS if args.tiny else WORKLOADS
    argv = table[args.workload].split()
    reference = load_reference(args.tiny)[args.workload]
    if reference["argv"] != argv:
        raise BenchError(f"reference for {args.workload} was pinned for {reference['argv']}")
    bench = Bench(root, argv, reference)
    if args.trace:
        result = bench.traced_run(args.seed, args.seconds)
    else:
        result = bench.timed(args.seed, args.seconds)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["values"]):
        raise BenchError(f"metrics {sorted(set(units) ^ set(result['values']))} "
                         "are measured or declared in BENCHMARK.json, not both")
    metrics = {k: {"value": result["values"][k], "unit": u} for k, u in units.items()}
    meta = {"workload": args.workload, "argv": argv, "tiny": args.tiny,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "loop": "closed, 1 client, 1 child process at a time",
            "order": bench.order, "samples": result["samples"],
            "units": units,
            "raw": result["raw"], "python": sys.version.split()[0],
            "numpy": _version("numpy"), "nproc": os.cpu_count(),
            "git_commit": _git_commit(root), "src_sha256": _src_digest(root)}
    print(json.dumps({"meta": meta}))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs with their own references (self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "realhurwitz", "cli.py")):
        print(f"benchmark error: no realhurwitz sources under {root}/src", file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
