"""Benchmark of record for the CAVENET reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 4 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``
(``setup_s``, ``wall_s``, ``cpu_s``, ``peak_rss_mb``); ``--trace 1`` runs
the workload once plain and once with layer spans on, and prints every
per-layer metric.  The last stdout line is the result::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

and the line before it holds the stamp (machine, versions, resolved
backends, commit, seed) and each repetition's raw and corrected times.

This launcher imports only the standard library.  It samples set-up
time in fresh processes (the median of several, each corrected for the
host's speed by the worker's probes), then hands the
workload to ``worker.py`` in a process of its own, so CPU and peak
memory belong to that process and its pool workers alone.  Outside a
checkout of the repository it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import valid_name  # noqa: E402

#: Set-up samples per run in fresh processes; with the workload's own
#: process the median of SETUP_SAMPLES + 1 is reported.
SETUP_SAMPLES = 7
#: Every process this run starts must be gone by then (seconds).
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run here (no result is printed)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} is missing")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            if not valid_name(entry["name"]):
                raise BenchError(f"illegal {group} name {entry['name']!r}")
    return spec


def child_env() -> dict:
    """Workers import the checkout's ``src`` and keep the compiled-kernel
    cache inside the checkout."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env["REPRO_KERNELS_CACHE"] = os.path.join(ROOT, ".perfbench_cache", "kernels")
    env.pop("REPRO_KERNELS", None)  # measure the default ``auto`` choice
    return env


def run_worker(args, env, deadline: float):
    """Run ``worker.py`` to completion; returns (report, spawn time).

    The worker leads its own process group, so a timeout also takes
    down any pool workers it forked.
    """
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {args} overran the {DEADLINE_S:.0f} s limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1]), spawn


def setup_seconds(report, spawn: float) -> float:
    """One set-up sample, corrected to the reference host speed by the
    probes the worker took while it set up."""
    return (report["ready"] - spawn) * report["setup_scale"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="CAVENET benchmark of record (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
            raise BenchError(f"{ROOT} is not a checkout of the repository")
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        env = child_env()
        worker_args = [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        # The first set-up in a checkout compiles the C kernels and the
        # bytecode; it is not sampled, so set-up is always timed warm.
        run_worker(["--setup-only", *worker_args], env, deadline)
        setups = []
        for _ in range(SETUP_SAMPLES):
            report, spawn = run_worker(
                ["--setup-only", *worker_args], env, deadline
            )
            setups.append(setup_seconds(report, spawn))
        report, spawn = run_worker(worker_args, env, deadline)
        setups.append(setup_seconds(report, spawn))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({
        "stamp": report["stamp"],
        "setup_samples_s": setups,
        "units": report["units"],
        "counts_by_trial": report["detail"],
        "seconds": args.seconds,
    }))
    group = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(combine(report, setups, spec[group])))
    return 0


def combine(report, setups, entries) -> dict:
    """The result line: the worker's metrics plus the median set-up, in
    ``BENCHMARK.json`` order.  A metric missing from the worker's report
    (a crashed unit) fails the run."""
    values = dict(report["metrics"], setup_s=statistics.median(setups))
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in entries
        if entry["name"] in values
    }
    failed = report["failed"]
    if len(metrics) != len(entries):
        failed = max(failed, 1)
    return {
        "correct": failed == 0,
        "attempted": max(report["attempted"], 1),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
