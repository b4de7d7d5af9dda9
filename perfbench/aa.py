"""A/A spread of the benchmark: the same code, several seeds.

Runs ``run.py`` once per seed on each workload (sequentially, with
``run_seconds`` from ``BENCHMARK.json``) and prints, per end-to-end
metric, the median and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median.  A metric's spread should stay under a third of its bound.

    python3 perfbench/aa.py --workloads table1,ring3000 --seeds 1-10

``--out FILE`` appends every result, with its stamp line (raw
repetition timings and host probes) under ``detail``, to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(values) -> float:
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            *_, stamp, last = done.stdout.strip().splitlines()
            result = json.loads(last)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as out:
                    out.write(json.dumps({
                        "workload": workload, "seed": seed, **result,
                        "detail": json.loads(stamp),
                    }) + "\n")
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, result["correct"], " ".join(
                f"{name}={result['metrics'][name]['value']:.4f}"
                for name in bounds
            ), flush=True)
        for name, series in values.items():
            share = spread(series)
            print(
                f"{workload:14s} {name:12s} median={statistics.median(series):.4f}"
                f" spread={share:.4f} bound={bounds[name]} "
                f"({share / bounds[name]:.2f} of bound)", flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
