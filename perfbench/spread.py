"""Run one workload under several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload quorum-rw --runs 10

Each run is ``perfbench/run.py`` in its own process, seeds ``--first`` to
``--first + runs - 1``, one after another.  For every metric it prints the
median and the quartile spread (Q3 − Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound")
              for metric in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first, args.first + args.runs):
        command = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: {args.runs} runs, seeds {args.first}.."
          f"{args.first + args.runs - 1}")
    for name, series in sorted(values.items()):
        middle = statistics.median(series)
        spread = stats.quartile_spread(series) if middle else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else (
            f"bound {bound:<5} {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"  {name:30s} median {middle:>12.6g}  spread {spread:7.4f}  "
              f"{flag}")
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
