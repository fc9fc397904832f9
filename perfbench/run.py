"""The proxy-stack benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload stub-small --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload again under the per-layer wrappers and reports the
per-layer metrics instead.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric a value with its unit, names and
units as listed in ``BENCHMARK.json``).  Details — environment,
determinism record, layer ledger, a span sample — are written to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

ROOT = Path.cwd()


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name → unit, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def environment() -> dict:
    """Interpreter, processor count and host calibration rate."""
    from repro.bench.timing import calibration_rate
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "calibration_it_per_s": calibration_rate()}


def main(argv=None) -> int:
    args = parse(argv)
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no program sources at {source.parent}; run from "
              f"the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from spec import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    before = environment()
    try:
        if args.trace:
            metrics, record = measure.traced(args.workload, args.seed)
        else:
            metrics, record = measure.untraced(args.workload, args.seed,
                                               args.seconds)
    except AssertionError as exc:
        # A wrong reply, a non-ok verdict, a determinism break or an idle
        # wrapper: the run's outputs cannot be trusted.
        traceback.print_exc()
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    after = environment()["calibration_it_per_s"]
    if set(metrics) != set(units):
        differ = sorted(set(metrics) ^ set(units))
        raise SystemExit(f"perfbench: metrics {differ} differ from "
                         f"BENCHMARK.json")
    virtual = record.get("virtual", {})
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": dict(before, calibration_after_it_per_s=after),
              "metrics": metrics, **record}
    measure.OUT_DIR.mkdir(exist_ok=True)
    out = measure.OUT_DIR / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    out.write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={before['python']} nproc={before['nproc']} calibration="
          f"{before['calibration_it_per_s'] / 1e6:.2f}/{after / 1e6:.2f} "
          f"M it/s (before/after)")
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:>14.6g} {units[name]}")
    for key in ("samples", "failed_ratio", "unavail_ms", "late_max_ms",
                "messages", "fingerprint"):
        if key in virtual:
            print(f"  [virtual] {key:22s} {virtual[key]}")
    if "raw_ops_per_s" in record:
        print(f"  [wall] raw_ops_per_s          {record['raw_ops_per_s']:.6g} "
              f"(uncorrected for host speed)")
    print(f"  details: {out}")
    print(json.dumps({
        "correct": True,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
