"""The chaos-battery workload: simtest cases, each deployed, driven and graded.

Each case goes through ``repro.simtest.runner.run_case(minimize=False)``:
a fresh deployment driven by simtest's closed-loop min-clock driver under
the policy's fault menu, then checked.  Every verdict must be ``ok``;
``unknown`` (checker budget spent) counts as a failure like a violation.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.simtest import runner
from repro.simtest.workload import SHIPPED_POLICIES

import stats
from hostclock import NominalClock
from invocation import CheckFailed
from spec import (BATTERY_EXTRA, BATTERY_OPS, BATTERY_SEEDS,
                  BATTERY_WIDE_FIXED, BATTERY_WIDE_POLICIES,
                  BATTERY_WIDE_SEEDS, CLIENTS)

#: Cases per lap of the host-speed corrected clock.
CHUNK = 10


def case_pool(seed: int) -> list:
    """Every shipped policy over the fixed seed pool, the run's extra
    cases, in a seeded order."""
    rng = random.Random(f"perfbench:chaos-battery:{seed}")
    extra = range(BATTERY_WIDE_FIXED, BATTERY_WIDE_SEEDS)
    cases = []
    for policy in SHIPPED_POLICIES:
        if policy in BATTERY_WIDE_POLICIES:
            case_seeds = (list(range(BATTERY_WIDE_FIXED))
                          + rng.sample(extra, BATTERY_EXTRA))
        else:
            case_seeds = list(range(BATTERY_SEEDS))
        cases += [runner.build_case(case_seed, policy, ops=BATTERY_OPS,
                                    clients=CLIENTS)
                  for case_seed in case_seeds]
    rng.shuffle(cases)
    return cases


class Pass:
    """One run of every case in the pool, with what the cases returned."""

    def __init__(self, cases: list):
        self.cases = len(cases)
        self.reports = []
        self.nominal_s = 0.0
        timer = NominalClock()
        for index, case in enumerate(cases):
            if index and index % CHUNK == 0:
                self.nominal_s += timer.lap()
            self.reports.append(runner.run_case(case, minimize=False))
        self.nominal_s += timer.lap()
        self.wall_s = timer.wall
        self.ops = sum(len(report.history) for report in self.reports)

    def check(self) -> None:
        """Every verdict must be ``ok``."""
        bad = [f"{report.case.policy}/{report.case.service}/seed "
               f"{report.case.seed}: {report.verdict}"
               for report in self.reports if report.verdict != "ok"]
        if bad:
            raise CheckFailed(f"chaos-battery: {len(bad)} cases not ok: "
                              + "; ".join(bad[:5]))

    def virtual(self) -> dict:
        """The pass's deterministic results (the determinism guard)."""
        outcomes = {"ok": 0, "maybe": 0, "fail": 0}
        latencies = []
        for report in self.reports:
            for op in report.history:
                outcomes[op.status] += 1
                if op.status == "ok":
                    latencies.append(op.complete - op.invoke)
        stats.require_tail(len(latencies), 99.0)
        digest = hashlib.sha256()
        for line in sorted(json.dumps([report.case.to_json(), report.verdict,
                                       report.fingerprint], sort_keys=True)
                           for report in self.reports):
            digest.update(line.encode())
        return {
            "fingerprint": digest.hexdigest(),
            "cases": self.cases,
            "attempted": self.ops,
            "failed": outcomes["fail"] + outcomes["maybe"],
            "samples": len(latencies),
            "sim_p50_ms": stats.percentile(latencies, 50.0) * 1e3,
            "sim_p99_ms": stats.percentile(latencies, 99.0) * 1e3,
            "failed_ratio": stats.failed_ratio(
                ok=outcomes["ok"], failed=outcomes["fail"],
                maybe=outcomes["maybe"]),
            "explored": sum(report.check.explored
                            for report in self.reports),
            "unknown": sum(1 for report in self.reports
                           if report.verdict == "unknown"),
        }
