"""The workloads' inputs: the battery's case pool and the quorum failover."""

from collections import Counter
from dataclasses import replace

import battery
import invocation
from spec import (BATTERY_EXTRA, BATTERY_SEEDS, BATTERY_WIDE_FIXED,
                  BATTERY_WIDE_POLICIES, BATTERY_WIDE_SEEDS, SPECS)


def test_case_pool_is_fixed_but_for_the_drawn_cases():
    first, second = battery.case_pool(1), battery.case_pool(2)
    assert [case.to_json() for case in first] == [
        case.to_json() for case in battery.case_pool(1)]
    per_policy = Counter(case.policy for case in first)
    for policy, count in per_policy.items():
        wide = policy in BATTERY_WIDE_POLICIES
        assert count == (BATTERY_WIDE_FIXED + BATTERY_EXTRA if wide
                         else BATTERY_SEEDS)
    drawn = {(case.policy, case.seed) for case in first
             if case.seed >= BATTERY_WIDE_FIXED}
    assert all(seed < BATTERY_WIDE_SEEDS for _, seed in drawn)
    assert len(drawn) == len(BATTERY_WIDE_POLICIES) * BATTERY_EXTRA
    fixed = {(case.policy, case.seed) for case in first} - drawn
    assert fixed == {(case.policy, case.seed) for case in second
                     if case.seed < BATTERY_WIDE_FIXED}


def test_primary_restarts_at_a_fixed_virtual_time():
    # At 60/s the outage leaves a backlog that is issued late.  The
    # restart must still come down_s after the crash, not when some later
    # op index finally gets issued.
    spec = replace(SPECS["quorum-rw"], ops=1200, crash_at=400)
    one = invocation.run_round(spec, seed=5, rate=60.0)
    assert one.outcome()["late_max_ms"] > 500 * spec.down_s
    times = {event.kind: event.time for event in one.events
             if event.kind in ("crash", "restart")}
    due = one.arrivals[spec.crash_at] + spec.down_s
    assert one.system.node("s0").alive
    assert due <= times["restart"] < due + 0.5
