"""Untraced and traced runs of one workload, and the numbers they report.

End-to-end metrics come only from :func:`untraced`.  :func:`traced`
repeats the workload with the layer wrappers on and reports the per-layer
ledger; its rounds must reproduce the untraced trace fingerprint, which
proves the wrappers changed nothing the simulation can observe.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path

from repro.simtest import runner
from repro.wire.marshal import memo_stats

import battery
import invocation
import layers
from hostclock import NominalClock
from spec import BATTERY_EXERCISED, SPECS

clock = time.perf_counter

#: Where records, ledgers and span samples are written (inside the
#: checkout; ignored by git).
OUT_DIR = Path(".perfbench_out")

#: Times the battery's case list is built (and timed) before each pass.
BATTERY_SETUP_REPEATS = 15

#: Extra set-ups timed (and discarded) before each pass of an invocation
#: workload: set-up is short, so it needs more samples than rounds give.
SETUP_EXTRA = 2

#: Spans of the last traced drive written out with the ledger.
SPAN_SAMPLE = 2000


class DeterminismError(AssertionError):
    """Two runs of one seed disagreed on a deterministic result."""


def _same(reference: dict, virtual: dict, what: str) -> None:
    if virtual != reference:
        diff = sorted(key for key in set(reference) | set(virtual)
                      if reference.get(key) != virtual.get(key))
        raise DeterminismError(f"{what} disagrees with the first run of "
                               f"this seed on {diff}")


def source_digest(root: Path = Path(".")) -> str:
    """Digest of the program and benchmark sources."""
    digest = hashlib.sha256()
    for path in sorted([*root.glob("src/**/*.py"),
                        *root.glob("perfbench/*.py")]):
        digest.update(path.as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def guard_across_runs(workload: str, seed: int, virtual: dict) -> str:
    """Compare ``virtual`` with the record of an earlier run of the same
    seed and sources, or leave the record for later runs; returns the
    record's path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"determinism-{workload}-{seed}-{source_digest()}.json"
    if path.exists():
        _same(json.loads(path.read_text()), virtual,
              f"{workload} seed {seed}")
    else:
        path.write_text(json.dumps(virtual, sort_keys=True))
    return str(path)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- untraced: the end-to-end metrics -----------------------------------------


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """``(end-to-end metrics, detail record)`` of one untraced run."""
    if workload == "chaos-battery":
        return _battery_untraced(seed, seconds)
    spec = SPECS[workload]
    started = clock()
    reference = None
    passes, setups, rates, cases, walls = 0, [], [], [], []
    while passes < 2 or clock() - started < seconds:
        for _ in range(SETUP_EXTRA):
            setups.append(invocation.Round(spec, seed, spec.rate, spec.ops,
                                           crash=True).setup_s)
        rounds = invocation.run_pass(spec, seed)
        virtual = invocation.pooled([one.outcome() for one in rounds])
        if reference is None:
            reference = virtual
        else:
            _same(reference, virtual, f"{workload} pass {passes}")
        passes += 1
        for one in rounds:
            setups.append(one.setup_s)
            rates.append(spec.ops / one.drive_s)
            cases.append(1.0 / (one.setup_s + one.drive_s + one.check_s))
            walls.append(one.drive_wall)
        del rounds
    record = {"passes": passes, "rounds": len(walls),
              "raw_ops_per_s": spec.ops * len(walls) / sum(walls),
              "attempted": reference["attempted"] * passes,
              "failed": reference["failed"] * passes,
              "virtual": reference,
              "determinism_record": guard_across_runs(workload, seed,
                                                      reference)}
    return _end_to_end(setups, rates, cases, reference), record


def _battery_untraced(seed: int, seconds: float) -> tuple[dict, dict]:
    started = clock()
    reference = None
    setups, ops_rates, case_rates, walls = [], [], [], []
    while len(ops_rates) < 2 or clock() - started < seconds:
        for _ in range(BATTERY_SETUP_REPEATS):
            timer = NominalClock()
            cases = battery.case_pool(seed)
            setups.append(timer.lap())
        one = battery.Pass(cases)
        one.check()
        virtual = one.virtual()
        if reference is None:
            reference = virtual
        else:
            _same(reference, virtual, f"chaos-battery pass {len(ops_rates)}")
        ops_rates.append(one.ops / one.nominal_s)
        case_rates.append(one.cases / one.nominal_s)
        walls.append(one.wall_s)
        del one
        gc.collect()
    # A case is the battery's unit of work; the operations its fault menu
    # fails by design are in ok_ratio, and any non-ok verdict raised above.
    record = {"passes": len(ops_rates), "cases": len(cases),
              "raw_ops_per_s": reference["attempted"] * len(walls)
              / sum(walls),
              "attempted": len(cases) * len(ops_rates), "failed": 0,
              "virtual": reference,
              "determinism_record": guard_across_runs("chaos-battery", seed,
                                                      reference)}
    return _end_to_end(setups, ops_rates, case_rates, reference), record


def _end_to_end(setups, ops_rates, case_rates, virtual) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(ops_rates),
        "cases_per_s": statistics.median(case_rates),
        "sim_p50_ms": virtual["sim_p50_ms"],
        "sim_p99_ms": virtual["sim_p99_ms"],
        "ok_ratio": 1.0 - virtual["failed_ratio"],
        "peak_rss_mb": peak_rss_mb(),
    }


# -- traced: the per-layer metrics --------------------------------------------


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    """``(per-layer metrics, detail record)`` of one traced run."""
    if workload == "chaos-battery":
        return _battery_traced(seed)
    spec = SPECS[workload]
    plain = invocation.run_pass(spec, seed)
    reference = invocation.pooled([one.outcome() for one in plain])
    guard_across_runs(workload, seed, reference)
    top_rate = invocation.max_rate(spec, seed)
    recorder = layers.Recorder()
    entries, undo = layers.install(recorder)
    try:
        rounds = invocation.run_pass(spec, seed, recorder=recorder)
    finally:
        undo()
    _same(reference, invocation.pooled([one.outcome() for one in rounds]),
          f"{workload} traced pass")
    _require_calls(workload, recorder, entries, spec.exercised)
    ops = spec.ops * len(rounds)
    drive = _merge(layers.ledger(one.spans["drive"]) for one in rounds)
    setup = _merge(layers.ledger(one.spans["setup"]) for one in rounds)
    check = _merge(layers.ledger(one.spans["check"]) for one in rounds)
    proxies = [proxy for one in rounds for _, _, proxy in one.clients]
    counts = {
        "ops": ops, "cases": len(rounds),
        "messages": reference["messages"],
        "bytes": reference["bytes"],
        "trace_events": reference["trace_events"],
        "rpc": _sum_dicts(one.rpc for one in rounds),
        "memo": _sum_dicts(one.memo for one in rounds),
        "proxy": _sum_dicts(proxy.proxy_stats for proxy in proxies),
        "explored": sum(one.explored for one in rounds),
        "unknown": 0,
        "gc_gen2": sum(one.gc_gen2 for one in plain),
        "gc_ops": ops,
        "overhead": (sum(one.drive_s for one in rounds)
                     / sum(one.drive_s for one in plain)),
        "max_rate": top_rate,
        "unavail_ms": reference.get("unavail_ms", 0.0),
        "deploy_s": _incl(setup, "simtest.deploy"),
        "execute_s": 0.0,
        "check_s": _incl(check, "simtest.check"),
    }
    metrics = _per_layer(drive, counts)
    record = _ledger_record(drive, ops, recorder, entries)
    record.update(virtual=reference, span_sample=rounds[-1].spans["drive"]
                  [:SPAN_SAMPLE], attempted=reference["attempted"],
                  failed=reference["failed"])
    return metrics, record


def _battery_traced(seed: int) -> tuple[dict, dict]:
    cases = battery.case_pool(seed)
    gc_before = gc.get_stats()[2]["collections"]
    plain = battery.Pass(cases)
    gc_gen2 = gc.get_stats()[2]["collections"] - gc_before
    plain.check()
    reference = plain.virtual()
    guard_across_runs("chaos-battery", seed, reference)
    recorder = layers.Recorder()
    entries, undo = layers.install(recorder)
    deployments = []
    traced_execute = runner.execute

    def tap(case):
        history, deployment = traced_execute(case)
        deployments.append(deployment)
        return history, deployment

    runner.execute = tap
    memo_before = memo_stats()
    try:
        recorder.active = True
        one = recorder.wrap("bench.pass", "bench.pass", battery.Pass)(cases)
        recorder.active = False
    finally:
        runner.execute = traced_execute
        undo()
    memo_after = memo_stats()
    virtual = one.virtual()
    _same(reference, virtual, "chaos-battery traced pass")
    _require_calls("chaos-battery", recorder, entries, BATTERY_EXERCISED)
    rows = layers.ledger(recorder.take())
    events = [event for deployment in deployments
              for event in deployment.system.trace]
    sends = [event for event in events if event.kind == "send"]
    ops = one.ops
    counts = {
        "ops": ops, "cases": one.cases,
        "messages": len(sends), "bytes": sum(ev.size for ev in sends),
        "trace_events": len(events),
        "rpc": _sum_dicts(deployment.system.rpc.stats
                          for deployment in deployments),
        "memo": {key: memo_after[key] - memo_before[key]
                 for key in invocation.MEMO_COUNTERS},
        "proxy": _sum_dicts(proxy.proxy_stats for deployment in deployments
                            for _, _, proxy in deployment.clients),
        "explored": virtual["explored"],
        "unknown": virtual["unknown"],
        "gc_gen2": gc_gen2, "gc_ops": plain.ops,
        "overhead": one.nominal_s / plain.nominal_s,
        "max_rate": 0.0, "unavail_ms": 0.0,
        "deploy_s": _incl(rows, "simtest.deploy"),
        # execute() deploys and then drives; the drive is what it adds.
        "execute_s": (_incl(rows, "simtest.execute")
                      - _incl(rows, "simtest.deploy")),
        "check_s": _incl(rows, "simtest.check"),
    }
    record = _ledger_record(rows, ops, recorder, entries)
    record.update(virtual=reference, attempted=counts["cases"], failed=0)
    return _per_layer(rows, counts), record


def _require_calls(workload: str, recorder, entries: dict,
                   exercised) -> None:
    """Fail when an entry point the workload must drive saw no call."""
    unknown = [entry for entry in exercised if entry not in entries]
    if unknown:
        raise ValueError(f"{workload}: no wrapper for {unknown}")
    idle = [entry for entry in exercised if not recorder.calls[entry]]
    if idle:
        raise AssertionError(f"{workload}: wrapped entry points recorded no "
                             f"calls: {idle} (installed too late, or the "
                             f"workload no longer reaches them)")


def _merge(ledgers) -> dict:
    out: dict = {}
    for rows in ledgers:
        for name, row in rows.items():
            into = out.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    return out


def _sum_dicts(dicts) -> dict:
    out: dict = {}
    for item in dicts:
        for key, value in item.items():
            out[key] = out.get(key, 0) + value
    return out


def _incl(rows: dict, name: str) -> float:
    return rows.get(name, {}).get("incl_s", 0.0)


def _per_layer(rows: dict, counts: dict) -> dict:
    """The per-layer metrics from a ledger and the run's counters.

    Times are per client operation (per case for ``simtest``); plain
    counts are per traced pass over the workload.
    """
    ops, cases = counts["ops"], counts["cases"]
    rpc, memo, proxy = counts["rpc"], counts["memo"], counts["proxy"]

    def self_us(*names):
        return sum(rows.get(name, {}).get("self_s", 0.0)
                   for name in names) / ops * 1e6

    hits = sum(memo[hit] for hit, _ in invocation.MEMO_PAIRS)
    lookups = hits + sum(memo[miss] for _, miss in invocation.MEMO_PAIRS)
    layer_s = layers.layer_self(rows)
    total_s = sum(layer_s.values())
    metrics = {
        "core.invoke_self_us": self_us("core.invoke"),
        "core.repl.elections": proxy.get("elections", 0),
        "core.repl.elections_won": proxy.get("elections_won", 0),
        "core.repl.read_repairs": proxy.get("read_repairs", 0),
        "core.repl.write_failures": proxy.get("write_failures", 0),
        "core.shard.redirects_per_kop":
            proxy.get("shard_redirects", 0) / ops * 1e3,
        "core.shard.rebalance_ms": _incl(rows, "core.rebalance") / ops * 1e6,
        "rpc.calls_per_op": rpc.get("calls", 0) / ops,
        "rpc.reply_batches_per_kop": rpc.get("reply_batches", 0) / ops * 1e3,
        "rpc.call_self_us": self_us("rpc.call", "rpc.oneway"),
        "rpc.dispatch_self_us": self_us("rpc.dispatch"),
        "rpc.retries_per_kop": rpc.get("retries", 0) / ops * 1e3,
        "rpc.timeouts": rpc.get("timeouts", 0),
        "wire.encode_us": self_us("wire.encode"),
        "wire.decode_us": self_us("wire.decode"),
        "wire.envelope_us": self_us("wire.envelope"),
        "wire.bytes_per_op": counts["bytes"] / ops,
        "wire.memo_hit_ratio": hits / lookups if lookups else 0.0,
        "kernel.msgs_per_op": counts["messages"] / ops,
        "kernel.transmit_us": self_us("kernel.transmit"),
        "kernel.trace_events_per_op": counts["trace_events"] / ops,
        "apps.self_us": self_us("apps.op"),
        "simtest.deploy_ms_per_case": counts["deploy_s"] / cases * 1e3,
        "simtest.execute_ms_per_case": counts["execute_s"] / cases * 1e3,
        "simtest.check_ms_per_case": counts["check_s"] / cases * 1e3,
        "simtest.check_nodes_per_case": counts["explored"] / cases,
        "simtest.unknown_cases": counts["unknown"],
        "runtime.gc_gen2_per_kop":
            counts["gc_gen2"] / counts["gc_ops"] * 1e3,
        "bench.driver_self_us": self_us("bench.pass", "bench.op"),
        "bench.tracing_overhead": counts["overhead"],
        "max_rate_per_s": counts["max_rate"],
        "unavail_ms": counts["unavail_ms"],
    }
    for layer, seconds in layer_s.items():
        metrics[f"share.{layer}"] = seconds / total_s if total_s else 0.0
    return metrics


def _ledger_record(rows: dict, ops: int, recorder, entries: dict) -> dict:
    """The ledger as written out: per span name and per entry point."""
    return {
        "ops": ops,
        "spans": {name: {"self_us_per_op": row["self_s"] / ops * 1e6,
                         "incl_us_per_op": row["incl_s"] / ops * 1e6,
                         "count": row["spans"]}
                  for name, row in sorted(rows.items())},
        "calls": {entry: recorder.calls[entry] for entry in sorted(entries)},
    }
