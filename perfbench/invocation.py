"""The open-loop invocation workloads: stub-small, quorum-rw, sharded-bulk.

A *round* is one fresh deployment driven through the workload's whole
schedule: deploy (``repro.simtest.workload.deploy``), warm up, generate
the Poisson schedule, then :func:`repro.workloads.arrivals.run_open_loop`
over three bound proxies, each operation a plain proxy call.  Latency is
timed from each operation's *scheduled* arrival.  A *pass* is
``spec.rounds`` rounds, each with a seed derived from the run's seed, and
every pass of a run must reproduce the first one's trace fingerprints,
message counts and virtual metrics exactly; the wall readings are the
only thing allowed to differ.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics

from repro.kernel.errors import DistributionError
from repro.simtest import runner, workload
from repro.simtest.history import History, canonical
from repro.simtest.models import MODELS
from repro.wire.marshal import memo_stats
from repro.workloads.arrivals import poisson_arrivals, run_open_loop
from repro.workloads.distributions import (UniformSampler, ZipfSampler,
                                          key_name)

import stats
from hostclock import NominalClock
from spec import CLIENTS, Spec

#: Distinct bulk payloads the puts of a bulk workload cycle through.
BULK_PAYLOADS = 8

#: Longest padding appended to a key or a small value.
MAX_PAD = 24

#: The marshaller memo counters, as ``(hits, misses)`` key pairs.
MEMO_PAIRS = (("str_enc_hits", "str_enc_misses"),
              ("str_dec_hits", "str_dec_misses"),
              ("int_enc_hits", "int_enc_misses"),
              ("tmpl_hits", "tmpl_misses"))
MEMO_COUNTERS = tuple(key for pair in MEMO_PAIRS for key in pair)

#: Reads each client issues before the schedule starts (handshake and
#: memo warm-up; a fresh store answers ``None``).
WARMUP_READS = 2


class CheckFailed(AssertionError):
    """A reply disagreed with the model, or a history failed its check."""


def make_ops(spec: Spec, seed: int, count: int) -> list[tuple[str, tuple]]:
    """The round's operations, a pure function of ``(spec, seed, count)``.

    Keys and small values carry a seeded padding, and the seed also picks
    the longest padding (up to :data:`MAX_PAD` bytes), so message sizes,
    and with them the virtual latencies, vary with the seed instead of
    collapsing onto one round-trip time.
    """
    rng = random.Random(f"perfbench:{spec.name}:ops:{seed}")
    if spec.zipf is None:
        sampler = UniformSampler(spec.keys, rng)
    else:
        sampler = ZipfSampler(spec.keys, rng, spec.zipf)
    longest = 1 + rng.randrange(MAX_PAD)
    names = {key_name(index): f"k{index}" + "." * rng.randrange(longest)
             for index in range(spec.keys)}
    bulk = [bytes([65 + n]) * spec.bulk_size for n in range(BULK_PAYLOADS)]
    pool = [f"v{n}" + "." * rng.randrange(longest)
            for n in range(spec.small_values or 0)]
    ops = []
    for index in range(count):
        key = names[sampler.sample()]
        if rng.random() >= spec.put_share:
            ops.append(("get", (key,)))
            continue
        if spec.bulk_share and rng.random() < spec.bulk_share:
            value = bulk[rng.randrange(BULK_PAYLOADS)]
        elif pool:
            value = pool[rng.randrange(len(pool))]
        else:
            value = f"v{index}" + "." * rng.randrange(longest)
        ops.append(("put", (key, value)))
    return ops


class Round:
    """One deployment driven through one schedule, with what it returned."""

    def __init__(self, spec: Spec, seed: int, rate: float, count: int,
                 crash: bool):
        self.spec = spec
        self.count = count
        timer = NominalClock()
        case = runner.SimCase(seed=seed, policy=spec.policy, service="kv",
                              ops=count, clients=CLIENTS)
        self.deployment = workload.deploy(case)
        self.system = self.deployment.system
        self.clients = self.deployment.clients
        self.warm_replies = [proxy.get(f"warm{n}")
                             for _, _, proxy in self.clients
                             for n in range(WARMUP_READS)]
        self.ops = make_ops(spec, seed, count)
        start = max(ctx.clock.now for _, ctx, _ in self.clients) + 1e-3
        arrivals_rng = random.Random(f"perfbench:{spec.name}:arrivals:{seed}")
        self.arrivals = poisson_arrivals(rate, count, arrivals_rng, start)
        self.crash_at = spec.crash_at if crash else None
        self.issued = [0.0] * count
        self.owner: list = [None] * count
        self.done: list = [None] * count
        self.replies: list = [None] * count
        self.errors: dict[int, str] = {}
        self.laps: list[float] = []
        self.explored = 0
        self.setup_s = timer.lap()

    def drive(self, recorder=None) -> None:
        """Run the schedule, timing one lap per window of operations.

        ``drive_s`` is the drive's nominal time (see :mod:`hostclock`),
        ``drive_wall`` its raw wall time.

        With a ``recorder``, the open loop and each operation are spans of
        the ``bench`` layer, so harness time is never read as system time.
        """
        spec, ops = self.spec, self.ops
        issued, done, replies, errors = (self.issued, self.done,
                                         self.replies, self.errors)
        owner = self.owner
        laps, window = self.laps, spec.window
        pump = self.deployment.maintenance if spec.pump_every else None
        pump_every = spec.pump_every
        crash_at = self.crash_at
        primary = self.system.node("s0")
        # The primary restarts at a fixed virtual time after the crash, not
        # at an op index: a backlog built up while it is down must not
        # keep it down longer.
        restart_due = (self.arrivals[crash_at] + spec.down_s
                       if crash_at is not None else None)

        def issue(slot, index):
            if index and index % window == 0:
                laps.append(timer.lap())
            name, ctx, proxy = slot
            if index == crash_at:
                primary.crash()
            elif (restart_due is not None and not primary.alive
                  and ctx.clock.now >= restart_due):
                primary.restart()
            if pump is not None and index and index % pump_every == 0:
                pump()
            owner[index] = name
            issued[index] = ctx.clock.now
            verb, args = ops[index]
            try:
                replies[index] = getattr(proxy, verb)(*args)
            except DistributionError as exc:
                errors[index] = type(exc).__name__
                raise
            finally:
                done[index] = ctx.clock.now

        loop = run_open_loop
        if recorder is not None:
            issue = recorder.wrap("bench.op", "bench.op", issue)
            loop = recorder.wrap("bench.pass", "bench.pass", loop)
        lanes = {"clients": ([(name, ctx, (name, ctx, proxy))
                              for name, ctx, proxy in self.clients], issue)}
        timeline = [(when, "clients") for when in self.arrivals]
        mark = self.system.trace.mark()
        rpc_before = dict(self.system.rpc.stats)
        memo_before = memo_stats()
        gc_before = gc.get_stats()[2]["collections"]
        timer = NominalClock()
        self.result = loop(lanes, timeline)["clients"]
        laps.append(timer.lap())
        self.drive_s = sum(laps)
        self.drive_wall = timer.wall
        self.gc_gen2 = gc.get_stats()[2]["collections"] - gc_before
        memo_after = memo_stats()
        self.memo = {key: memo_after[key] - memo_before[key]
                     for key in MEMO_COUNTERS}
        self.rpc = {key: value - rpc_before.get(key, 0)
                    for key, value in self.system.rpc.stats.items()}
        self.events = self.system.trace.since(mark)

    # -- outputs -------------------------------------------------------------

    def check(self) -> None:
        """Verify every reply; raises :class:`CheckFailed` on a wrong one."""
        if any(reply is not None for reply in self.warm_replies):
            raise CheckFailed(f"{self.spec.name}: warm-up read of an empty "
                              f"store answered {self.warm_replies}")
        if self.spec.check == "model":
            self._check_model()
        else:
            self._check_history()

    def _check_model(self) -> None:
        """Replay the operations in issue order against a dict."""
        if self.errors:
            raise CheckFailed(f"{self.spec.name}: {len(self.errors)} "
                              f"operations failed; the sequential model "
                              f"cannot grade them")
        model: dict = {}
        for index, (verb, args) in enumerate(self.ops):
            if verb == "put":
                model[args[0]] = args[1]
                expected = True
            else:
                expected = model.get(args[0])
            if self.replies[index] != expected:
                raise CheckFailed(
                    f"{self.spec.name}: op {index} {verb}{args[:1]} answered "
                    f"{self.replies[index]!r:.80}, model says "
                    f"{expected!r:.80}")

    def history(self) -> History:
        """The round as a simtest history (failed puts are ``maybe``)."""
        history = History()
        for index, (verb, args) in enumerate(self.ops):
            error = self.errors.get(index)
            common = dict(client=self.owner[index], verb=verb,
                          args=list(args), invoke=self.issued[index])
            if error is None:
                history.record(complete=self.done[index], status="ok",
                               result=canonical(self.replies[index]),
                               **common)
            elif verb == "get":
                history.record(complete=self.done[index], status="fail",
                               error=error, **common)
            else:
                history.record(complete=None, status="maybe", error=error,
                               **common)
        return history

    def _check_history(self) -> None:
        verdict = runner.check_history(self.history(), MODELS["kv"]())
        self.explored = verdict.explored
        if verdict.verdict != "ok":
            raise CheckFailed(f"{self.spec.name}: history check verdict "
                              f"{verdict.verdict!r} (unknown counts as a "
                              f"failure)")

    def outcome(self) -> dict:
        """The round's deterministic results; see :func:`pooled`."""
        result = self.result
        sends = [event for event in self.events if event.kind == "send"]
        out = {
            "fingerprint": self.system.trace.fingerprint(),
            "messages": len(sends),
            "bytes": sum(event.size for event in sends),
            "trace_events": len(self.events),
            "latencies": result.latencies,
            "completed": result.completed,
            "failed": result.failed,
            "shed": result.shed,
            "late_max_ms": max(issued - when for issued, when
                               in zip(self.issued, self.arrivals)) * 1e3,
            "drain_ms": (result.last_done - self.arrivals[-1]) * 1e3,
        }
        if self.crash_at is not None:
            out["unavail_ms"] = self.unavail_ms()
        return out

    def unavail_ms(self) -> float:
        """Virtual ms from the primary crash to the first acknowledged
        write issued after it."""
        crashed = self.arrivals[self.crash_at]
        acked = [self.done[index] for index in range(self.crash_at,
                                                     self.count)
                 if self.ops[index][0] == "put" and index not in self.errors]
        if not acked:
            raise CheckFailed(f"{self.spec.name}: no write was acknowledged "
                              f"after the primary crash")
        return (min(acked) - crashed) * 1e3


def round_seeds(spec: Spec, seed: int) -> list[int]:
    """The seeds of a pass's rounds, derived from the run's seed."""
    return [seed * 1000 + index for index in range(spec.rounds)]


def pooled(outcomes: list[dict]) -> dict:
    """A pass's deterministic results: latencies pooled over its rounds.

    Every run of one seed must reproduce this dict exactly (the
    determinism guard); only wall readings may differ.
    """
    latencies = [value for outcome in outcomes
                 for value in outcome["latencies"]]
    stats.require_tail(len(latencies), 99.0)
    total = {key: sum(outcome[key] for outcome in outcomes)
             for key in ("messages", "bytes", "trace_events", "completed",
                         "failed", "shed")}
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(outcome["fingerprint"].encode())
    out = {
        "fingerprint": digest.hexdigest(),
        "rounds": len(outcomes),
        "messages": total["messages"],
        "bytes": total["bytes"],
        "trace_events": total["trace_events"],
        "samples": len(latencies),
        "sim_p50_ms": stats.percentile(latencies, 50.0) * 1e3,
        "sim_p99_ms": stats.percentile(latencies, 99.0) * 1e3,
        "failed_ratio": stats.failed_ratio(
            ok=total["completed"], failed=total["failed"],
            shed=total["shed"]),
        "attempted": total["completed"] + total["failed"] + total["shed"],
        "failed": total["failed"] + total["shed"],
        "late_max_ms": max(outcome["late_max_ms"] for outcome in outcomes),
        "drain_ms": max(outcome["drain_ms"] for outcome in outcomes),
    }
    unavail = [outcome["unavail_ms"] for outcome in outcomes
               if "unavail_ms" in outcome]
    if unavail:
        out["unavail_ms"] = statistics.median(unavail)
    return out


def run_pass(spec: Spec, seed: int, recorder=None) -> list[Round]:
    """One round per seed of :func:`round_seeds`."""
    return [run_round(spec, round_seed, recorder=recorder)
            for round_seed in round_seeds(spec, seed)]


def run_round(spec: Spec, seed: int, rate: float | None = None,
              count: int | None = None, crash: bool = True,
              recorder=None) -> Round:
    """Build, drive and check one round; the caller reads its results.

    With a ``recorder`` the set-up, drive and check phases' spans are
    kept apart in ``round.spans`` (per-op figures come from the drive).
    """
    gc.collect()
    if recorder is not None:
        recorder.active = True
    one = Round(spec, seed, spec.rate if rate is None else rate,
                spec.ops if count is None else count, crash)
    phases = {}
    if recorder is not None:
        phases["setup"] = recorder.take()
    one.drive(recorder)
    if recorder is not None:
        phases["drive"] = recorder.take()
    timer = NominalClock()
    one.check()
    one.check_s = timer.lap()
    if recorder is not None:
        phases["check"] = recorder.take()
        recorder.active = False
    one.spans = phases
    return one


def max_rate(spec: Spec, seed: int) -> float:
    """The highest ladder rate whose p99 meets the limit with no growing
    backlog: the last arrival must drain within the limit too.

    A virtual-only pass over fault-free rounds: it measures steady-state
    capacity, which a one-off failover would otherwise swamp.
    """
    def passes(rate: float) -> bool:
        one = run_round(spec, round_seeds(spec, seed)[0], rate=rate,
                        count=spec.ladder_ops, crash=False)
        virtual = pooled([one.outcome()])
        return (virtual["failed"] == 0
                and virtual["sim_p99_ms"] <= spec.limit_ms
                and virtual["drain_ms"] <= spec.limit_ms)

    return stats.max_passing_rate(spec.ladder, passes)
