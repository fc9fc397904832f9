"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public entry points of each layer — proxy
``invoke``, ``RpcProtocol.call``, ``Dispatcher.handle``, the marshaller
and frame codec, the envelope servers, ``Network.transmit``, the KV (and
other service) operations, and simtest's deploy/execute/check — at class
or module level.  Nothing inside ``src/`` changes.  It must run before the
traced system is built: the dispatcher binds ``self.handle`` into its
context when it is constructed, so a later patch would miss it.

A :class:`Recorder` keeps every span in memory as ``(name, start, end,
parent)``; self times are computed afterwards by
:func:`perfbench.stats.self_times`.  While the recorder is inactive the
wrappers cost one attribute test per call, but the untraced passes that
end-to-end numbers come from run before :func:`install` is called at all.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from stats import self_times

#: Layers in report order; a span's layer is its name up to the first dot.
LAYERS = ("core", "rpc", "wire", "kernel", "apps", "simtest", "bench")


class Recorder:
    """Spans and per-entry-point call counts of the traced passes."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.stack = [-1]
        self.calls: Counter = Counter()

    def wrap(self, name: str, entry: str, func):
        """``func`` recording a span called ``name``; calls count under
        ``entry`` (the entry point's qualified name)."""
        recorder = self
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            recorder.calls[entry] += 1
            spans = recorder.spans
            stack = recorder.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if len(self.stack) != 1:
            raise RuntimeError("take() inside an open span")
        spans, self.spans = self.spans, []
        return spans


def ledger(spans) -> dict[str, dict]:
    """Self and inclusive seconds plus span count, per span name."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for (name, start, end, _), self_s in zip(spans, own):
        row = out.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "spans": 0})
        row["self_s"] += self_s
        row["spans"] += 1
    # Inclusive time counts only outermost spans of a name, so recursion
    # (a composite proxy invoking its inner layer) is not counted twice.
    names = [span[0] for span in spans]
    for name, start, end, parent in spans:
        outer = parent
        while outer >= 0 and names[outer] != name:
            outer = spans[outer][3]
        if outer < 0:
            out[name]["incl_s"] += end - start
    return out


def layer_self(rows: dict[str, dict]) -> dict[str, float]:
    """Self seconds summed per layer (every layer present, maybe 0)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, row in rows.items():
        totals[name.split(".", 1)[0]] += row["self_s"]
    return totals


def _entry_points():
    """``(span name, owner, attribute)`` for every wrapped entry point."""
    from repro.apps.counter import Counter as CounterService
    from repro.apps.kv import KVStore
    from repro.apps.locks import LockService
    from repro.apps.queue import WorkQueue
    from repro.core.policies.replicating import ReplicatedProxy
    from repro.core.policies.sharding import ShardedProxy
    from repro.core.proxy import Proxy
    from repro.iface.interface import is_operation
    from repro.kernel.network import Network
    from repro.rpc.dispatcher import Dispatcher
    from repro.rpc.protocol import RpcProtocol
    from repro.simtest import bank, runner, workload
    from repro.transactions import VersionedKVStore
    from repro.wire import shards, versions
    from repro.wire.frames import Frame
    from repro.wire.marshal import Marshaller

    points = []
    pending, seen = [Proxy], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "invoke" in cls.__dict__:
            points.append(("core.invoke", cls, "invoke"))
    points += [
        ("core.anti_entropy", ReplicatedProxy, "proxy_anti_entropy"),
        ("core.rebalance", ShardedProxy, "proxy_rebalance"),
        ("rpc.call", RpcProtocol, "call"),
        ("rpc.oneway", RpcProtocol, "send_oneway"),
        ("rpc.dispatch", Dispatcher, "handle"),
        ("wire.encode", Frame, "encode_message"),
        ("wire.encode", Marshaller, "encode"),
        ("wire.encode", Marshaller, "encode_frame_message"),
        ("wire.decode", Frame, "decode_message"),
        ("wire.decode", Marshaller, "decode"),
        ("wire.decode", Marshaller, "decode_frame_message"),
        ("wire.envelope", versions, "serve_envelope"),
        ("wire.envelope", shards, "serve_envelope"),
        ("wire.envelope", shards, "serve_verb"),
        ("kernel.transmit", Network, "transmit"),
        ("simtest.deploy", workload, "deploy"),
        ("simtest.execute", runner, "execute"),
        ("simtest.check", runner, "check_history"),
    ]
    services = [KVStore, CounterService, LockService, WorkQueue,
                VersionedKVStore, *bank.BANK_FACADES.values()]
    for cls in services:
        for attr, member in list(cls.__dict__.items()):
            if is_operation(member):
                points.append(("apps.op", cls, attr))
    return points


def _owner_name(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def install(recorder: Recorder):
    """Wrap every entry point; returns ``(entries, undo)``.

    ``entries`` maps each entry point's qualified name to its span name,
    so callers can tell which ones recorded no calls.  ``undo()`` restores
    the originals.
    """
    from repro.simtest import runner

    entries: dict[str, str] = {}
    restore = []
    wrapped_deploy = None
    for name, owner, attr in _entry_points():
        original = owner.__dict__[attr]
        entry = f"{_owner_name(owner)}.{attr}"
        entries[entry] = name
        if isinstance(original, classmethod):
            replacement = classmethod(
                recorder.wrap(name, entry, original.__func__))
        else:
            replacement = recorder.wrap(name, entry, original)
        if name == "simtest.deploy":
            wrapped_deploy = replacement
        restore.append((owner, attr, original))
        setattr(owner, attr, replacement)
    # ``runner`` imported ``deploy`` by name: point it at the same wrapper.
    restore.append((runner, "deploy", runner.deploy))
    runner.deploy = wrapped_deploy

    def undo():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return entries, undo
