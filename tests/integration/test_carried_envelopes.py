"""Quorum and shard envelopes ride the carried decode end to end.

Version and term envelopes (``wire/versions.py``) and shard envelopes
(``wire/shards.py``) are plain data, so their frames carry a snapshot and
the receiver never runs the byte decoder on them.  The marshal counters
``carried_hits``/``carried_misses`` show which path each received frame
took.
"""

from __future__ import annotations

import repro
from repro.apps.kv import KVStore
from repro.core.policies.sharding import shard
from repro.rpc.dispatcher import ensure_dispatcher
from repro.wire.marshal import memo_stats


def _carried_share(drive) -> tuple[float, int]:
    before = memo_stats()
    drive()
    after = memo_stats()
    hits = after["carried_hits"] - before["carried_hits"]
    misses = after["carried_misses"] - before["carried_misses"]
    return hits / (hits + misses), hits + misses


def _mixed_ops(proxy, ops: int) -> None:
    for i in range(ops):
        key = f"k{i % 17}"
        if i % 2:
            proxy.put(key, f"value-{i}")
        else:
            proxy.get(key)


def test_quorum_frames_take_the_carried_path(star):
    # The quorum-rw shape: elected W=2/R=2 over three replicas, per-key
    # versions, half writes, and an anti-entropy sweep.
    system, server, clients = star
    ref = repro.replicate([server, clients[1], clients[2]], KVStore,
                          write_quorum=2, read_quorum=2, version_key="arg0",
                          elect=True)
    repro.register(server, "kv", ref)
    proxy = repro.bind(clients[0], "kv")

    def drive():
        _mixed_ops(proxy, 200)
        proxy.proxy_anti_entropy()
        _mixed_ops(proxy, 200)

    share, frames = _carried_share(drive)
    assert frames >= 800
    assert share >= 0.99


def test_shard_frames_take_the_carried_path(star):
    system, server, clients = star
    ref = shard([server, clients[1], clients[2]], KVStore)
    repro.register(server, "kv", ref)
    proxy = repro.bind(clients[0], "kv")
    share, frames = _carried_share(lambda: _mixed_ops(proxy, 300))
    assert frames >= 600
    assert share >= 0.99


def test_replay_cache_keeps_wire_images_only(star):
    # A carried reply's snapshot must not outlive its delivery: the
    # dispatcher remembers the wire image alone.
    system, server, clients = star
    ref = repro.replicate([server, clients[1], clients[2]], KVStore,
                          write_quorum=2, read_quorum=2, version_key="arg0")
    repro.register(server, "kv", ref)
    proxy = repro.bind(clients[0], "kv")
    proxy.put("k", "v")
    remembered = [data for ctx in (server, clients[1], clients[2])
                  for data in ensure_dispatcher(ctx, system.transport)
                  ._replay.values()]
    assert remembered
    assert all(data.__class__ is bytes or data.carried is None
               for data in remembered)
