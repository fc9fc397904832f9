"""Span recording and the class-level wrappers."""

import pytest

import layers
from repro.rpc.protocol import RpcProtocol
from repro.simtest import runner, workload


def test_recorder_nesting_and_self_time():
    recorder = layers.Recorder()
    leaf = recorder.wrap("kernel.leaf", "leaf", lambda: 1)
    mid = recorder.wrap("rpc.mid", "mid", lambda: leaf() + leaf())
    top = recorder.wrap("core.top", "top", lambda: mid())
    assert top() == 2 and not recorder.spans    # inactive: no spans
    recorder.active = True
    assert top() == 2
    spans = recorder.take()
    assert [span[0] for span in spans] == ["core.top", "rpc.mid",
                                           "kernel.leaf", "kernel.leaf"]
    assert [span[3] for span in spans] == [-1, 0, 1, 1]
    rows = layers.ledger(spans)
    assert rows["kernel.leaf"]["spans"] == 2
    total = spans[0][2] - spans[0][1]
    assert sum(layers.layer_self(rows).values()) == pytest.approx(total)
    assert recorder.calls == {"top": 1, "mid": 1, "leaf": 2}


def test_recorder_closes_span_on_exception():
    recorder = layers.Recorder()
    recorder.active = True

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("apps.op", "boom", boom)()
    assert recorder.stack == [-1]
    assert recorder.take()[0][0] == "apps.op"


def test_inclusive_time_counts_outermost_span_of_a_name():
    spans = [("core.invoke", 0.0, 10.0, -1), ("core.invoke", 2.0, 6.0, 0)]
    rows = layers.ledger(spans)
    assert rows["core.invoke"]["incl_s"] == 10.0
    assert rows["core.invoke"]["self_s"] == 10.0


def _drive(ops: int):
    case = runner.SimCase(seed=5, policy="stub", service="kv", ops=ops,
                          clients=1)
    deployment = workload.deploy(case)
    proxy = deployment.clients[0][2]
    for index in range(ops):
        proxy.put(f"k{index % 3}", index)
        proxy.get(f"k{index % 3}")
    return deployment.system.trace.fingerprint()


def test_install_observes_without_changing_the_trace():
    plain = _drive(5)
    original_call = RpcProtocol.__dict__["call"]
    recorder = layers.Recorder()
    entries, undo = layers.install(recorder)
    try:
        recorder.active = True
        traced = _drive(5)
        recorder.active = False
    finally:
        undo()
    assert traced == plain
    assert RpcProtocol.__dict__["call"] is original_call
    assert runner.deploy is workload.deploy
    assert recorder.calls["RpcProtocol.call"] >= 10    # + bind handshake
    assert recorder.calls["KVStore.put"] == 5
    assert recorder.calls["repro.simtest.workload.deploy"] == 1
    assert entries["Dispatcher.handle"] == "rpc.dispatch"
    layer_of = {span[0].split(".")[0] for span in recorder.take()}
    assert {"core", "rpc", "wire", "kernel", "apps", "simtest"} <= layer_of
