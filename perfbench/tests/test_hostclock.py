"""The host-speed corrected clock."""

import gc

import pytest

import hostclock


def test_lap_scales_wall_time_by_reference_rate(monkeypatch):
    rates = iter([1e6, 3e6, 2e6])    # before, after lap 1, after lap 2
    ticks = iter([0.0, 2.0, 2.5, 3.5, 4.0])
    monkeypatch.setattr(hostclock, "reference_rate", lambda: next(rates))
    monkeypatch.setattr(hostclock, "clock", lambda: next(ticks))
    monkeypatch.setattr(hostclock, "NOMINAL_RATE", 2e6)
    monkeypatch.setattr(hostclock, "ELASTICITY", 0.5)
    timer = hostclock.NominalClock()    # starts at t=0
    # 2 s of wall at a mean reference rate of 2 M it/s: nominal speed.
    assert timer.lap() == pytest.approx(2.0)
    # Restarted after the reference sample (t=2.5): 1 s on a host running
    # the loop 1.25 times as fast as nominal counts 1.25 ** 0.5 s.
    assert timer.lap() == pytest.approx(1.0 * 1.25 ** 0.5)
    assert timer.wall == pytest.approx(3.0)


def test_reference_loop_triggers_no_collection():
    collections = []

    def seen(phase, info):
        collections.append(info["generation"])

    gc.collect()    # start from an empty young generation
    gc.callbacks.append(seen)
    try:
        hostclock.reference_rate(iterations=20000)
    finally:
        gc.callbacks.remove(seen)
    assert collections == []
