"""Digest determinism and tracing transparency on shortened windows."""

import importlib

import pytest

import perfbench.measure
from perfbench.measure import measure, run_window, traced
from perfbench.tracing import BENCH, ENTRY_POINTS, LAYERS, Tracer
from perfbench.workloads import WORKLOADS

NAMES = sorted(WORKLOADS)
#: Shortened windows, long enough for every workload to complete ops.
SHORT = {"rpc-small": 1, "kv-xdp": 1, "bulk-lossy": 4}


def entry_point_objects():
    """``{(class, attribute): raw class attribute}`` for every entry point."""
    found = {}
    for _layer, module, cls_name, attrs in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for attr in attrs:
            found[(cls, attr)] = vars(cls)[attr]
    return found


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_digest_other_seed_differs(name):
    workload = WORKLOADS[name]
    first = run_window(workload, 3, slices=SHORT[name])
    again = run_window(workload, 3, slices=SHORT[name])
    other = run_window(workload, 4, slices=SHORT[name])
    assert first["attempted"] > 0 and first["failed"] == 0 and first["wrong"] == 0
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_measure_digest_covers_the_window_alone(monkeypatch):
    """Slices timed after the window (how many depends on host speed)
    must not reach the digest."""
    monkeypatch.setattr(perfbench.measure, "SETUP_MIN", 1)
    monkeypatch.setattr(perfbench.measure, "SETUP_MIN_S", 0.0)
    workload = WORKLOADS["kv-xdp"]
    measured = measure(workload, 6, seconds=1.5, slices=1)
    assert measured["slices"] > measured["window_slices"] == 1
    assert measured["digest"] == run_window(workload, 6, slices=1)["digest"]


def test_window_extends_to_its_ops(monkeypatch):
    workload = WORKLOADS["rpc-small"]
    short = run_window(workload, 2, slices=1)
    monkeypatch.setattr(workload, "window_slices", 1)
    monkeypatch.setattr(workload, "window_ops", short["tail"]["samples"] + 1)
    extended = run_window(workload, 2)
    assert extended["slices"] > 1
    assert extended["tail"]["samples"] >= workload.window_ops


@pytest.mark.parametrize("name", NAMES)
def test_traced_digest_equals_untraced(name):
    result = traced(WORKLOADS[name], 5, slices=SHORT[name])
    assert result["plain"]["digest"] == result["traced"]["digest"]
    metrics = result["metrics"]
    for layer in LAYERS + (BENCH,):
        assert metrics[layer + ".self_s"] >= 0
        assert metrics[layer + ".calls"] >= 0
    assert metrics["sim.calls"] > 0 and metrics["flextoe.calls"] > 0
    assert metrics["trace.overhead"] > 0


def test_untraced_run_leaves_entry_points_untouched():
    before = entry_point_objects()
    run_window(WORKLOADS["rpc-small"], 1, slices=1)
    after = entry_point_objects()
    assert all(after[key] is original for key, original in before.items())


def test_uninstall_restores_entry_points():
    before = entry_point_objects()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = entry_point_objects()
        assert all(wrapped[key] is not original for key, original in before.items())
    finally:
        tracer.uninstall()
    after = entry_point_objects()
    assert all(after[key] is original for key, original in before.items())


def test_resumes_forwards_values_exceptions_and_return():
    log = []

    def inner():
        got = yield "a"
        log.append(got)
        try:
            yield "b"
        except KeyError as exc:
            log.append(exc.args[0])
        return "done"

    tracer = Tracer()
    tracer.active = True
    outer = tracer.resumes(inner(), "sim", "inner")
    assert next(outer) == "a"
    assert outer.send(1) == "b"
    with pytest.raises(StopIteration) as stop:
        outer.throw(KeyError("k"))
    assert stop.value.value == "done"
    assert log == [1, "k"]
    assert tracer.calls["sim"] == 3
    assert [span[1] for span in tracer.spans] == ["sim"] * 3
