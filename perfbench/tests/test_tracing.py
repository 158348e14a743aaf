import pytest

import tracing
from tracing import Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_direct_children_only():
    # main [0,10] > a [1,4], b [5,9] > c [6,7]; then a second root main [20,22]
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 6.0, 7.0, 2, 0),
        Span("cli.main", 20.0, 22.0, -1, 1),
    ]
    table = self_times(spans)
    assert table["cli.main"] == {"calls": 2, "self_s": pytest.approx(3.0 + 2.0)}
    assert table["a"] == {"calls": 1, "self_s": pytest.approx(3.0)}
    assert table["b"] == {"calls": 1, "self_s": pytest.approx(3.0)}
    assert table["c"] == {"calls": 1, "self_s": pytest.approx(1.0)}
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(10.0 + 2.0)  # root durations


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(command=7, clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert {s.command for s in tracer.spans} == {7}
    table = self_times(tracer.spans)
    # outer spans ticks 0..5, each inner one tick
    assert table["outer"]["self_s"] == pytest.approx(5.0 - 2.0)


def _originals():
    import importlib

    return {
        (module, attr): getattr(importlib.import_module(f"parrondo.{module}"), attr)
        for module, attr, _ in tracing.WRAPPED
    }


def test_installed_restores_module_attributes():
    before = _originals()
    tracer = Tracer()
    with tracer.installed():
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
    assert _originals() == before


def test_installed_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _originals() == before


def test_wrappers_capture_internal_calls_and_counters():
    from parrondo import grover

    tracer = Tracer()
    with tracer.installed():
        stats = grover.waiting_time_stats(2, trials=3, seed=5)
    names = [s.name for s in tracer.spans]
    assert names[0] == "grover.waiting_time_stats"
    assert names.count("kernels.push_letters_until") >= 3
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert tracer.counters["grover.plays"] == 3
    assert 0 < tracer.counters["kernels.letters_used"] <= tracer.counters["kernels.letters_drawn"]
    # mean * trials letters were used to stop the three plays
    assert tracer.counters["kernels.letters_used"] == round(stats.mean * 3)


def test_layer_metrics_names_every_wrapped_function_and_counter():
    metrics = layer_metrics([Span("ring.combined_rate", 0.0, 1.0, -1, 0)], {"ring.chain_states": 21})
    for module, attr, _ in tracing.WRAPPED:
        assert f"{module}.{attr}.calls" in metrics
        assert f"{module}.{attr}.self_s" in metrics
    assert metrics["ring.combined_rate.calls"] == 1
    assert metrics["ring.chain_states"] == 21
    assert metrics["kernels.letters_used"] == 0
