"""The layer map covers the simulator; span arithmetic is exact."""

import importlib
import os

import pytest

import layers
from layers import (FUNCTION_LAYERS, LAYERS, MODULE_LAYERS,
                    PRIVATE_ENTRY_POINTS, RUN_PHASE, Tracer)

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def _source_modules():
    modules = set()
    for directory, _, files in os.walk(os.path.join(SRC, "repro")):
        package = os.path.relpath(directory, SRC).replace(os.sep, ".")
        for name in files:
            if name == "__init__.py":
                modules.add(package)
            elif name.endswith(".py"):
                modules.add(f"{package}.{name[:-3]}")
    return modules


def test_every_module_maps_to_exactly_one_layer():
    modules = _source_modules()
    assert sorted(modules - set(MODULE_LAYERS)) == [], "unmapped modules"
    assert sorted(set(MODULE_LAYERS) - modules) == [], "stale entries"
    assert set(MODULE_LAYERS.values()) <= set(LAYERS)


def test_function_overrides_and_entry_points_exist():
    for qualname, layer in FUNCTION_LAYERS.items():
        module, cls, name = qualname.rsplit(".", 2)
        assert hasattr(getattr(importlib.import_module(module), cls), name)
        assert layer in LAYERS
    for qualname in RUN_PHASE:
        module, cls, name = qualname.rsplit(".", 2)
        assert hasattr(getattr(importlib.import_module(module), cls), name)
    defined = set()
    for module in MODULE_LAYERS:
        for value in vars(importlib.import_module(module)).values():
            defined.update(vars(value) if isinstance(value, type) else ())
    assert sorted(PRIVATE_ENTRY_POINTS - defined) == []


class FakeClock:
    """Advances one tick per call unless told otherwise."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, ticks):
        self.now += ticks


@pytest.fixture
def traced():
    clock = FakeClock()
    return Tracer(clock=clock), clock


def test_self_time_is_duration_minus_children(traced):
    tracer, clock = traced

    def leaf():
        clock.advance(3)

    leaf_cu = tracer.wrap(leaf, "cu")

    def outer():
        clock.advance(1)
        leaf_cu()
        clock.advance(2)
        leaf_cu()

    tracer.wrap(outer, "engine")()
    index = tracer.layer_index
    assert tracer.self_time[index["engine"]] == 3
    assert tracer.self_time[index["cu"]] == 6
    assert tracer.root_time == 9
    assert tracer.calls[index["cu"]] == 2
    assert tracer.calls_of("leaf") == 2


def test_nested_same_layer_spans_count_once(traced):
    tracer, clock = traced

    def inner():
        clock.advance(4)

    inner_engine = tracer.wrap(inner, "engine")

    def outer():
        clock.advance(1)
        inner_engine()

    tracer.wrap(outer, "engine")()
    assert tracer.self_time[tracer.layer_index["engine"]] == 5
    assert tracer.root_time == 5
    # Spans are kept as they close: the inner one first, parented to 0.
    assert [(span, parent) for span, parent, *_ in tracer.spans] == [
        (1, 0), (0, -1)]


def test_generator_steps_are_spans_and_consumer_time_is_not(traced):
    tracer, clock = traced

    def source():
        for item in range(3):
            clock.advance(2)
            yield item

    consumed = []
    for item in tracer.wrap(source, "workloads")():
        clock.advance(10)
        consumed.append(item)
    assert consumed == [0, 1, 2]
    assert tracer.self_time[tracer.layer_index["workloads"]] == 6
    # One span creating the generator, one per step, one for the end.
    assert tracer.calls_of("source") == 5


def test_exceptions_close_their_span(traced):
    tracer, clock = traced

    def fails():
        clock.advance(2)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fails, "cp")()
    assert tracer.self_time[tracer.layer_index["cp"]] == 2
    assert tracer.root_time == 2


def test_rollback_forgets_spans_after_mark(traced):
    tracer, clock = traced
    step = tracer.wrap(lambda: clock.advance(1), "job")
    step()
    state = tracer.mark()
    step()
    tracer.rollback(state)
    assert tracer.self_time[tracer.layer_index["job"]] == 1
    assert tracer.calls[tracer.layer_index["job"]] == 1
    assert len(tracer.spans) == 1


def test_install_and_uninstall_restore_the_classes():
    from repro.sim.device import GPUSystem
    from repro.sim.dispatcher import WGDispatcher
    from repro.workloads import registry
    original_pump = WGDispatcher.__dict__["_pump"]
    original_build = registry.build_workload
    original_run = GPUSystem.__dict__["run"]
    tracer = Tracer()
    tracer.install()
    try:
        assert WGDispatcher.__dict__["_pump"] is not original_pump
        assert registry.build_workload is not original_build
        # The run phase's own entry point stays unwrapped.
        assert GPUSystem.__dict__["run"] is original_run
        assert layers.is_entry_point("_on_timer")
        assert not layers.is_entry_point("_reschedule")
    finally:
        tracer.uninstall()
    assert WGDispatcher.__dict__["_pump"] is original_pump
    assert registry.build_workload is original_build
