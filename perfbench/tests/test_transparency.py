"""Wrapping the layers changes no simulated result and counts repeat."""

import pytest

import cells
from layers import Tracer
from per_layer import layer_metrics
from repro.sim.engine import Simulator


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(cells, "SUSTAINED_JOBS", 400)
    monkeypatch.setattr(cells, "CLUSTER_JOBS", 400)
    monkeypatch.setattr(cells, "PAPER_JOBS", 6)
    monkeypatch.setattr(cells, "BENCHMARK_ORDER", ("LSTM", "IPV6"))


def _fleet(seed):
    return cells.fleet_backlog(seed, validate=True)


CELLS = {
    "sustained_stream": cells.sustained_stream,
    "fleet_backlog": _fleet,
    "paper_battery": cells.paper_battery,
    "cluster_knee": cells.cluster_knee,
}


def _run(workload):
    outcomes = []
    for cell in CELLS[workload](3):
        prepared = cell.prepare()
        outcome = prepared.summarize(prepared.simulate())
        outcome.cpu_seconds = 1.0
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("workload", sorted(CELLS))
def test_traced_run_matches_untraced_and_counts_repeat(small, workload):
    untraced = _run(workload)
    assert all(not o.identity_errors for o in untraced)
    tracer = Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            traced = _run(workload)
            assert [o.digest for o in traced] == [o.digest for o in untraced]
            counts.append(layer_metrics(tracer, traced, untraced)["counts"])
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["layer_calls"]["engine"] > 0


@pytest.mark.parametrize("workload", sorted(CELLS))
def test_every_scheduled_callback_is_a_wrapped_entry_point(small, workload,
                                                           monkeypatch):
    tracer = Tracer()
    tracer.install()
    wrapped = set(tracer._wrappers.values())
    unwrapped = set()

    def spy(name):
        schedule = getattr(Simulator, name)

        def spying(self, when, callback, *args, **kwargs):
            function = getattr(callback, "__func__", callback)
            if function not in wrapped:
                unwrapped.add(getattr(function, "__qualname__", function))
            return schedule(self, when, callback, *args, **kwargs)
        return spying

    try:
        for name in ("schedule", "schedule_at", "schedule_fusable",
                     "schedule_arrival"):
            monkeypatch.setattr(Simulator, name, spy(name))
        _run(workload)
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    assert unwrapped == set()
