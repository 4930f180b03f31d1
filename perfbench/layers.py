"""Module -> layer map of the simulator, and the tracer that times layers.

Every module under ``src/repro`` belongs to exactly one layer (the
coverage test in ``tests/test_layers.py`` fails on a module missing from
:data:`MODULE_LAYERS`).  A few functions sit in a module of one layer but
do another layer's work; :data:`FUNCTION_LAYERS` moves those.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import sys
import time
from typing import Dict, List, Tuple

#: Layers in report order.
LAYERS = ("workloads", "engine", "cp", "dispatcher", "cu", "laxity",
          "admission", "policy", "collector", "job", "telemetry", "cluster",
          "harness", "validation", "support")

MODULE_LAYERS = {
    "repro": "support",
    "repro._version": "support",
    "repro.config": "support",
    "repro.errors": "support",
    "repro.units": "support",
    "repro.cli": "harness",
    "repro.harness": "harness",
    "repro.harness.artifacts": "harness",
    "repro.harness.cache": "harness",
    "repro.harness.experiment": "harness",
    "repro.harness.formatting": "harness",
    "repro.harness.paper_expected": "harness",
    "repro.harness.replication": "harness",
    "repro.harness.runner": "harness",
    "repro.harness.spec": "harness",
    "repro.harness.summary": "harness",
    "repro.validation": "validation",
    "repro.validation.conformance": "validation",
    "repro.validation.equivalence": "validation",
    "repro.validation.invariants": "validation",
    "repro.validation.oracles": "validation",
    "repro.validation.router": "validation",
    "repro.workloads": "workloads",
    "repro.workloads.arrivals": "workloads",
    "repro.workloads.background": "workloads",
    "repro.workloads.batching": "workloads",
    "repro.workloads.fleet": "workloads",
    "repro.workloads.ipa": "workloads",
    "repro.workloads.kernels": "workloads",
    "repro.workloads.networking": "workloads",
    "repro.workloads.registry": "workloads",
    "repro.workloads.rnn": "workloads",
    "repro.workloads.sequences": "workloads",
    "repro.workloads.serialization": "workloads",
    "repro.workloads.streaming": "workloads",
    "repro.sim": "engine",
    "repro.sim.device": "engine",
    "repro.sim.engine": "engine",
    "repro.sim.modes": "engine",
    "repro.sim.protocol": "engine",
    "repro.sim.time": "engine",
    "repro.sim.command_processor": "cp",
    "repro.sim.host": "cp",
    "repro.sim.queues": "cp",
    "repro.core.inspection": "cp",
    "repro.sim.dispatcher": "dispatcher",
    "repro.sim.compute_unit": "cu",
    "repro.sim.cu_arrays": "cu",
    "repro.sim.energy": "cu",
    "repro.core": "laxity",
    "repro.core.laxity": "laxity",
    "repro.core.rank_soa": "laxity",
    "repro.core.profiling": "laxity",
    "repro.core.job_table": "laxity",
    "repro.core.calibration": "laxity",
    "repro.schedulers.lax": "laxity",
    "repro.core.admission": "admission",
    "repro.schedulers": "policy",
    "repro.schedulers.base": "policy",
    "repro.schedulers.registry": "policy",
    "repro.schedulers.rr": "policy",
    "repro.schedulers.mlfq": "policy",
    "repro.schedulers.prema": "policy",
    "repro.schedulers.srf": "policy",
    "repro.schedulers.static_priority": "policy",
    "repro.schedulers.hybrid": "policy",
    "repro.schedulers.cpu_side": "policy",
    "repro.schedulers.cpu_side.base": "policy",
    "repro.schedulers.cpu_side.bat": "policy",
    "repro.schedulers.cpu_side.bay": "policy",
    "repro.schedulers.cpu_side.lax_host": "policy",
    "repro.schedulers.cpu_side.pro": "policy",
    "repro.metrics": "collector",
    "repro.metrics.collector": "collector",
    "repro.metrics.percentile": "collector",
    "repro.metrics.tracking": "collector",
    "repro.sim.job": "job",
    "repro.sim.kernel": "job",
    "repro.sim.job_pool": "job",
    "repro.sim.trace": "telemetry",
    "repro.telemetry": "telemetry",
    "repro.telemetry.events": "telemetry",
    "repro.telemetry.hub": "telemetry",
    "repro.telemetry.perfetto": "telemetry",
    "repro.telemetry.registry": "collector",
    "repro.telemetry.report": "telemetry",
    "repro.telemetry.selfprof": "telemetry",
    "repro.telemetry.sinks": "telemetry",
    "repro.telemetry.slo": "telemetry",
    "repro.telemetry.windows": "telemetry",
    "repro.cluster": "cluster",
    "repro.cluster.metrics": "cluster",
    "repro.cluster.routers": "cluster",
    "repro.cluster.system": "cluster",
}

#: Functions whose module belongs to one layer but whose work is
#: another's: LAX's admission hook runs Algorithm 1.
FUNCTION_LAYERS = {
    "repro.schedulers.lax.LaxityScheduler.admit": "admission",
}

#: Private methods that are layer entry points: callbacks the engine
#: (or a PeriodicTask) dispatches into a layer, and callables one layer
#: hands to another.  Without them, their time would land in the
#: caller's self time.  Names starting ``_on_`` or ``_do_`` are entry
#: points too.
PRIVATE_ENTRY_POINTS = frozenset({
    "_tick", "_pump", "_activate", "_arrive", "_deliver", "_release_hold",
    "_wg_completed", "_update_priorities", "_update_levels", "_epoch",
    "_control_loop", "_tick_gate", "_any_live_jobs", "_cached_estimate",
    "_outstanding_time", "_lane_stream", "_routing_pass", "_run_device",
})

#: The run-phase entry points the benchmark calls and times from
#: outside.  They stay unwrapped: the time spent in their own code,
#: outside every layer's entry points, is what no layer claims
#: (``trace.unattributed_share``).
RUN_PHASE = frozenset({
    "repro.sim.device.GPUSystem.run",
    "repro.cluster.system.ClusterSystem.run",
})

#: Spans kept for :meth:`Tracer.write_spans`; later spans are only
#: accumulated.
MAX_SPANS = 20_000


def is_entry_point(name: str) -> bool:
    """Whether a function or method of this name is wrapped."""
    if name.startswith("__"):
        return False
    return (not name.startswith("_") or name in PRIVATE_ENTRY_POINTS
            or name.startswith(("_on_", "_do_")))


class Tracer:
    """Times each layer by wrapping its entry points at class level.

    :meth:`install` wraps every entry point (see :func:`is_entry_point`)
    of every class and module-level function under ``repro``; construct
    the systems *after* installing, so bound methods cached at
    construction are the wrapped ones.  Each wrapped call is a span
    (id, parent, layer, start, end).  A layer's self time is the summed
    duration of its spans minus the time their child spans cover, so a
    callback the engine dispatches counts for its own layer, not the
    engine's.  Self times and call counts accumulate as spans close; the
    first :data:`MAX_SPANS` spans are also kept for :meth:`write_spans`.
    The :data:`RUN_PHASE` entry points are left unwrapped.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        #: Layer per wrapped function, indexed like :attr:`function_calls`.
        self.function_layers: List[int] = []
        #: Qualified name per wrapped function.
        self.function_names: List[str] = []
        self.function_calls: List[int] = []
        self.self_time = [0.0] * len(LAYERS)
        #: Kept spans: (id, parent id or -1, layer, start, end).
        self.spans: List[Tuple[int, int, int, float, float]] = []
        # Open spans, innermost last: [child time, span id].
        self._stack: List[list] = []
        # [next span id, summed duration of root spans].
        self._totals = [0, 0.0]
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[object, object] = {}

    @property
    def root_time(self) -> float:
        """Summed duration of root spans (spans with no open parent)."""
        return self._totals[1]

    @property
    def calls(self) -> List[int]:
        """Entry-point calls per layer, indexed like :data:`LAYERS`."""
        calls = [0] * len(LAYERS)
        for layer, count in zip(self.function_layers, self.function_calls):
            calls[layer] += count
        return calls

    def reset(self) -> None:
        """Zero every accumulator (between passes), in place."""
        self.self_time[:] = [0.0] * len(LAYERS)
        self.function_calls[:] = [0] * len(self.function_calls)
        self._totals[:] = [0, 0.0]
        del self.spans[:]
        del self._stack[:]

    def mark(self):
        """State to :meth:`rollback` to, dropping the spans in between."""
        return (list(self.self_time), list(self.function_calls),
                list(self._totals), len(self.spans))

    def rollback(self, state) -> None:
        """Forget every span closed since :meth:`mark` returned ``state``."""
        self_time, function_calls, totals, spans = state
        self.self_time[:] = self_time
        self.function_calls[:] = function_calls
        self._totals[:] = totals
        del self.spans[spans:]

    # -- wrapping ------------------------------------------------------

    def wrap(self, fn, layer_name: str):
        """``fn`` timed as an entry point of ``layer_name`` (memoized)."""
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            layer = self.layer_index[layer_name]
            function = len(self.function_names)
            self.function_layers.append(layer)
            self.function_names.append(
                f"{fn.__module__}.{fn.__qualname__}")
            self.function_calls.append(0)
            if inspect.isgeneratorfunction(fn):
                wrapper = self._generator_wrapper(fn, layer, function)
            else:
                wrapper = functools.wraps(fn)(
                    self._span_wrapper(fn, layer, function))
            self._wrappers[fn] = wrapper
        return wrapper

    def _span_wrapper(self, fn, layer: int, function: int):
        calls = self.function_calls
        self_time = self.self_time
        spans = self.spans
        stack = self._stack
        totals = self._totals
        clock = self.clock

        def traced(*args, **kwargs):
            calls[function] += 1
            span = totals[0]
            totals[0] = span + 1
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[layer] += duration - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent = parent[1]
                else:
                    totals[1] += duration
                    parent = -1
                if span < MAX_SPANS:
                    spans.append((span, parent, layer, start, end))

        return traced

    def _generator_wrapper(self, fn, layer: int, function: int):
        # Each step of the generator is a span; the consumer's work
        # between steps is not.
        start = self._span_wrapper(fn, layer, function)
        step = self._span_wrapper(next, layer, function)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = start(*args, **kwargs)
            while True:
                try:
                    item = step(steps)
                except StopIteration:
                    return
                yield item

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer's entry points; undo with :meth:`uninstall`."""
        modules = [importlib.import_module(name) for name in MODULE_LAYERS]
        replaced: Dict[int, tuple] = {}
        for module in modules:
            layer = MODULE_LAYERS[module.__name__]
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value) and not issubclass(value,
                                                             enum.Enum):
                    self._install_class(value, layer)
                elif inspect.isfunction(value) and is_entry_point(name):
                    replaced[id(value)] = (value, self.wrap(value, layer))
        # Module-level functions are also bound by ``from x import f``
        # in other modules: rebind every reference.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, hit[1])

    def _install_class(self, cls, module_layer: str) -> None:
        for name, value in list(vars(cls).items()):
            qualname = f"{cls.__module__}.{cls.__qualname__}.{name}"
            if not is_entry_point(name) or qualname in RUN_PHASE:
                continue
            layer = FUNCTION_LAYERS.get(qualname, module_layer)
            if isinstance(value, (staticmethod, classmethod)):
                if inspect.isfunction(value.__func__):
                    self._patch(cls, name, type(value)(
                        self.wrap(value.__func__, layer)))
            elif inspect.isfunction(value):
                self._patch(cls, name, self.wrap(value, layer))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading -------------------------------------------------------

    def calls_of(self, suffix: str) -> int:
        """Calls of every wrapped function whose qualname ends ``suffix``."""
        return sum(count for name, count in zip(self.function_names,
                                                self.function_calls)
                   if name.endswith(suffix))

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns the span count."""
        with open(path, "w") as out:
            for span, parent, layer, start, end in self.spans:
                out.write(json.dumps({"id": span, "parent": parent,
                                      "layer": LAYERS[layer],
                                      "start": start, "end": end}) + "\n")
        return len(self.spans)

