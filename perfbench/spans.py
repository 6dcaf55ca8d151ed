"""Span recording for the traced run, from outside the program.

Nothing under ``src/`` knows about this module.  :func:`instrument`
replaces the public entry points of each layer with wrappers that open
a span on entry and close it on exit; event callbacks are wrapped where
they are scheduled (``Simulator.schedule_at``) and keep their event
names, so the fluid tier's queue signature, which reads only
``(time, name)`` pairs, is unchanged.

Spans live in flat arrays in memory (name id, start, end, parent index)
and are written out once at the end.  Every ``*.self_s`` figure is
derived from those arrays by :func:`self_times`: a span's self time is
its duration minus the durations of its direct children.

A call into the layer that is already innermost (``CounterSet.add``
calling ``Counter.add``, say) opens no second span: the self time is
the same either way, and the call still counts.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

#: event-name prefix -> layer, first match wins
EVENT_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("mac", "core.mac"),
    ("port_ingress", "core.switch"),
    ("cluster", "core.switch"),
    ("dist_", "core.switch"),
    ("lb_slot_poll", "core.lb"),
    ("rpu", "core.rpu"),
    ("src_port", "traffic"),
    ("feed.", "traffic"),
    ("xboard", "cluster"),
)
OTHER_EVENTS = "core.other"
#: event-callback spans are named ``<layer>@event``, so fired events
#: count apart from the layer's other entry points
EVENT_SUFFIX = "@event"


def event_layer(name: str) -> str:
    """The layer an event callback belongs to, by its event name."""
    if name.endswith("_fixed"):
        # SerialLink events carry their link's name; every link is *_fixed
        return "sim.resources"
    for prefix, layer in EVENT_LAYERS:
        if name.startswith(prefix):
            return layer
    return OTHER_EVENTS


class SpanRecorder:
    """Spans of one traced run, kept in flat arrays until the end."""

    def __init__(self, run_id: int = 0, clock: Callable[[], int] = time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.calls = array("q")
        self._stack = [-1]
        self._stack_name = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        nid = self.intern(name)
        calls, stack, stack_name = self.calls, self._stack, self._stack_name
        name_id, start, end, parent, clock = (
            self.name_id, self.start, self.end, self.parent, self.clock
        )

        def traced(*args, **kwargs):
            calls[nid] += 1
            if stack_name[-1] == nid:
                return fn(*args, **kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            stack_name.append(nid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                stack_name.pop()

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``name``, with no span."""
        nid = self.intern(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def add_span(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record a finished span directly (synthetic trees in tests)."""
        nid = self.intern(name)
        self.calls[nid] += 1
        self.name_id.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span, the name table and the run id."""
        np.savez(
            path,
            run_id=np.int64(self.run_id),
            names=np.array(self.names),
            calls=np.frombuffer(self.calls, dtype=np.int64),
            **self.arrays(),
        )


def self_times(names, name_id, start, end, parent) -> Dict[str, float]:
    """Seconds of self time per layer (durations in nanoseconds).

    A span's self time is its duration minus the summed durations of
    the spans whose parent it is.  Children of one span never overlap,
    because every wrapped call returns before its caller does.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(duration)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=n
    )[:n]
    own = duration - covered
    per_name = np.bincount(name_id, weights=own, minlength=len(names))
    out: Dict[str, float] = {}
    for i, name in enumerate(names):
        layer = name.split(EVENT_SUFFIX)[0]
        out[layer] = out.get(layer, 0.0) + float(per_name[i]) / 1e9
    return out


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind a module-level function in every ``repro`` module that
    imported it by name, so callers reach the wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points in ``recorder`` spans.

    Call once per process, before the spec is built: wrappers are
    installed on the classes, so every instance built afterwards is
    traced.
    """
    import repro.cluster.engine as cluster_engine
    import repro.core.descriptors as descriptors
    import repro.core.funccluster as funccluster
    import repro.core.system as core_system
    import repro.fluid.engine as fluid_engine
    import repro.packet.builder as builder
    import repro.riscv.cpu as cpu
    import repro.serve.session as session
    import repro.sim.kernel as kernel
    import repro.sim.resources as resources
    import repro.sim.stats as stats
    import repro.verify as verify
    import repro.verify.fluidgate as fluidgate
    from repro.accel.pigasus.string_match import PigasusStringMatcher
    from repro.analysis.spec import ExperimentSpec
    from repro.firmware import ForwarderFirmware, PigasusSwReorderFirmware

    methods = (
        (kernel.Simulator, ("step", "run"), "sim.kernel"),
        (stats.CounterSet, ("add", "value", "__getitem__"), "sim.stats"),
        (stats.Counter, ("add",), "sim.stats"),
        (resources.BoundedFifo, ("push", "pop"), "sim.resources"),
        (resources.SerialLink, ("offer",), "sim.resources"),
        (session.SimSession, ("run_to_completion", "step"), "serve.session"),
        (core_system.RosebudSystem, ("offer_packet",), "core.mac"),
        (funccluster.FunctionalCluster, ("run_until_all_sent",), "core.funccluster"),
        (ForwarderFirmware, ("process",), "firmware"),
        (PigasusSwReorderFirmware, ("process",), "firmware"),
        (PigasusStringMatcher, ("scan",), "accel.pigasus"),
        (fluid_engine.FluidEngine, ("pre_step", "after_event"), "fluid"),
        (cluster_engine.ClusterEngine, ("run_to_completion",), "cluster"),
        (cpu.RiscvCpu, ("run",), "riscv"),
        (ExperimentSpec, ("build_system", "build_sources"), "analysis.build"),
    )
    for cls, attrs, layer in methods:
        for attr in attrs:
            setattr(cls, attr, recorder.wrap(layer, getattr(cls, attr)))
    for attr in ("occupancy", "release"):
        table = descriptors.SlotTable
        setattr(table, attr, recorder.count("core.funccluster.slot_ops", getattr(table, attr)))

    for fn, layer in (
        (builder.build_tcp, "packet"),
        (builder.build_udp, "packet"),
        (verify.preflight_spec, "verify"),
        (fluidgate.fluid_gate, "verify"),
    ):
        _replace_everywhere(fn, recorder.wrap(layer, fn))

    schedule_at = kernel.Simulator.schedule_at
    wrap, layers = recorder.wrap, {}

    def traced_schedule_at(self, time, callback, name=""):
        span = layers.get(name)
        if span is None:
            span = layers[name] = event_layer(name) + EVENT_SUFFIX
        return schedule_at(self, time, wrap(span, callback), name)

    kernel.Simulator.schedule_at = traced_schedule_at
