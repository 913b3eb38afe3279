"""Layer tracing for the benchmark's traced run.

:class:`LayerTracer` wraps, from outside the program, two kinds of
call in spans:

* every callback scheduled through ``Simulation.at``/``after`` gets a
  span named for the callback and attributed to the callback's
  package (``repro.kernel.cpu`` -> ``kernel``);
* each public layer entry point below gets a child span and bumps the
  layer's work counter.

A span records its name, layer, start, end, parent span index and the
request id when an argument carries an ``HttpRequest``.  Spans stay in
memory until :meth:`LayerTracer.dump`.  Self time is accumulated
online: a span's duration minus the durations of its direct children.
For each work counter the tracer also sums the whole duration of the
outermost counted calls, so ``entry_s["picks"] / counts["picks"]`` is
the host time one ``pick_for_cpu`` call takes, children included.

The wrappers are installed on the classes for the duration of a
``with LayerTracer():`` block and the original attributes are put back
on exit, even when the block raises.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from time import perf_counter
from typing import Callable

from repro.apps.webclient import HttpRequest
from repro.core.operations import ContainerManager
from repro.core.container import ResourceContainer
from repro.kernel.accounting import ResourceUsage
from repro.kernel.cpu import CPU
from repro.kernel.kernel import Kernel
from repro.kernel.process import Thread
from repro.kernel.syscalls import SyscallExecutor
from repro.net.packet import Packet
from repro.net.procmodel import KernelNetThread
from repro.net.tcp import TcpStack
from repro.obs.registry import MetricsRegistry
from repro.sched.container_sched import ContainerScheduler
from repro.sim.engine import Simulation
from repro.sim.tracing import TraceBus

#: Package under ``repro`` -> reported layer.  ``syscall/`` is measured
#: together with ``kernel/``; packages not listed here (io, fs, mem,
#: cluster, metrics) keep their own name and are not reported.
LAYER_OF_PACKAGE = {
    "sim": "sim",
    "sched": "sched",
    "kernel": "kernel",
    "syscall": "kernel",
    "net": "net",
    "core": "core",
    "apps": "apps",
    "obs": "obs",
}

#: Layers the benchmark reports, in report order.
LAYERS = ("sim", "sched", "kernel", "net", "core", "apps", "obs")

#: (owner, attribute, layer, counter) for every wrapped entry point.
#: ``counter`` names the work count bumped per call (None: time only).
ENTRY_POINTS = (
    (ContainerScheduler, "pick_for_cpu", "sched", "picks"),
    (ContainerScheduler, "on_slice_end", "sched", None),
    (ContainerScheduler, "on_wakeup", "sched", None),
    (ContainerScheduler, "window_roll", "sched", None),
    (SyscallExecutor, "execute", "kernel", "syscalls"),
    (CPU, "flush_charges", "kernel", None),
    (Kernel, "net_input", "net", "packets"),
    (Kernel, "net_input_batch", "net", "packets"),
    (TcpStack, "protocol_input", "net", None),
    (TcpStack, "demux_packet", "net", None),
    (ContainerManager, "create", "core", "containers"),
    (ResourceContainer, "charge_cpu", "core", None),
    (ResourceUsage, "charge_cpu", "core", "charges"),
    (ResourceUsage, "charge_disk", "core", "charges"),
    (ResourceUsage, "charge_net_tx", "core", "charges"),
    (ResourceUsage, "charge_memory", "core", "charges"),
    (TraceBus, "publish", "obs", "records"),
    (MetricsRegistry, "counter", "obs", "registry_lookups"),
    (MetricsRegistry, "gauge", "obs", "registry_lookups"),
    (MetricsRegistry, "histogram", "obs", "registry_lookups"),
)

#: Schedulable classes whose ``runnable`` reads count as pick probes.
PROBED = (Thread, KernelNetThread)

_MISSING = object()


def layer_of_module(module: str | None) -> str:
    """The layer a module belongs to (``bench`` outside the package)."""
    if not module:
        return "other"
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "bench"
    return LAYER_OF_PACKAGE.get(parts[1], parts[1])


def request_id_of(args: tuple):
    """The request id an argument carries, if any."""
    for arg in args:
        kind = type(arg)
        if kind is HttpRequest:
            return arg.request_id
        if kind is Packet and type(arg.payload) is HttpRequest:
            return arg.payload.request_id
    return None


class _TimedBody:
    """Thread body proxy: each ``send``/``throw`` is an application span.

    The kernel drives thread bodies only through ``send`` and ``throw``.
    """

    __slots__ = ("_gen", "_tracer", "_name", "_layer")

    def __init__(self, gen, tracer: "LayerTracer", name: str) -> None:
        self._gen = gen
        self._tracer = tracer
        self._name = name
        frame = getattr(gen, "gi_frame", None)
        module = frame.f_globals.get("__name__") if frame is not None else None
        self._layer = layer_of_module(module)

    def send(self, value):
        tracer = self._tracer
        if not tracer.recording:
            return self._gen.send(value)
        tracer.enter(self._name, self._layer, None)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, error):
        tracer = self._tracer
        if not tracer.recording:
            return self._gen.throw(error)
        tracer.enter(self._name, self._layer, None)
        try:
            return self._gen.throw(error)
        finally:
            tracer.exit()


class LayerTracer:
    """Span recorder plus the class patches that feed it."""

    def __init__(self) -> None:
        self.recording = False
        self._saved: list[tuple[type, str, object]] = []
        self._names: dict[object, tuple[str, str]] = {}
        self._pick_depth = 0
        self.reset()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop every span and counter recorded so far."""
        #: (name, layer, start_s, end_s, parent_index, request_id)
        self.spans: list = []
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self.counts: dict[str, int] = defaultdict(int)
        #: counter -> summed duration of its outermost counted calls
        self.entry_s: dict[str, float] = defaultdict(float)
        self._open_counters: set[str] = set()

    def begin(self) -> None:
        """Start recording (the measured phase)."""
        self.reset()
        self.recording = True

    def end(self) -> None:
        """Stop recording."""
        self.recording = False

    def enter(self, name: str, layer: str, request_id,
              counter: str | None = None) -> None:
        # A call nested in a call of the same counter is timed by the
        # outer one.
        if counter is not None:
            if counter in self._open_counters:
                counter = None
            else:
                self._open_counters.add(counter)
        spans = self.spans
        self._stack.append([len(spans), name, layer, request_id, 0.0,
                            counter, perf_counter()])
        spans.append(None)

    def exit(self) -> None:
        end = perf_counter()
        (index, name, layer, request_id, child_s, counter,
         start) = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        if counter is not None:
            self._open_counters.discard(counter)
            self.entry_s[counter] += duration
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[4] += duration
            parent_index = parent[0]
        else:
            self.top_s += duration
            parent_index = -1
        self.spans[index] = (name, layer, start, end, parent_index, request_id)

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            self._patch(Simulation, "at", self._wrap_schedule(Simulation.at))
            self._patch(Simulation, "after",
                        self._wrap_schedule(Simulation.after))
            for owner, attr, layer, counter in ENTRY_POINTS:
                original = getattr(owner, attr)
                self._patch(owner, attr,
                            self._wrap_entry(original, layer, counter, attr))
            for owner in PROBED:
                self._patch(owner, "runnable",
                            self._wrap_probe(owner.__dict__["runnable"]))
            self._patch(Kernel, "spawn_thread",
                        self._wrap_spawn(Kernel.spawn_thread))
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False
        self.remove()

    def remove(self) -> None:
        """Put every patched class attribute back as it was."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _patch(self, owner: type, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------

    def _callback_name(self, callback) -> tuple[str, str]:
        key = getattr(callback, "__func__", callback)
        named = self._names.get(key)
        if named is None:
            module = getattr(callback, "__module__", None)
            qualname = getattr(callback, "__qualname__", type(callback).__name__)
            named = (f"{module}.{qualname}", layer_of_module(module))
            self._names[key] = named
        return named

    def _wrap_schedule(self, schedule: Callable) -> Callable:
        tracer = self

        def wrapper(sim, when, callback, *args):
            name, layer = tracer._callback_name(callback)

            def spanned(*cb_args):
                if not tracer.recording:
                    return callback(*cb_args)
                tracer.enter(name, layer, request_id_of(cb_args))
                try:
                    return callback(*cb_args)
                finally:
                    tracer.exit()

            if not tracer.recording:
                return schedule(sim, when, spanned, *args)
            tracer.enter(schedule.__name__, "sim", None)
            try:
                return schedule(sim, when, spanned, *args)
            finally:
                tracer.exit()

        wrapper.__wrapped__ = schedule
        return wrapper

    def _wrap_entry(self, fn: Callable, layer: str, counter, attr: str):
        tracer = self
        name = f"{fn.__module__}.{fn.__qualname__}"
        is_pick = attr == "pick_for_cpu"
        is_batch = attr == "net_input_batch"
        is_publish = attr == "publish"

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            counted = None
            if counter is not None:
                if is_batch:
                    tracer.counts[counter] += len(args[1])
                    counted = counter
                elif not is_publish or args[0].active:
                    tracer.counts[counter] += 1
                    counted = counter
            tracer.enter(name, layer, request_id_of(args), counted)
            if is_pick:
                tracer._pick_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if is_pick:
                    tracer._pick_depth -= 1
                tracer.exit()

        wrapper.__wrapped__ = fn
        wrapper.__module__ = fn.__module__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _wrap_probe(self, prop: property) -> property:
        tracer = self
        fget = prop.fget

        def runnable(entity):
            if tracer._pick_depth and tracer.recording:
                tracer.counts["probes"] += 1
            return fget(entity)

        return property(runnable)

    def _wrap_spawn(self, spawn: Callable) -> Callable:
        tracer = self

        def wrapper(kernel, process, body, name, *args, **kwargs):
            return spawn(kernel, process, _TimedBody(body, tracer, name), name,
                         *args, **kwargs)

        wrapper.__wrapped__ = spawn
        return wrapper

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines.

        Columns: index, parent index, layer, name, start and end in
        microseconds from the first span, request id.
        """
        spans = self.spans
        origin = spans[0][2] if spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tparent\tlayer\tname\tstart_us\tend_us\treq\n")
            for index, (name, layer, start, end, parent, req) in enumerate(
                spans
            ):
                out.write(
                    f"{index}\t{parent}\t{layer}\t{name}\t"
                    f"{(start - origin) * 1e6:.3f}\t{(end - origin) * 1e6:.3f}\t"
                    f"{'' if req is None else req}\n"
                )

    def closed(self) -> bool:
        """True when no span is still open (every enter had its exit)."""
        return not self._stack
