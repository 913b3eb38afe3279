"""Simulated-time CPU profiler.

Subscribes to the dispatcher's ``cpu.slice`` records -- the single
choke point every charged microsecond already flows through -- and
attributes each slice to a ``(container, subsystem, phase)`` triple:

* **container** -- the charged principal's name, or ``<unaccounted>``
  for system work no container pays for (the unmodified kernel's
  softirq time, hardware-interrupt overhead);
* **subsystem** -- ``intr.hard`` / ``intr.soft`` for interrupt-context
  slices, ``net`` for kernel network threads, ``app`` for ordinary
  threads;
* **phase** -- the finest deterministic label the dispatcher can give:
  the in-flight syscall's name for a thread (``Read``, ``Compute``,
  ``Write``...), the head packet's kind for a network thread
  (``proto.data``...), the job note for interrupt work.

Because every sample is a charge the containers' ledgers also booked,
the profiler's per-container totals reconcile exactly with
``ResourceUsage.cpu_us`` deltas -- the property the observability tests
assert, and the bridge between "telemetry" and "billing".

All timestamps are simulated microseconds; the profiler never reads a
host clock, so its output is a pure function of (tree, params, seed).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.obs.registry import UNACCOUNTED
from repro.sim.tracing import TraceBus, TraceRecord


class ProfileSlice(NamedTuple):
    """One attributed CPU slice (sim-time microseconds); a cheap tuple."""

    start_us: float
    duration_us: float
    container: str
    subsystem: str
    phase: str
    kind: str
    entity: str
    #: Core the slice ran on (0 on uniprocessor hosts; disk "slices"
    #: occupy a device, not a core, and keep the 0 placeholder).
    core: int = 0

    def to_dict(self) -> dict:
        return {"type": "slice", **self._asdict()}


class SimProfiler:
    """Folds ``cpu.slice`` records into slices and (c, s, p) totals."""

    def __init__(self, bus: TraceBus, keep_slices: bool = True) -> None:
        #: Per-(container, subsystem, phase) charged microseconds.
        self.totals: dict[tuple, float] = {}
        #: Every slice in publish order (Chrome-trace export); None when
        #: the profiler is aggregate-only.
        self.slices: Optional[list[ProfileSlice]] = [] if keep_slices else None
        self.total_us = 0.0
        #: Disk service time per (container, "disk", "service") triple.
        #: Kept out of ``totals``/``total_us`` deliberately: those are
        #: *CPU* attributions and reconcile exactly against
        #: ``ResourceUsage.cpu_us`` / ``SystemAccounting.total_cpu_us``;
        #: disk time overlaps CPU time and reconciles against
        #: ``ResourceUsage.disk_us`` instead.
        self.disk_totals: dict[tuple, float] = {}
        self.disk_us = 0.0
        bus.subscribe("cpu.slice", self._on_slice)
        bus.subscribe("disk.request", self._on_disk_request)

    def _on_slice(self, record: TraceRecord) -> None:
        data = record.data
        amount = data["amount_us"]
        charge = data["charge"]
        container = charge if charge is not None else UNACCOUNTED
        kind = data["kind"]
        if kind == "entity":
            subsystem = "net" if data.get("network") else "app"
        else:
            subsystem = "intr." + kind
        phase = data.get("phase") or kind
        key = (container, subsystem, phase)
        self.totals[key] = self.totals.get(key, 0.0) + amount
        self.total_us += amount
        if self.slices is not None:
            # cpu.slice is published when the slice *ends* (finish or
            # preempt), so the span starts ``amount`` earlier.
            self.slices.append(
                ProfileSlice(
                    start_us=record.time - amount,
                    duration_us=amount,
                    container=container,
                    subsystem=subsystem,
                    phase=phase,
                    kind=kind,
                    entity=data.get("entity") or "",
                    core=data.get("core", 0),
                )
            )

    def _on_disk_request(self, record: TraceRecord) -> None:
        data = record.data
        if data["event"] != "complete":
            return
        amount = data["service_us"]
        container = data.get("container") or UNACCOUNTED
        key = (container, "disk", "service")
        self.disk_totals[key] = self.disk_totals.get(key, 0.0) + amount
        self.disk_us += amount
        if self.slices is not None:
            # Completion is published when service ends; the device was
            # occupied by this request for the ``service_us`` before it.
            self.slices.append(
                ProfileSlice(
                    start_us=record.time - amount,
                    duration_us=amount,
                    container=container,
                    subsystem="disk",
                    phase="service",
                    kind="disk",
                    entity=data.get("device") or "disk",
                )
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def container_totals(self) -> dict:
        """container -> charged microseconds (all subsystems/phases)."""
        out: dict[str, float] = {}
        for (container, _subsystem, _phase), amount in sorted(
            self.totals.items()
        ):
            out[container] = out.get(container, 0.0) + amount
        return out

    def charged_us(self, container: str) -> float:
        """Microseconds attributed to one container name."""
        return sum(
            amount
            for (name, _s, _p), amount in self.totals.items()
            if name == container
        )

    def render(self, limit: int = 20) -> str:
        """Top (container, subsystem, phase) triples by charged time."""
        rows = sorted(self.totals.items(), key=lambda kv: (-kv[1], kv[0]))
        lines = [
            f"{'container':28s}{'subsystem':12s}{'phase':18s}{'ms':>10s}"
            f"{'share':>8s}"
        ]
        for (container, subsystem, phase), amount in rows[:limit]:
            share = amount / self.total_us if self.total_us else 0.0
            lines.append(
                f"{container:28s}{subsystem:12s}{phase:18s}"
                f"{amount / 1e3:>10.2f}{share:>8.1%}"
            )
        if len(rows) > limit:
            lines.append(f"... ({len(rows) - limit} more)")
        return "\n".join(lines)
