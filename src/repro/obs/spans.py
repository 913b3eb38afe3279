"""Causally-linked request spans stitched from trace-bus records.

The paper's thesis is that resource consumption becomes *attributable*
once containers are the principal; a span tree makes that attribution
navigable per request.  One HTTP request produces:

``request`` (root)
  └─ ``net.protocol``   demux/enqueue → protocol processing done
  └─ ``app``            server read the request → response written
  └─ ``net.response``   response transmitted → client received it

The root span opens when the request's DATA packet hits the NIC
(``net.arrival``) and closes when the client confirms the response
(``client.complete``).  Packets that carry no request id (SYN,
handshake ACK, FIN) get standalone ``net.packet`` spans: connection
setup is kernel work worth seeing, but the request does not exist yet,
so there is nothing causal to hang it from.

Correlation keys are ids that already flow through the kernel layers:
``Packet.seq`` (assigned at the NIC) links arrival → demux → enqueue →
protocol completion, and ``HttpRequest.request_id`` links the packet
chain to application handling and the response.  Span ids themselves
come from a per-tracer counter, so two runs of the same seeded workload
number their spans identically.

The tracer is an observer: it subscribes to the bus, mutates nothing,
and schedules nothing, so tracing a run cannot change its results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.tracing import TraceBus, TraceRecord

#: Categories the tracer consumes (subscribe list).
SPAN_CATEGORIES = (
    "net.arrival",
    "net.enqueue",
    "net.proto",
    "app.request",
    "net.tx",
    "client.complete",
    "disk.request",
)


@dataclass(slots=True)
class Span:
    """One timed phase of a request's lifecycle.

    Slotted to shave per-span memory; spans are *not* pooled -- the
    tracer retains every span in :attr:`RequestTracer.spans` for the
    lifetime of the run, so there is never a free span to recycle.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_us: float
    end_us: Optional[float] = None
    #: Container charged for this phase (where known at stitch time).
    container: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        """True while the closing record has not arrived."""
        return self.end_us is None

    def duration_us(self) -> float:
        """Span length (0 for still-open or instant spans)."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        """JSON-safe record (sim-time stamps only)."""
        out = {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "container": self.container,
        }
        if self.attrs:
            out["attrs"] = dict(sorted(self.attrs.items()))
        return out


class RequestTracer:
    """Folds span-relevant trace records into a span forest."""

    def __init__(self, bus: TraceBus) -> None:
        self._ids = itertools.count(1)
        #: Every span ever opened, in id order.
        self.spans: list[Span] = []
        #: request_id -> root span.
        self._roots: dict[int, Span] = {}
        #: packet seq -> open protocol span.
        self._proto: dict[int, Span] = {}
        #: request_id -> open app span.
        self._app: dict[int, Span] = {}
        #: request_id -> open response span.
        self._response: dict[int, Span] = {}
        #: disk request rid -> open disk span.
        self._disk: dict[int, Span] = {}
        # Bound once here: ``"net.arrival"`` goes to ``_on_net_arrival``.
        for category in SPAN_CATEGORIES:
            bus.subscribe(
                category, getattr(self, "_on_" + category.replace(".", "_"))
            )

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _open(
        self,
        name: str,
        start_us: float,
        parent: Optional[Span] = None,
        container: Optional[str] = None,
        **attrs,
    ) -> Span:
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_us=start_us,
            container=container,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Record handlers (one per SPAN_CATEGORIES entry)
    # ------------------------------------------------------------------

    def _on_net_arrival(self, record: TraceRecord) -> None:
        data = record.data
        request_id = data.get("req")
        if request_id is None:
            # Connection-machinery packet: standalone span, closed by
            # protocol completion (seq-keyed).
            span = self._open(
                "net.packet", record.time, seq=data["seq"], kind=data["kind"]
            )
            self._proto[data["seq"]] = span
            return
        root = self._roots.get(request_id)
        if root is None:
            root = self._open(
                "request", record.time, req=request_id,
                client=data.get("client"),
            )
            self._roots[request_id] = root
        proto = self._open(
            "net.protocol", record.time, parent=root,
            seq=data["seq"], kind=data["kind"],
        )
        self._proto[data["seq"]] = proto

    def _on_net_enqueue(self, record: TraceRecord) -> None:
        data = record.data
        span = self._proto.get(data["seq"])
        if span is None:
            return
        span.container = data.get("container")
        if data.get("dropped"):
            span.attrs["dropped"] = True
            span.end_us = record.time
            del self._proto[data["seq"]]

    def _on_net_proto(self, record: TraceRecord) -> None:
        data = record.data
        span = self._proto.pop(data["seq"], None)
        if span is None:
            return
        span.end_us = record.time

    def _on_app_request(self, record: TraceRecord) -> None:
        data = record.data
        request_id = data.get("req")
        if request_id is None:
            return
        if data["event"] == "start":
            root = self._roots.get(request_id)
            span = self._open(
                "app", record.time, parent=root,
                container=data.get("container"), server=data.get("server"),
            )
            self._app[request_id] = span
        else:  # "end"
            span = self._app.pop(request_id, None)
            if span is not None:
                span.end_us = record.time

    def _on_net_tx(self, record: TraceRecord) -> None:
        data = record.data
        request_id = data.get("req")
        if request_id is None or request_id in self._response:
            return
        root = self._roots.get(request_id)
        self._response[request_id] = self._open(
            "net.response", record.time, parent=root,
            container=data.get("container"), bytes=data.get("bytes"),
        )

    def _on_disk_request(self, record: TraceRecord) -> None:
        # Standalone spans, like net.packet: the disk request outlives
        # (and overlaps) the CPU-side phases, and the reading thread may
        # serve no HTTP request at all, so there is nothing causal to
        # hang it from.  submit -> complete covers queueing + service.
        data = record.data
        if data["event"] == "submit":
            self._disk[data["rid"]] = self._open(
                "disk", record.time, container=data.get("container"),
                rid=data["rid"], path=data["path"], bytes=data["bytes"],
            )
        elif data["event"] == "complete":
            span = self._disk.pop(data["rid"], None)
            if span is not None:
                span.end_us = record.time
                span.attrs["service_us"] = data["service_us"]
                span.attrs["wait_us"] = data["wait_us"]

    def _on_client_complete(self, record: TraceRecord) -> None:
        data = record.data
        request_id = data.get("req")
        if request_id is None:
            return
        response = self._response.pop(request_id, None)
        if response is not None:
            response.end_us = record.time
        root = self._roots.pop(request_id, None)
        if root is not None:
            root.end_us = record.time
            root.attrs["latency_us"] = data.get("latency_us")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def completed_requests(self) -> list[Span]:
        """Closed root spans, in span-id order."""
        return [
            s for s in self.spans if s.name == "request" and not s.open
        ]

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in span-id order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def request_cost_us(self, root: Span) -> float:
        """Sum of the root's child phase durations (simulated wall time,
        an upper bound on the request's charged CPU)."""
        return sum(child.duration_us() for child in self.children_of(root))
