"""The registry collector binds metric handles once.

``RegistryCollector`` keeps, per subsystem, a principal -> metric-name
-> metric cache instead of calling ``MetricsRegistry.counter()`` for
every record.  Binding must not change what the registry holds: the
same keys, created in the same order (the window pipeline's aligned
arrays follow registry insertion order), with the same values, and
after ``reset()`` the collector must never count into a dropped metric.
The differential test below checks that against a reference fold that
looks every metric up per record, as the collector used to.
"""

import pytest

from repro import Host, SystemMode
from repro.apps.httpserver import EventDrivenServer, ListenSpec, SynFloodDefense
from repro.apps.synflood import SynFlooder
from repro.apps.webclient import HttpClient
from repro.net.packet import ip_addr
from repro.obs.observe import RegistryCollector
from repro.obs.registry import MetricsRegistry
from repro.sim.tracing import TraceBus, TraceRecord
from tests.sched.test_trace_digest import _fresh_id_counters


def _slice(time, charge, amount, **extra):
    return (time, "cpu.slice", dict(charge=charge, amount_us=amount, **extra))


#: A synthetic stream touching every collector handler and every lazily
#: created metric: ``network_us`` appears late, ``idle_us`` only after a
#: gap (and on the host-qualified lane *before* its busy counter).
STREAM = [
    _slice(10.0, "web", 10.0, kind="entity"),
    _slice(20.0, "web", 10.0, kind="entity", network=True),
    _slice(35.0, None, 5.0, kind="hardintr"),
    _slice(50.0, "batch", 5.0, kind="entity", core=1, host="h1"),
    _slice(60.0, "batch", 10.0, kind="entity", core=1, host="h1"),
    (61.0, "sched.charge", dict(container="web", policy="fixed", amount_us=4.0)),
    (62.0, "sched.dispatch", dict(container="web", switch_us=0.0)),
    (63.0, "sched.dispatch", dict(container=None, switch_us=2.5)),
    (64.0, "sched.preempt", dict(container="batch")),
    (65.0, "sched.steal", dict(core=1, victim=0)),
    (66.0, "sched.charge", dict(container="web", policy="timeshare",
                                amount_us=1.0)),
    (70.0, "net.demux", dict(seq=1, container=None, dropped=True)),
    (71.0, "net.demux", dict(seq=2, container="web", dropped=False)),
    (72.0, "net.enqueue", dict(seq=2, container="web", dropped=False)),
    (73.0, "net.enqueue", dict(seq=3, container="web", dropped=True)),
    (74.0, "net.synq", dict(port=80, depth=3, dropped=False, container="web")),
    (75.0, "net.synq", dict(port=80, depth=4, dropped=True, container="web")),
    (76.0, "net.tx", dict(seq=4, container="web", bytes=1500, req=1)),
    (77.0, "app.request", dict(event="start", container="web", req=1)),
    (78.0, "app.request", dict(event="end", container="web", req=1)),
    (79.0, "client.complete", dict(client="c0", latency_us=450.0, req=1)),
    (80.0, "disk.request", dict(event="submit", container="web", rid=1)),
    (81.0, "disk.request", dict(event="complete", container="web", rid=1,
                                service_us=300.0, bytes=4096, wait_us=20.0)),
    (82.0, "fs.cache", dict(container="web", hit=True)),
    (83.0, "fs.cache", dict(container=None, hit=False)),
    (84.0, "cluster.window", dict(tenant="t1", cpu_us=900.0, share=0.4,
                                  throttled=True)),
    _slice(100.0, "web", 10.0, kind="entity", network=True),
    (101.0, "client.complete", dict(client="c0", latency_us=150.0, req=2)),
]


class ReferenceFold:
    """The collector's fold with a registry lookup per metric per record."""

    def __init__(self, registry):
        self.registry = registry
        self.core_last_end = {}

    @staticmethod
    def principal(name):
        return name if name is not None else "<unaccounted>"

    def __call__(self, record):
        registry = self.registry
        data = record.data
        category = record.category
        container = self.principal(
            data.get("charge") if category == "cpu.slice"
            else data.get("client") if category == "client.complete"
            else data.get("tenant") if category == "cluster.window"
            else data.get("container")
        )
        if category == "cpu.slice":
            registry.counter(container, "cpu", "charged_us").inc(data["amount_us"])
            registry.counter(container, "cpu", "slices").inc()
            if data.get("network"):
                registry.counter(container, "cpu", "network_us").inc(
                    data["amount_us"]
                )
            core, host = data.get("core", 0), data.get("host")
            lane = f"core:{core}" if host is None else f"{host}:core:{core}"
            idle = record.time - data["amount_us"] - self.core_last_end.get(
                lane, 0.0
            )
            if idle > 0:
                registry.counter(lane, "core", "idle_us").inc(idle)
            self.core_last_end[lane] = record.time
            registry.counter(lane, "core", "busy_us").inc(data["amount_us"])
            registry.counter(lane, "core", "slices").inc()
        elif category == "sched.charge":
            registry.counter(
                container, "sched", f"charge_us.{data['policy']}"
            ).inc(data["amount_us"])
        elif category == "sched.dispatch":
            registry.counter(container, "sched", "dispatches").inc()
            if data.get("switch_us"):
                registry.counter(container, "sched", "switches").inc()
                registry.counter(container, "sched", "switch_us").inc(
                    data["switch_us"]
                )
        elif category == "sched.preempt":
            registry.counter(container, "sched", "preemptions").inc()
        elif category == "sched.steal":
            registry.counter(f"core:{data['core']}", "core", "steals").inc()
            registry.counter(f"core:{data['victim']}", "core", "stolen_from").inc()
        elif category == "net.enqueue":
            name = "dropped" if data.get("dropped") else "enqueued"
            registry.counter(container, "net", name).inc()
        elif category == "net.demux":
            name = "early_drops" if data.get("dropped") else "demuxed"
            registry.counter(container, "net", name).inc()
        elif category == "net.synq":
            registry.counter(container, "net", "syns").inc()
            if data.get("dropped"):
                registry.counter(container, "net", "syn_drops").inc()
            registry.gauge(container, "net", "syn_queue_depth").set(data["depth"])
        elif category == "net.tx":
            registry.counter(container, "net", "tx_bytes").inc(data["bytes"])
        elif category == "app.request":
            if data["event"] == "end":
                registry.counter(container, "app", "requests").inc()
        elif category == "client.complete":
            registry.histogram(container, "client", "latency_us").observe(
                data["latency_us"]
            )
        elif category == "disk.request":
            if data["event"] == "complete":
                registry.counter(container, "disk", "requests").inc()
                registry.counter(container, "disk", "service_us").inc(
                    data["service_us"]
                )
                registry.counter(container, "disk", "bytes").inc(data["bytes"])
                registry.histogram(container, "disk", "wait_us").observe(
                    data["wait_us"]
                )
        elif category == "fs.cache":
            name = "cache_hits" if data["hit"] else "cache_misses"
            registry.counter(container, "fs", name).inc()
        elif category == "cluster.window":
            registry.counter(container, "cluster", "cpu_us").inc(data["cpu_us"])
            registry.counter(container, "cluster", "windows").inc()
            registry.gauge(container, "cluster", "share").set(data["share"])
            if data.get("throttled"):
                registry.counter(container, "cluster", "windows_throttled").inc()


def _contents(registry):
    """Registry state in insertion order: [(key, metric dict)]."""
    return [(key, metric.to_dict()) for key, metric in registry._metrics.items()]


def _feed(bus, reference, stream):
    for time, category, data in stream:
        bus.publish(time, category, **data)
        reference(TraceRecord(time, category, dict(data)))


def test_bound_collector_matches_per_record_lookups():
    bus = TraceBus()
    bound = MetricsRegistry()
    RegistryCollector(bound, bus)
    looked_up = MetricsRegistry()
    reference = ReferenceFold(looked_up)

    _feed(bus, reference, STREAM)
    assert list(bound._metrics) == list(looked_up._metrics)
    assert _contents(bound) == _contents(looked_up)
    # Lazily created keys land where they were first asked for.
    keys = list(bound._metrics)
    assert keys.index(("web", "cpu", "network_us")) > keys.index(
        ("core:0", "core", "slices")
    )
    assert keys.index(("h1:core:1", "core", "idle_us")) < keys.index(
        ("h1:core:1", "core", "busy_us")
    )

    # After a reset the collector binds afresh: nothing is counted into
    # the dropped metrics, and keys are re-created in first-use order.
    dropped = bound.counter("web", "cpu", "charged_us")
    bound.reset()
    looked_up.reset()
    tail = STREAM[12:] + STREAM[:12]
    _feed(bus, reference, tail)
    assert list(bound._metrics) == list(looked_up._metrics)
    assert _contents(bound) == _contents(looked_up)
    assert dropped.value == 30.0  # its value at the reset


def test_collector_looks_each_metric_up_once():
    bus = TraceBus()
    registry = MetricsRegistry()
    RegistryCollector(registry, bus)
    lookups = []
    for kind in ("counter", "gauge", "histogram"):
        original = getattr(registry, kind)

        def counted(*key, _original=original):
            lookups.append(key)
            return _original(*key)

        setattr(registry, kind, counted)
    for _ in range(3):
        for time, category, data in STREAM:
            bus.publish(time, category, **data)
    assert sorted(lookups) == sorted(registry._metrics)


@pytest.fixture()
def flood_lookups(monkeypatch):
    """Registry lookups and requests of a short defended-host SYN flood."""
    lookups = []
    for kind in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, kind)

        def counted(self, *key, _original=original, **kwargs):
            lookups.append(key)
            return _original(self, *key, **kwargs)

        monkeypatch.setattr(MetricsRegistry, kind, counted)
    with _fresh_id_counters():
        host = Host(mode=SystemMode.RC, seed=5, observe=True)
        host.kernel.fs.add_file("/index.html", 1024)
        host.kernel.fs.warm("/index.html")
        EventDrivenServer(
            host.kernel,
            specs=[ListenSpec("default", notify_syn_drop=True)],
            use_containers=True,
            event_api="eventapi",
            defense=SynFloodDefense(threshold=5),
        ).install()
        SynFlooder(
            host.kernel, rate_per_sec=20_000.0, batch=10,
            rng=host.sim.rng.fork("flood"),
        ).start(at_us=0.0)
        clients = [
            HttpClient(host.kernel, ip_addr(10, 0, 0, i + 1), f"c{i}")
            for i in range(4)
        ]
        for i, client in enumerate(clients):
            client.start(at_us=20_000.0 + i * 150.0)
        host.run(seconds=0.1)
    return lookups, host, sum(c.stats_completed for c in clients)


def test_flood_run_lookups_do_not_grow_with_records(flood_lookups):
    """Lookups are bounded by distinct metric keys, not by records."""
    lookups, host, completed = flood_lookups
    registry = host.observability.registry
    records = sum(
        metric.to_dict().get("value", 0)
        for key, metric in registry._metrics.items()
        if key[1:] in (("cpu", "slices"), ("net", "early_drops"))
    )
    assert completed > 0 and records > 10 * len(registry)
    assert len(lookups) <= len(set(lookups)) <= len(registry)
