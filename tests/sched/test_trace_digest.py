"""Schedule-order determinism across scheduler implementations.

The O(log n) index rework of :class:`ContainerScheduler` must be
*bit-for-bit* behaviour-preserving: every pick, charge, and preemption
of a seeded run has to happen at the same simulated instant for the
same entity as with the original linear-scan implementation.  This test
pins that down: it runs a busy mixed workload (event-driven HTTP server
with per-request containers, a CPU-capped CGI sand-box, and a SYN
flood against a priority-zero container) and hashes every ``cpu.slice``
trace record -- kind, time, duration, charged container, entity.

``EXPECTED_DIGEST`` was recorded with the pre-optimisation scheduler
(linear scan over all entities in ``pick()``).  If a future scheduler
change alters this digest, it reordered the schedule; that may be
intentional, but it must be an explicit decision (re-record the digest
in the same PR and say why), never a silent side effect of a perf
change.

Re-recorded with the repro.io disk subsystem: file reads lost the flat
CPU miss penalty in favour of an asynchronous device phase, and the
event-driven server now serves static files through container-bound
descriptors (an extra OpenFile/ContainerBindSocket per class) -- both
deliberately reshape the schedule, so the old digest could not survive.

``SANDBOX_DIGEST`` pins the 2-core Fig. 12/13 sandbox: the ``select``
server and a few clients next to many CPU-bound processes under one
capped fixed-share group.  It exercises what the 1-core run cannot:
per-CPU shards, stealing, capped-group pinning, and a kernel network
thread per process.  It was recorded with the scheduler that re-scanned
every network thread on every pick and drained a capped-out group's
bucket entry by entry.
"""

import contextlib
import hashlib
import itertools

from repro import Host, SystemMode, fixed_share_attrs, ip_addr
from repro.apps.httpserver import CgiPolicy, EventDrivenServer
from repro.apps.synflood import SynFlooder
from repro.apps.webclient import HttpClient
from repro.kernel.kernel import KernelConfig
from repro.syscall import api

EXPECTED_DIGEST = (
    "aac1667cbd348c51d5d69a01e6bfc213367900855c0d85fb43adc8e0eba8f54e"
)

SANDBOX_DIGEST = (
    "5f06eaaccc4a120343a00519695836eeadf17bac27df2d6f9923c2fbc4e9d115"
)


@contextlib.contextmanager
def _fresh_id_counters():
    """Reset the global id counters for the duration of the run.

    Container/process/thread names embed ids drawn from module-level
    ``itertools.count`` streams, and those names feed the digest -- so
    without this, the digest would depend on how many objects earlier
    tests in the same process happened to create.  The original counter
    objects are restored afterwards so other tests keep unique ids.
    """
    from repro.apps import mailserver as mail_mod
    from repro.apps import webclient as webclient_mod
    from repro.apps.httpserver import cgi as cgi_mod
    from repro.core import container as container_mod
    from repro.kernel import events as kevents_mod
    from repro.kernel import process as process_mod
    from repro.net import packet as packet_mod
    from repro.net import tcp as tcp_mod

    saved = [
        (container_mod, "_container_ids"),
        (process_mod, "_pids"),
        (process_mod, "_tids"),
        (packet_mod, "_packet_seq"),
        (tcp_mod, "_conn_ids"),
        (kevents_mod, "_event_seq"),
        (cgi_mod, "_cgi_ids"),
        (webclient_mod, "_request_ids"),
        (mail_mod, "_message_ids"),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in saved]
    for mod, attr in saved:
        setattr(mod, attr, itertools.count(1))
    try:
        yield
    finally:
        for mod, attr, counter in originals:
            setattr(mod, attr, counter)


def scheduling_digest(seed: int = 20990131) -> str:
    """Digest of every CPU slice of a seeded mixed run."""
    with _fresh_id_counters():
        return _scheduling_digest_inner(seed)


def _scheduling_digest_inner(seed: int) -> str:
    host = Host(mode=SystemMode.RC, seed=seed)
    host.kernel.fs.add_file("/index.html", 1024)
    host.kernel.fs.warm("/index.html")
    records = host.sim.trace.record(["cpu.slice"])
    server = EventDrivenServer(
        host.kernel,
        use_containers=True,
        cgi=CgiPolicy(cpu_us=30_000.0, cpu_limit=0.3),
        event_api="select",
    )
    server.install()
    clients = [
        HttpClient(
            host.kernel,
            ip_addr(10, 0, 0, i + 1),
            f"c{i}",
            think_time_us=400.0,
            rng=host.sim.rng.fork(f"c{i}"),
        )
        for i in range(6)
    ]
    for index, client in enumerate(clients):
        client.start(at_us=2_000.0 + index * 131.0)
    cgi_client = HttpClient(
        host.kernel, ip_addr(10, 0, 1, 1), "cgi", path="/cgi/x",
        timeout_us=60_000_000.0,
    )
    cgi_client.start(at_us=11_000.0)
    flooder = SynFlooder(
        host.kernel, rate_per_sec=3_000.0, batch=4,
        rng=host.sim.rng.fork("flood"),
    )
    flooder.start(at_us=80_000.0)
    host.run(seconds=0.4)
    return _slice_digest(records)


def _slice_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        line = (
            f"{record.time:.6f}|{record.data.get('kind')}"
            f"|{record.data.get('amount_us'):.6f}"
            f"|{record.data.get('charge')}|{record.data.get('entity')}\n"
        )
        digest.update(line.encode())
    return digest.hexdigest()


#: Fig. 13 sandbox cap of the batch group.
SANDBOX_CAP = 0.3

#: One batch process's CPU burst.
BATCH_BURST_US = 800.0


def _batch_main(start_delay_us: float):
    def main():
        yield api.Sleep(start_delay_us)
        while True:
            yield api.Compute(BATCH_BURST_US)

    return main


def build_sandbox(seed: int, batch_jobs: int) -> Host:
    """2-core RC host: the ``select`` server, four clients, and
    ``batch_jobs`` CPU-bound processes under one capped fixed-share
    group (the Fig. 12/13 sandbox)."""
    config = KernelConfig(mode=SystemMode.RC, n_cpus=2)
    host = Host(mode=SystemMode.RC, seed=seed, config=config)
    kernel = host.kernel
    kernel.fs.add_file("/index.html", 1024)
    kernel.fs.warm("/index.html")
    EventDrivenServer(kernel, use_containers=True, event_api="select").install()
    for i in range(4):
        HttpClient(
            kernel, ip_addr(10, 0, 0, i + 1), f"c{i}",
            rng=host.sim.rng.fork(f"c{i}"),
        ).start(at_us=2_000.0 + i * 173.0)
    batch = kernel.containers.create(
        "batch", attrs=fixed_share_attrs(SANDBOX_CAP, cpu_limit=SANDBOX_CAP)
    )
    rng = host.sim.rng.fork("batch")
    for i in range(batch_jobs):
        kernel.spawn_process(
            f"batch-{i}",
            _batch_main(rng.uniform(0.0, 5_000.0)),
            parent_container=batch,
        )
    return host


def sandbox_digest(seed: int = 20991213, batch_jobs: int = 32) -> str:
    """Digest of every CPU slice of a seeded 2-core sandbox run."""
    with _fresh_id_counters():
        host = build_sandbox(seed, batch_jobs)
        records = host.sim.trace.record(["cpu.slice"])
        host.run(seconds=0.2)
    return _slice_digest(records)


def test_seeded_schedule_digest_is_stable():
    assert scheduling_digest() == EXPECTED_DIGEST


def test_seeded_2core_sandbox_digest_is_stable():
    assert sandbox_digest() == SANDBOX_DIGEST
