"""The benchmark's three paper-shaped workloads.

Each workload builds one simulated host from public APIs only
(``Simulation``, ``Kernel``, the HTTP server, the S-Client model, the
SYN flooder, ``Observability``), runs a warm-up, and then advances the
simulation in fixed simulated-time chunks while the caller times them.

The seed reaches the simulation only as generated inputs: client start
offsets, batch-process start offsets and the flooder's source
addresses.  Everything the host computes from those inputs is
deterministic, so a :class:`Run` built twice from one seed yields the
same :meth:`Run.digest`.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from repro import Kernel, KernelConfig, Simulation, SystemMode, ip_addr
from repro.apps.httpserver import EventDrivenServer, ListenSpec, SynFloodDefense
from repro.apps.synflood import SynFlooder
from repro.apps.webclient import HttpClient
from repro.core.attributes import fixed_share_attrs
from repro.experiments.baseline import PAPER_CONN_PER_REQUEST
from repro.obs.observe import Observability
from repro.obs.slo import default_rules
from repro.syscall import api

#: The cached static document every client fetches (paper section 5.3).
DOC_PATH = "/index.html"
DOC_SIZE = 1024

#: Simulated length of one timed chunk.  Not a divisor or multiple of
#: the 10 ms scheduler window or the 100 ms telemetry window, so chunk
#: boundaries walk through both windows instead of aliasing with them.
#: Long enough that the events per chunk vary little with the seed:
#: over seeds 1-5 the median chunk's event count moved by about 1%.
CHUNK_US = 7_300.0

#: Timed chunks in one measured phase (0.73 s of simulated time).  At
#: least 100 distinct chunks, so that at least 10 lie beyond p90.
CHUNKS = 100

#: Telemetry window of the observed workload (the monitor CLI's span).
OBS_WINDOW_US = 100_000.0

#: Fig. 13 sandbox cap of the batch container.
BATCH_CAP = 0.30

#: Fig. 14: the defended server keeps ~73% of its clean throughput at
#: 70,000 SYN/s.
FLOOD_KEEP = 0.73


@dataclass(frozen=True)
class Workload:
    """One workload's shape.  ``why`` is recorded in BENCHMARK.json."""

    name: str
    n_cpus: int
    event_api: str
    clients: int
    client_timeout_us: float
    batch_jobs: int
    syn_rate: float
    observe: bool
    warmup_us: float
    #: Simulated time at which the clients start: after the server's
    #: listen(), and on flood_observed after the flood is isolated.
    client_start_us: float
    #: Label of the simulated statistic model_err compares to the paper.
    model_stat: str
    paper_value: float
    #: How this workload's host time follows the host's speed: it goes
    #: as the reference loop's time (``run.ref_loop_s``) to this power.
    #: Fitted over two sets of ten runs of the workload (README.md).
    ref_exponent: float
    chunks: int = CHUNKS


WORKLOADS = {
    w.name: w
    for w in (
        # Section 5.3 baseline point with containers on: one core, the
        # select() server, 24 closed-loop clients.  kernel/net/core do
        # the work; sched sees two entities, so it is the control for
        # scheduler changes.
        Workload(
            name="static_web", n_cpus=1, event_api="select", clients=24,
            client_timeout_us=1_000_000.0, batch_jobs=0, syn_rate=0.0,
            observe=False, warmup_us=100_000.0, client_start_us=2_000.0,
            model_stat="req_per_s",
            paper_value=PAPER_CONN_PER_REQUEST, ref_exponent=0.7,
        ),
        # Fig. 12/13 sandbox with many principals: the same server and
        # clients on 2 cores next to 128 CPU-bound jobs under one
        # fixed-share container capped at 30%.  Every job brings a
        # kernel network thread that each pick re-scans, so sched
        # dominates; stealing and capped-group pinning are exercised.
        Workload(
            name="batch_isolation", n_cpus=2, event_api="select", clients=24,
            client_timeout_us=1_000_000.0, batch_jobs=128, syn_rate=0.0,
            observe=False, warmup_us=100_000.0, client_start_us=2_000.0,
            model_stat="batch_machine_share",
            paper_value=BATCH_CAP, ref_exponent=0.9,
        ),
        # Fig. 14 defended host under a 70k SYN/s flood, with windowed
        # telemetry and the stock SLO rules attached: obs and the net
        # early-drop path dominate, and alerts fire.  The flood starts
        # at 0 and the clients at 100 ms, once the defence has isolated
        # the attacking subnet, so the measured phase is Fig. 14's
        # steady state.  Clients caught by the flood's onset time out
        # 400 ms later, and how many are caught depends on the seed
        # (15 to 23 of 25), which moved req/s by up to 22%.
        Workload(
            name="flood_observed", n_cpus=1, event_api="eventapi", clients=25,
            client_timeout_us=400_000.0, batch_jobs=0, syn_rate=70_000.0,
            observe=True, warmup_us=250_000.0, client_start_us=100_000.0,
            model_stat="req_per_s",
            paper_value=FLOOD_KEEP * PAPER_CONN_PER_REQUEST,
            ref_exponent=0.85,
        ),
    )
}

#: Length of one batch job's CPU burst (Fig. 12/13 CPU-bound work).
BATCH_BURST_US = 800.0


def _batch_body(start_delay_us: float):
    """A CPU-bound batch job: an initial offset, then bursts forever."""

    def main():
        yield api.Sleep(start_delay_us)
        while True:
            yield api.Compute(BATCH_BURST_US)

    return main


class Run:
    """One built host of a workload, ready to warm up and measure."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        sim = Simulation(seed=seed)
        self.obs = None
        if workload.observe:
            # Passed explicitly, not through REPRO_OBS_WINDOWS; the
            # kernel adopts the simulation's observability and registers
            # its live-state sampler with the window pipeline.
            self.obs = Observability(
                sim, register=False, window_us=OBS_WINDOW_US,
                rules=default_rules(OBS_WINDOW_US),
            )
            sim.observability = self.obs
        kernel = Kernel(
            sim,
            config=KernelConfig(mode=SystemMode.RC, n_cpus=workload.n_cpus),
        )
        self.sim = sim
        self.kernel = kernel
        #: Steps of at most CHUNK_US the warm-up runs in, so that the
        #: caller can sample the host's speed between them.
        self.warm_up_steps = math.ceil(workload.warmup_us / CHUNK_US)
        self._destroyed_cpu_us = 0.0
        kernel.containers.on_destroy.append(self._note_destroyed)
        kernel.fs.add_file(DOC_PATH, DOC_SIZE)
        kernel.fs.warm(DOC_PATH)

        if workload.syn_rate > 0:
            server = EventDrivenServer(
                kernel,
                specs=[ListenSpec("default", notify_syn_drop=True)],
                use_containers=True,
                event_api=workload.event_api,
                defense=SynFloodDefense(threshold=5),
            )
        else:
            server = EventDrivenServer(
                kernel, use_containers=True, event_api=workload.event_api
            )
        server.install()

        rng = sim.rng.fork("clients")
        base = ip_addr(10, 0, 0, 1)
        self.clients = []
        for index in range(workload.clients):
            client = HttpClient(
                kernel,
                src_addr=base + index,
                name=f"client-{index}",
                path=DOC_PATH,
                timeout_us=workload.client_timeout_us,
            )
            client.start(
                at_us=workload.client_start_us + rng.uniform(0.0, 2_500.0)
            )
            self.clients.append(client)

        self.batch = None
        if workload.batch_jobs:
            self.batch = kernel.containers.create(
                "batch", attrs=fixed_share_attrs(BATCH_CAP, cpu_limit=BATCH_CAP)
            )
            job_rng = sim.rng.fork("batch")
            for index in range(workload.batch_jobs):
                kernel.spawn_process(
                    f"batch-{index}",
                    _batch_body(job_rng.uniform(0.0, 5_000.0)),
                    parent_container=self.batch,
                )

        if workload.syn_rate > 0:
            flooder = SynFlooder(
                kernel, rate_per_sec=workload.syn_rate, batch=10,
                rng=sim.rng.fork("flood"),
            )
            flooder.start(at_us=0.0)

    def _note_destroyed(self, container) -> None:
        self._destroyed_cpu_us += container.usage.cpu_us

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def warm_up_step(self, index: int) -> None:
        """Advance to the end of warm-up step ``index``.

        The measured phase starts where the last step ends.
        """
        self.sim.run(
            until=min((index + 1) * CHUNK_US, self.workload.warmup_us)
        )

    def measure_start(self) -> None:
        """Snapshot the counters the measured phase is reported against."""
        self.t0_us = self.sim.now
        self.completed0 = self.completed()
        self.retries0 = self.retries()
        self.events0 = self.sim.events_dispatched
        self.batch_cpu0 = self.batch_cpu_us()
        self.layer0 = self.layer_counts()

    def run_chunk(self, index: int) -> None:
        """Advance to the end of chunk ``index`` of the measured phase."""
        self.sim.run(until=self.t0_us + (index + 1) * CHUNK_US)

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------

    def completed(self) -> int:
        return sum(c.stats_completed for c in self.clients)

    def retries(self) -> int:
        return sum(c.stats_retries for c in self.clients)

    def layer_counts(self) -> dict:
        """Work counters the program keeps itself, read at phase edges."""
        kernel = self.kernel
        pipeline = self.obs.pipeline if self.obs is not None else None
        return {
            "steals": kernel.scheduler.steals,
            "charge_flushes": kernel.cpu.charge_flushes,
            # Packets discarded before protocol processing: no matching
            # socket, or the destination container's queue overflowed.
            "early_drops": kernel.stats_early_drops + sum(
                t.stats_dropped for t in kernel.net_threads.values()
            ),
            "windows_closed": pipeline.windows_closed if pipeline else 0,
            "alerts": len(pipeline.alerts) if pipeline else 0,
        }

    def batch_cpu_us(self) -> float:
        if self.batch is None:
            return 0.0
        usage = self.kernel.containers.get_usage(self.batch, recursive=True)
        return usage.cpu_us

    def measured(self) -> dict:
        """Simulated results of the measured phase."""
        elapsed_us = self.sim.now - self.t0_us
        completed = self.completed() - self.completed0
        retries = self.retries() - self.retries0
        if self.workload.model_stat == "req_per_s":
            stat = completed / (elapsed_us / 1e6)
        else:
            busy = self.batch_cpu_us() - self.batch_cpu0
            stat = busy / (self.workload.n_cpus * elapsed_us)
        counts = {
            name: value - self.layer0[name]
            for name, value in self.layer_counts().items()
        }
        return {
            "sim_s": elapsed_us / 1e6,
            "completed": completed,
            "retries": retries,
            "events": self.sim.events_dispatched - self.events0,
            self.workload.model_stat: stat,
            "model_err": abs(stat / self.workload.paper_value - 1.0),
            **counts,
        }

    def ledger_cpu_us(self) -> float:
        """CPU booked to every container, living or destroyed."""
        live = sum(
            c.usage.cpu_us for c in self.kernel.containers.all_containers()
        )
        return live + self._destroyed_cpu_us

    def check(self) -> list[str]:
        """Correctness failures of this run (empty when correct)."""
        failures = []
        if self.completed() - self.completed0 <= 0:
            failures.append("no request completed in the measured phase")
        capacity = self.workload.n_cpus * self.sim.now
        booked = self.ledger_cpu_us()
        if booked > capacity * (1.0 + 1e-9):
            failures.append(
                f"containers booked {booked:.1f} us of CPU, more than "
                f"{self.workload.n_cpus} core(s) x {self.sim.now:.1f} us"
            )
        return failures

    def digest(self) -> str:
        """SHA-256 over the simulated results.

        Covers every client's completions, retries and latency samples,
        each container's CPU ledger, and the event count.  Float values
        are hashed bit-exactly.
        """
        h = hashlib.sha256()
        h.update(struct.pack("<q", self.sim.events_dispatched))
        for client in self.clients:
            h.update(client.name.encode())
            h.update(struct.pack("<qq", client.stats_completed,
                                 client.stats_retries))
            h.update(struct.pack(f"<{len(client.latencies_us)}d",
                                 *client.latencies_us))
        ledgers = sorted(
            (c.name, c.usage.cpu_us, c.usage.cpu_network_us)
            for c in self.kernel.containers.all_containers()
        )
        for name, cpu_us, net_us in ledgers:
            h.update(name.encode())
            h.update(struct.pack("<dd", cpu_us, net_us))
        h.update(struct.pack("<d", self._destroyed_cpu_us))
        return h.hexdigest()
