"""Scheduler work per pick must not grow with idle principals.

The 2-core sandbox (see ``build_sandbox``) is run with 8 and then 128
CPU-bound batch processes.  Each process brings a kernel network thread
that never receives a packet, and every batch thread sits under one
capped fixed-share group.  The test counts, per
``ContainerScheduler.pick_for_cpu`` call, how often a network thread's
``runnable`` is read and how often a container's cap is checked.  A
scheduler that re-scans idle network threads, or walks a capped-out
group's bucket entry by entry, does work per pick that grows with the
process count (about 13x for cap checks from 8 to 128 processes); one
that keeps idle threads out of the scan and sets a capped-out group
aside whole does the same work at both sizes.

The counters are wrapped here, around the classes' own methods, so the
program carries no instrumentation for this test.
"""

import pytest

from repro.net.procmodel import KernelNetThread
from repro.sched.container_sched import ContainerScheduler
from tests.sched.test_trace_digest import _fresh_id_counters, build_sandbox

#: How far the per-pick counts at 128 processes may exceed those at 8.
#: The schedules differ with the load, and the first pick after a burst
#: of process creation still reads each new (idle) network thread once.
SLACK_PER_PICK = 0.5


def _work_per_pick(batch_jobs: int) -> dict:
    counts = {"picks": 0, "runnable": 0, "capped": 0}
    runnable = KernelNetThread.runnable.fget
    capped = ContainerScheduler._capped
    pick_for_cpu = ContainerScheduler.pick_for_cpu

    def counted_runnable(self):
        counts["runnable"] += 1
        return runnable(self)

    def counted_capped(self, container):
        counts["capped"] += 1
        return capped(self, container)

    def counted_pick(self, now, cpu, exclude=None):
        counts["picks"] += 1
        return pick_for_cpu(self, now, cpu, exclude)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KernelNetThread, "runnable", property(counted_runnable))
        patch.setattr(ContainerScheduler, "_capped", counted_capped)
        patch.setattr(ContainerScheduler, "pick_for_cpu", counted_pick)
        with _fresh_id_counters():
            host = build_sandbox(seed=7, batch_jobs=batch_jobs)
            host.run(seconds=0.1)
    picks = counts.pop("picks")
    assert picks > 1_000
    return {name: value / picks for name, value in counts.items()}


@pytest.fixture(scope="module")
def per_pick():
    return {jobs: _work_per_pick(jobs) for jobs in (8, 128)}


@pytest.mark.parametrize("counter", ["runnable", "capped"])
def test_work_per_pick_is_independent_of_process_count(per_pick, counter):
    small = per_pick[8][counter]
    large = per_pick[128][counter]
    assert large <= small + SLACK_PER_PICK, (
        f"{counter} per pick grew from {small:.2f} (8 processes) "
        f"to {large:.2f} (128 processes)"
    )
