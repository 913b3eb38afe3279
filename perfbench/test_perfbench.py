"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

bench.use_program_source()

from tracer import ENTRY_POINTS, PROBED, LayerTracer  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

from repro.kernel.kernel import Kernel  # noqa: E402
from repro.sim.engine import Simulation  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

#: Chunks per measured phase in the smoke runs (the real runs use 100).
SMOKE_CHUNKS = 4


def _smoke(name: str, **changes):
    """A short copy of a workload."""
    return replace(WORKLOADS[name], chunks=SMOKE_CHUNKS, **changes)


def _patched_attrs() -> list[tuple[type, str]]:
    attrs = [(Simulation, "at"), (Simulation, "after"),
             (Kernel, "spawn_thread")]
    attrs += [(owner, attr) for owner, attr, _layer, _count in ENTRY_POINTS]
    attrs += [(owner, "runnable") for owner in PROBED]
    return attrs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_timed_run(name):
    report = bench.timed_run(_smoke(name), seed=1, seconds=0.0)
    assert report["failures"] == []
    assert len(report["records"]) == bench.MIN_REPEATS
    assert report["chunks"] == SMOKE_CHUNKS
    assert all(r["completed"] > 0 for r in report["records"])
    assert set(report["metrics"]) == set(bench.END_TO_END)
    for name_, value in report["metrics"].items():
        assert math.isfinite(value) and value > 0, name_


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_run_matches_untraced(name):
    report = bench.traced_run(_smoke(name), seed=1)
    assert report["failures"] == []
    plain, traced = report["records"]
    assert plain["digest"] == traced["digest"]
    assert set(report["metrics"]) == set(bench.PER_LAYER)
    assert report["metrics"]["sched.picks_per_req"] > 0
    assert report["metrics"]["kernel.syscalls_per_req"] > 0
    assert report["metrics"]["sched.us_per_pick"] > 0
    assert report["metrics"]["kernel.us_per_syscall"] > 0


def test_flood_digest_independent_of_observability():
    digests = []
    for observe in (True, False):
        run = Run(_smoke("flood_observed", observe=observe), seed=3)
        for step in range(run.warm_up_steps):
            run.warm_up_step(step)
        run.measure_start()
        for index in range(SMOKE_CHUNKS):
            run.run_chunk(index)
        assert (run.obs is not None) is observe
        digests.append(run.digest())
    assert digests[0] == digests[1]


def test_tracer_wrappers_removed_afterwards():
    before = [(o, a, o.__dict__.get(a)) for o, a in _patched_attrs()]
    report = bench.traced_run(_smoke("static_web"), seed=1)
    assert report["failures"] == []
    assert [(o, a, o.__dict__.get(a)) for o, a in _patched_attrs()] == before

    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert Simulation.__dict__["at"] is not before[0][2]
            raise RuntimeError("boom")
    assert [(o, a, o.__dict__.get(a)) for o, a in _patched_attrs()] == before


def test_benchmark_json_names_every_metric_with_its_unit():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric_with_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "static_web",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=170,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    provenance = report["provenance"]
    assert provenance["seed"] == 1
    assert provenance["repeats"] == len(report["records"])
    for key in ("commit", "python", "cpu_count", "source_sha256"):
        assert key in provenance
    # The mean reference-loop time of every repeat.
    assert len(provenance["ref_ms"]) == len(report["records"])
