"""Host cost of the simulator per simulated request, on three paper workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static_web --seed 1 --seconds 15 --trace 0

``--trace 0`` times the untraced program and prints the end-to-end
metrics, scaled to a reference host speed (see :func:`ref_loop_s`).
``--trace 1`` runs the same measured phase once untraced and once under
:class:`tracer.LayerTracer` and prints the per-layer metrics.  Every
invocation checks the simulated results (see ``README.md``); a failed
check prints ``"correct": false`` and exits 1.

The last line of standard output is the result object; the line before
it is the full report with provenance and every raw per-repeat value,
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: A timed run repeats set-up and measured phase at least this often,
#: and then until its measured time is as near ``--seconds`` as whole
#: repeats allow.
MIN_REPEATS = 3
MAX_REPEATS = 40

#: Iterations of the host-speed reference loop, timed after every chunk.
REF_ITERATIONS = 2_000

#: Reference-loop time the timings are scaled to.  1 ms is about what
#: the loop takes on a 2-vCPU Xeon host when nothing else contends for
#: it.
REF_NOMINAL_S = 1.0e-3

#: A chunk's time is scaled by the reference loops run within this many
#: chunks of it (0.1 to 0.6 s of host time on either side): the host's
#: speed changes within a measured phase, and single loops are noisy.
REF_WINDOW = 5

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "norm_us_per_req": "us",
    "norm_s_per_sim_s": "s/s",
    "norm_chunk_ms_p50": "ms",
    "norm_chunk_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "model_err": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "sim.events_per_req": "1/req",
    "sim.events_per_s": "1/s",
    "sim.self_us_per_event": "us",
    "sim.share": "ratio",
    "sched.picks_per_req": "1/req",
    "sched.us_per_pick": "us",
    "sched.probes_per_pick": "1/pick",
    "sched.steals_per_req": "1/req",
    "sched.share": "ratio",
    "kernel.syscalls_per_req": "1/req",
    "kernel.us_per_syscall": "us",
    "kernel.charge_flushes_per_req": "1/req",
    "kernel.share": "ratio",
    "net.packets_per_req": "1/req",
    "net.us_per_packet": "us",
    "net.early_drops": "count",
    "net.share": "ratio",
    "core.containers_per_req": "1/req",
    "core.charges_per_req": "1/req",
    "core.share": "ratio",
    "apps.client_retries": "count",
    "apps.share": "ratio",
    "obs.records_per_req": "1/req",
    "obs.us_per_record": "us",
    "obs.registry_lookups_per_req": "1/req",
    "obs.windows_closed": "count",
    "obs.alerts": "count",
    "obs.share": "ratio",
    "trace_overhead": "ratio",
}


def use_program_source() -> None:
    """Make the checkout's ``src/`` importable and the runs hermetic.

    ``REPRO_*`` variables reconfigure hosts built anywhere in the
    process (event queue, tracing, telemetry windows, sanitizer); the
    benchmark passes its configuration explicitly instead.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD's commit id read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ref_loop_s() -> float:
    """Host seconds for a fixed pure-Python loop of heap, dict and call work.

    The program does not run here, so the figure changes only with the
    host and the interpreter.  The shared host this benchmark was built
    on runs the program at speeds up to 2x apart, in states that last
    from seconds to minutes, and the program's times follow this loop's
    times when it runs after every chunk: over ten runs of
    ``static_web``, host time per request and loop time correlated at
    0.99.  See :func:`scaled_chunks`.
    """
    start = perf_counter()
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(REF_ITERATIONS):
        push(heap, (i * 7919) % 10007)
        table[i & 1023] = table.get((i * 31) & 1023, 0) + 1
        if len(heap) > 64:
            pop(heap)
    return perf_counter() - start


def provenance(seed: int, repeats: int, ref_ms: list[float]) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
        "repeats": repeats,
        "ref_ms": ref_ms,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def _repeat(workload, seed: int, tracer=None) -> dict:
    """Build, warm up and measure one host; returns its record."""
    from workloads import Run

    gc.collect()
    start = perf_counter()
    run = Run(workload, seed)
    setup_s = perf_counter() - start
    setup_ref_s = []
    for step in range(run.warm_up_steps):
        start = perf_counter()
        run.warm_up_step(step)
        setup_s += perf_counter() - start
        setup_ref_s.append(ref_loop_s())
    gc.collect()
    if tracer is not None:
        tracer.begin()
    chunk_s = []
    ref_s = []
    run.measure_start()
    for index in range(workload.chunks):
        start = perf_counter()
        run.run_chunk(index)
        chunk_s.append(perf_counter() - start)
        ref_s.append(ref_loop_s())
    if tracer is not None:
        tracer.end()
    return {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": sum(chunk_s),
        "chunk_s": chunk_s,
        "ref_s": ref_s,
        **run.measured(),
        "digest": run.digest(),
        "failures": run.check(),
    }


def _checks(records: list[dict]) -> list[str]:
    failures = [f for r in records for f in r["failures"]]
    digests = {r["digest"] for r in records}
    if len(digests) != 1:
        failures.append(f"simulated-result digests differ: {sorted(digests)}")
    return failures


def _speed_factor(ref_s: list[float], exponent: float) -> float:
    """Factor from host time at the speed ``ref_s`` shows to host time
    at ``REF_NOMINAL_S`` per reference loop."""
    return (REF_NOMINAL_S * len(ref_s) / sum(ref_s)) ** exponent


def scaled_chunks(record: dict, exponent: float) -> list[float]:
    """A repeat's chunk times at ``REF_NOMINAL_S`` per reference loop.

    A chunk's time is scaled by the mean time of the reference loops run
    within ``REF_WINDOW`` chunks of it, to the workload's
    ``ref_exponent``: the program slows down less than the loop does.
    """
    ref = record["ref_s"]
    return [
        seconds * _speed_factor(
            ref[max(0, index - REF_WINDOW):index + REF_WINDOW + 1], exponent
        )
        for index, seconds in enumerate(record["chunk_s"])
    ]


def scaled_setup(record: dict, exponent: float) -> float:
    """Set-up time scaled by the reference loops run between warm-up steps."""
    return record["setup_s"] * _speed_factor(record["setup_ref_s"], exponent)


def _enough(records: list[dict], seconds: float) -> bool:
    """Whether the repeats so far have measured for about ``seconds``.

    Stops where one more repeat of the mean length would overshoot
    ``seconds`` by more than the repeats so far fall short of it.
    """
    if len(records) < MIN_REPEATS:
        return False
    if len(records) >= MAX_REPEATS:
        return True
    measured = sum(r["wall_s"] for r in records)
    return measured + measured / len(records) / 2 >= seconds


def timed_run(workload, seed: int, seconds: float) -> dict:
    """Untraced repeats for about ``seconds``; end-to-end metrics."""
    records = []
    while not _enough(records, seconds):
        records.append(_repeat(workload, seed))
    # Every repeat simulates the same chunks (equal digests), so the
    # median over repeats of each chunk's scaled time drops noise that
    # hit one repeat only.  The series is one typical measured phase.
    series_ms = [
        statistics.median(times) * 1e3
        for times in zip(*(
            scaled_chunks(r, workload.ref_exponent) for r in records
        ))
    ]
    norm_s = sum(series_ms) / 1e3
    first = records[0]
    metrics = {
        "norm_us_per_req": norm_s / max(1, first["completed"]) * 1e6,
        "norm_s_per_sim_s": norm_s / first["sim_s"],
        "norm_chunk_ms_p50": statistics.median(series_ms),
        # The 9th decile of the distinct chunks; with >= 100 chunks,
        # >= 10 lie beyond it.
        "norm_chunk_ms_p90": statistics.quantiles(series_ms, n=10)[8],
        "setup_s": statistics.median(
            scaled_setup(r, workload.ref_exponent) for r in records
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": first["completed"]
        / max(1, first["completed"] + first["retries"]),
        "model_err": first["model_err"],
    }
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "chunks": len(series_ms),
        "records": records,
        "failures": _checks(records),
    }


def traced_run(workload, seed: int, spans_path: str | None = None) -> dict:
    """One untraced and one traced measured phase; per-layer metrics."""
    from tracer import LAYERS, LayerTracer

    plain = _repeat(workload, seed)
    with LayerTracer() as tracer:
        traced = _repeat(workload, seed, tracer=tracer)
    records = [plain, traced]
    failures = _checks(records)
    if not tracer.closed():
        failures.append("traced run left spans open")

    wall = traced["wall_s"]
    req = traced["completed"]
    counts = tracer.counts
    entry_s = tracer.entry_s
    layer_self = dict(tracer.self_s)
    # sim self time: what no top-level callback span covers, plus the
    # scheduling spans (Simulation.at/after) opened inside callbacks.
    layer_self["sim"] = wall - tracer.top_s + layer_self.get("sim", 0.0)
    picks = counts["picks"]

    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    metrics = {
        "sim.events_per_req": per(traced["events"], req),
        "sim.events_per_s": per(plain["events"], plain["wall_s"]),
        "sim.self_us_per_event": per(layer_self["sim"] * 1e6, traced["events"]),
        "sched.picks_per_req": per(picks, req),
        "sched.us_per_pick": per(entry_s["picks"] * 1e6, picks),
        "sched.probes_per_pick": per(counts["probes"], picks),
        "sched.steals_per_req": per(traced["steals"], req),
        "kernel.syscalls_per_req": per(counts["syscalls"], req),
        "kernel.us_per_syscall": per(
            entry_s["syscalls"] * 1e6, counts["syscalls"]
        ),
        "kernel.charge_flushes_per_req": per(traced["charge_flushes"], req),
        "net.packets_per_req": per(counts["packets"], req),
        "net.us_per_packet": per(
            entry_s["packets"] * 1e6, counts["packets"]
        ),
        "net.early_drops": traced["early_drops"],
        "core.containers_per_req": per(counts["containers"], req),
        "core.charges_per_req": per(counts["charges"], req),
        "apps.client_retries": traced["retries"],
        "obs.records_per_req": per(counts["records"], req),
        "obs.us_per_record": per(
            entry_s["records"] * 1e6, counts["records"]
        ),
        "obs.registry_lookups_per_req": per(counts["registry_lookups"], req),
        "obs.windows_closed": traced["windows_closed"],
        "obs.alerts": traced["alerts"],
        # Both phases scaled to the reference speed, so that a change of
        # host speed between them does not count as tracer cost.
        "trace_overhead": per(
            sum(scaled_chunks(traced, workload.ref_exponent)),
            sum(scaled_chunks(plain, workload.ref_exponent)),
        ) - 1.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = per(layer_self.get(layer, 0.0), wall)
    metrics = {name: metrics[name] for name in PER_LAYER}
    span_count = len(tracer.spans)
    if spans_path is not None and tracer.closed():
        tracer.dump(spans_path)
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "chunks": workload.chunks,
        "spans": span_count,
        "layer_self_s": layer_self,
        "records": records,
        "failures": failures,
    }


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-execute this process with ``PYTHONHASHSEED=0``.

    String hashing sets the layout of every str-keyed dict, and with a
    random hash seed per process the run-to-run spread (IQR / median)
    of host time per request on ``static_web`` was 0.07 against 0.03 with
    a fixed one (six runs each).  ``execv`` keeps the process id, so
    the caller still waits on the process it started.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    args = _parse(argv)
    use_program_source()
    try:
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{err}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report = traced_run(workload, args.seed,
                            spans_path=str(stem) + ".spans.tsv.gz")
    else:
        report = timed_run(workload, args.seed, args.seconds)
    records = report["records"]
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(
            args.seed, len(records),
            [statistics.fmean(r["ref_s"]) * 1e3 for r in records],
        ),
        **report,
    }
    correct = not report["failures"]
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, value in report["metrics"].items():
        print(f"{workload.name:16s} {name:30s} {value:14.6g} "
              f"{report['units'][name]}")
    text = json.dumps(report, sort_keys=True)
    stem.with_suffix(".json").write_text(text + "\n")
    print(text)
    attempted = sum(r["completed"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            name: {"value": value, "unit": report["units"][name]}
            for name, value in report["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
