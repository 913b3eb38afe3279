"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/set-a.json
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/set-b.json \\
        --against perfbench/results/set-a.json

Each run is ``run.py --trace 0`` with BENCHMARK.json's ``run_seconds``,
one after the other.  For every end-to-end metric the script prints the
median, the IQR / median spread (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's
bound; with ``--against`` it also prints how far the median moved from
the earlier set.  The output file keeps every run's metrics and the
mean reference-loop time of each of its repeats.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", help="an earlier --out file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    before = json.loads(Path(args.against).read_text()) if args.against else {}
    result = {}
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                return 1
            report = json.loads(lines[-2])
            metrics = {k: v["value"]
                       for k, v in json.loads(lines[-1])["metrics"].items()}
            runs.append({"seed": seed, "metrics": metrics,
                         "ref_ms": report["provenance"]["ref_ms"]})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            median = statistics.median(values)
            row = {"median": median, "spread": _spread(values),
                   "bound": bound}
            old = before.get(workload, {}).get("summary", {}).get(name)
            if old is not None:
                row["median_change"] = median / old["median"] - 1.0
            summary[name] = row
            moved = (f"  median change {row['median_change']:+.3f}"
                     if "median_change" in row else "")
            print(f"SPREAD {workload} {name}: median {median:.5g} spread "
                  f"{row['spread']:.3f} bound {bound}{moved}", flush=True)
        refs = [statistics.median(r["ref_ms"]) for r in runs]
        summary["ref_ms"] = {"median": statistics.median(refs),
                             "spread": _spread(refs)}
        print(f"SPREAD {workload} ref_ms: median "
              f"{summary['ref_ms']['median']:.4g} spread "
              f"{summary['ref_ms']['spread']:.3f}", flush=True)
        result[workload] = {"runs": runs, "summary": summary}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
