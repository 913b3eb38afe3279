"""Trace exports pinned across commits, not only across runs.

``scripts/verify.sh`` compares two same-seed runs byte for byte, which
catches nondeterminism but not drift: a change that alters every run
the same way passes it.  This test compares the four exports of the
traced fig11 smoke run against sha256 digests committed in
``golden/fig11_smoke.sha256`` (``sha256sum`` format).  A change that
means to alter the exports re-records the file and says why.

The run goes through the CLI in a fresh interpreter, so the module-level
id counters that name entities start from 1 as they do in ``verify.sh``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro

GOLDEN = Path(__file__).resolve().parent / "golden"


def read_digests(name: str) -> dict:
    """``sha256sum``-format file -> {relative path: hex digest}."""
    digests = {}
    for line in (GOLDEN / name).read_text().splitlines():
        digest, path = line.split(None, 1)
        digests[path.strip()] = digest
    return digests


def test_fig11_smoke_trace_exports_match_golden_digests(tmp_path):
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "fig11", "--smoke",
         "--trace-out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = read_digests("fig11_smoke.sha256")
    assert sorted(expected) == sorted(
        ["trace.jsonl", "trace-events.json", "flame.txt", "metrics.json"]
    )
    actual = {
        path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        for path in expected
    }
    assert actual == expected
