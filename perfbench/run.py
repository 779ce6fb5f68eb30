"""Benchmark command for fermitherm.

    python3 perfbench/run.py --workload scf|sweep|stability --seed N \
        --seconds S --trace 0|1

Every workload runs in fresh ``worker.py`` processes with BLAS pinned to one
thread.  Set-up (process start, imports, input preparation) is timed from
outside, from the spawn to the worker's READY line, in SETUP_SAMPLES
processes; the last of them goes on to the timed rounds.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  A full record of the run is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("scf", "sweep", "stability")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
PINNED = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


def _spawn(args, phase: str, deadline: float):
    """Run one worker; return (seconds to READY, its JSON report or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--phase", phase,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env={**os.environ, **PINNED}
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"worker ({phase}) exited with code {proc.returncode}")
    if phase == "setup":
        return setup_s, None
    if not rest.strip():
        raise BenchError("worker printed no report")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        # the traced run reports no set-up time, so it sets up once
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_spawn(args, "setup", deadline)[0] for _ in range(extra)]
        setup_s, report = _spawn(args, "run", deadline)
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setups.append(setup_s)

    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(report["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "steps_per_s": {"value": statistics.median(report["rates"]), "unit": "1/s"},
        }
    for problem in report["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    for name in report.get("missing_layers", []):
        sys.stderr.write(f"layer missing, not traced: {name}\n")
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": len(report["failed_ops"]),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "pinned": PINNED, "setups": setups, **report, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"# {args.workload}: cores={report['cores']} workers={report['workers']} "
        f"rounds={len(report['walls'])} failed={result['failed']}/{result['attempted']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
