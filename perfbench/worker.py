"""One benchmark process: set a workload up, then time and check its rounds.

``run.py`` starts this script with BLAS pinned to one thread.  It prints
``READY`` once set-up is done and, with ``--phase setup``, exits there.
Otherwise it runs whole rounds until their summed time reaches ``--seconds``
and prints one JSON line with the timings, operation counts and problems.

With ``--trace 1`` the library's layer functions are wrapped (see
``spans.py``) for set-up and the timed rounds; one untraced round runs first,
and the traced rounds' median against it is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
MAX_WORKERS = 2


def _import_library():
    """Import fermitherm from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fermitherm

    where = Path(fermitherm.__file__).resolve().parent
    if where != src / "fermitherm":
        raise SystemExit(f"fermitherm was imported from {where}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    args = parser.parse_args(argv)

    _import_library()
    from spans import ROUND, Recorder, layer_metrics
    from workloads import WORKLOADS

    cores = len(os.sched_getaffinity(0))
    workers = min(MAX_WORKERS, cores)
    recorder = Recorder() if args.trace else None
    if recorder:
        recorder.install()
    workload = WORKLOADS[args.workload](args.seed, workers)
    print("READY", flush=True)
    if args.phase == "setup":
        return 0

    walls, rates, failed, problems = [], [], [], []
    rounds = 0

    def timed_round(traced):
        nonlocal rounds
        start = time.perf_counter()
        if traced:
            outcome = recorder.call(ROUND, workload.round, (), {})
        else:
            outcome = workload.round()
        wall = time.perf_counter() - start
        rounds += 1
        round_failed, found = workload.check(outcome)
        failed.extend(round_failed)
        problems.extend(found)
        return wall, workload.steps(outcome) / wall

    untraced_wall = None
    if recorder:
        recorder.uninstall()
        untraced_wall, _ = timed_round(traced=False)
        recorder.install()
    while not walls or sum(walls) < args.seconds:
        wall, rate = timed_round(traced=recorder is not None)
        walls.append(wall)
        rates.append(rate)

    report = {
        "cores": cores,
        "workers": workers,
        "walls": walls,
        "rates": rates,
        "attempted": rounds * workload.ops,
        "failed_ops": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if recorder:
        recorder.uninstall()
        layers = layer_metrics(recorder.spans, workers)
        layers["trace.overhead_share"] = {
            "value": statistics.median(walls) / untraced_wall - 1.0,
            "unit": "share",
        }
        report["layers"] = layers
        report["missing_layers"] = recorder.missing
        report["untraced_wall"] = untraced_wall
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_path, "w") as fh:
            for s in recorder.spans:
                fh.write(json.dumps(vars(s)) + "\n")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
