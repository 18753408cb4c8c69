"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory):

* ``tpg_robust`` — in-process serial robust ATPG on c880, dag60, c3540;
* ``grade_http`` — open-loop ``POST /v1/grade`` against ``tip serve``;
* ``bist_stuck_at`` — in-process stuck-at BIST on bulk2k.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it makes a separate traced run and reports the per-layer
metrics.  Host facts, what ``auto`` resolved to and the run's
deterministic counts are printed first; the last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The
program is built from ``src/`` of the checkout this file sits in; with
no program there the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict

import common

#: Per-child time limit beyond the measured seconds.
CHILD_SLACK_S = 120.0


def _inproc(workload: str, seed: int, mode: str, seconds: float) -> Dict:
    """Run one child; its ``setup_s`` is returned at reference speed.

    The host's speed during the set-up is the median of reference loops
    timed here just before the child starts and in the child just after
    its set-up; the child's wall time is kept as ``setup_wall_s``.
    """
    refs = common.reference_samples()
    args = [
        os.path.join(common.HERE, "inproc.py"),
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--seconds",
        repr(seconds),
        "--t0",
    ]
    scratch = common.scratch_dir(f"{mode}-")
    # the child's set-up time counts from here: interpreter start included
    args.append(repr(time.perf_counter()))
    result = common.run_child(args, scratch, timeout=seconds + CHILD_SLACK_S)
    speed = common.REFERENCE_S / common.median(refs + result["setup_refs"])
    result["setup_wall_s"] = result["setup_s"]
    result["setup_s"] *= speed
    return result


def run_inproc(workload: str, seed: int, seconds: float) -> Dict:
    children = [
        _inproc(workload, seed, "setup", seconds) for _ in range(common.SETUPS - 1)
    ]
    result = _inproc(workload, seed, "run", seconds)
    children.append(result)
    setups = [child["setup_s"] for child in children]
    lat = result["latencies_ms"]
    return {
        "setups_s": setups,
        "wall": {
            "setup_s": common.median(c["setup_wall_s"] for c in children),
            **result["wall"],
        },
        "resolved": result["resolved"],
        "metrics": {
            "setup_s": common.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "p50_ms": common.percentile(lat, 0.50),
            "p95_ms": common.percentile(lat, 0.95),
            "rate_per_s": result["rate_per_s"],
            "fault_efficiency": result["fault_efficiency"],
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "counts": result["counts"],
        "passes": result["passes"],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    if workload == "grade_http":
        import grade_http

        if trace:
            return grade_http.trace(seed, seconds)
        return grade_http.run(seed, seconds)
    if trace:
        return _inproc(workload, seed, "trace", seconds)
    return run_inproc(workload, seed, seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("tpg_robust", "grade_http", "bist_stuck_at"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not common.program_present():
        print(
            f"perfbench: no program under {common.SRC} (expected src/repro); "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2

    # this process (the load generator of grade_http) imports the
    # program too: keep its temporary files inside the checkout
    run_dir = common.open_run()
    os.environ.update(
        {k: v for k, v in common.child_env(run_dir).items() if k != "PYTHONPATH"}
    )
    tempfile.tempdir = None  # re-read TMPDIR
    sys.path.insert(0, common.SRC)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        common.close_run()

    failed = outcome["failed"]
    print("host: " + json.dumps(common.host_facts(), sort_keys=True))
    if "resolved" in outcome:
        print("auto resolved to: " + json.dumps(outcome["resolved"]))
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    if args.trace:
        values = outcome["layers"]
        print(f"untraced pass wall: {outcome['pass_wall_s']:.4f} s")
    else:
        values = outcome["metrics"]
        counts = outcome["counts"]
        print("set-ups: " + json.dumps([round(s, 4) for s in outcome["setups_s"]]))
        if "wall" in outcome:
            print("wall-clock figures: " + json.dumps(outcome["wall"], sort_keys=True))
        print("deterministic counts: " + json.dumps(counts, sort_keys=True))
        earlier = common.check_ledger(args.workload, args.seed, counts)
        if earlier is not None:
            print(
                "FLAG: counts differ from an earlier run of the same code "
                "and seed: " + json.dumps(earlier, sort_keys=True)
            )
            failed += 1
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    result = {
        "correct": failed == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
