"""The in-process workloads ``tpg_robust`` and ``bist_stuck_at``.

Run as a child of :mod:`run`, one fresh process per set-up::

    python3 perfbench/inproc.py WORKLOAD --seed N --t0 T --mode setup
    python3 perfbench/inproc.py WORKLOAD --seed N --t0 T --mode run --seconds S
    python3 perfbench/inproc.py WORKLOAD --seed N --t0 T --mode trace

*T* is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide), so ``setup_s`` spans interpreter
start, import, circuit build, lowering and the warm-up operation that
triggers every lazy code generation or native build.  The last stdout
line is one JSON object.

A workload's measured work is a *pass*: a fixed list of operations
derived from the seed.  ``run`` repeats whole passes until the
measured seconds are used up, so every run times the same mix of
operations; quality figures and deterministic counts come from the
first pass and are checked to repeat on every later pass.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Callable, Dict, List, Tuple

from common import (
    at_reference,
    describe_backend,
    digest,
    peak_rss_mb,
    percentile,
    reference_loop,
    reference_samples,
)

#: Traced and untraced passes alternate this many times in ``trace``.
TRACE_REPEATS = 3


# --------------------------------------------------------------------------
# tpg_robust
# --------------------------------------------------------------------------


class TpgRobust:
    """Serial robust test generation over seeded slices of fixed faults.

    Three circuits: c880 (all faults testable), dag60 as in
    ``scripts/bench_tpg.py`` and c3540 (both redundancy-heavy).  Each
    circuit contributes a fixed sample of :data:`FAULTS` faults, which
    the seed shuffles (:data:`SHUFFLES` times) and cuts into
    :data:`SLICE`-fault slices, interleaved across circuits.  One
    operation is one ``AtpgSession.generate(test_class="robust")`` call
    on one slice.

    The fault sets are fixed so that every seed asks for the same total
    work: the cost of single faults is heavy-tailed (a few need APTPG
    backtracking), and fresh samples per seed moved the pass time by
    more than the host noise.
    """

    SLICE = 32
    FAULTS = 256
    #: Slicings of each fault set per pass.  The slowest calls are the
    #: slices holding the few faults APTPG aborts on, so ``p95``
    #: depends on how a shuffle groups those faults; more slicings
    #: average that out.
    SHUFFLES = 8
    #: Seed of the fixed samples (not the benchmark seed).
    SAMPLE_SEED = 1995
    WARM_FAULTS = 8

    def setup(self) -> None:
        from repro.api import AtpgSession
        from repro.circuit.generators import random_dag
        from repro.circuit.suites import suite_circuit
        from repro.paths import fault_list

        self.sessions = {
            "c880": AtpgSession(suite_circuit("c880", 1)),
            "dag60": AtpgSession(random_dag(12, 60, seed=1995, name="dag60")),
            "c3540": AtpgSession(suite_circuit("c3540", 1)),
        }
        for session in self.sessions.values():
            warm = fault_list(
                session.circuit, cap=self.WARM_FAULTS, strategy="sample", seed=0
            )
            session.generate(warm, test_class="robust")

    def plan(self, seed: int) -> List[Tuple[str, list]]:
        from repro.paths import fault_list

        rng = random.Random(seed)
        queues = []
        for name, session in self.sessions.items():
            faults = fault_list(
                session.circuit,
                cap=self.FAULTS,
                strategy="sample",
                seed=self.SAMPLE_SEED,
            )
            queue = []
            for _ in range(self.SHUFFLES):
                rng.shuffle(faults)
                queue.extend(
                    (name, faults[k : k + self.SLICE])
                    for k in range(0, len(faults), self.SLICE)
                )
            queues.append(queue)
        # interleave the circuits: one slice of each in turn
        ops = []
        while any(queues):
            for queue in queues:
                if queue:
                    ops.append(queue.pop(0))
        return ops

    def run_op(self, op):
        name, faults = op
        return self.sessions[name].generate(faults, test_class="robust")

    @staticmethod
    def units(op, report) -> int:
        return report.n_faults  # faults classified

    @staticmethod
    def signature(report) -> Tuple:
        """The per-op outcome that must repeat exactly."""
        return (
            tuple(r.status.value for r in report.records),
            report.decisions,
            report.backtracks,
            report.implication_passes,
            len(report.patterns),
        )

    def summarize(self, ops, reports) -> Tuple[float, Dict]:
        faults = sum(r.n_faults for r in reports)
        aborted = sum(r.n_aborted for r in reports)
        counts = {
            "statuses_digest": digest(
                [[r.status.value for r in rep.records] for rep in reports]
            ),
            "faults": faults,
            "tested": sum(r.n_tested for r in reports),
            "redundant": sum(r.n_redundant for r in reports),
            "aborted": aborted,
            "test_patterns": sum(len(r.patterns) for r in reports),
            "decisions": sum(r.decisions for r in reports),
            "backtracks": sum(r.backtracks for r in reports),
            "implication_passes": sum(r.implication_passes for r in reports),
        }
        return 1.0 - aborted / faults, counts

    def check(self, ops, reports) -> Tuple[int, int]:
        """Every emitted robust test must detect its own fault under the
        interpreted oracle; returns (tests checked, tests failed)."""
        from repro.paths import TestClass
        from repro.sim.delay_sim import DelayFaultSimulator

        checked = failed = 0
        for (name, _faults), report in zip(ops, reports):
            circuit = self.sessions[name].circuit
            oracle = DelayFaultSimulator(
                circuit, TestClass.ROBUST, backend="int", fusion="interp"
            )
            pairs = [
                (r.pattern, r.fault) for r in report.records if r.pattern is not None
            ]
            if not pairs:
                continue
            masks = oracle.detection_masks(
                [p for p, _ in pairs], [f for _, f in pairs]
            )
            for lane, mask in enumerate(masks):
                checked += 1
                if not (mask >> lane) & 1:
                    failed += 1
        return checked, failed


# --------------------------------------------------------------------------
# bist_stuck_at
# --------------------------------------------------------------------------


class BistStuckAt:
    """Stuck-at BIST on bulk2k: LFSR slabs, fault dropping, MISR.

    One operation is one ``AtpgSession.bist(fault_model="stuck_at")``
    run over the first :data:`FAULT_CAP` stuck-at faults with a
    :data:`BUDGET`-pattern budget; a pass is :data:`SEEDS` runs, each
    with its own LFSR seed drawn from the benchmark seed.
    """

    FAULT_CAP = 256
    BUDGET = 512
    SEEDS = 24
    #: Patterns of the prefix checked against the interpreted oracle.
    PREFIX = 256
    #: LFSR seeds of the pass that are checked.
    CHECKED = 4
    WARM_SEED = 1

    def setup(self) -> None:
        from repro.api import AtpgSession

        self.session = AtpgSession.open("bulk2k")
        self._bist(self.WARM_SEED, self.BUDGET)

    def _bist(self, lfsr_seed: int, budget: int, **overrides):
        return self.session.bist(
            fault_model="stuck_at",
            max_faults=self.FAULT_CAP,
            bist_seed=lfsr_seed,
            bist_max_patterns=budget,
            **overrides,
        )

    def plan(self, seed: int) -> List[int]:
        rng = random.Random(seed)
        return [rng.randrange(1, 1 << 32) for _ in range(self.SEEDS)]

    def run_op(self, lfsr_seed: int):
        return self._bist(lfsr_seed, self.BUDGET)

    @staticmethod
    def units(op, report) -> int:
        return report.patterns_applied

    @staticmethod
    def signature(report) -> Tuple:
        return (report.signature, report.detected, tuple(report.curve))

    def summarize(self, ops, reports) -> Tuple[float, Dict]:
        faults = sum(r.faults for r in reports)
        detected = sum(r.detected for r in reports)
        counts = {
            "signatures_digest": digest([r.signature for r in reports]),
            "faults": faults,
            "detected": detected,
            "patterns_applied": sum(r.patterns_applied for r in reports),
            "curves_digest": digest([r.curve for r in reports]),
        }
        return detected / faults, counts

    def check(self, ops, reports) -> Tuple[int, int]:
        """Coverage curve and MISR signature of a fixed prefix must match
        the interpreted oracle; returns (runs checked, runs failed)."""
        failed = 0
        for lfsr_seed, report in list(zip(ops, reports))[: self.CHECKED]:
            oracle = self._bist(lfsr_seed, self.PREFIX, fusion="interp")
            fast = self._bist(lfsr_seed, self.PREFIX)
            agree = (
                (fast.signature, fast.detected, fast.curve)
                == (oracle.signature, oracle.detected, oracle.curve)
                and report.curve[: len(oracle.curve)] == oracle.curve
            )
            failed += not agree
        return min(self.CHECKED, len(ops)), failed


WORKLOADS: Dict[str, Callable] = {
    "tpg_robust": TpgRobust,
    "bist_stuck_at": BistStuckAt,
}


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------


def _resolution() -> Tuple[Callable, Callable, set]:
    """What ``backend="auto"`` / ``fusion="auto"`` resolve to here.

    Recorded during the warm-up by watching the kernel's backend choice
    (``backend_for``) and the stuck-at simulators built.
    """
    import repro.sim.delay_sim as delay_sim
    import repro.sim.stuck_at_sim as stuck_at_sim

    seen = set()
    original_for = delay_sim.backend_for
    original_init = stuck_at_sim.StuckAtSimulator.__init__

    def watch_for(n_lanes, prefer="auto", fusion="auto"):
        backend = original_for(n_lanes, prefer, fusion)
        seen.add(describe_backend(prefer, fusion, backend))
        return backend

    def watch_init(self, circuit, fusion="auto", backend="auto"):
        original_init(self, circuit, fusion=fusion, backend=backend)
        kind = "native" if self._native_cones is not None else "int"
        resolved = "codegen_cones" if self._fused else "interp"
        seen.add(f"stuck_at_sim:{backend}->{kind}/{fusion}->{resolved}")

    def install():
        delay_sim.backend_for = watch_for
        stuck_at_sim.StuckAtSimulator.__init__ = watch_init

    def uninstall():
        delay_sim.backend_for = original_for
        stuck_at_sim.StuckAtSimulator.__init__ = original_init

    return install, uninstall, seen


def do_setup(workload, t0: float) -> Tuple[float, List[str]]:
    install, uninstall, seen = _resolution()
    install()
    try:
        workload.setup()
    finally:
        uninstall()
    return time.perf_counter() - t0, sorted(seen)


def do_run(workload, seed: int, seconds: float) -> Dict:
    """Repeat whole passes for *seconds*; time every operation.

    Each operation runs between two runs of the reference loop, and its
    wall time is converted to seconds at the reference host speed
    (:func:`common.at_reference`): on a shared host the same work's wall
    time drifts by up to 1.5x over tens of seconds, and that drift is
    the host's, not the program's.  ``p50`` / ``p95`` are taken over
    every timed call of the run (each operation the same number of
    times, since only whole passes run) and the rate is the work of all
    passes over the sum of those times.  The same figures in wall-clock
    time are returned too.
    """
    ops = workload.plan(seed)
    elapsed: List[float] = []
    refs = [reference_loop()]
    units = 0
    first: List = []
    signatures: List = []
    mismatches = 0
    passes = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    while passes == 0 or clock() < deadline:
        for index, op in enumerate(ops):
            start = clock()
            result = workload.run_op(op)
            elapsed.append(clock() - start)
            refs.append(reference_loop())
            signature = workload.signature(result)
            if passes == 0:
                first.append(result)
                signatures.append(signature)
                units += workload.units(op, result)
            else:
                mismatches += signature != signatures[index]
        passes += 1
    rss = peak_rss_mb()
    scaled = at_reference(elapsed, refs)
    efficiency, counts = workload.summarize(ops, first)
    checked, failed = workload.check(ops, first)
    return {
        "latencies_ms": [seconds_ * 1000.0 for seconds_ in scaled],
        "rate_per_s": units * passes / sum(scaled),
        "wall": {
            "p50_ms": percentile(elapsed, 0.50) * 1000.0,
            "p95_ms": percentile(elapsed, 0.95) * 1000.0,
            "rate_per_s": units * passes / sum(elapsed),
        },
        "peak_rss_mb": rss,
        "fault_efficiency": efficiency,
        "counts": counts,
        "passes": passes,
        "attempted": passes * len(ops) + checked,
        "failed": failed + mismatches,
    }


def do_trace(workload, seed: int, tracer) -> Dict:
    """Untraced and traced passes of the same work, alternating."""
    from tracing import counts_in, layer_values, median_values, self_times

    setup_spans = list(tracer.spans)
    tracer.uninstall()
    ops = workload.plan(seed)
    walls = {"untraced": [], "traced": []}
    per_pass = []
    outcomes = []
    for _ in range(TRACE_REPEATS):
        for mode in ("untraced", "traced"):
            if mode == "traced":
                tracer.reset()
                tracer.install()
            start = time.perf_counter()
            results = [workload.run_op(op) for op in ops]
            end = time.perf_counter()
            walls[mode].append(end - start)
            outcomes.append([workload.signature(r) for r in results])
            if mode == "traced":
                tracer.uninstall()
                values = layer_values(
                    tracer.spans, counts_in(tracer.events, start, end), setup_spans
                )
                _, rooted = self_times(tracer.spans)
                values["trace.coverage"] = rooted / (end - start)
                per_pass.append(values)
    metrics = median_values(per_pass)
    untraced = min(walls["untraced"])
    traced = min(walls["traced"])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    metrics["client.lag_p95_ms"] = 0.0
    # tracing must not change what the program computes
    mismatches = sum(
        a != b for outcome in outcomes[1:] for a, b in zip(outcomes[0], outcome)
    )
    return {
        "layers": metrics,
        "pass_wall_s": untraced,
        "attempted": sum(len(o) for o in outcomes),
        "failed": mismatches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s, resolved = do_setup(workload, args.t0)
    result: Dict = {
        "setup_s": setup_s,
        "setup_refs": reference_samples(),
        "resolved": resolved,
    }
    if args.mode == "run":
        result.update(do_run(workload, args.seed, args.seconds))
    elif args.mode == "trace":
        result.update(do_trace(workload, args.seed, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
