"""Span tracing of the program's layers, from the benchmark's own code.

The benchmark does not edit the program.  To see where time goes it
wraps the public entry points of each layer (module functions and
class methods) with a recording shim, and restores the originals
afterwards.  A function that other modules imported by name is
rebound in every ``repro`` module that holds it, so each call site
sees the wrapper.

Each call records one span ``(name, start, end, parent)`` in memory;
parents come from a per-thread stack, so nested layers attribute their
time correctly even inside the threaded HTTP server.  Counts that a
layer metric needs (faults sent to FPTPG, pending faults checked by the
drop bus, ...) are taken at the same boundary from the call's
arguments and result.

Usage::

    tracer = Tracer()
    tracer.install()
    ...            # run the workload
    tracer.uninstall()
    values = layer_values(
        in_window(tracer.spans, t0, t1),
        counts_in(tracer.events, t0, t1),
        setup_spans,
    )
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Modules imported before wrapping, so every by-name import of a
#: wrapped function already exists when the rebinding scan runs.
PRELOAD = (
    "repro.kernel.compiled",
    "repro.kernel.codegen",
    "repro.kernel.native",
    "repro.kernel.backends",
    "repro.core.state",
    "repro.core.sensitize",
    "repro.core.backtrace",
    "repro.core.fptpg",
    "repro.core.aptpg",
    "repro.core.engine",
    "repro.campaign.bus",
    "repro.campaign.scheduler",
    "repro.campaign.runner",
    "repro.sim.delay_sim",
    "repro.sim.stuck_at_sim",
    "repro.sim.logic_sim",
    "repro.bist.lfsr",
    "repro.bist.misr",
    "repro.bist.coverage",
    "repro.bist",
    "repro.api.session",
    "repro.api.coalesce",
    "repro.api.service",
)


# --------------------------------------------------------------------------
# count hooks: (args, kwargs, result, counts) -> None, run after the call
# --------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_fptpg(args, kwargs, result, add) -> None:
    add("fptpg.sent", len(_arg(args, kwargs, 1, "faults")))
    add(
        "fptpg.settled",
        sum(1 for status in result.statuses if status.value != "deferred"),
    )


def _count_aptpg(args, kwargs, result, add) -> None:
    add("aptpg.backtracks", result.backtracks)


def _count_backtrace(args, kwargs, result, add) -> None:
    if result is not None:
        add("backtrace.decisions", 1)


def _count_bus_absorb(args, kwargs, result, add) -> None:
    bus, fresh = args[0], _arg(args, kwargs, 1, "fresh")
    pending = _arg(args, kwargs, 2, "pending")
    if fresh and bus.enabled and pending:
        add("bus.checked", len(pending))
        add("bus.dropped", len(result))


def _count_bus_admit(args, kwargs, result, add) -> None:
    survivors, dropped = result
    add("bus.checked", len(survivors) + len(dropped))
    add("bus.dropped", len(dropped))


def _count_delay_sim(args, kwargs, result, add) -> None:
    patterns = _arg(args, kwargs, 1, "patterns")
    add("delay_sim.pattern_faults", len(patterns) * len(result))


def _count_stuck_at(args, kwargs, result, add) -> None:
    faults = _arg(args, kwargs, 2, "faults")
    add("stuck_at.checked", len(faults))
    add("stuck_at.dropped", sum(1 for f in faults if result.get(f, 0)))


#: (span name, "module:attribute path", count hook or None).  One span
#: name may cover several entry points of the same layer.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("kernel.lower", "repro.kernel.compiled:compile_circuit", None),
    ("kernel.codegen", "repro.kernel.codegen:logic_fn", None),
    ("kernel.codegen", "repro.kernel.codegen:planes7_fn", None),
    ("kernel.codegen", "repro.kernel.codegen:planes10_fn", None),
    ("kernel.codegen", "repro.kernel.codegen:forward_table", None),
    ("kernel.codegen", "repro.kernel.codegen:backward_table", None),
    ("kernel.codegen", "repro.kernel.codegen:cone_fault_fn", None),
    ("kernel.native.build", "repro.kernel.native:native_module", None),
    ("core.state.imply", "repro.core.state:TpgState.imply", None),
    ("core.sensitize", "repro.core.sensitize:sensitize_robust", None),
    ("core.sensitize", "repro.core.sensitize:sensitize_nonrobust", None),
    ("core.backtrace", "repro.core.backtrace:backtrace", _count_backtrace),
    ("core.fptpg", "repro.core.fptpg:run_fptpg", _count_fptpg),
    ("core.aptpg", "repro.core.aptpg:run_aptpg", _count_aptpg),
    ("campaign.bus", "repro.campaign.bus:DropBus.absorb", _count_bus_absorb),
    ("campaign.bus", "repro.campaign.bus:DropBus.admit", _count_bus_admit),
    ("campaign.runner", "repro.campaign.runner:execute_campaign", None),
    (
        "sim.delay_sim",
        "repro.sim.delay_sim:DelayFaultSimulator.detection_masks",
        _count_delay_sim,
    ),
    (
        "sim.stuck_at_sim",
        "repro.sim.stuck_at_sim:StuckAtSimulator.detected_faults",
        _count_stuck_at,
    ),
    ("bist.lfsr", "repro.bist.lfsr:LFSR.take", None),
    ("bist.misr", "repro.bist.misr:MISR.absorb_planes", None),
    ("bist.coverage", "repro.bist.coverage:run_bist", None),
    ("api.http", "repro.api.service:_Handler.do_POST", None),
    ("api.service.decode", "repro.api.service:request_from_payload", None),
    ("api.service.dispatch", "repro.api.service:AtpgService.handle", None),
    ("api.coalesce", "repro.api.coalesce:Coalescer.run", None),
    (
        "api.session.resilient_masks",
        "repro.api.session:AtpgSession.resilient_masks",
        None,
    ),
)

#: One span: (id, name, start, end, parent id or -1).
Span = Tuple[int, str, float, float, int]


class Tracer:
    """Install/uninstall recording wrappers around :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (time, key, amount) count events, so counts can be windowed
        self.events: List[Tuple[float, str, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: (owner, attribute, wrapper, original) of every installed wrapper
        self._undo: List[Tuple[object, str, Callable, Callable]] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]):
        spans, events, ids, local = self.spans, self.events, self._ids, self._local
        clock = time.perf_counter
        implication = name == "core.state.imply"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            if implication:
                passes_before = args[0].implication_passes
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
            if implication:
                events.append(
                    (
                        end,
                        "state.implication_passes",
                        args[0].implication_passes - passes_before,
                    )
                )
            if hook is not None:
                hook(
                    args,
                    kwargs,
                    result,
                    lambda key, amount: events.append((end, key, amount)),
                )
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target; rebinds by-name imports in ``repro`` modules."""
        if self._undo:
            return
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for name, target, hook in TARGETS:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, hook)
            self._undo.append((owner, attr, wrapper, original))
            setattr(owner, attr, wrapper)
            if not classes:
                self._rebind({original: wrapper})

    def uninstall(self) -> None:
        """Restore every original binding (the untraced program).

        Also catches modules first imported while tracing was on, which
        bound a wrapper by name.
        """
        for owner, attr, wrapper, original in self._undo:
            if owner.__dict__.get(attr) is wrapper:
                setattr(owner, attr, original)
        self._rebind({wrapper: original for _o, _a, wrapper, original in self._undo})
        self._undo.clear()

    @staticmethod
    def _rebind(replace: Dict[object, object]) -> None:
        """In every ``repro`` module, swap each bound key of *replace*."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                try:
                    swapped = replace.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if swapped is not None:
                    setattr(module, key, swapped)

    def reset(self) -> None:
        """Drop recorded spans and count events (keeps the wrappers)."""
        del self.spans[:]
        del self.events[:]


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], float]:
    """(self seconds per span name, seconds covered by root spans).

    A span's self time is its duration minus the part of it that its
    child spans cover (children of one span run on its thread, one
    after another, so their durations add up without overlap).
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    roots = 0.0
    for sid, name, start, end, parent in spans:
        duration = end - start
        totals[name] += max(0.0, duration - child_time.get(sid, 0.0))
        if parent < 0:
            roots += duration
    return totals, roots


def in_window(spans: List[Span], t0: float, t1: float) -> List[Span]:
    """Spans that started inside ``[t0, t1)``."""
    return [span for span in spans if t0 <= span[2] < t1]


def counts_in(events, t0: float, t1: float) -> Dict[str, int]:
    """Summed count events of ``[t0, t1)``."""
    counts: Dict[str, int] = defaultdict(int)
    for when, key, amount in events:
        if t0 <= when < t1:
            counts[key] += amount
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(
    work_spans: List[Span],
    counts: Dict[str, int],
    setup_spans: List[Span],
) -> Dict[str, float]:
    """The span-derived per-layer metrics of ``BENCHMARK.json`` (all but
    the run-level ``client.lag_p95_ms``, ``trace.overhead_frac`` and
    ``trace.coverage``).

    *work_spans* and *counts* cover the traced pass of the measured
    work; *setup_spans* cover the traced set-up (lowering, code
    generation and native builds happen there).
    """
    work, _ = self_times(work_spans)
    setup, _ = self_times(setup_spans)
    return {
        "core.state.imply.self_s": work["core.state.imply"],
        "core.state.implication_passes": counts["state.implication_passes"],
        "core.aptpg.self_s": work["core.aptpg"],
        "core.aptpg.backtracks": counts["aptpg.backtracks"],
        "core.fptpg.self_s": work["core.fptpg"],
        "core.fptpg.settled_ratio": _ratio(
            counts["fptpg.settled"], counts["fptpg.sent"]
        ),
        "core.sensitize.self_s": work["core.sensitize"],
        "core.backtrace.self_s": work["core.backtrace"],
        "core.backtrace.decisions": counts["backtrace.decisions"],
        "campaign.bus.self_s": work["campaign.bus"],
        "campaign.bus.drop_ratio": _ratio(
            counts["bus.dropped"], counts["bus.checked"]
        ),
        "campaign.runner.self_s": work["campaign.runner"],
        "sim.delay_sim.self_s": work["sim.delay_sim"],
        "sim.delay_sim.calls": sum(
            1 for span in work_spans if span[1] == "sim.delay_sim"
        ),
        "sim.delay_sim.pattern_faults": counts["delay_sim.pattern_faults"],
        "api.http.self_s": work["api.http"],
        "api.service.decode.self_s": work["api.service.decode"],
        "api.service.dispatch.self_s": work["api.service.dispatch"],
        "api.coalesce.wait_s": work["api.coalesce"],
        "api.session.resilient_masks.self_s": work[
            "api.session.resilient_masks"
        ],
        "sim.stuck_at_sim.self_s": work["sim.stuck_at_sim"],
        "bist.lfsr.self_s": work["bist.lfsr"],
        "bist.misr.self_s": work["bist.misr"],
        "bist.coverage.self_s": work["bist.coverage"],
        "bist.drop_ratio": _ratio(
            counts["stuck_at.dropped"], counts["stuck_at.checked"]
        ),
        "kernel.lower_s": setup["kernel.lower"] + work["kernel.lower"],
        "kernel.codegen_s": setup["kernel.codegen"] + work["kernel.codegen"],
        "kernel.native.build_s": setup["kernel.native.build"]
        + work["kernel.native.build"],
    }


def median_values(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Per metric, the median over the traced passes."""
    return {
        key: sorted(values[key] for values in per_pass)[len(per_pass) // 2]
        for key in per_pass[0]
    }
