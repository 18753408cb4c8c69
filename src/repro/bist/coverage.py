"""Fault-dropping coverage-curve simulation for BIST pattern streams.

The driver loop of the subsystem: pull a window of patterns from the
LFSR as one packed lane slab, grade the remaining (undetected) faults
against the whole window in one kernel call, drop what was caught,
absorb the fault-free PO responses into the MISR, record a coverage
point, and stop when the target coverage or the pattern budget is
reached.  Works for both fault models:

* ``stuck_at`` — single-vector patterns through
  :class:`repro.sim.stuck_at_sim.StuckAtSimulator`;
* ``path_delay`` — consecutive LFSR states as launch/capture pairs
  through :meth:`repro.sim.delay_sim.DelayFaultSimulator.detection_masks`.

Every backend/fusion combination grades bit-identically (the kernel's
contract), so the curve itself is backend-invariant — asserted by the
test suite and the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..kernel.packed import unpack_bits
from ..paths import TestClass
from ..sim.logic_sim import simulate_array
from .lfsr import LFSR
from .misr import MISR

#: Fault models the loop can grade.
FAULT_MODELS: Tuple[str, ...] = ("stuck_at", "path_delay")

#: Why a run ended.
STOP_REASONS: Tuple[str, ...] = (
    "target_coverage",
    "all_detected",
    "max_patterns",
    "stopped",
)


@dataclass
class BistResult:
    """Raw loop outcome (the session wraps this into a `BistReport`)."""

    fault_model: str
    faults: int
    detected: int
    patterns_applied: int
    windows: int
    stop_reason: str
    signature: int
    curve: List[Tuple[int, int]] = field(default_factory=list)
    detected_flags: List[bool] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        return self.detected / self.faults if self.faults else 1.0


def _map_backend(fault_model: str, backend: str) -> str:
    # "numpy" only exists as a distinct choice on the delay simulator;
    # the stuck-at simulator's zero-toolchain path is its "int" words
    if fault_model == "stuck_at" and backend == "numpy":
        return "int"
    return backend


def run_bist(
    circuit: Circuit,
    lfsr: LFSR,
    misr: MISR,
    faults: Sequence,
    *,
    fault_model: str = "stuck_at",
    test_class: TestClass = TestClass.NONROBUST,
    window: int = 256,
    max_patterns: int = 4096,
    target_coverage: Optional[float] = None,
    backend: str = "auto",
    fusion: str = "auto",
    control=None,
) -> BistResult:
    """Run the windowed fault-dropping loop; mutates *lfsr* and *misr*.

    Args:
        faults: the fault set to grade — ``StuckAtFault`` objects for
            ``fault_model="stuck_at"``, ``PathDelayFault`` objects for
            ``"path_delay"``.
        window: patterns per simulation window (one kernel call and
            one coverage point each).
        max_patterns: hard pattern budget.
        target_coverage: stop once ``detected / faults`` reaches this
            fraction (``None`` = run out the budget).
        control: optional :class:`repro.campaign.CampaignControl`; its
            ``should_stop`` is polled at window boundaries and
            ``on_round`` receives per-window progress counters — the
            hook the service's job queue cancels and reports through.

    The good-machine PO responses of every applied window are absorbed
    into *misr* (capture-vector steady state), so ``misr.signature``
    after the run is the golden signature of the applied stream.
    """
    if fault_model not in FAULT_MODELS:
        raise ValueError(
            f"fault_model must be one of {FAULT_MODELS}, got {fault_model!r}"
        )
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if max_patterns < 1:
        raise ValueError(f"max_patterns must be >= 1, got {max_patterns}")
    if target_coverage is not None and not 0.0 < target_coverage <= 1.0:
        raise ValueError(
            f"target_coverage must be in (0, 1], got {target_coverage}"
        )

    n_pis = len(circuit.inputs)
    outputs = np.asarray(circuit.outputs, dtype=np.intp)
    remaining = list(enumerate(faults))
    flags = [False] * len(remaining)
    detected = 0
    applied = 0
    windows = 0
    curve: List[Tuple[int, int]] = []
    two_vector = fault_model == "path_delay"

    if fault_model == "stuck_at":
        from ..sim.stuck_at_sim import StuckAtSimulator  # lazy: heavy import

        sim = StuckAtSimulator(
            circuit, fusion=fusion, backend=_map_backend(fault_model, backend)
        )
    else:
        from ..sim.delay_sim import DelayFaultSimulator  # lazy: import cycle

        sim = DelayFaultSimulator(
            circuit, test_class, backend=backend, fusion=fusion
        )

    def target_met() -> bool:
        if not flags:
            return True
        if not remaining:
            return True
        if target_coverage is None:
            return False
        return detected / len(flags) >= target_coverage

    stop_reason = None
    while True:
        if target_met():
            stop_reason = (
                "all_detected" if not remaining else "target_coverage"
            )
            break
        if applied >= max_patterns:
            stop_reason = "max_patterns"
            break
        if control is not None and control.should_stop():
            stop_reason = "stopped"
            break

        count = min(window, max_patterns - applied)
        packed = lfsr.take(count, n_pis, two_vector=two_vector)

        # golden responses: capture-vector steady state into the MISR
        values = simulate_array(circuit, packed.v2, fusion=fusion)
        misr.absorb_planes(values[outputs], count)

        if fault_model == "stuck_at":
            vectors = list(unpack_bits(packed.v2, count))
            hits = sim.detected_faults(vectors, [f for _, f in remaining])
            caught = [hits.get(f, 0) != 0 for _, f in remaining]
        else:
            masks = sim.detection_masks(packed, [f for _, f in remaining])
            caught = [mask != 0 for mask in masks]

        still = []
        for (index, fault), hit in zip(remaining, caught):
            if hit:
                flags[index] = True
                detected += 1
            else:
                still.append((index, fault))
        remaining = still
        applied += count
        windows += 1
        curve.append((applied, detected))
        if control is not None:
            control.on_round(
                {
                    "windows": windows,
                    "patterns": applied,
                    "faults": len(flags),
                    "detected": detected,
                }
            )

    return BistResult(
        fault_model=fault_model,
        faults=len(flags),
        detected=detected,
        patterns_applied=applied,
        windows=windows,
        stop_reason=stop_reason,
        signature=misr.signature,
        curve=curve,
        detected_flags=flags,
    )
