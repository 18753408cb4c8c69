"""Fused execution strategies are bit-identical to the interpreter.

The contract of the plan-fusion layer: ``interp`` (the per-gate
oracle loop), ``vector`` (level-vectorized numpy groups), ``codegen``
(straight-line compiled bodies) and the compiled-C ``native`` word
backend may differ only in speed.  These tests assert bit-identity on
randomized circuits and inputs for two-valued, seven-valued, and
ten-valued simulation, for detection masks and detection-strength
grading across both test classes, for stuck-at cone resimulation, for
the TPG implication engine's fused step and justification tables, and for
end-to-end generation / grading / stuck-at coverage on c880.  The
native classes are skip-marked cleanly on hosts without a C
toolchain; the fallback path itself is covered in ``test_kernel.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AtpgSession, Options
from repro.circuit import Circuit, GateType
from repro.circuit.generators import random_dag
from repro.circuit.suites import suite_circuit
from repro.core.patterns import random_patterns
from repro.core.results import FaultStatus
from repro.core.state import SEVEN_VALUED, THREE_VALUED, TpgState
from repro.core.stuck_at import all_stuck_at_faults
from repro.kernel import (
    IntWordBackend,
    NativeWordBackend,
    NumpyWordBackend,
    PackedPatterns,
    fused_plan,
    native_available,
    words_to_int,
)
from repro.kernel.codegen import gate_backward_fn, gate_forward_fn
from repro.kernel.compiled import GATE_CODES
from repro.logic import seven_valued, three_valued
from repro.logic.words import mask_for
from repro.paths import TestClass, fault_list
from repro.sim import DelayFaultSimulator, StuckAtSimulator
from repro.sim.delay_sim import (
    pack_patterns,
    simulate_planes10,
    strength_masks,
    strength_masks_all,
)
from repro.sim.logic_sim import pack_vectors

circuit_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=3, max_value=8),  # inputs
    st.integers(min_value=5, max_value=40),  # gates
)


def _int_rows(array_values, valid_int=None):
    rows = [words_to_int(np.ascontiguousarray(row)) for row in array_values]
    if valid_int is not None:
        rows = [row & valid_int for row in rows]
    return rows


class TestLogicStrategies:
    @settings(max_examples=40, deadline=None)
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_two_valued_bit_identity(self, params, n_vectors):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        compiled = circuit.compiled()
        rng = random.Random(seed + 1)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs]
            for _ in range(n_vectors)
        ]
        words = pack_vectors(vectors)
        oracle = IntWordBackend(n_vectors, fusion="interp").simulate_logic(
            compiled, words
        )
        assert (
            IntWordBackend(n_vectors, fusion="codegen").simulate_logic(
                compiled, words
            )
            == oracle
        )
        packed = PackedPatterns.from_vectors(vectors)
        valid = words_to_int(packed.lane_valid())
        masked_oracle = [word & valid for word in oracle]
        for fusion in ("interp", "vector", "codegen"):
            values = NumpyWordBackend(
                n_vectors, fusion=fusion
            ).simulate_logic(compiled, packed.v2)
            assert _int_rows(np.asarray(values), valid) == masked_oracle, fusion

    @settings(max_examples=40, deadline=None)
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_seven_valued_bit_identity(self, params, n_patterns):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        compiled = circuit.compiled()
        patterns = random_patterns(circuit, n_patterns, seed + 2)
        input_planes, width = pack_patterns(circuit, patterns)
        oracle = IntWordBackend(width, fusion="interp").simulate_planes7(
            compiled, input_planes
        )
        assert (
            IntWordBackend(width, fusion="codegen").simulate_planes7(
                compiled, input_planes
            )
            == oracle
        )
        packed = PackedPatterns.from_patterns(patterns)
        for fusion in ("interp", "vector", "codegen"):
            values = NumpyWordBackend(width, fusion=fusion).simulate_planes7(
                compiled, packed.planes7()
            )
            as_ints = [
                tuple(words_to_int(np.ascontiguousarray(p)) for p in planes)
                for planes in values
            ]
            assert as_ints == oracle, fusion


class TestTenValuedStrategies:
    @settings(max_examples=30, deadline=None)
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_ten_valued_bit_identity(self, params, n_patterns):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        compiled = circuit.compiled()
        patterns = random_patterns(circuit, n_patterns, seed + 6)
        oracle, width = simulate_planes10(circuit, patterns, fusion="interp")
        fused, _ = simulate_planes10(circuit, patterns, fusion="codegen")
        assert fused == oracle
        packed = PackedPatterns.from_patterns(patterns)
        valid = packed.lane_valid()
        inputs10 = [(z, o, s, i, valid) for z, o, s, i in packed.planes7()]
        for fusion in ("interp", "vector", "codegen"):
            values = NumpyWordBackend(width, fusion=fusion).simulate_planes10(
                compiled, inputs10
            )
            as_ints = [
                tuple(words_to_int(np.ascontiguousarray(p)) for p in planes)
                for planes in values
            ]
            assert as_ints == oracle, fusion

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_strength_grading_bit_identical_across_strategies(
        self, params, n_patterns
    ):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        faults = fault_list(circuit, cap=16, strategy="all")
        patterns = random_patterns(circuit, n_patterns, seed + 7)
        # per-fault oracle walk over the interpreted int-word pass
        values, width = simulate_planes10(circuit, patterns, fusion="interp")
        reference = [
            strength_masks(circuit, fault, values, width) for fault in faults
        ]
        for backend in ("int", "numpy"):
            for fusion in ("interp", "vector", "codegen", "auto"):
                triples = strength_masks_all(
                    circuit, patterns, faults, backend=backend, fusion=fusion
                )
                assert triples == reference, (backend, fusion)
        # containment: strong <= robust <= nonrobust, lane-wise
        for nonrobust, robust, strong in reference:
            assert strong & ~robust == 0
            assert robust & ~nonrobust == 0


class TestStuckAtStrategies:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_cone_resim_bit_identical_across_strategies(self, params, n_vectors):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        rng = random.Random(seed + 8)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs]
            for _ in range(n_vectors)
        ]
        faults = all_stuck_at_faults(circuit)
        oracle = StuckAtSimulator(circuit, fusion="interp").detected_faults(
            vectors, faults
        )
        # backend="int" pins the Python cone bodies; "auto" is native
        # wherever the library is available
        for fusion, backend in (
            ("codegen", "int"), ("auto", "int"), ("auto", "auto")
        ):
            sim = StuckAtSimulator(circuit, fusion=fusion, backend=backend)
            assert sim.detected_faults(vectors, faults) == oracle, fusion
            # repeated calls serve from the same memoized cone bodies
            assert sim.detected_faults(vectors, faults) == oracle, fusion

    def test_interp_cone_plans_cached_across_calls(self):
        circuit = random_dag(5, 20, seed=11)
        sim = StuckAtSimulator(circuit, fusion="interp")
        faults = all_stuck_at_faults(circuit)
        vectors = [[lane & 1 for _ in circuit.inputs] for lane in range(8)]
        sim.detected_faults(vectors, faults)
        plans = {site: plan for site, plan in sim._cone_plans.items()}
        sim.detected_faults(vectors, faults)
        for site, plan in sim._cone_plans.items():
            assert plans[site] is plan  # rebuilt nothing


class TestDetectionMasks:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit_params, st.sampled_from(list(TestClass)))
    def test_masks_bit_identical_across_strategies(self, params, test_class):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        faults = fault_list(circuit, cap=24, strategy="all")
        patterns = random_patterns(circuit, 100, seed + 3)
        reference = None
        for backend in ("int", "numpy"):
            for fusion in ("interp", "vector", "codegen"):
                sim = DelayFaultSimulator(
                    circuit, test_class, backend=backend, fusion=fusion
                )
                masks = sim.detection_masks(patterns, faults)
                if reference is None:
                    reference = masks
                else:
                    assert masks == reference, (backend, fusion)


def _with_twin_fanins(circuit, seed):
    """*circuit* plus gates that read one signal twice.

    ``random_dag`` never repeats a fanin, but netlists may; the fused
    step must then merge both positions' additions in fanin order.
    """
    rng = random.Random(seed)
    twin = Circuit(name=f"{circuit.name}_twin")
    for gate in circuit.gates:
        if gate.is_input:
            twin.add_input(gate.name)
        else:
            twin.add_gate(gate.name, gate.gate_type, gate.fanin)
    shapes = (
        (GateType.AND, "aa"),
        (GateType.NOR, "aba"),
        (GateType.XOR, "aa"),
        (GateType.NAND, "aba"),
        (GateType.OR, "aa"),
        (GateType.XNOR, "aba"),
    )
    for k, (gate_type, pattern) in enumerate(shapes):
        a, b = rng.sample(range(len(twin.gates)), 2)
        twin.add_gate(f"twin{k}", gate_type, [a if c == "a" else b for c in pattern])
        twin.mark_output(f"twin{k}")
    for signal in circuit.outputs:
        twin.mark_output(signal)
    return twin.freeze()


def _engine_state(state):
    """Everything the implication engine leaves behind."""
    return (
        list(state.planes),
        state.conflict_mask,
        dict(state.conflict_sites),
        state.implication_passes,
        list(state._trail),
        state.scan_unjustified(),
    )


class TestImplicationForwardTable:
    @settings(max_examples=40, deadline=None)
    @given(
        circuit_params,
        st.sampled_from(["three", "seven"]),
        st.booleans(),
        st.booleans(),
    )
    def test_imply_matches_interp(self, params, algebra_name, use_backward, twin):
        """The fused step table leaves the engine exactly as the oracle
        does through mark / assign / imply / rollback / imply."""
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        if twin:
            circuit = _with_twin_fanins(circuit, seed)
        algebra = THREE_VALUED if algebra_name == "three" else SEVEN_VALUED
        width = 8
        rng = random.Random(seed + 4)

        def draw(count):
            moves = []
            for _ in range(count):
                lanes = rng.randrange(1, 1 << width)
                if algebra_name == "three":
                    planes = three_valued.encode_word(rng.randint(0, 1), lanes)
                else:
                    name = rng.choice(["S0", "S1", "R", "F", "U0", "U1"])
                    planes = seven_valued.encode_word(name, lanes)
                moves.append((rng.randrange(circuit.num_signals), planes))
            return moves

        base, extra = draw(3), draw(4)

        def run(fusion):
            state = TpgState(
                circuit, algebra, width, use_backward=use_backward, fusion=fusion
            )
            for signal, planes in base:
                state.assign(signal, planes)
            state.imply()
            token = state.mark()
            for signal, planes in extra:
                state.assign(signal, planes)
            state.imply(stop_when_all_conflicted=False)
            after_imply = _engine_state(state)
            state.rollback(token)
            state.imply()
            return after_imply, _engine_state(state)

        assert run("interp") == run("codegen")

    def test_step_tables_built_once_per_circuit_and_algebra(self):
        """Every TpgState of a circuit shares one step table per algebra
        and implication strength; pickling ships the memo empty."""
        import pickle

        circuit = random_dag(5, 20, seed=3)
        first = TpgState(circuit, SEVEN_VALUED, 8)
        assert TpgState(circuit, SEVEN_VALUED, 16)._steps is first._steps
        forward_only = TpgState(circuit, SEVEN_VALUED, 8, use_backward=False)
        assert forward_only._steps is not first._steps
        assert TpgState(circuit, THREE_VALUED, 8)._steps is not first._steps
        assert TpgState(circuit, SEVEN_VALUED, 8, fusion="interp")._steps is None
        clone = pickle.loads(pickle.dumps(circuit.compiled()))
        assert clone._fusion_cache == {}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_backward_bodies_match_interp_on_arbitrary_planes(self, seed):
        """The compiled forward and unrolled backward bodies equal
        ``Algebra.forward`` / ``Algebra.backward`` for every gate shape
        up to arity 4, on arbitrary (not only consistent) planes."""
        rng = random.Random(seed + 9)
        mask = mask_for(8)
        for algebra in (THREE_VALUED, SEVEN_VALUED):
            for gate_type, code in GATE_CODES.items():
                if gate_type is GateType.INPUT:
                    continue
                single = gate_type in (GateType.BUF, GateType.NOT)
                for arity in (1,) if single else (2, 3, 4):
                    out = tuple(
                        rng.randint(0, mask) for _ in range(algebra.n_planes)
                    )
                    ins = [
                        tuple(rng.randint(0, mask) for _ in range(algebra.n_planes))
                        for _ in range(arity)
                    ]
                    shape = (algebra.name, gate_type, arity)
                    forward = gate_forward_fn(algebra.name, code, arity)
                    assert tuple(forward(ins, mask)) == tuple(
                        algebra.forward(gate_type, ins, mask)
                    ), shape
                    backward = gate_backward_fn(algebra.name, code, arity)
                    assert list(backward(out, ins, mask)) == list(
                        algebra.backward(gate_type, out, ins, mask)
                    ), shape

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_dirty_scan_matches_direct_computation(self, seed):
        """The cached justification scan equals per-signal recomputation,
        through assign/imply/rollback/flatten sequences."""
        circuit = random_dag(5, 18, seed=seed)
        state = TpgState(circuit, SEVEN_VALUED, 8)
        rng = random.Random(seed + 5)

        def assert_scan_consistent():
            scanned = dict(state.scan_unjustified())
            live = state.mask & ~state.conflict_mask
            direct = {}
            for index in range(circuit.num_signals):
                m = state.unjustified_lanes(index) & live
                if m:
                    direct[index] = m
            assert scanned == direct
            expected_all = live
            for m in direct.values():
                expected_all &= ~m
            assert state.all_justified_mask() == expected_all

        token = None
        for step in range(12):
            signal = rng.randrange(circuit.num_signals)
            planes = seven_valued.encode_word(
                rng.choice(["S0", "S1", "R", "F"]), 1 << rng.randrange(8)
            )
            if step == 4:
                token = state.mark()
            state.assign(signal, planes)
            if rng.random() < 0.5:
                state.imply()
            assert_scan_consistent()
        if token is not None:
            state.rollback(token)
            assert_scan_consistent()
        state.flatten_lane(2)
        assert_scan_consistent()


def _generation_outcome(session, **kwargs):
    """Statuses, search counters and emitted patterns of one run."""
    report = session.generate(**kwargs)
    return (
        [record.status for record in report.records],
        report.decisions,
        report.backtracks,
        report.implication_passes,
        report.patterns,
    )


class TestEndToEnd:
    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_c880_statuses_identical_under_auto_fusion(self, test_class):
        outcomes = {
            fusion: _generation_outcome(
                AtpgSession.open("c880", options=Options(width=16, fusion=fusion)),
                test_class=test_class,
                max_faults=96,
            )
            for fusion in ("interp", "auto")
        }
        assert outcomes["interp"] == outcomes["auto"]

    def test_dag60_robust_identical_under_auto_fusion(self):
        """The redundancy-heavy robust case (most faults end in FPTPG
        conflicts or APTPG refutation)."""
        outcomes = {
            fusion: _generation_outcome(
                AtpgSession(
                    random_dag(12, 60, seed=1995, name="dag60"),
                    options=Options(fusion=fusion),
                ),
                test_class=TestClass.ROBUST,
                max_faults=512,
            )
            for fusion in ("interp", "auto")
        }
        assert outcomes["interp"] == outcomes["auto"]
        statuses = outcomes["auto"][0]
        assert statuses.count(FaultStatus.REDUNDANT) > len(statuses) // 2

    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_c880_grade_identical_under_auto_fusion(self, test_class):
        session = AtpgSession.open("c880")
        faults = fault_list(session.circuit, cap=64, strategy="all")
        patterns = random_patterns(session.circuit, 100, 13)
        reports = {
            fusion: session.grade(
                patterns,
                faults,
                test_class=test_class,
                fusion=fusion,
                strength=True,
            )
            for fusion in ("interp", "auto")
        }
        assert reports["interp"] == reports["auto"]
        report = reports["auto"]
        assert len(report["strengths"]) == len(faults)
        assert sum(report["strength_counts"].values()) == sum(
            1 for label in report["strengths"] if label is not None
        )
        # the strength path derives detection from the 10-valued pass;
        # it must agree with the plain 7-valued grading flags
        plain = session.grade(patterns, faults, test_class=test_class)
        assert report["detected_flags"] == plain["detected_flags"]

    def test_c880_stuck_at_coverage_identical_under_auto_fusion(self):
        circuit = suite_circuit("c880")
        faults = all_stuck_at_faults(circuit)[:120]
        rng = random.Random(17)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(100)
        ]
        interp = StuckAtSimulator(circuit, fusion="interp")
        fused = StuckAtSimulator(circuit, fusion="auto")
        assert fused.detected_faults(vectors, faults) == interp.detected_faults(
            vectors, faults
        )
        assert fused.coverage(vectors, faults) == interp.coverage(
            vectors, faults
        )

    def test_bulk2k_suite_circuit_is_large(self):
        circuit = suite_circuit("bulk2k")
        assert circuit.num_signals - len(circuit.inputs) >= 2000

    def test_fused_plan_covers_every_gate_once(self):
        circuit = suite_circuit("bulk2k")
        compiled = circuit.compiled()
        plan = fused_plan(compiled)
        outs = np.concatenate([group.outs for group in plan.groups])
        assert len(outs) == plan.n_gates == len(compiled.plan)
        assert len(np.unique(outs)) == len(outs)
        # every fanin is strictly below its group's outputs in level
        for group in plan.groups:
            out_levels = compiled.level[group.outs]
            fanin_levels = compiled.level[group.fanins]
            assert (fanin_levels < out_levels[:, None]).all()


# ---------------------------------------------------------------------------
# the compiled-C native backend
# ---------------------------------------------------------------------------

needs_toolchain = pytest.mark.skipif(
    not native_available(),
    reason="no C toolchain: native word backend unavailable",
)


@needs_toolchain
class TestNativeBackend:
    """Native vs the interpreted oracle, every covered pass per example.

    One hypothesis example costs one cffi module build, so this suite
    runs few examples but checks all native entry points — 2-valued,
    7-valued and 10-valued passes, PPSFP detection masks in both
    classes, strength triples, and stuck-at cone resimulation — on
    each random circuit.
    """

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_native_bit_identical_to_interp_on_every_pass(
        self, params, n_patterns
    ):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        compiled = circuit.compiled()
        rng = random.Random(seed + 10)
        n_vectors = n_patterns

        # --- two-valued full pass
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs]
            for _ in range(n_vectors)
        ]
        packed = PackedPatterns.from_vectors(vectors)
        valid = words_to_int(packed.lane_valid())
        oracle2 = IntWordBackend(n_vectors, fusion="interp").simulate_logic(
            compiled, pack_vectors(vectors)
        )
        native2 = NativeWordBackend(n_vectors).simulate_logic(
            compiled, packed.v2
        )
        assert _int_rows(np.asarray(native2), valid) == [
            word & valid for word in oracle2
        ]

        # --- seven-valued full pass
        patterns = random_patterns(circuit, n_patterns, seed + 11)
        input_planes, width = pack_patterns(circuit, patterns)
        oracle7 = IntWordBackend(width, fusion="interp").simulate_planes7(
            compiled, input_planes
        )
        packed = PackedPatterns.from_patterns(patterns)
        native7 = NativeWordBackend(width).simulate_planes7(
            compiled, packed.planes7()
        )
        assert [
            tuple(words_to_int(np.ascontiguousarray(p)) for p in planes)
            for planes in native7
        ] == oracle7

        # --- ten-valued full pass
        oracle10, _ = simulate_planes10(circuit, patterns, fusion="interp")
        lane_valid = packed.lane_valid()
        inputs10 = [(z, o, s, i, lane_valid) for z, o, s, i in packed.planes7()]
        native10 = NativeWordBackend(width).simulate_planes10(
            compiled, inputs10
        )
        assert [
            tuple(words_to_int(np.ascontiguousarray(p)) for p in planes)
            for planes in native10
        ] == oracle10

        # --- PPSFP detection masks, both classes, walk inside C
        faults = fault_list(circuit, cap=12, strategy="all")
        for test_class in TestClass:
            interp_sim = DelayFaultSimulator(
                circuit, test_class, backend="numpy", fusion="interp"
            )
            native_sim = DelayFaultSimulator(
                circuit, test_class, backend="native"
            )
            assert native_sim.detection_masks(
                patterns, faults
            ) == interp_sim.detection_masks(patterns, faults), test_class

        # --- 10-valued strength triples, walk inside C
        assert strength_masks_all(
            circuit, patterns, faults, backend="native"
        ) == strength_masks_all(
            circuit, patterns, faults, backend="int", fusion="interp"
        )

        # --- stuck-at cone resimulation inside C
        sa_faults = all_stuck_at_faults(circuit)
        assert StuckAtSimulator(circuit, backend="native").detected_faults(
            vectors, sa_faults
        ) == StuckAtSimulator(circuit, fusion="interp").detected_faults(
            vectors, sa_faults
        )

    def test_empty_fault_batch(self):
        circuit = random_dag(4, 12, seed=3)
        patterns = random_patterns(circuit, 10, 4)
        sim = DelayFaultSimulator(
            circuit, TestClass.ROBUST, backend="native"
        )
        assert sim.detection_masks(patterns, []) == []
        assert strength_masks_all(circuit, patterns, [], backend="native") == []


@needs_toolchain
class TestNativeEndToEnd:
    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_c880_statuses_identical_under_native_backend(self, test_class):
        statuses = {}
        for sim_backend in ("auto", "native"):
            session = AtpgSession.open(
                "c880", options=Options(width=16, sim_backend=sim_backend)
            )
            report = session.generate(test_class=test_class, max_faults=96)
            statuses[sim_backend] = [
                record.status for record in report.records
            ]
        assert statuses["auto"] == statuses["native"]

    def test_c880_grade_identical_under_native_backend(self):
        session = AtpgSession.open("c880")
        faults = fault_list(session.circuit, cap=64, strategy="all")
        patterns = random_patterns(session.circuit, 100, 13)
        reports = {
            backend: session.grade(
                patterns, faults, backend=backend, strength=True
            )
            for backend in ("auto", "native")
        }
        assert reports["auto"] == reports["native"]

    def test_c880_stuck_at_coverage_identical_under_native_backend(self):
        circuit = suite_circuit("c880")
        faults = all_stuck_at_faults(circuit)[:120]
        rng = random.Random(17)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(100)
        ]
        interp = StuckAtSimulator(circuit, fusion="interp")
        native = StuckAtSimulator(circuit, backend="native")
        assert native.detected_faults(vectors, faults) == (
            interp.detected_faults(vectors, faults)
        )
        assert native.coverage(vectors, faults) == interp.coverage(
            vectors, faults
        )
