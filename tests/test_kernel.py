"""Tests of the compiled netlist kernel (repro.kernel).

The kernel is the single execution substrate behind every simulator,
so these tests pin it from three directions:

* **structure** — the lowered arrays (gate codes, CSR fanin/fanout,
  levels, topological order, I/O vectors) are a faithful image of the
  frozen circuit, and the compiled form is cached on the circuit;
* **two-valued semantics** — both word backends agree with the naive
  per-vector :meth:`Circuit.evaluate` reference and with each other on
  randomly generated circuits (property-based);
* **seven-valued PPSFP semantics** — the numpy multi-word batch path
  reproduces the seed object-graph implementation
  (:mod:`repro.sim.reference`) lane-for-lane, for both test classes,
  across batches larger than one machine word.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, CircuitError
from repro.circuit.generators import random_dag
from repro.core.patterns import random_patterns as _shared_random_patterns
from repro.kernel import (
    CODE_INPUT,
    GATE_CODES,
    CompiledCircuit,
    IntWordBackend,
    NumpyWordBackend,
    PackedPatterns,
    compile_circuit,
    int_to_words,
    pack_bits,
    words_to_int,
)
from repro.paths import TestClass, fault_list
from repro.sim import DelayFaultSimulator
from repro.sim.logic_sim import pack_vectors, simulate_array, simulate_words
from repro.sim.reference import detected_faults_reference
from repro.sim.stuck_at_sim import StuckAtSimulator
from repro.core.stuck_at import all_stuck_at_faults

PROFILES = ["balanced", "xor_rich", "nand_heavy"]


def make_circuit(seed: int) -> Circuit:
    rng = random.Random(seed)
    return random_dag(
        n_inputs=rng.randint(3, 8),
        n_gates=rng.randint(5, 40),
        seed=seed,
        profile=rng.choice(PROFILES),
        reconvergence=rng.uniform(0.1, 0.5),
    )


def random_patterns(circuit: Circuit, count: int, seed: int):
    return _shared_random_patterns(circuit, count, seed)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


class TestCompiledStructure:
    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lowering_is_faithful(self, seed):
        circuit = make_circuit(seed)
        compiled = circuit.compiled()
        assert isinstance(compiled, CompiledCircuit)
        assert compiled.n_signals == circuit.num_signals
        assert list(compiled.input_index) == circuit.inputs
        assert list(compiled.output_index) == circuit.outputs
        assert list(compiled.order) == circuit.topological_order()
        assert list(compiled.level) == circuit.levels
        for gate in circuit.gates:
            i = gate.index
            assert compiled.py_codes[i] == GATE_CODES[gate.gate_type]
            assert compiled.gate_types[i] is gate.gate_type
            lo, hi = compiled.fanin_offsets[i], compiled.fanin_offsets[i + 1]
            assert tuple(compiled.fanin_index[lo:hi]) == gate.fanin
            assert compiled.fanin_of(i) == gate.fanin
            lo, hi = compiled.fanout_offsets[i], compiled.fanout_offsets[i + 1]
            assert tuple(compiled.fanout_index[lo:hi]) == circuit.fanout(i)
            assert compiled.fanout_of(i) == circuit.fanout(i)
        # the plan covers every non-input signal exactly once, topo order
        planned = [out for _c, out, _f, _t in compiled.plan]
        assert sorted(planned) == sorted(
            g.index for g in circuit.gates if not g.is_input
        )
        seen = set(circuit.inputs)
        for _c, out, fanin, _t in compiled.plan:
            assert all(f in seen for f in fanin)
            seen.add(out)

    def test_level_buckets_partition_the_order(self):
        circuit = make_circuit(7)
        compiled = circuit.compiled()
        collected = []
        for lvl in range(compiled.depth + 1):
            bucket = compiled.level_bucket(lvl)
            assert all(compiled.level[s] == lvl for s in bucket)
            collected.extend(int(s) for s in bucket)
        assert collected == circuit.topological_order()

    def test_input_codes(self):
        circuit = make_circuit(3)
        compiled = circuit.compiled()
        for pi in circuit.inputs:
            assert compiled.py_codes[pi] == CODE_INPUT
            assert compiled.is_input[pi]

    def test_cone_of_contains_fanout_closure(self):
        circuit = make_circuit(11)
        compiled = circuit.compiled()
        site = circuit.inputs[0]
        cone = set(compiled.cone_of(site))
        assert site in cone
        # closure: every fanout of a cone member is in the cone
        for s in list(cone):
            for f in compiled.fanout_of(s):
                assert f in cone

    def test_compiled_is_cached_on_the_circuit(self):
        circuit = make_circuit(1)
        assert circuit.compiled() is circuit.compiled()

    def test_circuit_equality_survives_compilation(self):
        # regression: the _compiled cache must stay out of Circuit.__eq__
        # (CompiledCircuit back-references the circuit, so a generated
        # comparison would recurse; numpy fields have no truth value)
        a, b = make_circuit(6), make_circuit(6)
        assert a == b
        a.compiled()
        b.compiled()
        assert a == b
        assert a.compiled() != b.compiled()  # identity comparison only
        assert a.compiled() == a.compiled()

    def test_compile_requires_freeze(self):
        circuit = Circuit("open")
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.compiled()
        with pytest.raises(CircuitError):
            compile_circuit(circuit)

    def test_mutation_after_freeze_still_raises(self):
        """Freezing memoizes topo/levels/compiled and seals the circuit."""
        circuit = make_circuit(2)
        order = circuit.topological_order()
        assert circuit.topological_order() is order  # memoized, not recomputed
        assert circuit.levels is circuit.levels
        circuit.compiled()
        with pytest.raises(CircuitError):
            circuit.add_input("late_pi")
        with pytest.raises(CircuitError):
            circuit.add_gate("late", "AND", [0, 1])
        with pytest.raises(CircuitError):
            circuit.mark_output(0)


# ---------------------------------------------------------------------------
# packed patterns
# ---------------------------------------------------------------------------


class TestPackedPatterns:
    @given(st.integers(1, 200), st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30)
    def test_pack_bits_matches_pack_vectors(self, count, seed):
        rng = random.Random(seed)
        vectors = [[rng.randint(0, 1) for _ in range(5)] for _ in range(count)]
        words = pack_bits(np.asarray(vectors, dtype=np.uint8))
        expected = pack_vectors(vectors)
        for column in range(5):
            assert words_to_int(words[column]) == expected[column]

    def test_int_words_roundtrip(self):
        value = (1 << 130) | (1 << 64) | 0b1011
        assert words_to_int(int_to_words(value, 3)) == value

    def test_lane_valid_masks_the_tail(self):
        patterns = random_patterns(make_circuit(5), 70, seed=1)
        packed = PackedPatterns.from_patterns(patterns)
        assert packed.n_words == 2
        valid = packed.lane_valid()
        assert valid[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert valid[1] == np.uint64((1 << 6) - 1)

    def test_planes7_encodes_transitions(self):
        circuit = make_circuit(5)
        patterns = random_patterns(circuit, 100, seed=2)
        packed = PackedPatterns.from_patterns(patterns)
        planes = packed.planes7()
        for position in range(len(circuit.inputs)):
            z, o, s, i = (words_to_int(p) for p in planes[position])
            for lane, pattern in enumerate(patterns):
                bit = 1 << lane
                assert bool(o & bit) == bool(pattern.v2[position])
                assert bool(z & bit) == (not pattern.v2[position])
                assert bool(i & bit) == (pattern.v1[position] != pattern.v2[position])
                assert bool(s & bit) == (pattern.v1[position] == pattern.v2[position])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            PackedPatterns.from_patterns([])
        with pytest.raises(ValueError):
            PackedPatterns.from_vectors([])


# ---------------------------------------------------------------------------
# two-valued semantics
# ---------------------------------------------------------------------------


class TestTwoValuedBackends:
    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_backends_match_naive_reference(self, seed):
        circuit = make_circuit(seed)
        rng = random.Random(seed + 1)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(96)
        ]
        # int backend (one 96-lane word)
        int_values = simulate_words(circuit, pack_vectors(vectors), len(vectors))
        # numpy backend (two uint64 words)
        packed = PackedPatterns.from_vectors(vectors)
        array_values = simulate_array(circuit, packed.v2)
        for lane, vector in enumerate(vectors):
            expected = circuit.evaluate(vector)
            for gate in circuit.gates:
                want = expected[gate.name]
                assert (int_values[gate.index] >> lane) & 1 == want
                word, bit = divmod(lane, 64)
                got = int(array_values[gate.index, word] >> np.uint64(bit)) & 1
                assert got == want

    def test_int_backend_validates_input_count(self):
        circuit = make_circuit(9)
        with pytest.raises(ValueError):
            IntWordBackend(4).simulate_logic(circuit.compiled(), [0])
        with pytest.raises(ValueError):
            NumpyWordBackend(4).simulate_logic(
                circuit.compiled(), np.zeros((1, 1), dtype=np.uint64)
            )


# ---------------------------------------------------------------------------
# seven-valued PPSFP semantics
# ---------------------------------------------------------------------------


class TestBatchedPpsfp:
    @given(st.integers(0, 10_000), st.sampled_from(list(TestClass)))
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_numpy_batches_match_seed_reference(self, seed, test_class):
        circuit = make_circuit(seed)
        faults = fault_list(circuit, cap=24, strategy="all")
        if not faults:
            return
        patterns = random_patterns(circuit, 150, seed + 2)
        simulator = DelayFaultSimulator(circuit, test_class, backend="numpy")
        got = simulator.detected_faults(patterns, faults)
        want = {fault: 0 for fault in faults}
        for start in range(0, len(patterns), 64):
            chunk = patterns[start : start + 64]
            hits = detected_faults_reference(circuit, chunk, faults, test_class)
            for fault, lanes in hits.items():
                want[fault] |= lanes << start
        assert got == want

    @given(st.integers(0, 10_000), st.sampled_from(list(TestClass)))
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_int_path_matches_seed_reference(self, seed, test_class):
        circuit = make_circuit(seed)
        faults = fault_list(circuit, cap=24, strategy="all")
        if not faults:
            return
        patterns = random_patterns(circuit, 48, seed + 3)
        simulator = DelayFaultSimulator(circuit, test_class, backend="int")
        assert simulator.detected_faults(patterns, faults) == (
            detected_faults_reference(circuit, patterns, faults, test_class)
        )

    def test_auto_backend_picks_numpy_past_one_word(self):
        from repro.kernel import NativeWordBackend, NumpyWordBackend, backend_for

        assert not isinstance(backend_for(64, "auto"), NumpyWordBackend)
        assert isinstance(backend_for(65, "auto"), NumpyWordBackend)
        assert isinstance(backend_for(1, "numpy"), NumpyWordBackend)
        # auto never opts into the C build cost on its own
        assert not isinstance(backend_for(65, "auto"), NativeWordBackend)
        with pytest.raises(ValueError):
            backend_for(8, "gpu")

    def test_unknown_backend_error_enumerates_choices(self):
        from repro.kernel import backend_for

        with pytest.raises(ValueError, match=r"choose from.*native"):
            backend_for(8, "gpu")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            DelayFaultSimulator(make_circuit(4), TestClass.ROBUST, backend="gpu")

    def test_coverage_batches_beyond_one_word(self):
        circuit = make_circuit(21)
        faults = fault_list(circuit, cap=16, strategy="all")
        patterns = random_patterns(circuit, 300, seed=5)
        simulator = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        big = simulator.coverage(patterns, faults, batch=256)
        small = simulator.coverage(patterns, faults, batch=32)
        assert big == small


# ---------------------------------------------------------------------------
# stuck-at path through the kernel
# ---------------------------------------------------------------------------


class TestStuckAtOnKernel:
    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cone_resimulation_matches_full_resimulation(self, seed):
        circuit = make_circuit(seed)
        rng = random.Random(seed + 4)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(32)
        ]
        faults = all_stuck_at_faults(circuit)[:30]
        simulator = StuckAtSimulator(circuit)
        hits = simulator.detected_faults(vectors, faults)
        # independent check: force the site, full naive resimulation
        for fault in faults:
            for lane, vector in enumerate(vectors):
                good = circuit.evaluate(vector)
                faulty = _evaluate_with_forced(circuit, vector, fault)
                differs = any(
                    good[circuit.signal_name(o)] != faulty[o]
                    for o in circuit.outputs
                )
                assert bool(hits[fault] >> lane & 1) == differs


def _evaluate_with_forced(circuit, vector, fault):
    """Naive per-vector evaluation with one signal forced."""
    from repro.circuit.gates import evaluate

    values = {}
    for position, pi in enumerate(circuit.inputs):
        values[pi] = vector[position]
    values[fault.signal] = fault.value
    for index in circuit.topological_order():
        gate = circuit.gates[index]
        if gate.is_input or index == fault.signal:
            continue
        values[index] = evaluate(gate.gate_type, [values[f] for f in gate.fanin])
    return values


# ---------------------------------------------------------------------------
# native backend selection, fallback, and caching hygiene
# ---------------------------------------------------------------------------


class TestNativeSelection:
    def test_fallback_warns_once_and_returns_numpy(self, monkeypatch):
        """Without the library, prefer="native" degrades with one warning."""
        import warnings

        from repro.kernel import NativeBackendUnavailableWarning, backend_for
        from repro.kernel import native as native_mod

        monkeypatch.setattr(native_mod, "_library", None)
        monkeypatch.setattr(native_mod, "_failure", "forced by test")
        monkeypatch.setattr(native_mod, "_warned_fallback", False)
        with pytest.warns(NativeBackendUnavailableWarning, match="forced by test"):
            backend = backend_for(8, "native")
        assert isinstance(backend, NumpyWordBackend)
        assert type(backend) is NumpyWordBackend
        # one-time: a second request stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = backend_for(200, "native")
        assert type(backend) is NumpyWordBackend

    @pytest.mark.skipif(
        not pytest.importorskip("repro.kernel.native").native_available(),
        reason="no C toolchain: native word backend unavailable",
    )
    def test_native_preference_selects_native_at_any_width(self):
        from repro.kernel import NativeWordBackend, backend_for

        assert isinstance(backend_for(8, "native"), NativeWordBackend)
        assert isinstance(backend_for(200, "native"), NativeWordBackend)
        # the interpreted oracle never runs native code
        assert type(backend_for(200, "native", "interp")) is NumpyWordBackend

    @pytest.mark.skipif(
        not pytest.importorskip("repro.kernel.native").native_available(),
        reason="no C toolchain: native word backend unavailable",
    )
    def test_compiled_circuit_pickles_after_native_build(self):
        """The per-circuit context lives in _fusion_cache, which
        pickling drops; the clone binds the same library again."""
        import pickle

        from repro.kernel import NativeWordBackend, native_module

        circuit = make_circuit(23)
        compiled = circuit.compiled()
        vectors = [[lane & 1 for _ in circuit.inputs] for lane in range(8)]
        bits = pack_bits(np.asarray(vectors, dtype=np.uint8))
        NativeWordBackend(8).simulate_logic(compiled, bits)
        assert compiled._fusion_cache["native_ctx"][1] is native_module().lib
        clone = pickle.loads(pickle.dumps(compiled))
        assert "native_ctx" not in clone._fusion_cache
        values = NativeWordBackend(8).simulate_logic(clone, bits)
        assert clone._fusion_cache["native_ctx"][1] is native_module().lib
        oracle = IntWordBackend(8).simulate_logic(compiled, pack_vectors(vectors))
        valid = (1 << 8) - 1
        assert [int(row[0]) & valid for row in values] == [
            word & valid for word in oracle
        ]


# ---------------------------------------------------------------------------
# lane-slab merge / demultiplex (the request-coalescing primitives)
# ---------------------------------------------------------------------------


class TestLaneSlab:
    """PackedPatterns.concat + words.extract_lanes round-trip."""

    def _patterns(self, n_inputs, n, seed):
        rng = random.Random(seed)
        from repro.core.patterns import TestPattern

        return [
            TestPattern(
                tuple(rng.randint(0, 1) for _ in range(n_inputs)),
                tuple(rng.randint(0, 1) for _ in range(n_inputs)),
            )
            for _ in range(n)
        ]

    def test_concat_places_batches_at_word_boundaries(self):
        batches = [
            PackedPatterns.from_patterns(self._patterns(5, n, seed))
            for seed, n in enumerate((3, 64, 70))
        ]
        merged, offsets = PackedPatterns.concat(batches)
        # 3 lanes -> 1 word, 64 -> 1 word, 70 -> 2 words
        assert offsets == [0, 64, 128]
        assert merged.n_words == 4
        assert len(merged) == 128 + 70

    def test_concat_rejects_mismatched_inputs_and_empty(self):
        import pytest as _pytest

        a = PackedPatterns.from_patterns(self._patterns(4, 2, 0))
        b = PackedPatterns.from_patterns(self._patterns(5, 2, 0))
        with _pytest.raises(ValueError):
            PackedPatterns.concat([a, b])
        with _pytest.raises(ValueError):
            PackedPatterns.concat([])

    def test_extract_lanes_rebases_and_masks(self):
        from repro.logic.words import extract_lanes

        word = (0b1011 << 64) | 0b0110
        assert extract_lanes(word, 0, 64) == 0b0110
        assert extract_lanes(word, 64, 4) == 0b1011
        assert extract_lanes(word, 64, 2) == 0b11
        with pytest.raises(ValueError):
            extract_lanes(word, -1, 4)

    def test_merged_slab_detection_is_lane_identical(self):
        """Simulating the merged slab == simulating each batch alone."""
        from repro.logic.words import extract_lanes

        circuit = random_dag(n_inputs=8, n_gates=40, seed=11)
        faults = fault_list(circuit, cap=12)
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        n_inputs = len(circuit.inputs)
        batches = [
            self._patterns(n_inputs, n, seed=40 + k)
            for k, n in enumerate((10, 64, 33))
        ]
        packed = [PackedPatterns.from_patterns(b) for b in batches]
        merged, offsets = PackedPatterns.concat(packed)
        merged_masks = sim.detection_masks(merged, faults)
        for batch, one, offset in zip(batches, packed, offsets):
            alone = sim.detection_masks(one, faults)
            for fault_index in range(len(faults)):
                assert (
                    extract_lanes(merged_masks[fault_index], offset, len(one))
                    == alone[fault_index]
                )
