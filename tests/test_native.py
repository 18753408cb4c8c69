"""The native kernel library: resolution, fallback and its disk cache.

One circuit-generic C library (:mod:`repro.kernel.native`) is built
once per process and serves every circuit.  These tests pin down

* resolution: ``backend="auto"`` on grade, simulate and BIST runs the
  native kernel where the library is available, falls back silently
  and bit-identically where it is not, and ``fusion="interp"`` (the
  oracle) never reaches native code;
* the cache: file names keyed by source, flags and compiler, private
  directories, refusal of directories others can write, and atomic
  publication under concurrent builders.
"""

import os
import stat
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import repro
from repro.api import AtpgSession
from repro.circuit.generators import random_dag
from repro.core.patterns import random_patterns
from repro.kernel import IntWordBackend, native, pack_bits
from repro.kernel.native import (
    NativeBackendUnavailableWarning,
    NativeConeSimulator,
    NativeWordBackend,
)
from repro.paths import fault_list
from repro.sim import StuckAtSimulator
from repro.sim.logic_sim import pack_vectors

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="no C compiler: native kernel unavailable",
)


def _work(seed: int = 3):
    """A session plus a >64-lane pattern batch and a fault list."""
    circuit = random_dag(n_inputs=10, n_gates=80, seed=seed)
    return (
        AtpgSession(circuit),
        random_patterns(circuit, 100, seed),
        fault_list(circuit, cap=48),
    )


def _bist(session, fault_model, **overrides):
    report = session.bist(
        fault_model=fault_model,
        max_faults=48,
        bist_max_patterns=256,
        bist_window=64,
        **overrides,
    )
    return report.signature, report.detected, report.curve


def _verbs(session, patterns, faults, backend="auto", fusion="auto"):
    """Outcomes of every kernel-bound verb under one backend/fusion."""
    kernel = {"backend": backend, "fusion": fusion}
    options = {"sim_backend": backend, "fusion": fusion}
    return (
        session.simulate(patterns, faults, test_class="robust", **kernel),
        session.grade(patterns, faults, **kernel),
        session.grade(patterns, faults, strength=True, **kernel),
        _bist(session, "stuck_at", **options),
        _bist(session, "path_delay", **options),
    )


class _NativeReached(BaseException):
    """Escapes the session circuit breaker, which absorbs Exception."""


class TestResolution:
    @needs_native
    def test_auto_runs_native_on_kernel_verbs(self):
        session, patterns, faults = _work()
        session.grade(patterns, faults)
        assert {key[1] for key in session._simulators} == {"native"}
        circuit = session.circuit
        assert StuckAtSimulator(circuit)._native_cones is not None
        assert StuckAtSimulator(circuit, fusion="interp")._native_cones is None
        assert StuckAtSimulator(circuit, backend="int")._native_cones is None

    def test_interp_never_reaches_native(self, monkeypatch):
        session, patterns, faults = _work()
        expected = _verbs(session, patterns, faults)

        def refuse(*args, **kwargs):
            raise _NativeReached("native code reached under fusion='interp'")

        monkeypatch.setattr(native, "_bind", refuse)
        monkeypatch.setattr(native, "native_module", refuse)
        for name in (
            "simulate_logic",
            "simulate_planes7",
            "simulate_planes10",
            "ppsfp_masks",
            "strength_triples",
        ):
            monkeypatch.setattr(NativeWordBackend, name, refuse)
        monkeypatch.setattr(NativeConeSimulator, "__init__", refuse)
        monkeypatch.setattr(NativeConeSimulator, "diff_masks", refuse)
        for backend in ("auto", "native"):
            oracle = AtpgSession(session.circuit)
            assert (
                _verbs(oracle, patterns, faults, backend, "interp") == expected
            )
            assert not oracle.degraded

    def test_auto_falls_back_silently_without_compiler(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("CC", "/nonexistent")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_library", None)
        monkeypatch.setattr(native, "_failure", None)
        monkeypatch.setattr(native, "_warned_fallback", False)
        session, patterns, faults = _work(seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NativeBackendUnavailableWarning)
            fallback = _verbs(session, patterns, faults)
        assert not native.native_available()
        assert "/nonexistent" in native.native_unavailable_reason()
        assert {key[1] for key in session._simulators} == {"auto"}
        oracle = AtpgSession(session.circuit)
        assert fallback == _verbs(oracle, patterns, faults, fusion="interp")
        # an explicit native request still warns, once per process
        with pytest.warns(NativeBackendUnavailableWarning, match="nonexistent"):
            masks = session.simulate(
                patterns, faults, test_class="robust", backend="native"
            )
        assert masks == fallback[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", NativeBackendUnavailableWarning)
            session.simulate(patterns, faults, backend="native")


def _works(monkeypatch, library) -> bool:
    """True when *library* simulates a fresh circuit like the int oracle."""
    monkeypatch.setattr(native, "_library", library)
    circuit = random_dag(n_inputs=6, n_gates=30, seed=9)
    vectors = [[(lane >> k) & 1 for k in range(6)] for lane in range(40)]
    bits = pack_bits(np.asarray(vectors, dtype=np.uint8))
    values = NativeWordBackend(40).simulate_logic(circuit.compiled(), bits)
    oracle = IntWordBackend(40).simulate_logic(
        circuit.compiled(), pack_vectors(vectors)
    )
    valid = (1 << 40) - 1
    return [int(row[0]) & valid for row in values] == [w & valid for w in oracle]


class TestLibraryCache:
    def test_name_keys_source_flags_and_compiler(self, monkeypatch):
        base = native._library_name(["cc"])
        assert native._library_name(["cc"]) == base
        assert native._library_name(["gcc"]) != base
        assert native._library_name(["cc", "-m64"]) != base
        monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-g",))
        assert native._library_name(["cc"]) != base
        monkeypatch.undo()
        monkeypatch.setattr(
            native, "NATIVE_SOURCE", native.NATIVE_SOURCE + "/* edited */\n"
        )
        assert native._library_name(["cc"]) != base

    @needs_native
    def test_one_library_serves_two_circuits(self):
        libraries = []
        for seed in (5, 6):
            session, patterns, faults = _work(seed)
            assert session.simulate(
                patterns, faults, backend="native"
            ) == session.simulate(patterns, faults, fusion="interp")
            libraries.append(session.compiled._fusion_cache["native_ctx"][1])
        assert libraries[0] is libraries[1] is native.native_module().lib

    @needs_native
    def test_cache_dir_is_created_private_and_reused(self, monkeypatch, tmp_path):
        cache = tmp_path / "fresh"
        library = native._load_library(str(cache))
        assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
        assert os.listdir(cache) == [os.path.basename(library.path)]
        assert native._load_library(str(cache)).path == library.path
        assert os.listdir(cache) == [os.path.basename(library.path)]
        assert _works(monkeypatch, library)

    @needs_native
    def test_world_writable_cache_dir_is_refused(self, monkeypatch, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        os.chmod(shared, 0o777)
        library = native._load_library(str(shared))
        assert os.listdir(shared) == []
        assert not library.path.startswith(str(shared))
        assert _works(monkeypatch, library)

    @needs_native
    @pytest.mark.skipif(
        not hasattr(os, "getuid") or os.getuid() != 0,
        reason="handing a directory to another user needs root",
    )
    def test_foreign_cache_dir_is_refused(self, monkeypatch, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir(mode=0o700)
        os.chown(foreign, 12345, 12345)
        library = native._load_library(str(foreign))
        assert os.listdir(foreign) == []
        assert _works(monkeypatch, library)

    @needs_native
    def test_concurrent_builders_both_load(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys
            from repro.api import AtpgSession
            from repro.circuit.generators import random_dag
            from repro.core.patterns import random_patterns
            from repro.kernel import native
            from repro.paths import fault_list

            assert native.native_available(), native.native_unavailable_reason()
            circuit = random_dag(n_inputs=8, n_gates=40, seed=int(sys.argv[1]))
            session = AtpgSession(circuit)
            patterns = random_patterns(circuit, 70, 1)
            faults = fault_list(circuit, cap=20)
            assert session.simulate(
                patterns, faults, backend="native"
            ) == session.simulate(patterns, faults, fusion="interp")
            print(native.native_module().path)
            """
        )
        cache = tmp_path / "cache"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache), PYTHONPATH=src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(seed)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in (1, 2)
        ]
        outputs = [proc.communicate(timeout=300) for proc in procs]
        for proc, (_out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
        paths = {out.strip() for out, _err in outputs}
        assert len(paths) == 1
        assert os.listdir(cache) == [os.path.basename(paths.pop())]
