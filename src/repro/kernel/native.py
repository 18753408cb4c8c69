"""Native word backend: the lowered plan run by one compiled C library.

:data:`repro.kernel.codegen.NATIVE_SOURCE` is one circuit-generic C
translation unit: the two-valued, 7-valued and 10-valued forward
passes, the PPSFP detection and strength walks and the stuck-at cone
resimulation interpret a circuit's plan tables, which arrive on every
call in a ``repro_ctx`` struct.  This module compiles it once per
process with ``$CC`` (default ``cc``) into a plain shared library,
loads it with :meth:`cffi.FFI.dlopen` (ABI mode) and exposes it behind
:class:`NativeWordBackend` — a drop-in :class:`NumpyWordBackend`
subclass, so every ``isinstance`` dispatch on the numpy backend keeps
working and only the pass bodies change.  A whole fault batch costs
one Python call.

Lifecycle:

* :func:`native_module` builds or loads the library once per process;
  :func:`native_available` is True when that worked — the real build
  is the probe.  :func:`resolve_backend` turns ``"auto"`` into native
  on the kernel-bound verbs (grade, simulate, BIST) wherever it is
  available; an explicit ``prefer="native"`` without it degrades to
  numpy with a one-time :class:`NativeBackendUnavailableWarning`.
* the library lives in a per-user disk cache (``REPRO_NATIVE_CACHE``
  overrides the location) under a name keyed by the sha256 of the
  source, the flags and ``$CC``, so edited C never reloads a stale
  object.  The directory is created 0700; one owned by another user or
  writable by group or others is refused, and the build then goes to a
  fresh private temp directory.  Builds compile in a private temp
  directory and are published with ``os.replace``, so a concurrent
  process never loads a half-written library.
* per circuit only the ``repro_ctx`` struct is built, memoized in
  ``CompiledCircuit._fusion_cache`` (dropped on pickling).

Bit-identity against the interpreted oracle for every covered pass is
asserted by ``tests/test_fusion.py``.
"""

from __future__ import annotations

import array
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
import warnings
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .backends import NumpyWordBackend, PlanesLike
from .codegen import NATIVE_CDEF, NATIVE_SOURCE
from .compiled import CompiledCircuit
from .packed import rows_to_ints

_CFLAGS = ("-O2", "-shared", "-fPIC")


class NativeBackendUnavailableWarning(RuntimeWarning):
    """Emitted once per process when ``prefer="native"`` falls back.

    Structured (its own category) so callers can filter or assert on
    it; the message carries the build's failure reason.
    """


class NativeLibrary(NamedTuple):
    """The loaded kernel: cffi handle, entry points, shared-object path."""

    ffi: object
    lib: object
    path: str


_lock = threading.Lock()
_library: Optional[NativeLibrary] = None
_failure: Optional[str] = None
_warned_fallback = False


def native_cache_dir() -> str:
    """The on-disk cache of the compiled library.

    ``REPRO_NATIVE_CACHE`` overrides; the default is per-user under
    the system temp directory.
    """
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else "shared"
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _private_dir(path: str) -> bool:
    """Create *path* (0700) if missing; True iff it is ours and private."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISDIR(info.st_mode)
        and info.st_uid == os.getuid()
        and not info.st_mode & 0o022
    )


def _library_name(compiler: Sequence[str]) -> str:
    """Cache file name, keyed by the source, the flags and the compiler."""
    key = hashlib.sha256(
        "\0".join([NATIVE_SOURCE, *_CFLAGS, *compiler]).encode()
    ).hexdigest()[:16]
    return f"repro-kernel-{key}.so"


def _load_library(cache_dir: str) -> NativeLibrary:
    """Reuse the cached library in *cache_dir*, or build and publish it."""
    import cffi

    compiler = shlex.split(os.environ.get("CC") or "cc")
    ffi = cffi.FFI()
    ffi.cdef(NATIVE_CDEF)
    cached = _private_dir(cache_dir)
    target = os.path.join(cache_dir, _library_name(compiler))
    if cached and os.path.isfile(target):
        try:
            return NativeLibrary(ffi, ffi.dlopen(target), target)
        except OSError:
            pass  # unloadable (e.g. built for another host): rebuild
    build_dir = tempfile.mkdtemp(
        prefix="build-", dir=cache_dir if cached else None
    )
    try:
        source = os.path.join(build_dir, "kernel.c")
        built = os.path.join(build_dir, os.path.basename(target))
        with open(source, "w") as handle:
            handle.write(NATIVE_SOURCE)
        run = subprocess.run(
            [*compiler, *_CFLAGS, "-o", built, source],
            capture_output=True,
            text=True,
        )
        if run.returncode != 0:
            raise RuntimeError(
                f"{compiler[0]} exited {run.returncode}: "
                f"{run.stderr.strip()[-400:]}"
            )
        if cached:
            os.replace(built, target)
            built = target
        # a library outside the cache is unlinked below once mapped
        return NativeLibrary(ffi, ffi.dlopen(built), built)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def native_module() -> NativeLibrary:
    """The process-wide native kernel library (built or loaded once).

    Raises :class:`RuntimeError` with the reason when it cannot be
    built; the failure is remembered, so the build is tried once per
    process.
    """
    global _library, _failure
    if _library is None:
        with _lock:
            if _library is None and _failure is None:
                try:
                    _library = _load_library(native_cache_dir())
                except Exception as exc:  # noqa: BLE001 - any build failure
                    _failure = f"native kernel build failed ({exc})"
            if _library is None:
                raise RuntimeError(_failure)
    return _library


def native_available() -> bool:
    """True when the native kernel library built or loaded."""
    try:
        native_module()
    except RuntimeError:
        return False
    return True


def native_unavailable_reason() -> str:
    """Why the library is unavailable ("" when it is available)."""
    return "" if native_available() else str(_failure)


def resolve_backend(backend: str, fusion: str) -> str:
    """What *backend* means on the kernel-bound verbs (grade, simulate,
    BIST): ``"auto"`` is native wherever the library is available,
    except under ``fusion="interp"`` — the interpreted oracle never
    runs native code.  Any other choice is returned unchanged."""
    if backend == "auto" and fusion != "interp" and native_available():
        return "native"
    return backend


def warn_native_fallback() -> None:
    """One-time structured warning that native degraded to numpy."""
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        "native word backend unavailable "
        f"({native_unavailable_reason()}); falling back to the numpy "
        "backend — simulation results are identical, only slower",
        NativeBackendUnavailableWarning,
        stacklevel=3,
    )


def native_backend_or_fallback(n_lanes: int, fusion: str = "auto"):
    """A :class:`NativeWordBackend`, or numpy + one-time warning.

    The graceful-degradation seam ``backend_for(prefer="native")``
    routes through.  ``fusion="interp"`` is the oracle on every
    backend, so it gets the numpy per-gate loop, never native code.
    """
    if fusion == "interp":
        return NumpyWordBackend(n_lanes, fusion=fusion)
    if native_available():
        return NativeWordBackend(n_lanes, fusion=fusion)
    warn_native_fallback()
    return NumpyWordBackend(n_lanes, fusion=fusion)


def _bind(compiled: CompiledCircuit) -> Tuple:
    """``(ffi, lib, ctx)`` for *compiled*; the ``repro_ctx`` struct over
    its plan tables is built once per circuit."""
    bound = compiled._fusion_cache.get("native_ctx")
    if bound is None:
        ffi, lib, _path = native_module()
        tables = {
            "plan_out": np.fromiter(
                (out for _c, out, _f, _g in compiled.plan), np.int32,
                count=len(compiled.plan),
            ),
            "code": np.asarray(compiled.py_codes, dtype=np.int8),
            "fanin_off": np.ascontiguousarray(compiled.fanin_offsets, np.int32),
            "fanin_idx": np.ascontiguousarray(compiled.fanin_index, np.int32),
            "ctrl": np.asarray(
                [-1 if c is None else c for c in compiled.controlling],
                dtype=np.int8,
            ),
        }
        # the struct holds raw pointers: keep the buffers alive with it
        buffers = {name: _buf(ffi, table) for name, table in tables.items()}
        ctx = ffi.new(
            "repro_ctx *",
            {
                "n_plan": len(compiled.plan),
                "max_arity": max(
                    (len(fanin) for _c, _o, fanin, _g in compiled.plan),
                    default=1,
                ),
                **buffers,
            },
        )
        bound = compiled._fusion_cache["native_ctx"] = (ffi, lib, ctx, buffers)
    return bound[:3]


_CTYPES = {
    np.dtype(np.uint64): "uint64_t[]",
    np.dtype(np.int32): "int32_t[]",
    np.dtype(np.int8): "int8_t[]",
    np.dtype(np.uint8): "uint8_t[]",
}


def _buf(ffi, array: np.ndarray):
    """A typed C view of a contiguous numpy array (keeps it alive)."""
    return ffi.from_buffer(_CTYPES[array.dtype], array)


def _path_arrays(
    faults: Sequence,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(path_flat, path_off, final_one) of one fault batch.

    ``array.array.extend`` flattens each path at C speed — the batch
    arrays are rebuilt per call (fault lists shrink between campaign
    rounds), so this is on the hot path of every native fault walk.
    """
    offsets = np.zeros(len(faults) + 1, dtype=np.int32)
    flat_buf = array.array("i")
    final_buf = bytearray(len(faults))
    for k, fault in enumerate(faults):
        flat_buf.extend(fault.signals)
        offsets[k + 1] = len(flat_buf)
        if fault.transition.final == 1:
            final_buf[k] = 1
    if not flat_buf:
        flat = np.zeros(0, np.int32)
    elif flat_buf.itemsize == 4:
        flat = np.frombuffer(flat_buf, dtype=np.int32)
    else:  # pragma: no cover - exotic C int width
        flat = np.asarray(flat_buf, dtype=np.int32)
    final_one = (
        np.frombuffer(final_buf, dtype=np.uint8)
        if final_buf
        else np.zeros(0, np.uint8)
    )
    return flat, offsets, final_one


def cone_record(compiled: CompiledCircuit, site: int) -> np.ndarray:
    """The ``repro_stuck_cones`` record of one fault site (memoized).

    ``[n_steps, n_pos, (code, out slot, arity, refs...) per step,
    (PO signal, PO slot) per cone output]``.  Slot 0 is the site
    itself (forced inside C); fanin references outside the cone are
    encoded ``-(signal + 1)`` and read from the good-machine slab.
    """
    key = ("native_cone", site)
    record = compiled._fusion_cache.get(key)
    if record is None:
        slots = {site: 0}
        steps = [
            s
            for s in compiled.cone_of(site)
            if s != site and not compiled.is_input[s]
        ]
        for s in steps:
            slots[s] = len(slots)
        pos = [po for po in compiled.py_outputs if po in slots]
        flat: List[int] = [len(steps), len(pos)]
        for s in steps:
            fanin = compiled.py_fanin[s]
            flat += (compiled.py_codes[s], slots[s], len(fanin))
            flat += (slots[f] if f in slots else -(f + 1) for f in fanin)
        for po in pos:
            flat += (po, slots[po])
        record = compiled._fusion_cache[key] = np.asarray(flat, np.int32)
    return record


class NativeWordBackend(NumpyWordBackend):
    """Execute the plan as compiled C over uint64 lane slabs.

    A :class:`NumpyWordBackend` in every interface respect — same
    input/output shapes, same padding semantics (padding lanes of the
    last word are unspecified for two-valued values and stay ``X`` for
    plane passes), same ``fusion`` attribute (the C body *is* the
    fused plan; the attribute is kept for option plumbing) — but each
    forward pass is one call into the native library, and the
    fault-batch methods (:meth:`ppsfp_masks`, :meth:`strength_triples`)
    keep the walks in C too.
    """

    kind = "native"

    # ------------------------------------------------------------------
    def _pass_slabs(
        self,
        compiled: CompiledCircuit,
        input_planes: Sequence[PlanesLike],
        n_planes: int,
    ) -> List[np.ndarray]:
        n_words = (
            len(np.asarray(input_planes[0][0]).reshape(-1))
            if input_planes
            else self.n_words
        )
        shape = (compiled.n_signals, n_words)
        slabs = [np.zeros(shape, dtype=np.uint64) for _ in range(n_planes)]
        for pi, planes in zip(compiled.py_inputs, input_planes):
            for slab, plane in zip(slabs, planes):
                slab[pi] = plane
        return slabs

    def _run_pass(self, compiled, input_planes, n_planes) -> List[np.ndarray]:
        """One 7-valued (4 planes) or 10-valued (5 planes) native pass."""
        if len(input_planes) != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input planes, got {len(input_planes)}"
            )
        slabs = self._pass_slabs(compiled, input_planes, n_planes)
        ffi, lib, ctx = _bind(compiled)
        run = lib.repro_planes7_pass if n_planes == 4 else lib.repro_planes10_pass
        run(ctx, *(_buf(ffi, slab) for slab in slabs), slabs[0].shape[1])
        return slabs

    def simulate_logic(
        self, compiled: CompiledCircuit, input_bits: np.ndarray
    ) -> np.ndarray:
        input_bits = np.asarray(input_bits, dtype=np.uint64)
        if input_bits.ndim == 1:
            input_bits = input_bits[:, None]
        if input_bits.shape[0] != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input rows, got {input_bits.shape[0]}"
            )
        n_words = input_bits.shape[1]
        values = np.zeros((compiled.n_signals, n_words), dtype=np.uint64)
        values[compiled.input_index] = input_bits
        ffi, lib, ctx = _bind(compiled)
        lib.repro_logic_pass(ctx, _buf(ffi, values), n_words)
        return values

    def simulate_planes7(
        self, compiled: CompiledCircuit, input_planes: Sequence[PlanesLike]
    ) -> List[PlanesLike]:
        slabs = self._run_pass(compiled, input_planes, 4)
        return [tuple(slab[s] for slab in slabs) for s in range(compiled.n_signals)]

    def simulate_planes10(
        self, compiled: CompiledCircuit, input_planes: Sequence[PlanesLike]
    ) -> List[PlanesLike]:
        slabs = self._run_pass(compiled, input_planes, 5)
        return [tuple(slab[s] for slab in slabs) for s in range(compiled.n_signals)]

    # ------------------------------------------------------------------
    # fault-batch inner loops (one Python call per batch)
    # ------------------------------------------------------------------
    def ppsfp_masks(
        self,
        compiled: CompiledCircuit,
        packed,
        faults: Sequence,
        robust: bool,
    ) -> List[int]:
        """Detection lane masks of *faults* over one packed batch.

        One 7-valued forward pass plus the whole per-fault detection
        walk (launch, off-path side conditions, early-out, validity
        masking) in C; returns Python-int lane masks index-aligned
        with *faults*, bit-identical to the interpreted oracle walk.
        """
        slabs = self._run_pass(compiled, packed.planes7(), 4)
        if not faults:
            return []
        n_words = slabs[0].shape[1]
        ffi, lib, ctx = _bind(compiled)
        flat, offsets, final_one = _path_arrays(faults)
        valid = np.ascontiguousarray(packed.lane_valid(), dtype=np.uint64)
        out = np.zeros((len(faults), n_words), dtype=np.uint64)
        lib.repro_detect_walk(
            ctx,
            *(_buf(ffi, slab) for slab in slabs),
            n_words,
            _buf(ffi, flat),
            _buf(ffi, offsets),
            _buf(ffi, final_one),
            len(faults),
            int(robust),
            _buf(ffi, valid),
            _buf(ffi, out),
        )
        return rows_to_ints(out)

    def strength_triples(
        self, compiled: CompiledCircuit, packed, faults: Sequence
    ) -> List[Tuple[int, int, int]]:
        """(nonrobust, robust, hazard-free-robust) masks per fault.

        The 10-valued analogue of :meth:`ppsfp_masks`: one 5-plane
        forward pass plus the three-class strength walk in C.
        """
        valid = np.ascontiguousarray(packed.lane_valid(), dtype=np.uint64)
        inputs10 = [
            (z, o, s, i, valid) for z, o, s, i in packed.planes7()
        ]
        slabs = self._run_pass(compiled, inputs10, 5)
        if not faults:
            return []
        n_words = slabs[0].shape[1]
        ffi, lib, ctx = _bind(compiled)
        flat, offsets, final_one = _path_arrays(faults)
        outs = [
            np.zeros((len(faults), n_words), dtype=np.uint64) for _ in range(3)
        ]
        lib.repro_strength_walk(
            ctx,
            *(_buf(ffi, slab) for slab in slabs),
            n_words,
            _buf(ffi, flat),
            _buf(ffi, offsets),
            _buf(ffi, final_one),
            len(faults),
            _buf(ffi, valid),
            *(_buf(ffi, out) for out in outs),
        )
        return list(zip(*(rows_to_ints(out) for out in outs)))


class NativeConeSimulator:
    """Stuck-at cone resimulation of a fault batch in one native call.

    The native counterpart of the per-site compiled Python bodies
    (:func:`repro.kernel.codegen.cone_fault_fn`): the good-machine
    slab comes from :meth:`NativeWordBackend.simulate_logic`; the
    batch's per-site cone records (:func:`cone_record`) are
    concatenated and ``repro_stuck_cones`` forces each site,
    re-evaluates its cone and reduces the output differences in C.
    """

    def __init__(self, compiled: CompiledCircuit):
        self.compiled = compiled
        self.ffi, self.lib, _ctx = _bind(compiled)

    def diff_masks(
        self, good: np.ndarray, sites: Sequence[int], forced_one: Sequence[bool]
    ) -> List[int]:
        """Per fault, the lane mask of output differences when
        ``sites[k]`` is forced to ``forced_one[k]``."""
        if not sites:
            return []
        records = [cone_record(self.compiled, site) for site in sites]
        offsets = np.zeros(len(records) + 1, dtype=np.int32)
        np.cumsum([len(r) for r in records], out=offsets[1:])
        n_words = good.shape[1]
        # slots = site + steps, so the widest cone sizes the scratch
        scratch = np.empty(
            (1 + max(int(r[0]) for r in records)) * n_words, dtype=np.uint64
        )
        diff = np.zeros((len(records), n_words), dtype=np.uint64)
        ffi = self.ffi
        self.lib.repro_stuck_cones(
            _buf(ffi, np.ascontiguousarray(good)),
            n_words,
            _buf(ffi, np.concatenate(records)),
            _buf(ffi, offsets),
            _buf(ffi, np.asarray(forced_one, dtype=np.uint8)),
            len(records),
            _buf(ffi, scratch),
            _buf(ffi, diff),
        )
        return rows_to_ints(diff)
