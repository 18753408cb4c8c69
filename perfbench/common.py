"""Shared helpers of the benchmark: paths, child processes, statistics.

Every process the benchmark starts gets a private scratch directory
inside the checkout (``TMPDIR`` and a fresh ``REPRO_NATIVE_CACHE``), so
no run reuses another run's native build and nothing is written
outside the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space of the benchmark's processes (listed in .gitignore).
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")
#: Fresh set-ups (processes or servers) per run; ``setup_s`` is their
#: median.
SETUPS = 3
#: Deterministic counts of earlier runs, keyed by code digest and seed.
LEDGER = os.path.join(ROOT, ".perfbench-ledger", "counts.jsonl")
#: Seconds :func:`reference_loop` takes at the reference host speed.
#: Reported times are seconds at that speed (see :func:`at_reference`).
REFERENCE_S = 0.002
#: Reference loops timed at each end of a set-up.
REFERENCE_SAMPLES = 5
#: Reference loops on each side of an operation whose median is the
#: host's speed during it.
REFERENCE_WINDOW = 4


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


_run_dir: Optional[str] = None


def open_run() -> str:
    """Create this run's scratch directory (removed by :func:`close_run`)."""
    global _run_dir
    os.makedirs(SCRATCH, exist_ok=True)
    _run_dir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    return _run_dir


def close_run() -> None:
    global _run_dir
    if _run_dir is not None:
        shutil.rmtree(_run_dir, ignore_errors=True)
        _run_dir = None
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass  # another run's directory is still there


def scratch_dir(prefix: str) -> str:
    """A fresh private directory for one child process."""
    if _run_dir is None:
        open_run()
    return tempfile.mkdtemp(prefix=prefix, dir=_run_dir)


def child_env(scratch: str) -> Dict[str, str]:
    """Environment of one benchmark child: private temp and native cache."""
    cache = os.path.join(scratch, "native-cache")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(cache, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["REPRO_NATIVE_CACHE"] = cache
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate *proc* (kill if it lingers) and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_child(args: Sequence[str], scratch: str, timeout: float) -> Dict:
    """Run a Python child to completion; its last stdout line is JSON."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(scratch),
        cwd=ROOT,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        stop(proc)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"benchmark child {args[0]} failed (exit {proc.returncode}):\n"
            + err[-2000:]
        )
    return json.loads(lines[-1])


_REFERENCE_MASK = (1 << 256) - 1
_REFERENCE_BITS = [(i * 2654435761 >> 7) & 1 for i in range(256)]
_reference_words = None


def reference_loop() -> float:
    """Seconds one run of a fixed pure-Python loop takes right now.

    The loop does what the workloads' code does most -- interpreted
    integer arithmetic, dict lookups, a keyed sort and calls; bitwise
    operations on 256-bit integers (one bit per pattern lane), bits
    packed into integers one by one; a numpy reduction -- and nothing of
    the program, so its time tracks the shared host's current speed
    only.
    """
    global _reference_words
    if _reference_words is None:
        import numpy

        _reference_words = numpy.arange(1 << 14, dtype=numpy.uint64)
    start = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(3000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        acc ^= key << (i & 7)
    items = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    acc += sum(k for k, _ in items[:64])
    x, y, z = _REFERENCE_MASK // 3, _REFERENCE_MASK // 5, _REFERENCE_MASK // 7
    for _ in range(600):
        x = (x & y) | (z ^ (x >> 1)) & _REFERENCE_MASK
        y = (y | x) ^ (z << 1) & _REFERENCE_MASK
    for _ in range(6):
        word = 0
        for bit in _REFERENCE_BITS:
            word = (word << 1) | bit
        acc ^= word
    for j in range(4):
        acc ^= int((_reference_words ^ j).sum())
    return time.perf_counter() - start


def reference_samples() -> List[float]:
    return [reference_loop() for _ in range(REFERENCE_SAMPLES)]


def at_reference(elapsed: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Convert wall times to seconds at the reference host speed.

    ``elapsed[j]`` was timed between reference loops ``refs[j]`` and
    ``refs[j + 1]``.  The host's speed during it is the median of the
    :data:`REFERENCE_WINDOW` loops on each side: the shared host's
    speed drifts by up to 1.5x, mostly over seconds, so it changes
    little during one operation, while a single loop is noisy.
    """
    scaled = []
    for j, seconds in enumerate(elapsed):
        lo = max(0, j + 1 - REFERENCE_WINDOW)
        window = refs[lo : j + 1 + REFERENCE_WINDOW]
        scaled.append(seconds * REFERENCE_S / median(window))
    return scaled


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value) -> str:
    """Short sha256 of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def code_digest() -> str:
    """Digest of the program and benchmark sources (the ledger key)."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith((".py", ".json", ".c", ".h")):
                    path = os.path.join(dirpath, filename)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        h.update(handle.read())
    return h.hexdigest()[:16]


def check_ledger(workload: str, seed: int, counts: Dict) -> Optional[Dict]:
    """Record *counts*; return the earlier counts if they differ.

    The counts of one workload and seed are a pure function of the
    code, so a second run of the same code and seed must reproduce
    them exactly.
    """
    key = {"code": code_digest(), "workload": workload, "seed": seed}
    previous = None
    if os.path.exists(LEDGER):
        with open(LEDGER) as handle:
            for line in handle:
                entry = json.loads(line)
                if entry["key"] == key:
                    previous = entry["counts"]
    if previous is not None:
        return previous if previous != counts else None
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    with open(LEDGER, "a") as handle:
        handle.write(json.dumps({"key": key, "counts": counts}) + "\n")
    return None


def describe_backend(prefer: str, fusion: str, backend) -> str:
    """``delay_sim:<prefer>-><kind>/<fusion>-><strategy>`` for one choice.

    The strategy follows the backends' documented rule: int words run
    the compiled body unless ``fusion="interp"``; numpy and native run
    level-vectorized groups for ``"auto"``.
    """
    if backend.kind == "int":
        strategy = "interp" if fusion == "interp" else "codegen"
    else:
        strategy = "vector" if fusion == "auto" else fusion
    return f"delay_sim:{prefer}->{backend.kind}/{fusion}->{strategy}"


def host_facts() -> Dict[str, object]:
    """Facts about the host a result was measured on."""
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for module in ("numpy", "cffi"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    compiler = os.environ.get("CC") or "cc"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "c_compiler": shutil.which(compiler) is not None,
    }

