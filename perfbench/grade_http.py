"""The ``grade_http`` workload: open-loop ``POST /v1/grade`` load.

The server is ``tip serve`` with default ``ServiceOptions`` in its own
process (:mod:`serve`).  This process generates the load on one
keep-alive connection, and the server and it share one CPU (see
:func:`_server_cpu`).  Requests
have loadgen's shape: bulk2k at scale 2, 32 patterns x 32 faults.
Each of :data:`TENANTS` tenants sends its own pattern set, drawn from
the seed; the faults are loadgen's fault list.

The load is open loop: request ``k`` is due at ``start + k / rate``
whether or not earlier requests have been answered, and its latency is
timed from that due time, so a stall also delays the requests queued
behind it.  ``client.lag_p95_ms`` reports how late the generator itself
sent (time from the moment a request was due and a connection was free
to the moment it went out).

Metrics, every time at the reference host speed (see
:func:`common.at_reference`):

* ``p50_ms`` / ``p95_ms`` at :data:`FIXED_RATE` requests per second,
  below today's capacity, over the slots of a schedule replayed
  :data:`FIXED_REPLAYS` times (see :data:`FIXED_SHARE`); one sender on
  the server's CPU times reference loops there between requests;
* ``rate_per_s`` is the server's capacity (``max_rps``): requests
  answered per second on a connection that sends them back to back for
  the rest of the run (:func:`saturate`).

Every answer is checked outside the timed region against an in-process
``fusion="interp"`` oracle grade of the same request.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from typing import Dict, List, Optional, Tuple

from common import (
    HERE,
    REFERENCE_S,
    REFERENCE_WINDOW,
    SETUPS,
    at_reference,
    child_env,
    describe_backend,
    digest,
    median,
    percentile,
    reference_loop,
    reference_samples,
    scratch_dir,
    stop,
)

CIRCUIT = "bulk2k"
SCALE = 2
PATTERNS = 32
FAULTS = 32
TENANTS = 8
#: Offered rate of the latency measurement (requests per second).
FIXED_RATE = 45.0
#: Share of the measured seconds spent at the fixed rate, and how many
#: times that schedule is replayed: a request slot's latency is its
#: best replay, which keeps the host's periodic pauses (about 100 ms
#: every 1-2 s on the shared 2-vCPU host this was tuned on) out of the
#: tail while a pause the server causes itself recurs in every replay.
FIXED_SHARE = 0.5
FIXED_REPLAYS = 5


def _server_cpu() -> int:
    """The one CPU the server and the load generator run on.

    The shared host's CPUs drift independently, and a busy CPU slows
    the other one down (by 1.15-1.8x, measured with the reference
    loop), so a reference loop times the server's speed only on the
    server's CPU and with the other CPUs left idle.
    """
    return max(os.sched_getaffinity(0))


@contextlib.contextmanager
def on_server_cpu():
    """Run the calling thread on the server's CPU for the block."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {_server_cpu()})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


def build_inputs(seed: int):
    """(request bodies, per-tenant pattern lists, faults, circuit)."""
    from repro.api.resolve import resolve_circuit
    from repro.api.schemas import stamp
    from repro.api.serde import fault_to_payload, pattern_to_payload
    from repro.core.patterns import TestPattern
    from repro.paths import fault_list

    circuit = resolve_circuit(CIRCUIT, SCALE)
    faults = fault_list(circuit, cap=FAULTS)
    fault_payloads = [fault_to_payload(f, envelope=False) for f in faults]
    rng = random.Random(seed)
    n_inputs = len(circuit.inputs)
    tenants = []
    bodies = []
    for _ in range(TENANTS):
        patterns = [
            TestPattern(
                tuple(rng.getrandbits(1) for _ in range(n_inputs)),
                tuple(rng.getrandbits(1) for _ in range(n_inputs)),
            )
            for _ in range(PATTERNS)
        ]
        tenants.append(patterns)
        body = stamp(
            "repro/request.grade",
            {
                "circuit": CIRCUIT,
                "scale": SCALE,
                "patterns": [
                    pattern_to_payload(p, envelope=False) for p in patterns
                ],
                "faults": fault_payloads,
            },
        )
        bodies.append(json.dumps(body).encode())
    return bodies, tenants, faults, circuit


def oracle_flags(circuit, tenants, faults) -> List[List[bool]]:
    """Each tenant's ``detected_flags`` from the interpreted oracle."""
    from repro.api import AtpgSession

    session = AtpgSession(circuit)
    return [
        session.grade(patterns, faults, fusion="interp")["detected_flags"]
        for patterns in tenants
    ]


# --------------------------------------------------------------------------
# server and connections
# --------------------------------------------------------------------------


class Server:
    """One ``tip serve`` child process (see :mod:`serve`)."""

    def __init__(self, trace: bool = False):
        self.scratch = scratch_dir("serve-")
        self.out = os.path.join(self.scratch, "server.json")
        args = [
            sys.executable,
            "-u",
            os.path.join(HERE, "serve.py"),
            "--out",
            self.out,
            "--cpu",
            str(_server_cpu()),
        ]
        if trace:
            args.append("--trace")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            args,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(self.scratch),
            text=True,
        )
        self.port = None
        for line in self.proc.stdout:
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1].split("/")[0])
                break
        if self.port is None:
            stop(self.proc)
            raise RuntimeError("tip serve did not start")
        # keep draining stdout so the server never blocks on a full pipe
        self._drain = threading.Thread(
            target=lambda: [None for _ in self.proc.stdout], daemon=True
        )
        self._drain.start()

    def close(self) -> Dict:
        """SIGTERM (tip serve drains), wait, return the server's report."""
        stop(self.proc, timeout=30.0)
        self._drain.join(timeout=5.0)
        try:
            with open(self.out) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


def connect(port: int) -> HTTPConnection:
    conn = HTTPConnection("127.0.0.1", port, timeout=30.0)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def post(
    conn: HTTPConnection, body: bytes, tenant: str
) -> Tuple[int, Optional[Dict]]:
    conn.request(
        "POST",
        "/v1/grade",
        body=body,
        headers={"Content-Type": "application/json", "X-Tenant": tenant},
    )
    response = conn.getresponse()
    data = response.read()
    if response.status != 200:
        return response.status, None
    return response.status, json.loads(data)


# --------------------------------------------------------------------------
# load
# --------------------------------------------------------------------------

#: One request's record: (due, sent, done, ok, tenant, flags or None, lag).
Record = Tuple[float, float, float, bool, int, Optional[list], float]
#: A reference loop's (start time, seconds), timed on the server's CPU.
Reference = Tuple[float, float]
#: The open loop's sender runs a reference loop before a request only
#: when the request is due at least this much later (seconds).
METER_GAP_S = 2.5 * REFERENCE_S


def open_loop(
    port: int, bodies: List[bytes], rate: float, seconds: float, order: List[int]
) -> Tuple[List[Record], List[Reference]]:
    """Offer ``rate`` requests/s for ``seconds``: (records, reference loops).

    One sender sends every request on one connection and, while the
    server is idle before a request is due, times a reference loop
    (plus a few at each end), so each request's latency can be
    converted to the reference speed (:func:`latencies_at_reference`).
    The caller keeps the sender on the server's CPU: sending and reading
    a reply take it little CPU, and never while the server works on its
    request.
    """
    refs: List[Reference] = []

    def meter() -> None:
        for seconds_ in reference_samples():
            refs.append((time.perf_counter() - seconds_, seconds_))

    meter()
    records: List[Record] = []
    conn = connect(port)
    start = time.perf_counter() + 0.02
    free_at = start
    try:
        for k in range(max(1, int(rate * seconds))):
            due = start + k / rate
            now = time.perf_counter()
            if due - now > METER_GAP_S:
                refs.append((now, reference_loop()))
                now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            lag = sent - max(due, free_at)
            tenant = order[k % len(order)]
            flags = None
            try:
                status, reply = post(conn, bodies[tenant], f"tenant-{tenant}")
                ok = status == 200 and reply is not None and reply.get("ok")
                if ok:
                    flags = reply["result"]["detected_flags"]
            except (OSError, ValueError):
                ok = False
                conn.close()
                conn = connect(port)
            free_at = time.perf_counter()
            records.append((due, sent, free_at, bool(ok), tenant, flags, lag))
    finally:
        conn.close()
    meter()
    return records, refs


def latencies_at_reference(
    records: List[Record], refs: List[Reference]
) -> List[float]:
    """:func:`latencies_ms` at the reference host speed.

    A request's host speed is the median of the
    :data:`common.REFERENCE_WINDOW` reference loops on each side of its
    due time (see :func:`common.at_reference`).
    """
    refs = sorted(refs)
    starts = [t for t, _ in refs]
    scaled = []
    for (due, *_rest), ms in zip(records, latencies_ms(records)):
        j = bisect.bisect(starts, due)
        window = refs[max(0, j - REFERENCE_WINDOW) : j + REFERENCE_WINDOW]
        scaled.append(ms * REFERENCE_S / median(r for _, r in window))
    return scaled


def latencies_ms(records: List[Record]) -> List[float]:
    """Latency from due time; failed requests count as infinitely late."""
    return [
        (done - due) * 1000.0 if ok else float("inf")
        for due, _sent, done, ok, _t, _f, _lag in records
    ]


def saturate(
    port: int, bodies: List[bytes], order: List[int], seconds: float
) -> Tuple[float, List[Record]]:
    """The server's capacity: (requests per second, records).

    One connection sends requests back to back for *seconds*, so the
    server is never idle for long; a reference loop runs between each
    answer and the next request.  Each request's round trip is
    converted to the reference speed (:func:`common.at_reference`), and
    the capacity is the answered requests over the sum of those times.
    The host's speed moves too fast within a second for loops timed
    only now and then to follow it.
    """
    conn = connect(port)
    records: List[Record] = []
    elapsed: List[float] = []
    refs = [reference_loop()]
    deadline = time.perf_counter() + seconds
    try:
        for k in itertools.count():
            if time.perf_counter() >= deadline:
                break
            tenant = order[k % len(order)]
            sent = time.perf_counter()
            status, reply = post(conn, bodies[tenant], f"tenant-{tenant}")
            done = time.perf_counter()
            refs.append(reference_loop())
            ok = status == 200 and reply is not None and bool(reply.get("ok"))
            flags = reply["result"]["detected_flags"] if ok else None
            records.append((sent, sent, done, ok, tenant, flags, 0.0))
            elapsed.append(done - sent)
    finally:
        conn.close()
    answered = sum(r[3] for r in records)
    return answered / sum(at_reference(elapsed, refs)), records


def closed_loop(
    port: int, bodies: List[bytes], order: List[int], n: int
) -> Tuple[float, float, List[Record]]:
    """``n`` requests back to back on one connection: (start, end, records)."""
    conn = connect(port)
    records: List[Record] = []
    start = time.perf_counter()
    try:
        for k in range(n):
            tenant = order[k % len(order)]
            sent = time.perf_counter()
            status, reply = post(conn, bodies[tenant], f"tenant-{tenant}")
            ok = status == 200 and reply is not None and bool(reply.get("ok"))
            flags = reply["result"]["detected_flags"] if ok else None
            records.append((sent, sent, time.perf_counter(), ok, tenant, flags, 0.0))
    finally:
        conn.close()
    return start, time.perf_counter(), records


def _check(records: List[Record], expected: List[List[bool]]) -> int:
    """Requests that failed or whose flags differ from the oracle."""
    return sum(
        1
        for _due, _sent, _done, ok, tenant, flags, _lag in records
        if not ok or flags != expected[tenant]
    )


def _start(bodies: List[bytes], trace: bool = False) -> Tuple[Server, float, float]:
    """Start a server: (server, seconds until its first answer at the
    reference host speed, the same in wall-clock seconds).

    The host's speed is the median of reference loops timed just before
    the server starts and just after the answer, on this thread, which
    :func:`on_server_cpu` keeps on the server's CPU.
    """
    before = reference_samples()
    server = Server(trace=trace)
    try:
        conn = connect(server.port)
        status, _reply = post(conn, bodies[0], "warmup")
        conn.close()
    except (OSError, ValueError):
        status = 0
    if status != 200:
        server.close()
        raise RuntimeError(f"first grade request failed (HTTP {status})")
    wall = time.perf_counter() - server.started
    slowdown = median(before + reference_samples()) / REFERENCE_S
    return server, wall / slowdown, wall


def run(seed: int, seconds: float) -> Dict:
    """The untraced run: set-up, fixed-rate latency, capacity."""
    with on_server_cpu():
        return _run(seed, seconds)


def _run(seed: int, seconds: float) -> Dict:
    bodies, tenants, faults, circuit = build_inputs(seed)
    order = random.Random(seed).choices(range(TENANTS), k=4 * TENANTS)
    setups = []
    setups_wall = []
    server = None
    try:
        for attempt in range(SETUPS):
            server, setup_s, setup_wall = _start(bodies)
            setups.append(setup_s)
            setups_wall.append(setup_wall)
            if attempt < SETUPS - 1:
                server.close()
                server = None
        metered = [
            open_loop(
                server.port,
                bodies,
                FIXED_RATE,
                seconds * FIXED_SHARE / FIXED_REPLAYS,
                order,
            )
            for _ in range(FIXED_REPLAYS)
        ]
        replays = [replay for replay, _refs in metered]
        capacity, saturated = saturate(
            server.port, bodies, order, seconds * (1.0 - FIXED_SHARE)
        )
    finally:
        report = server.close() if server is not None else {}
    expected = oracle_flags(circuit, tenants, faults)
    fixed = [record for replay in replays for record in replay]
    records = fixed + saturated
    failed = _check(records, expected)
    answered = sum(len(r[5]) for r in records if r[5] is not None)
    # each slot of the schedule: its best replay, at the reference speed
    wall = [min(slot) for slot in zip(*(latencies_ms(r) for r in replays))]
    lat = [
        min(slot)
        for slot in zip(
            *(latencies_at_reference(replay, refs) for replay, refs in metered)
        )
    ]
    from repro.kernel import backend_for

    return {
        "setups_s": setups,
        "wall": {
            "setup_s": median(setups_wall),
            "p50_ms": percentile(wall, 0.50),
            "p95_ms": percentile(wall, 0.95),
        },
        # the server grades each request through backend_for(PATTERNS)
        "resolved": [
            describe_backend("auto", "auto", backend_for(PATTERNS, "auto", "auto"))
        ],
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": report.get("peak_rss_mb", 0.0),
            "p50_ms": percentile(lat, 0.50),
            "p95_ms": percentile(lat, 0.95),
            "rate_per_s": capacity,
            "fault_efficiency": answered / (len(records) * FAULTS),
        },
        "attempted": len(records),
        "failed": failed,
        "counts": {
            "flags_digest": _digest_flags(records),
            "oracle_detected": sum(sum(flags) for flags in expected),
        },
    }


def _digest_flags(records: List[Record]) -> str:
    by_tenant = {}
    for record in records:
        if record[5] is not None:
            by_tenant.setdefault(record[4], record[5])
    return digest(sorted(by_tenant.items()))


#: Requests per closed-loop pass of the traced run, and passes per server.
TRACE_REQUESTS = 100
TRACE_REPEATS = 3


def trace(seed: int, seconds: float) -> Dict:
    """The traced run: per-layer self times from a traced server.

    The same closed-loop request sequence runs against an untraced and
    a traced server; their wall-clock ratio is the tracing overhead.
    The generator's own lateness is measured open loop at
    :data:`FIXED_RATE` on the untraced server.
    """
    with on_server_cpu():
        return _trace(seed, seconds)


def _trace(seed: int, seconds: float) -> Dict:
    from tracing import counts_in, in_window, layer_values, median_values, self_times

    bodies, tenants, faults, circuit = build_inputs(seed)
    order = random.Random(seed).choices(range(TENANTS), k=4 * TENANTS)
    records: List[Record] = []
    walls = {False: [], True: []}
    windows = []
    for traced in (False, True):
        server, _setup_s, _wall = _start(bodies, trace=traced)
        try:
            if not traced:
                fixed, _refs = open_loop(
                    server.port, bodies, FIXED_RATE, seconds * FIXED_SHARE, order
                )
                records.extend(fixed)
            for _ in range(TRACE_REPEATS):
                start, end, done = closed_loop(
                    server.port, bodies, order, TRACE_REQUESTS
                )
                records.extend(done)
                walls[traced].append(end - start)
                if traced:
                    windows.append((start, end))
        finally:
            report = server.close()
    spans = [tuple(span) for span in report.get("spans", [])]
    events = [tuple(event) for event in report.get("events", [])]
    setup_spans = [span for span in spans if span[2] < windows[0][0]]
    per_pass = []
    for start, end in windows:
        work = in_window(spans, start, end)
        values = layer_values(work, counts_in(events, start, end), setup_spans)
        _, rooted = self_times(work)
        values["trace.coverage"] = rooted / (end - start)
        per_pass.append(values)
    layers = median_values(per_pass)
    layers["trace.overhead_frac"] = min(walls[True]) / min(walls[False]) - 1.0
    layers["client.lag_p95_ms"] = percentile([r[6] * 1000.0 for r in fixed], 0.95)
    expected = oracle_flags(circuit, tenants, faults)
    return {
        "layers": layers,
        "attempted": len(records),
        "failed": _check(records, expected),
        "pass_wall_s": min(walls[False]),
    }
