"""Run ``tip serve`` in this process, optionally with layer tracing.

Started by the ``grade_http`` workload as the server process.  It runs
the unmodified ``tip serve`` command line (default ``ServiceOptions``,
auto-picked port, access log off) until SIGTERM, then writes its peak
RSS (and, with ``--trace``, the recorded spans and count events) as JSON to
``--out``.  With ``--cpu N`` the server (every thread it starts) runs
on CPU *N* only.

    python3 -u perfbench/serve.py --out result.json [--cpu N] [--trace]
"""

from __future__ import annotations

import argparse
import json
import os

from common import peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.cli import main as tip

    status = tip(["serve", "--port", "0", "--quiet"])
    result = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["events"] = tracer.events
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
