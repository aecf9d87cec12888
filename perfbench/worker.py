"""One pass of a workload in a fresh interpreter.

Builds the inputs from the seed, sends every request once, in order, as a
closed loop with one client, checks each output, and prints the
measurements as one JSON line.  ``run.py`` starts one of these per pass,
because lcmkit's caches live for the whole process.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    args = ap.parse_args()

    import lcmkit

    if Path(lcmkit.__file__).resolve().parents[1] != ROOT / "src":
        sys.stderr.write(f"lcmkit was imported from {lcmkit.__file__}, not from {ROOT / 'src'}\n")
        return 2
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
    span = tracer.span if tracer else (lambda label: nullcontext())

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        with span("bench.setup"):
            workload = workloads.WORKLOADS[args.workload](args.seed, args.size, Path(tmp))
        ready = time.monotonic()

        latencies, outputs = [], []
        start = time.perf_counter()
        for request in workload.requests:
            t0 = time.perf_counter()
            try:
                with span("bench.request"):
                    out = request.call()
            except Exception:  # a request that raises is a failed request
                out = traceback.format_exc()
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        wall_s = time.perf_counter() - start

    if tracer:
        tracer.uninstall()
    failures = [(r.name, out) for r, out in zip(workload.requests, outputs) if out != r.expected]
    for name, out in failures[:3]:
        sys.stderr.write(f"request {name!r} failed; output:\n{out[:2000]}\n")
    result = {
        "ready": ready,
        "wall_s": wall_s,
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": len(failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": workloads.summary(workload),
        "trace": tracer.metrics() if tracer else None,
        "missing": tracer.missing if tracer else [],
    }
    if tracer:
        tracer.write_spans(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
