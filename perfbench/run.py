"""lcmkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload big-complexes --seed 1 --seconds 40 --trace 0

Each pass of a workload runs in a fresh interpreter (``worker.py``), because
lcmkit's caches live for the whole process; within a pass the caches are
shared across requests as in a real sweep or library session.  Passes run
one after another, single-threaded, until ``--seconds`` have passed.  Every
output is checked.  The last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of traced passes
(``--trace 1``); the lines before it show the same numbers for a reader.

Seed 1 is the default; seed 2 is held out for confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("big-complexes", "enum-sweep", "poset-routes")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
MIN_PASSES = 3  # untraced passes per run, and traced passes per traced run
PASS_TIMEOUT_S = 120
END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, size: str, trace: bool) -> dict:
    """One worker process; setup_s runs from its start to its inputs being ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        cmd += ["--spans", str(ROOT / ".perfbench" / f"spans-{workload}-{seed}.jsonl")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"a {workload} pass took more than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"a {workload} pass exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    # time.monotonic is one system-wide clock, so the two processes agree
    result["setup_s"] = result["ready"] - start
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, as statistics.quantiles gives it)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fastest(passes: list[dict]) -> list[float]:
    """Each request's fastest latency over the passes.  On a shared host
    slowdowns only ever add time, so the minimum is the steadiest estimate."""
    return [min(times) for times in zip(*(p["latencies"] for p in passes))]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while (time.monotonic() < deadline or len(plain) < MIN_PASSES
           or (trace and len(traced) < MIN_PASSES)):
        if trace and len(traced) < len(plain):
            traced.append(run_pass(workload, seed, size, True))
        else:
            plain.append(run_pass(workload, seed, size, False))
    latencies = fastest(plain)
    e2e = {
        "wall_s": sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    passes = plain + traced
    layers = None
    if trace:
        layers = {name: statistics.median(p["trace"][name] for p in traced)
                  for name in traced[0]["trace"]}
        layers["trace.overhead_ratio"] = sum(fastest(traced)) / e2e["wall_s"]
    return {
        "e2e": e2e, "layers": layers,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "passes": len(plain), "traced_passes": len(traced), "inputs": plain[0]["inputs"],
        "missing": traced[-1]["missing"] if traced else [],
    }


def report(workload: str, seed: int, trace: bool, m: dict) -> None:
    info = {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "passes": m["passes"], "traced_passes": m["traced_passes"],
        **m["inputs"],
    }
    print("# " + json.dumps(info))
    for name in m["missing"]:
        print(f"# missing: {name} is no longer in lcmkit; its metrics read 0")
    if trace:
        units = metric_units()
        metrics = {name: {"value": m["layers"][name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": m["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, entry in metrics.items():
        print(f"{workload}\t{name}\t{entry['value']:.6g}\t{entry['unit']}")
    if not trace:
        frac = m["failed"] / m["attempted"]
        print(f"{workload}\tfailed_frac\t{frac:.6g}\tratio\t({m['failed']} of {m['attempted']})")
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lcmkit").is_dir():
        sys.stderr.write(f"no lcmkit sources under {ROOT / 'src'}\n")
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            m = measure(workload, args.seed, args.seconds, bool(args.trace), args.size)
        except PassFailed as e:
            sys.stderr.write(f"{e}\n")
            return 1
        report(workload, args.seed, bool(args.trace), m)
    return 0


if __name__ == "__main__":
    sys.exit(main())
