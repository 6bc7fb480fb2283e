"""The linhyp benchmark: one workload per call, end to end or traced.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Every measurement runs in a fresh worker process (bench/worker.py) with
LINHYP_WORKERS removed from its environment, one job after another:
a closed loop with one client and workers=1.  Untraced, workers run in
turn until --seconds have passed (at least two).  Times are at the
reference speed defined in worker.py, and every metric is a median over
the run's processes, with extra set-up-only processes for a steadier
set-up median.  Traced, one untraced and one traced worker run, and the
per-layer metrics come from the traced one.  For one workload
the last stdout line is one JSON object with keys correct, attempted,
failed, metrics, and the line before it records the machine and the
failures; "all" ends with a table instead.  See bench/README.md for why
each workload exists and how the metrics are defined.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from worker import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact", "sample-sweep", "paper-scale")
SETUP_PROBES = 3
# every run makes at least two passes, so every answer is computed twice
MIN_PASSES = 2
WORKER_TIMEOUT_S = 170
TRACE_DIR = ROOT / ".bench_build" / "trace"


class BenchError(RuntimeError):
    """The benchmark could not measure: no source tree, or a worker died."""


def run_worker(
    workload: str,
    seed: int,
    tiny: bool = False,
    setup_only: bool = False,
    trace_out: Path | None = None,
    cpu: int | None = None,
) -> dict:
    """One fresh worker; its set-up time is measured from here, up to "ready"."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = {k: v for k, v in os.environ.items() if k != "LINHYP_WORKERS"}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        # read() and not communicate(): readline() may have buffered the
        # lines after "ready" already, and communicate() would skip them
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    out = json.loads(rest.strip().splitlines()[-1])
    out["setup_s"] = setup * REFERENCE_S / out["setup_reference_s"]
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, list[dict]]:
    """Metrics of one run as {name: (value, unit)}, and the worker reports."""
    # the box's CPUs slow down independently of each other, so passes take
    # turns on them
    cpus = sorted(os.sched_getaffinity(0))
    if trace:
        plain = run_worker(workload, seed, tiny, cpu=cpus[0])
        traced = run_worker(workload, seed, tiny, trace_out=TRACE_DIR / f"{workload}-seed{seed}.npz", cpu=cpus[0])
        import tracer

        units = tracer.metric_units()
        metrics = {name: (value, units[name]) for name, value in traced["layers"].items()}
        metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
        metrics["trace.traced_wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
        return metrics, [plain, traced]

    setups = [
        run_worker(workload, seed, tiny, setup_only=True, cpu=cpus[k % len(cpus)])["setup_s"]
        for k in range(SETUP_PROBES)
    ]
    workers = []
    start = time.perf_counter()
    while len(workers) < MIN_PASSES or time.perf_counter() - start < seconds:
        workers.append(run_worker(workload, seed, tiny, cpu=cpus[len(workers) % len(cpus)]))
    setups += [w["setup_s"] for w in workers]
    metrics = {
        "wall_s": (statistics.median(w["wall_s"] for w in workers), "s"),
        "cpu_s": (statistics.median(w["cpu_s"] for w in workers), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
    }
    return metrics, workers


def provenance() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Measure one workload and print its two output lines."""
    metrics, workers = measure(workload, seed, seconds, trace, tiny)
    failures = [f for w in workers for f in w["failures"]]
    for j, answers in enumerate(zip(*(w["digests"] for w in workers))):
        if len(set(answers)) > 1:
            failures.append(f"job #{j} gave different answers in two passes with the same seed")
    attempted = sum(w["attempted"] for w in workers)
    failed = len(failures)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "workers": len(workers),
        "pass_wall_s": [w["wall_s"] for w in workers],
        "pass_raw_wall_s": [w["raw_wall_s"] for w in workers],
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "report": workers[0]["report"],
        "provenance": provenance(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(info), flush=True)
    print(json.dumps(result), flush=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="linhyp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_worker stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "linhyp" / "__init__.py").is_file():
        print(f"error: no linhyp source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    try:
        if args.workload != "all":
            run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
            return 0
        rows = []
        for workload in WORKLOADS:
            result = run_one(workload, args.seed, args.seconds, False, args.tiny)
            rows.append((workload, "failed_frac", result["failed"] / result["attempted"], "ratio"))
            rows += [(workload, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        print(f"{'workload':<14}{'metric':<14}{'value':>14}  unit")
        for workload, name, value, unit in rows:
            print(f"{workload:<14}{name:<14}{value:>14.6g}  {unit}")
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
