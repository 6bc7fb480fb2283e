"""One fresh benchmark process: set up, run a workload's jobs once, check them.

run.py starts one of these per measurement.  It prints "ready" as soon
as linhyp is imported and the job list is built, which marks the end of
set-up, and then one JSON line with its measurements.  With --trace-out
it also wraps linhyp's entry points, replays the first jobs through the
CLI, and writes the recorded spans to that file.

Every job time is also given at reference speed.  Other tenants of a
shared host slow its CPUs by up to half, in phases that last from under
a second to minutes, so raw times of the same code differ by a third
from run to run.  A SpeedProbe therefore times a fixed pure-Python
reference loop right after set-up and then every REFERENCE_EVERY_S while
the jobs run, and each job's time, less the probe's own, is scaled by
REFERENCE_S over the mean reference time during the job.  A job twice
as fast at one CPU speed is twice as fast at reference speed, so the
scaled times still compare two versions of the code.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# the reference loop's wall time at the fastest speed measured on the box
# the benchmark was defined on (2-vCPU KVM guest, Intel Xeon at 2.1 GHz);
# a time at reference speed reads as seconds on that box at its fastest
REFERENCE_S = 0.013
REFERENCE_LOOPS = 200_000
# how often the probe times the reference loop while jobs run
REFERENCE_EVERY_S = 0.4


def _cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedProbe:
    """Samples of the CPU's speed: when, and how long the reference loop took.

    Inside ``with probe:`` a SIGALRM handler takes a sample every
    REFERENCE_EVERY_S, in the main thread between two bytecodes of
    whatever job is running.
    """

    def __init__(self):
        self.at: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self, *_signal) -> None:
        """Time the fixed pure-Python reference loop once."""
        cpu = time.process_time()
        at = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i % 7
        self.wall.append(time.perf_counter() - at)
        self.cpu.append(time.process_time() - cpu)
        self.at.append(at)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU time of a job that ran from start to end, at reference speed.

        The samples taken during the job are taken out of its times, and
        the job is scaled by the mean of those samples and the nearest
        one on either side.
        """
        first, last = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        around = slice(max(first - 1, 0), last + 1)
        wall = end - start - sum(self.wall[first:last])
        cpu -= sum(self.cpu[first:last])
        ref_wall, ref_cpu = self.wall[around], self.cpu[around]
        return (
            wall * REFERENCE_S * len(ref_wall) / sum(ref_wall),
            cpu * REFERENCE_S * len(ref_cpu) / sum(ref_cpu),
        )


def run(wl, tracer=None, probe: SpeedProbe | None = None) -> dict:
    """Time each job of the loop, then check every answer outside the timed region."""
    results: dict[str, object] = {}
    raised: dict[str, str] = {}
    probe = probe or SpeedProbe()
    if not probe.at:
        probe.sample()
    spans = []  # (start, end, cpu) of each job
    with probe:
        for i, job in enumerate(wl.jobs):
            if tracer is not None:
                tracer.current_job = i
            cpu = _cpu_seconds()
            start = time.perf_counter()
            try:
                results[job.name] = job.call()
            except Exception as exc:  # a job that raises is a failed job; the rest still run
                raised[job.name] = f"raised {type(exc).__name__}: {exc}"
            spans.append((start, time.perf_counter(), _cpu_seconds() - cpu))
    probe.sample()
    scaled = [probe.scaled(*span) for span in spans]

    from workloads import digest

    digests = [digest(results[job.name]) if job.name in results else None for job in wl.jobs]
    failures = []
    for i, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.current_job = i
        problem = raised.get(job.name) or _checked(job, results[job.name])
        if problem:
            failures.append(f"{job.name}: {problem}")
    attempted = len(wl.jobs)

    if tracer is not None:
        for job in wl.replay:
            tracer.current_job += 1
            problem = _replay(job, results.get(job.name))
            if problem:
                failures.append(f"cli {job.name}: {problem}")
        for job in wl.probe:
            tracer.current_job += 1
            try:
                problem = _checked(job, job.call())
            except Exception as exc:  # as in the timed loop
                problem = f"raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"probe {job.name}: {problem}")
        attempted += len(wl.replay) + len(wl.probe)

    return {
        "raw_wall_s": sum(end - start for start, end, _ in spans),
        "wall_s": sum(wall for wall, _ in scaled),
        "cpu_s": sum(cpu for _, cpu in scaled),
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "report": wl.report(results),
    }


def _checked(job, result) -> str | None:
    try:
        return job.check(result)
    except Exception as exc:  # a check that cannot run fails its job
        return f"check raised {type(exc).__name__}: {exc}"


def _replay(job, result) -> str | None:
    """Run a job's CLI form in-process; its JSON must carry the library's answer."""
    from workloads import as_json

    if result is None:
        return "the library call did not return"
    cli = sys.modules["linhyp.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        return f"exited with {code}"
    payload = json.loads(buf.getvalue())
    differ = sorted(k for k, v in as_json(result.to_json_dict()).items() if payload.get(k) != v)
    return f"output differs from the library on {differ}" if differ else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(SRC))
    import linhyp

    if not Path(linhyp.__file__).resolve().is_relative_to(SRC):
        print(f"error: linhyp was imported from {linhyp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.build(args.workload, args.seed, workloads.load_references(), tiny=args.tiny)
    print("ready", flush=True)
    # the CPU's speed right after set-up, which scales the set-up time
    probe = SpeedProbe()
    probe.sample()
    if args.setup_only:
        print(json.dumps({"setup_reference_s": probe.wall[0]}), flush=True)
        return 0

    tracer = None
    if args.trace_out is not None:
        import linhyp.cli  # noqa: F401  (wrapped below, replayed after the jobs)
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = run(wl, tracer, probe)
    out["setup_reference_s"] = probe.wall[0]
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(args.trace_out, [job.name for job in wl.jobs + wl.replay + wl.probe])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
