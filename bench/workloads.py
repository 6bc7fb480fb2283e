"""Job lists of the benchmark workloads and the checks on their answers.

Every workload is a fixed list of calls into linhyp's public functions,
built from a workload seed.  The worker runs the calls one after another
and checks every answer after the timed loop, so checks never count
towards wall or CPU time.  No check pins the sampler's random stream:
sampled answers are judged against exact values, or by identities that
hold for any uniform draw.  Library functions are looked up on the
``linhyp`` package at call time, so the tracer can wrap them after the
job list is built.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import linhyp

REFERENCES = Path(__file__).with_name("references.json")
WORKLOADS = ("exact", "sample-sweep", "paper-scale")

# High enough to admit every exact cell below; the cells are fixed, so the
# ceiling never decides what runs.
WORK_CEILING = 10 ** 12

# (function, part sizes, r, m) of the exact cells beyond the built-in grid
EXACT_EXTRA = (
    ("count_linear", (1,) * 11, 3, 4),
    ("count_linear", (4, 2, 3, 1, 2), 3, 4),
    ("count_linear", (1,) * 10, 4, 4),
    ("census_by_cluster", (2, 2, 2, 2), 3, 5),
    ("census_by_cluster", (3, 3, 3), 3, 5),
    ("bijection_audit", (1,) * 8, 3, 4),
)
EXACT_GRID_FUNCTIONS = ("census_by_cluster", "count_linear", "bijection_audit")

SWEEP_TRIALS = 20_000
SWEEP_CELLS = (
    ((2, 2, 2), 3, 2),
    ((1,) * 6, 3, 2),
    ((3, 3, 3), 3, 4),
    ((1,) * 8, 3, 4),
    ((1,) * 20, 3, 10),
    ((1,) * 40, 3, 20),
    ((5, 5, 5, 5), 3, 8),
    ((3,) * 6, 4, 12),
)
SWEEP_OVERLAP_CELL = ((1,) * 20, 3, 10)
SWEEP_DRAW_CELL = ((1,) * 8, 3, 4)
# draws classified by the independent oracle in the draw_subset_ids check
ORACLE_DRAWS = 2000

PAPER_N = 48
PAPER_R = 3
PAPER_MS = (10, 20)
PAPER_TRIALS = 4096
PAPER_PART_COUNTS = (10 ** 4, 10 ** 5, 10 ** 6)
PAPER_MAX_PART = 7

# the smoke-test scale: same job kinds, sizes that run in a few seconds
TINY_GRID_CELLS = 12
TINY_SWEEP_CELLS = 4
TINY_TRIALS = 500
TINY_PAPER_N = 12
TINY_PAPER_MS = (3, 6)
TINY_PAPER_TRIALS = 256
TINY_PART_COUNTS = (10 ** 3, 10 ** 4)

# how many leading CLI-expressible jobs the traced run replays through the CLI
REPLAY_JOBS = 3
# the traced run's layer probe: one small call into every traced entry point,
# so that every per-layer metric has a sample on every workload
PROBE_CELL = ((2, 2, 2), 3, 2)
PROBE_TRIALS = 200

# sampled answers must lie within this many standard errors of the truth
BAND_SIGMAS = 4.0


@dataclass(frozen=True)
class Job:
    """One library call, the check on its answer, and its CLI equivalent."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    argv: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Workload:
    """Timed job list, what the traced run adds to it, and a report hook."""

    jobs: list[Job]
    replay: list[Job]
    probe: list[Job]
    report: Callable[[dict[str, object]], dict]


def label(sizes: tuple[int, ...], r: int, m: int) -> str:
    """Cell name used for job names and reference keys."""
    shape = f"n={len(sizes)}" if set(sizes) == {1} else "parts=" + ",".join(map(str, sizes))
    return f"{shape} r={r} m={m}"


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int, refs: dict, tiny: bool = False) -> Workload:
    """The job list of one workload for one seed."""
    job_lists = {"exact": _exact, "sample-sweep": _sample_sweep, "paper-scale": _paper_scale}
    jobs, report = job_lists[workload](seed, refs, tiny)
    if len({job.name for job in jobs}) != len(jobs):
        raise ValueError(f"{workload} has two jobs with one name")  # results are keyed by name
    replay = [job for job in jobs if job.argv is not None][:REPLAY_JOBS]
    if workload == "exact":
        # the cells are fixed; the seed only varies the order they run in
        random.Random(f"{workload}:{seed}").shuffle(jobs)
    return Workload(jobs, replay, _probe(seed, refs), report)


def _probe(seed: int, refs: dict) -> list[Job]:
    sizes, r, m = PROBE_CELL
    p = Fraction(refs["probability"][label(sizes, r, m)])
    rng = random.Random(f"probe:{seed}")
    return [_exact_cell(refs, fn, sizes, r, m) for fn in EXACT_GRID_FUNCTIONS] + [
        _sample_job(sizes, r, m, PROBE_TRIALS, rng.getrandbits(32), exact_p=p),
        _draw_job(sizes, r, m, PROBE_TRIALS, rng.getrandbits(32), p),
        *_uniform_jobs(len(sizes) * 2, m),
    ]


def _instance_argv(sizes: tuple[int, ...], r: int, m: int) -> tuple[str, ...]:
    return ("--parts", ",".join(map(str, sizes)), "--r", str(r), "--m", str(m))


def as_json(payload: dict) -> object:
    """JSON round trip, so tuples and lists compare equal."""
    return json.loads(json.dumps(payload, sort_keys=True))


def digest(result: object) -> str:
    """Fingerprint of an answer, compared across a run's passes."""
    if hasattr(result, "to_json_dict"):
        result = as_json(result.to_json_dict())
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _differs(what: str, got: object, want: object) -> str | None:
    if got == want:
        return None
    return f"{what} differs from its reference: got {got}, want {want}"


def _joined(errors: list[str | None]) -> str | None:
    return "; ".join(e for e in errors if e) or None


def _band_error(what: str, value: float, truth: Fraction, trials: int) -> str | None:
    p = float(truth)
    spread = BAND_SIGMAS * math.sqrt(p * (1.0 - p) / trials)
    if abs(value - p) <= spread:
        return None
    return f"{what} {value:.6f} is more than {BAND_SIGMAS:g} stderr from exact {p:.6f}"


# ---------------------------------------------------------------- exact


def _exact_cell(refs: dict, fn: str, sizes: tuple[int, ...], r: int, m: int) -> Job:
    key = label(sizes, r, m)
    argv = None
    if fn == "count_linear":
        want = int(refs["linear"][key])

        def call():
            return linhyp.count_linear(linhyp.partition(sizes), r, m, work_ceiling=WORK_CEILING, workers=1)

        def check(got):
            if not isinstance(got, int):
                return f"count_linear returned {type(got).__name__}, not int"
            return _differs("linear count", got, want)

    elif fn == "census_by_cluster":
        want = refs["census"][key]
        argv = ("census", *_instance_argv(sizes, r, m), "--work-ceiling", str(WORK_CEILING))

        def call():
            return linhyp.census_by_cluster(linhyp.partition(sizes), r, m, work_ceiling=WORK_CEILING)

        def check(got):
            return _differs("census", as_json(got.to_json_dict()), want)

    else:
        want = refs["audit"][key]
        argv = ("audit-switchings", *_instance_argv(sizes, r, m), "--work-ceiling", str(WORK_CEILING))

        def call():
            return linhyp.bijection_audit(linhyp.partition(sizes), r, m, work_ceiling=WORK_CEILING)

        def check(got):
            return _differs("switching audit", as_json(got.to_json_dict()), want)

    return Job(f"{fn} {key}", call, check, argv)


def _exact(seed: int, refs: dict, tiny: bool):
    cells = refs["grid"][:TINY_GRID_CELLS] if tiny else refs["grid"]
    jobs = [
        _exact_cell(refs, fn, tuple(sizes), r, m)
        for sizes, r, m in cells
        for fn in EXACT_GRID_FUNCTIONS
    ]
    if not tiny:
        jobs += [_exact_cell(refs, fn, sizes, r, m) for fn, sizes, r, m in EXACT_EXTRA]
    return jobs, lambda results: {}


# ---------------------------------------------------------- sample-sweep


def _tally_error(rep, trials: int) -> str | None:
    clustered = sum(c for t, c in rep.cluster_histogram.items() if t >= 1)
    violations = sum(rep.violation_counts.values())
    if (
        rep.trials == trials
        and rep.hits + clustered + violations == trials
        and rep.cluster_histogram.get(0, 0) == rep.hits
    ):
        return None
    return (
        f"tallies do not add up: hits {rep.hits} + clustered {clustered}"
        f" + violations {violations} against {trials} trials"
    )


def _overlap_error(rep, expected: Fraction, m: int, trials: int) -> str | None:
    # a trial sees between 0 and C(m, 2) linked pairs, so by the
    # Bhatia-Davis inequality its variance is at most mu (C(m, 2) - mu)
    mu = float(expected)
    spread = BAND_SIGMAS * math.sqrt(mu * (math.comb(m, 2) - mu) / trials)
    if rep.overlap_mean is not None and abs(rep.overlap_mean - mu) <= spread:
        return None
    return f"linked-pair mean {rep.overlap_mean} is outside {mu:.6f} +- {spread:.6f}"


def _sample_job(
    sizes: tuple[int, ...],
    r: int,
    m: int,
    trials: int,
    seed: int,
    exact_p: Fraction | None = None,
    overlap: Fraction | None = None,
) -> Job:
    track = overlap is not None

    def call():
        return linhyp.estimate_linear_probability(
            linhyp.partition(sizes), r, m, trials, seed=seed, workers=1, track_overlaps=track
        )

    def check(rep):
        errors = [_tally_error(rep, trials)]
        if exact_p is not None:
            errors.append(_band_error("p_hat", rep.p_hat, exact_p, trials))
        if track:
            errors.append(_overlap_error(rep, overlap, m, trials))
        return _joined(errors)

    argv = ("sample", *_instance_argv(sizes, r, m), "--trials", str(trials), "--seed", str(seed))
    if track:
        argv += ("--track-overlaps",)
    name = f"estimate_linear_probability {label(sizes, r, m)}" + (" overlaps" if track else "")
    return Job(name, call, check, argv)


def _draw_job(sizes: tuple[int, ...], r: int, m: int, trials: int, seed: int, exact_p: Fraction) -> Job:
    def call():
        return linhyp.draw_subset_ids(linhyp.partition(sizes), r, m, trials, seed=seed)

    def check(draws):
        pv = linhyp.partition(sizes)
        total = linhyp.sigma(pv, r)
        if len(draws) != trials:
            return f"{len(draws)} draws for {trials} trials"
        for ids in draws:
            ids = [int(i) for i in ids]
            if len(ids) != m or ids != sorted(set(ids)) or ids[0] < 0 or ids[-1] >= total:
                return f"malformed draw {ids}"
        # classify a prefix with the independent oracle: the linear share of
        # uniform draws must match the exact probability
        sampler = linhyp.EdgeSampler(pv, r)
        cap = linhyp.cluster_threshold(pv, r, m)
        sample = draws[:ORACLE_DRAWS]
        linear = 0
        for ids in sample:
            h = linhyp.hypergraph(pv, r, [sampler.unrank(int(i)) for i in ids])
            cls = linhyp.classify(h, cap)
            linear += cls.in_plus and cls.clusters == 0
        return _band_error("oracle linear share", linear / len(sample), exact_p, len(sample))

    return Job(f"draw_subset_ids {label(sizes, r, m)}", call, check)


def _sample_sweep(seed: int, refs: dict, tiny: bool):
    rng = random.Random(f"sample-sweep:{seed}")
    trials = TINY_TRIALS if tiny else SWEEP_TRIALS
    cells = SWEEP_CELLS[:TINY_SWEEP_CELLS] if tiny else SWEEP_CELLS
    probability = {k: Fraction(v) for k, v in refs["probability"].items()}
    jobs = [
        _sample_job(sizes, r, m, trials, rng.getrandbits(32), exact_p=probability.get(label(sizes, r, m)))
        for sizes, r, m in cells
    ]
    sizes, r, m = SWEEP_OVERLAP_CELL
    expected = Fraction(refs["overlap_expectation"][label(sizes, r, m)])
    jobs.append(_sample_job(sizes, r, m, trials, rng.getrandbits(32), overlap=expected))
    sizes, r, m = SWEEP_DRAW_CELL
    jobs.append(_draw_job(sizes, r, m, trials, rng.getrandbits(32), probability[label(sizes, r, m)]))
    return jobs, lambda results: {}


# ----------------------------------------------------------- paper-scale


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _leading_error(est, sigma_r: int, m: int) -> str | None:
    want = m * math.log(sigma_r) - math.lgamma(m + 1)
    if abs(est.leading_log - want) <= 1e-9 * max(1.0, abs(want)):
        return None
    return f"leading_log {est.leading_log!r} differs from m ln sigma_r - ln m! = {want!r}"


def _partite_error(est, s1: int, s2: int, s3: int, m: int) -> str | None:
    """estimate_partite at r=3 against symmetric functions computed here."""
    correction = -Fraction(s2 * s1 ** 2 * m * (m - 1), 2 * s3 * s3)
    return _joined(
        [
            _leading_error(est, s3, m),
            _differs("partite correction", est.correction_exact, correction),
        ]
    )


def _uniform_correction(n: int, r: int, m: int) -> Fraction:
    return -Fraction((r * (r - 1)) ** 2 * m * (m - 1), 4 * n * n)


def _uniform_jobs(n: int, m: int) -> list[Job]:
    """The closed-form estimates and the ratio series on n singleton parts at r=3."""
    r = PAPER_R
    # singleton parts: sigma_s is the binomial coefficient C(n, s)
    s1, s2, s3 = n, math.comb(n, 2), math.comb(n, 3)
    argv = ("--uniform-n", str(n), "--r", str(r), "--m", str(m))
    key = label((1,) * n, r, m)

    def check_uniform(est):
        return _joined(
            [
                _leading_error(est, s3, m),
                _differs("uniform correction", est.correction_exact, _uniform_correction(n, r, m)),
            ]
        )

    def check_refined(est):
        extra = Fraction((r * (r - 1)) ** 3 * (3 * r * r - 15 * r + 20) * m ** 3, 24 * n ** 4)
        return _joined(
            [
                _leading_error(est, s3, m),
                _differs("refined correction", est.correction_exact, _uniform_correction(n, r, m) - extra),
            ]
        )

    def check_series(rep):
        a_value = float(Fraction(s2 * s1 ** 2 * m * (m - 1), 2 * s3 * s3))
        errors = [_differs("series A", rep.a_value, a_value)]
        if rep.lower is not None and not rep.lower <= rep.model_sum <= rep.upper:
            errors.append(f"model sum {rep.model_sum} escaped [{rep.lower}, {rep.upper}]")
        return _joined(errors)

    return [
        Job(f"estimate_uniform {key}", lambda: linhyp.estimate_uniform(n, r, m), check_uniform,
            ("estimate", *argv, "--variant", "uniform")),
        Job(f"estimate_partite {key}",
            lambda: linhyp.estimate_partite(linhyp.uniform_partition(n), r, m),
            lambda est: _partite_error(est, s1, s2, s3, m),
            ("estimate", *argv, "--variant", "partite")),
        Job(f"estimate_refined_uniform {key}", lambda: linhyp.estimate_refined_uniform(n, r, m),
            check_refined, ("estimate", *argv, "--variant", "refined")),
        Job(f"ratio_series {key}", lambda: linhyp.ratio_series(linhyp.uniform_partition(n), r, m),
            check_series, ("series-bounds", *argv)),
    ]


def _newton_sigmas(sizes: tuple[int, ...]) -> tuple[int, int, int]:
    """sigma_1..sigma_3 from exact power sums by Newton's identities."""
    counts = np.bincount(np.asarray(sizes, dtype=np.int64))
    p1, p2, p3 = (sum(int(c) * s ** k for s, c in enumerate(counts)) for k in (1, 2, 3))
    e1 = p1
    e2, rem2 = divmod(e1 * p1 - p2, 2)
    e3, rem3 = divmod(e2 * p1 - e1 * p2 + p3, 3)
    if rem2 or rem3:
        raise ArithmeticError("Newton's identities left a remainder")
    return e1, e2, e3


def _partite_job(count: int, sizes: tuple[int, ...]) -> Job:
    r = PAPER_R
    m = sum(sizes)  # as many edges as vertices

    def check(est):
        return _partite_error(est, *_newton_sigmas(sizes), m)

    return Job(
        f"estimate_partite {count} parts r={r} m={m}",
        lambda: linhyp.estimate_partite(linhyp.partition(sizes), r, m),
        check,
    )


def _paper_scale(seed: int, refs: dict, tiny: bool):
    rng = random.Random(f"paper-scale:{seed}")
    n = TINY_PAPER_N if tiny else PAPER_N
    ms = TINY_PAPER_MS if tiny else PAPER_MS
    trials = TINY_PAPER_TRIALS if tiny else PAPER_TRIALS
    counts = TINY_PART_COUNTS if tiny else PAPER_PART_COUNTS
    r = PAPER_R
    jobs = []
    for m in ms:
        jobs += _uniform_jobs(n, m)
        jobs.append(_sample_job((1,) * n, r, m, trials, rng.getrandbits(32)))
    for count in counts:
        parts = np.random.default_rng(rng.getrandbits(64)).integers(1, PAPER_MAX_PART + 1, size=count)
        jobs.append(_partite_job(count, tuple(parts.tolist())))

    def report(results: dict[str, object]) -> dict:
        """The paper's cross-check: sampled p_hat against each estimate, in stderr units."""
        out = {}
        sigma_r = math.comb(n, r)
        for m in ms:
            key = label((1,) * n, r, m)
            rep = results.get(f"estimate_linear_probability {key}")
            if rep is None or rep.stderr == 0:
                continue
            for variant in ("uniform", "refined_uniform", "partite"):
                est = results.get(f"estimate_{variant} {key}")
                if est is not None:
                    p_est = math.exp(est.log_value - _log_comb(sigma_r, m))
                    out[f"z_{variant} {key}"] = (rep.p_hat - p_est) / rep.stderr
        return out

    return jobs, report
