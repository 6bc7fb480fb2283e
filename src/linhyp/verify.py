"""Built-in desk-scale grid and the cross-module invariant suite.

The grid spans r in {3, 4} with uniform instances up to n = 10 and a
fixed set of multipartite shapes, at edge counts up to 4.  Checks that
need an exhaustive census restrict themselves to instances whose subset
space stays below an enumeration cap.  Every check prints one line;
the suite passes only if all of them do.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np

from .asymptotics import estimate_partite
from .census import EdgeSpaceIndex, census_by_cluster, count_linear, count_linear_naive
from .hypergraphs import cluster_threshold, edge_space
from .montecarlo import (
    _subset_id_blocks,
    cluster_signature,
    edge_subset_probability,
    estimate_linear_probability,
    expected_overlap_pairs,
    make_rng,
)
from .partitions import (
    PartitionVector,
    newton_gap,
    partition,
    sigma,
    sigma_ratio_check,
    uniform_partition,
)
from .switching import SeriesSpec, _orbit_stats, bijection_audit, series_sum_bounds

MULTIPARTITE_SHAPES = ((2, 2, 2), (3, 1, 2), (2, 2, 2, 2), (3, 3, 3))
MAX_UNIFORM_N = 10
MAX_GRID_M = 4
ENUMERATION_CAP = 10 ** 5
# every grid cell has a single edge orbit; these have two, three and seven
ORBIT_CELLS = (((2, 1, 2, 1), 3, 4), ((3, 1, 2, 2), 3, 4), ((4, 2, 3, 1, 2), 3, 2))
# labelled counts of linear designs covering every pair, far past the grid's m
DESIGN_COUNTS = {
    ((1,) * 7, 3, 7): 30,  # the Fano plane, 7!/168
    ((1,) * 9, 3, 12): 840,  # AG(2, 3), 9!/432
    ((3, 3, 3), 3, 9): 12,  # Latin squares of order 3
}


@dataclass(frozen=True)
class GridInstance:
    """One (partition, uniformity, edge count) cell of the built-in grid."""

    sizes: tuple[int, ...]
    r: int
    m: int

    @property
    def pv(self) -> PartitionVector:
        return PartitionVector(self.sizes)

    @property
    def label(self) -> str:
        return f"parts={','.join(str(s) for s in self.sizes)} r={self.r} m={self.m}"

    def subset_count(self) -> int:
        return math.comb(sigma(self.pv, self.r), self.m)


def grid_shapes(r: int) -> list[tuple[int, ...]]:
    shapes = [tuple([1] * n) for n in range(r, MAX_UNIFORM_N + 1)]
    shapes.extend(s for s in MULTIPARTITE_SHAPES if len(s) >= r)
    return shapes


def census_grid() -> list[GridInstance]:
    """Every grid cell, including those too large to census."""
    out = []
    for r in (3, 4):
        for sizes in grid_shapes(r):
            top = min(MAX_GRID_M, sigma(PartitionVector(sizes), r))
            for m in range(top + 1):
                out.append(GridInstance(sizes, r, m))
    return out


def enumerable_grid(cap: int = ENUMERATION_CAP) -> list[GridInstance]:
    """The grid cells whose full subset space fits under the cap."""
    return [g for g in census_grid() if g.subset_count() <= cap]


class _Suite:
    def __init__(self, emit):
        self.emit = emit
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        mark = "pass" if ok else "FAIL"
        tail = f" ({detail})" if detail else ""
        self.emit(f"{mark}: {name}{tail}")
        if not ok:
            self.failures += 1
        return ok


def _check_census(suite: _Suite, workers: int) -> None:
    pinned = [
        ((2, 2, 2), 3, 2, 28, 16, {0: 16, 1: 12}, 0),
        (tuple([1] * 6), 3, 2, 190, 100, {0: 100, 1: 90}, 0),
    ]
    for sizes, r, m, total, linear, strata, not_plus in pinned:
        res = census_by_cluster(PartitionVector(sizes), r, m)
        ok = (
            res.total == total
            and res.linear == linear
            and res.by_cluster == strata
            and res.not_plus == not_plus
        )
        suite.check(f"census pinned on parts={sizes} r={r} m={m}", ok, str(res.by_cluster))

    mismatches = []
    for g in enumerable_grid():
        fast = count_linear(g.pv, g.r, g.m, workers=workers)
        slow = count_linear_naive(g.pv, g.r, g.m)
        if fast != slow:
            mismatches.append(f"{g.label}: {fast} != {slow}")
    suite.check(
        "pruned count_linear agrees with naive filter on the whole grid",
        not mismatches,
        "; ".join(mismatches[:3]),
    )

    wrong = []
    for (sizes, r, m), want in DESIGN_COUNTS.items():
        got = count_linear(partition(sizes), r, m, workers=workers)
        if got != want:
            wrong.append(f"parts={','.join(map(str, sizes))} r={r} m={m}: {got} != {want}")
    suite.check(
        "count_linear gives the Fano plane, AG(2, 3) and order-3 Latin square counts",
        not wrong,
        "; ".join(wrong),
    )


def _regrouped_move_sums(g: GridInstance, cap: int) -> dict[int, int]:
    """Both move sums of each stratum t, regrouped over what a move leaves.

    Removing the switched pair leaves an (m-2)-set h0 in stratum t-1,
    below the cap.  The compatible pairs sharing exactly two vertices are
    the clusters that restore stratum t, and the ordered compatible pairs
    sharing at most one vertex are the replacements, so both sums are
    sum 2 n_eq2 (C(size, 2) - n_ge2) over those h0.  The h0 are swept
    unrooted and classified by cluster_signature, not by the plus search.
    """
    index = EdgeSpaceIndex(g.pv, g.r)
    sums: Counter = Counter()
    for h0 in combinations(range(index.count), g.m - 2):
        t, reason = cluster_signature([index.edges[i] for i in h0])
        if reason is None and t < cap:
            size, n_ge2, n_eq2 = index.compat_stats(h0)
            sums[t + 1] += 2 * n_eq2 * (math.comb(size, 2) - n_ge2)
    return sums


def _check_switchings(suite: _Suite) -> None:
    bad_sums = []
    bad_brackets = []
    bad_regrouped = []
    soft_nonempty = []
    pinned_384 = None
    for g in enumerable_grid():
        rep = bijection_audit(g.pv, g.r, g.m)
        for t, c in rep.strata.items():
            if t >= 1 and c > 0 and g.m < 2 * t:
                soft_nonempty.append(f"{g.label} t={t}")
        regrouped = _regrouped_move_sums(g, rep.cluster_cap) if g.m >= 2 else {}
        for rec in rep.records:
            if not rec.matched:
                bad_sums.append(f"{g.label} t={rec.t}: {rec.sum_forward} != {rec.sum_reverse}")
            if rec.sum_forward != regrouped.get(rec.t, 0):
                bad_regrouped.append(f"{g.label} t={rec.t}: {rec.sum_forward} vs {regrouped.get(rec.t, 0)}")
            br = rec.brackets
            if rec.forward_measured is not None:
                lo, hi = rec.forward_measured
                if not (br.forward_low <= lo and hi <= br.forward_high):
                    bad_brackets.append(f"{g.label} t={rec.t} fwd {lo}..{hi}")
            if rec.reverse_measured is not None:
                lo, hi = rec.reverse_measured
                if not (br.reverse_low <= lo and hi <= br.reverse_high):
                    bad_brackets.append(f"{g.label} t={rec.t} rev {lo}..{hi}")
        if g.sizes == (2, 2, 2) and g.r == 3 and g.m == 2:
            pinned_384 = (rep.records[0].sum_forward, rep.records[0].sum_reverse)
    suite.check(
        "forward and reverse switching totals agree on every stratum pair",
        not bad_sums,
        "; ".join(bad_sums[:3]),
    )
    suite.check(
        "switching totals equal their regrouping over the (m-2)-sets a move leaves",
        not bad_regrouped,
        "; ".join(bad_regrouped[:3]),
    )
    suite.check(
        "every measured move count lies inside its bracket",
        not bad_brackets,
        "; ".join(bad_brackets[:3]),
    )
    suite.check(
        "parts=2,2,2 r=3 m=2 switching totals equal 384",
        pinned_384 == (384, 384),
        str(pinned_384),
    )
    suite.check(
        "occupied strata satisfy m >= 2t",
        not soft_nonempty,
        "; ".join(soft_nonempty[:3]),
    )

    # the audit scans compat_stats once per orbit of h0 (switching._orbit_stats);
    # hold every (m-2)-set, a superset of the h0 it asks for, to a direct scan
    wrong_stats = []
    for sizes, r, m in (((2, 2, 2, 2), 3, 4),) + ORBIT_CELLS:
        index = EdgeSpaceIndex(partition(sizes), r)
        stats = _orbit_stats(index)
        for h0 in combinations(range(index.count), m - 2):
            if stats(h0) != index.compat_stats(h0):
                wrong_stats.append(f"parts={sizes} r={r} h0={h0}: {stats(h0)} vs {index.compat_stats(h0)}")
    suite.check(
        "compat_stats looked up by orbit equals a direct scan on four cells",
        not wrong_stats,
        "; ".join(wrong_stats[:3]),
    )

    # the audit's strata are the census's (both read census._plus_strata);
    # hold the census to an unrooted sweep, with several edge orbits too
    strata_mismatch = []
    for sizes, r, m in [(g.sizes, g.r, g.m) for g in enumerable_grid()] + list(ORBIT_CELLS):
        pv = partition(sizes)
        cap = cluster_threshold(pv, r, m)
        strata: Counter = Counter()
        for combo in combinations([e.vertices for e in edge_space(pv, r)], m):
            t, reason = cluster_signature(list(combo))
            strata[t if reason is None and t <= cap else None] += 1
        not_plus = strata.pop(None, 0)
        census = census_by_cluster(pv, r, m)
        got = ({t: c for t, c in census.by_cluster.items() if c}, census.not_plus)
        if got != (dict(strata), not_plus):
            strata_mismatch.append(f"parts={sizes} r={r} m={m}: {got} vs {(dict(strata), not_plus)}")
    suite.check(
        "census strata and not_plus equal an unrooted sweep on the grid and on several edge orbits",
        not strata_mismatch,
        "; ".join(strata_mismatch[:3]),
    )


def _check_inequalities(suite: _Suite) -> None:
    bad = []
    count = 0
    for k in range(1, 9):
        for sizes in combinations_with_replacement(range(1, 5), k):
            pv = partition(sizes)
            for j in range(1, k):
                if newton_gap(pv, j) < 0:
                    bad.append(f"newton {sizes} j={j}")
            for s in range(1, k + 1):
                for r in range(s, k + 1):
                    count += 1
                    if not sigma_ratio_check(pv, s, r).holds:
                        bad.append(f"ratio {sizes} s={s} r={r}")
    rng = make_rng(20240501)
    for _ in range(2000):
        k = int(rng.integers(2, 13))
        sizes = tuple(int(rng.integers(1, 30)) for _ in range(k))
        pv = partition(sizes)
        j = int(rng.integers(1, k))
        if newton_gap(pv, j) < 0:
            bad.append(f"newton fuzz {sizes} j={j}")
        s = int(rng.integers(1, k + 1))
        r = int(rng.integers(s, k + 1))
        if not sigma_ratio_check(pv, s, r).holds:
            bad.append(f"ratio fuzz {sizes} s={s} r={r}")
    suite.check(
        f"newton gaps and sigma ratio bounds hold ({count} exhaustive + fuzz)",
        not bad,
        "; ".join(bad[:3]),
    )


def _check_series(suite: _Suite) -> None:
    spec = SeriesSpec((1.0,) * 10, (0.0,) * 10, 0.1)
    res = series_sum_bounds(spec)
    tail = (2 * math.e / 10) ** 10
    ok = (
        abs(res.total - 2.7182818) < 1e-6
        and abs(res.lower - (math.e - tail)) < 1e-12
        and abs(res.upper - (math.e + tail)) < 1e-12
    )
    suite.check("factorial series reproduces e within its bounds", ok, f"sum={res.total:.9f}")

    rng = make_rng(20240502)
    bad = 0
    for _ in range(300):
        n = int(rng.integers(2, 16))
        c_hat = 0.02 + 0.30 * float(rng.random())
        a = tuple(float(rng.random()) * c_hat * n for _ in range(n))
        b = []
        for i in range(1, n + 1):
            cap = min(2.0, c_hat / a[i - 1] if a[i - 1] > 0 else 2.0)
            if i > 1:
                cap = min(cap, 1.0 / (i - 1))
            b.append(cap * (2.0 * float(rng.random()) - 1.0) if i > 1 else cap * float(rng.random()))
        try:
            out = series_sum_bounds(SeriesSpec(a, tuple(b), c_hat))
        except AssertionError:
            bad += 1
            continue
        slack = 1e-12 * max(1.0, abs(out.total))
        if not (out.lower <= out.total + slack and out.total <= out.upper + slack):
            bad += 1
    suite.check("fuzzed series specs stay inside their bounds", bad == 0, f"{bad} escapes")


def _check_sampling(suite: _Suite, workers: int) -> None:
    pinned = [
        ((2, 2, 2), Fraction(4, 7)),
        (tuple([1] * 6), Fraction(10, 19)),
    ]
    for sizes, truth in pinned:
        rep = estimate_linear_probability(
            PartitionVector(sizes), 3, 2, trials=10 ** 5, seed=42, workers=workers
        )
        ok = abs(rep.p_hat - float(truth)) <= 3 * rep.stderr
        suite.check(
            f"sampled linear probability near {truth} on parts={sizes}",
            ok,
            f"p_hat={rep.p_hat:.5f}",
        )

    bad = []
    for g in census_grid():
        if g.m < 1:
            continue
        total = sigma(g.pv, g.r)
        for t in range(g.m + 1):
            p = edge_subset_probability(g.pv, g.r, g.m, t)
            if p > Fraction(g.m, total) ** t:
                bad.append(f"{g.label} t={t}")
    suite.check("subset probabilities respect the power bound", not bad, "; ".join(bad[:3]))

    exp = expected_overlap_pairs(PartitionVector((2, 2, 2)), 3, 2)
    exp6 = expected_overlap_pairs(uniform_partition(6), 3, 2)
    suite.check(
        "expected linked pairs pinned (12 -> 3/7 and 90 -> 9/19)",
        (exp.linked_pair_count, exp.exact) == (12, Fraction(3, 7))
        and (exp6.linked_pair_count, exp6.exact) == (90, Fraction(9, 19)),
        f"{exp.exact}, {exp6.exact}",
    )
    rep = estimate_linear_probability(
        PartitionVector((2, 2, 2)), 3, 2, trials=10 ** 5, seed=7,
        workers=workers, track_overlaps=True,
    )
    p = float(exp.exact)
    spread = 4 * math.sqrt(p * (1 - p) / rep.trials)
    suite.check(
        "observed linked-pair mean matches its expectation",
        abs(rep.overlap_mean - p) <= spread,
        f"mean={rep.overlap_mean:.5f} expect={p:.5f}",
    )


INCLUSION_KL_BOUND = 8.0


def _bernoulli_kl(hits: int, trials: int, p: Fraction) -> float:
    """KL(hits/trials || p) between Bernoulli laws, in nats.

    By the Chernoff bound, trials * KL >= c has probability at most
    2 exp(-c) for any trials * p, even when hits of a rare event are few;
    for large trials * p, c = 8 is the 4-sigma band (z^2 / 2 = 8).
    """
    total = 0.0
    for k, q in ((hits, p), (trials - hits, 1 - p)):
        if k:
            total += k / trials * math.log(k / trials / float(q)) if q else math.inf
    return total


def _check_subset_inclusion(suite: _Suite, trials: int) -> None:
    bad = []
    rng = make_rng(20240503)
    checked = 0
    for g in census_grid():
        if g.m < 1:
            continue
        total = sigma(g.pv, g.r)
        fixed_sets = [rng.choice(total, size=int(rng.integers(1, g.m + 1)), replace=False) for _ in range(10)]
        # hits are counted block by block, so only one block of draws is held
        hits = [0] * len(fixed_sets)
        for block in _subset_id_blocks(g.pv, g.r, g.m, trials, seed=11):
            for k, fixed in enumerate(fixed_sets):
                hits[k] += int(np.logical_and.reduce([(block == x).any(axis=1) for x in fixed]).sum())
        for fixed, hit in zip(fixed_sets, hits):
            t = len(fixed)
            p = edge_subset_probability(g.pv, g.r, g.m, t)
            checked += 1
            if trials * _bernoulli_kl(hit, trials, p) > INCLUSION_KL_BOUND:
                bad.append(f"{g.label} t={t}: {hit / trials:.6f} vs {float(p):.6f}")
    suite.check(
        f"inclusion frequencies match exact probabilities ({checked} triples)",
        not bad,
        "; ".join(bad[:3]),
    )


def _check_estimates(suite: _Suite) -> None:
    bad = []
    for g in census_grid():
        if g.m > 1 or g.r > g.pv.k:
            continue
        est = estimate_partite(g.pv, g.r, g.m)
        exact = count_linear(g.pv, g.r, g.m)
        if est.correction_exact != 0:
            bad.append(f"{g.label}: correction {est.correction_exact}")
        elif not math.isclose(math.exp(est.log_value), exact, rel_tol=1e-9):
            bad.append(f"{g.label}: exp({est.log_value}) vs {exact}")
    suite.check("estimates are exact at m in {0, 1}", not bad, "; ".join(bad[:3]))


def run_verification(workers: int = 1, trials: int = 10 ** 4, emit=print) -> bool:
    """Run the whole invariant suite; True when every check passes."""
    suite = _Suite(emit)
    stages = [
        ("census", lambda: _check_census(suite, workers)),
        ("switchings", lambda: _check_switchings(suite)),
        ("inequalities", lambda: _check_inequalities(suite)),
        ("series", lambda: _check_series(suite)),
        ("sampling", lambda: _check_sampling(suite, workers)),
        ("subset inclusion", lambda: _check_subset_inclusion(suite, trials)),
        ("estimates", lambda: _check_estimates(suite)),
    ]
    start = time.perf_counter()
    for name, stage in stages:
        t0 = time.perf_counter()
        stage()
        emit(f"[{name} stage took {time.perf_counter() - t0:.1f}s]")
    emit(
        f"{'all checks passed' if suite.failures == 0 else f'{suite.failures} checks failed'}"
        f" in {time.perf_counter() - start:.1f}s"
    )
    return suite.failures == 0
