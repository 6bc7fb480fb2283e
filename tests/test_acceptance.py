"""Release acceptance checks, one test per criterion.

Each test prints a single pass/FAIL line with its runtime so the whole
gate can be read off a pytest -v run.  Criterion 11 asserts that a
census stratum t is populated exactly when an independent witness search
finds an m-subset that realises it, and that every populated stratum has
m >= 2t.  The converse of the latter, "m >= 2t implies populated", is
false on small edge spaces; the test prints how many such empty strata
it saw.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from linhyp import (
    SeriesSpec,
    bijection_audit,
    census_by_cluster,
    count_linear,
    count_linear_naive,
    draw_subset_ids,
    edge_subset_probability,
    estimate_linear_probability,
    estimate_partite,
    estimate_refined_uniform,
    estimate_uniform,
    make_rng,
    newton_gap,
    partition,
    series_sum_bounds,
    sigma,
    sigma_ratio_check,
    uniform_partition,
)
from linhyp.hypergraphs import cluster_threshold, edge_space
from linhyp.montecarlo import cluster_signature
from linhyp.verify import census_grid, enumerable_grid


def report(num, label, t0, ok, detail=""):
    mark = "pass" if ok else "FAIL"
    line = f"criterion {num:02d} {mark} ({time.perf_counter() - t0:.1f}s): {label}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid_census():
    return {g: census_by_cluster(g.pv, g.r, g.m) for g in enumerable_grid()}


@pytest.fixture(scope="module")
def grid_audits():
    return {g: bijection_audit(g.pv, g.r, g.m) for g in enumerable_grid()}


def test_criterion_01_census_pins():
    t0 = time.perf_counter()
    pinned = [
        ((2, 2, 2), 3, 2, 28, 16, {0: 16, 1: 12}, 0),
        (tuple([1] * 6), 3, 2, 190, 100, {0: 100, 1: 90}, 0),
    ]
    bad = []
    for sizes, r, m, total, linear, strata, not_plus in pinned:
        res = census_by_cluster(partition(sizes), r, m)
        got = (res.total, res.linear, res.by_cluster, res.not_plus)
        if got != (total, linear, strata, not_plus):
            bad.append(f"parts={sizes}: {got}")
    report(1, "pinned censuses on the two reference instances", t0, not bad, "; ".join(bad))


def test_criterion_02_pruned_count_matches_naive_filter():
    t0 = time.perf_counter()
    bad = []
    for g in enumerable_grid():
        fast = count_linear(g.pv, g.r, g.m, workers=2)
        slow = count_linear_naive(g.pv, g.r, g.m)
        if fast != slow:
            bad.append(f"{g.label}: {fast} != {slow}")
    n = len(enumerable_grid())
    report(2, f"pruned and naive linear counts agree on {n} grid cells", t0, not bad,
           "; ".join(bad[:3]))


def test_criterion_03_switching_totals_match(grid_audits):
    t0 = time.perf_counter()
    bad = []
    pinned = None
    for g, rep in grid_audits.items():
        for rec in rep.records:
            if rec.sum_forward != rec.sum_reverse:
                bad.append(f"{g.label} t={rec.t}: {rec.sum_forward} != {rec.sum_reverse}")
        if g.sizes == (2, 2, 2) and g.r == 3 and g.m == 2:
            pinned = (rep.records[0].sum_forward, rep.records[0].sum_reverse)
    if pinned != (384, 384):
        bad.append(f"reference instance totals {pinned} != (384, 384)")
    report(3, "forward/reverse switching totals balance on every stratum", t0, not bad,
           "; ".join(bad[:3]))


def test_criterion_04_measured_moves_inside_brackets(grid_audits):
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for g, rep in grid_audits.items():
        for rec in rep.records:
            br = rec.brackets
            if rec.forward_measured is not None:
                checked += 1
                lo, hi = rec.forward_measured
                if not (br.forward_low <= lo and hi <= br.forward_high):
                    bad.append(f"{g.label} t={rec.t} fwd {lo}..{hi}")
            if rec.reverse_measured is not None:
                checked += 1
                lo, hi = rec.reverse_measured
                if not (br.reverse_low <= lo and hi <= br.reverse_high):
                    bad.append(f"{g.label} t={rec.t} rev {lo}..{hi}")
    report(4, f"all {checked} measured move-count ranges sit inside their brackets", t0,
           not bad, "; ".join(bad[:3]))


def test_criterion_05_subset_inclusion_frequencies():
    t0 = time.perf_counter()
    trials = 10 ** 5
    rng = make_rng(550_001)
    bad = []
    checked = 0
    for g in census_grid():
        total = sigma(g.pv, g.r)
        for t in range(g.m + 1):
            p = edge_subset_probability(g.pv, g.r, g.m, t)
            if p > Fraction(g.m, total) ** t:
                bad.append(f"{g.label} t={t}: power bound broken")
        if g.m < 1:
            continue
        samples = draw_subset_ids(g.pv, g.r, g.m, trials, seed=1105)
        for _ in range(10):
            t = int(rng.integers(1, g.m + 1))
            fixed = tuple(int(x) for x in rng.choice(total, size=t, replace=False))
            hits = int(np.logical_and.reduce([(samples == x).any(axis=1) for x in fixed]).sum())
            p = float(edge_subset_probability(g.pv, g.r, g.m, t))
            spread = 4 * math.sqrt(p * (1 - p) / trials)
            checked += 1
            if abs(hits / trials - p) > spread:
                bad.append(f"{g.label} t={t}: {hits / trials:.6f} vs {p:.6f}")
    report(5, f"inclusion frequency within 4 stderr on {checked} sampled triples", t0,
           not bad, "; ".join(bad[:3]))


def test_criterion_06_linear_probability_pins():
    t0 = time.perf_counter()
    bad = []
    for sizes, truth in [((2, 2, 2), 4 / 7), (tuple([1] * 6), 10 / 19)]:
        rep = estimate_linear_probability(
            partition(sizes), 3, 2, trials=10 ** 5, seed=42, workers=2
        )
        if abs(rep.p_hat - truth) > 3 * rep.stderr:
            bad.append(f"parts={sizes}: p_hat={rep.p_hat:.5f} truth={truth:.5f}")
    report(6, "sampled linear probabilities hit 4/7 and 10/19 within 3 stderr", t0,
           not bad, "; ".join(bad))


def test_criterion_07_uniform_estimate_error_decay():
    t0 = time.perf_counter()
    rows = []
    for n in (8, 10, 12, 14):
        exact = count_linear(uniform_partition(n), 3, 3, workers=4)
        est = estimate_uniform(n, 3, 3)
        rho = abs(math.log(exact) - est.log_value)
        rows.append((n, rho, rho * n ** 3 / 9))
    decreasing = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))
    scaled = [row[2] for row in rows]
    stable = max(scaled) <= 3 * min(scaled)
    detail = ", ".join(f"n={n}: rho={rho:.2e} scaled={s:.2f}" for n, rho, s in rows)
    report(7, "uniform log-count error shrinks like m^2/n^3", t0, decreasing and stable, detail)


def test_criterion_08_estimates_exact_for_trivial_m():
    t0 = time.perf_counter()
    bad = []
    for g in census_grid():
        if g.m > 1:
            continue
        exact = count_linear(g.pv, g.r, g.m)
        estimates = [estimate_partite(g.pv, g.r, g.m)]
        if all(s == 1 for s in g.sizes):
            estimates.append(estimate_uniform(g.pv.n, g.r, g.m))
            if g.m == 0:
                # the refined variant adds a cubic-in-m term that by
                # construction does not vanish at m = 1
                estimates.append(estimate_refined_uniform(g.pv.n, g.r, g.m))
        for est in estimates:
            if est.correction_exact != 0:
                bad.append(f"{g.label}: correction {est.correction_exact}")
            elif not math.isclose(math.exp(est.log_value), exact, rel_tol=1e-9):
                bad.append(f"{g.label}: exp({est.log_value:.6f}) vs {exact}")
    report(8, "estimates reduce to the exact count at m in {0, 1}", t0, not bad,
           "; ".join(bad[:3]))


def test_criterion_09_series_bounds():
    t0 = time.perf_counter()
    bad = []
    spec = SeriesSpec((1.0,) * 10, (0.0,) * 10, 0.1)
    res = series_sum_bounds(spec)
    tail = (2 * math.e / 10) ** 10
    if abs(res.total - 2.7182818) > 1e-6:
        bad.append(f"factorial sum {res.total:.9f}")
    if abs(res.lower - (math.e - tail)) > 1e-12 or abs(res.upper - (math.e + tail)) > 1e-12:
        bad.append(f"bounds [{res.lower:.9f}, {res.upper:.9f}]")

    rng = make_rng(20240509)
    escapes = 0
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        c_hat = 0.02 + 0.30 * float(rng.random())
        a = tuple(float(rng.random()) * c_hat * n for _ in range(n))
        b = []
        for i in range(1, n + 1):
            cap = min(2.0, c_hat / a[i - 1] if a[i - 1] > 0 else 2.0)
            if i > 1:
                cap = min(cap, 1.0 / (i - 1))
            b.append(cap * (2.0 * float(rng.random()) - 1.0) if i > 1 else cap * float(rng.random()))
        out = series_sum_bounds(SeriesSpec(a, tuple(b), c_hat))
        slack = 1e-12 * max(1.0, abs(out.total))
        if not (out.lower <= out.total + slack and out.total <= out.upper + slack):
            escapes += 1
    if escapes:
        bad.append(f"{escapes} fuzzed specs escaped their bounds")
    report(9, "series enclosure holds on the e example and 1000 fuzzed specs", t0,
           not bad, "; ".join(bad))


def test_criterion_10_symmetric_mean_inequalities():
    t0 = time.perf_counter()
    bad = []
    vectors = 0
    for k in range(1, 13):
        for sizes in combinations_with_replacement(range(1, 5), k):
            vectors += 1
            pv = partition(sizes)
            for j in range(1, k):
                if newton_gap(pv, j) < 0:
                    bad.append(f"newton {sizes} j={j}")
            for s in range(1, k + 1):
                for r in range(s, k + 1):
                    if not sigma_ratio_check(pv, s, r).holds:
                        bad.append(f"ratio {sizes} s={s} r={r}")
    fuzz = random.Random(101)
    for _ in range(10 ** 4):
        k = fuzz.randint(2, 12)
        pv = partition(tuple(fuzz.randint(1, 40) for _ in range(k)))
        if newton_gap(pv, fuzz.randint(1, k - 1)) < 0:
            bad.append(f"newton fuzz {pv.sizes}")
        s = fuzz.randint(1, k)
        if not sigma_ratio_check(pv, s, fuzz.randint(s, k)).holds:
            bad.append(f"ratio fuzz {pv.sizes}")
    report(10, f"newton gaps and ratio bounds on {vectors} exhaustive vectors plus fuzz",
           t0, not bad, "; ".join(bad[:3]))


def witnessed_strata(g):
    """Strata t that some m-subset of the cell's edge space realises.

    Classifies vertex tuples with the standalone cluster_signature and
    the census's own cluster cap, without the census's edge index, and
    stops once every stratum up to min(m // 2, cap) has a witness.
    """
    cap = cluster_threshold(g.pv, g.r, g.m)
    wanted = set(range(min(g.m // 2, cap) + 1))
    found = set()
    edges = [e.vertices for e in edge_space(g.pv, g.r)]
    for subset in combinations(edges, g.m):
        t, reason = cluster_signature(list(subset))
        if reason is None and t <= cap:
            found.add(t)
            if found >= wanted:
                break
    return found


def test_criterion_11_every_feasible_stratum_is_populated(grid_census):
    # a stratum is feasible when some m-subset realises it; m >= 2t is
    # necessary (each cluster needs two edges) but not sufficient
    t0 = time.perf_counter()
    bad = []
    empty = []
    for g, res in grid_census.items():
        populated = {t for t, count in res.by_cluster.items() if count > 0}
        witnessed = witnessed_strata(g)
        if populated != witnessed:
            bad.append(f"{g.label}: census {sorted(populated)} vs witnessed {sorted(witnessed)}")
        bad.extend(f"{g.label} t={t}: populated with 2t > m" for t in sorted(populated)
                   if 2 * t > g.m)
        empty.extend(f"{g.label} t={t}" for t in range(g.m // 2 + 1) if t not in populated)
    info = f"{len(empty)} strata empty although m >= 2t, e.g. " + ", ".join(empty[:3])
    report(11, f"populated strata match the witness search on {len(grid_census)} cells",
           t0, not bad, "; ".join(bad[:6] + [info]))
