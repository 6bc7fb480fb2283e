"""Tests for uniform sampling: exactness, determinism, and statistics."""

import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from linhyp import (
    DomainError,
    EdgeSampler,
    census_by_cluster,
    cluster_threshold,
    count_all,
    count_linear,
    edge_subset_probability,
    estimate_linear_probability,
    expected_overlap_pairs,
    hypergraph,
    linked_pair_count,
    make_rng,
    partition,
    sample_hypergraph,
    sigma,
    uniform_partition,
)
from linhyp.census import EdgeSpaceIndex
from linhyp.hypergraphs import TOO_MANY_CLUSTERS, edge_space
from linhyp.montecarlo import (
    BLOCK_TRIALS,
    REASONS,
    _bounded_columns,
    _classify,
    _draw_block,
    _key_dtype,
    _subset_codes,
    _subset_id_blocks,
    classify_rows,
    cluster_signature,
    draw_subset_ids,
)


def _capped_signature(vertex_sets, cap):
    """(t, None) for a plus subset, else (None, reason): cluster_signature, then the cap."""
    t, reason = cluster_signature(vertex_sets)
    if reason is not None:
        return None, reason
    return (t, None) if t <= cap else (None, TOO_MANY_CLUSTERS)


def _overlap_pairs(vertex_sets):
    """Pairs of the vertex sets that share two or more vertices."""
    return sum(len(set(a) & set(b)) >= 2 for a, b in combinations(vertex_sets, 2))


def test_unrank_matches_canonical_order():
    for sizes, r in [((2, 2, 2), 3), ((3, 1, 2), 3), ((2, 2, 2, 3, 2), 3), ((2, 2, 2, 2), 4)]:
        pv = partition(sizes)
        sampler = EdgeSampler(pv, r)
        index = EdgeSpaceIndex(pv, r)
        assert sampler.total == sigma(pv, r)
        assert [sampler.unrank(i) for i in range(sampler.total)] == index.edges
    with pytest.raises(DomainError):
        EdgeSampler(partition((2, 2, 2)), 3).unrank(8)


def test_sample_hypergraph_trivial_cases():
    rng = make_rng(5)
    pv1 = partition((1, 1, 1))
    for _ in range(5):
        h = sample_hypergraph(pv1, 3, 1, rng)
        assert [e.vertices for e in h.sorted_edges()] == [(1, 2, 3)]
    pv = partition((2, 2, 2))
    full = sample_hypergraph(pv, 3, 8, rng)
    assert full.m == 8
    with pytest.raises(DomainError):
        sample_hypergraph(pv, 3, 9, rng)


def test_draws_are_seed_deterministic_and_lane_split():
    pv = partition((2, 2, 2))
    a = draw_subset_ids(pv, 3, 2, 500, seed=9)
    b = draw_subset_ids(pv, 3, 2, 500, seed=9)
    c = draw_subset_ids(pv, 3, 2, 500, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    r0 = make_rng(3, 0).integers(0, 1 << 62, size=4).tolist()
    r1 = make_rng(3, 1).integers(0, 1 << 62, size=4).tolist()
    assert r0 != r1


class _CountingGenerator:
    """A Generator's bit generator and integers, counting the integers calls."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator
        self._rng = rng
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    bit_generator=st.sampled_from(["Philox", "PCG64", "SFC64", "MT19937"]),
    seed=st.integers(0, 2 ** 64 - 1),
    bounds=st.lists(
        st.one_of(
            st.integers(1, 40),
            # 2**32 mod b is near b / 2 here: about one word in two is rejected
            st.integers(2 ** 31 - 3, 2 ** 31 + 3),
            st.sampled_from([2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40]),
            st.integers(1, 2 ** 32),
        ),
        max_size=6,
    ),
    rows=st.integers(0, 7),
    buffered=st.booleans(),
)
# a rejected first word, after the passes have drawn it
@example(bit_generator="Philox", seed=1, bounds=[2 ** 31 + 1], rows=1, buffered=False)
# odd n, and b = 2**32
@example(bit_generator="Philox", seed=2, bounds=[2 ** 32, 9, 40], rows=3, buffered=False)
@example(bit_generator="PCG64", seed=3, bounds=[7, 2 ** 32 + 1], rows=2, buffered=False)
@example(bit_generator="Philox", seed=4, bounds=[7, 11], rows=5, buffered=True)
@example(bit_generator="MT19937", seed=5, bounds=[7, 11], rows=5, buffered=False)
# numpy takes no word for a bound of 1, as at m = sigma_r
@example(bit_generator="Philox", seed=6, bounds=[1, 7, 9], rows=3, buffered=False)
def test_bounded_columns_is_rng_integers(bit_generator, seed, bounds, rows, buffered):
    def fresh():
        rng = np.random.Generator(getattr(np.random, bit_generator)(seed))
        if buffered:
            # one 32-bit draw leaves the other half of its word buffered
            rng.integers(0, np.array([5]))
        return rng

    bounds = np.array(bounds, dtype=np.int64)
    want_rng, got_rng = fresh(), fresh()
    want = want_rng.integers(0, bounds, size=(rows, len(bounds)))
    got = _bounded_columns(got_rng, bounds, rows)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    # the generator carries on identically, through a 32-bit and a 64-bit draw
    follow = np.array([7, 2 ** 40])
    after = got_rng.integers(0, follow, size=(3, 2))
    assert np.array_equal(after, want_rng.integers(0, follow, size=(3, 2)))


def test_bounded_columns_runs_both_branches():
    # a sweep block, uniform n=20 at m=10 (sigma_r = 1140), expects about
    # 0.01 rejections and runs the passes; a uniform n=1000 block at m=300
    # (sigma_r = 166,167,000) expects thousands and calls numpy
    for n, m, calls in ((20, 10, 0), (1000, 300, 1)):
        total = math.comb(n, 3)
        rng = _CountingGenerator(make_rng(1, 0))
        _draw_block(rng, total, BLOCK_TRIALS, m)
        assert rng.calls == calls, n
        bounds = np.arange(total - m, total, dtype=np.int64) + 1
        want = make_rng(1, 0).integers(0, bounds, size=(BLOCK_TRIALS, m))
        assert np.array_equal(_bounded_columns(make_rng(1, 0), bounds, BLOCK_TRIALS), want), n


def test_samplers_share_one_draw_stream():
    # estimate_linear_probability, draw_subset_ids and sample_hypergraph
    # must consume the same seeded draws, across a block boundary too
    pv = partition((2, 2, 2))
    r, m, trials, seed = 3, 3, 5000, 23
    assert BLOCK_TRIALS < trials <= 2 * BLOCK_TRIALS
    edges = [e.vertices for e in edge_space(pv, r)]
    cap = cluster_threshold(pv, r, m)
    draws = draw_subset_ids(pv, r, m, trials, seed=seed)
    hist: Counter = Counter()
    viol: Counter = Counter()
    overlap = 0
    for combo in draws.tolist():
        vertex_sets = [edges[i] for i in combo]
        t, reason = _capped_signature(vertex_sets, cap)
        if reason is None:
            hist[t] += 1
        else:
            viol[reason] += 1
        overlap += _overlap_pairs(vertex_sets)
    rep = estimate_linear_probability(pv, r, m, trials=trials, seed=seed, track_overlaps=True)
    assert rep.cluster_histogram == dict(hist)
    assert rep.violation_counts == dict(viol)
    assert rep.hits == hist[0]
    assert rep.overlap_total == overlap

    sampler = EdgeSampler(pv, r)
    for s in (0, 1, 2):
        (first,) = draw_subset_ids(pv, r, m, 1, seed=s).tolist()
        h = sample_hypergraph(pv, r, m, make_rng(s, 0))
        assert h == hypergraph(pv, r, [sampler.unrank(i) for i in first])


def test_report_is_worker_count_independent():
    pv = uniform_partition(6)
    base = estimate_linear_probability(pv, 3, 3, trials=9000, seed=21, workers=1)
    for workers in (2, 4):
        rep = estimate_linear_probability(pv, 3, 3, trials=9000, seed=21, workers=workers)
        assert rep.hits == base.hits
        assert rep.cluster_histogram == base.cluster_histogram
        assert rep.violation_counts == base.violation_counts


def test_hit_rate_pins():
    rep = estimate_linear_probability(partition((2, 2, 2)), 3, 2, trials=10 ** 5, seed=42)
    assert abs(rep.p_hat - 4 / 7) <= 3 * rep.stderr
    rep6 = estimate_linear_probability(uniform_partition(6), 3, 2, trials=10 ** 5, seed=42)
    assert abs(rep6.p_hat - 10 / 19) <= 3 * rep6.stderr
    one = estimate_linear_probability(partition((2, 2, 2)), 3, 1, trials=2000, seed=1)
    assert one.p_hat == 1.0 and one.stderr == 0.0


@pytest.mark.parametrize("trials", [300, 2])
@pytest.mark.parametrize("track", [False, True])
def test_every_trial_is_a_hit_at_r2(trials, track):
    # no two distinct 2-edges share two vertices: the classifier codes no
    # vertex subsets and finds no shared pair; sigma_2 = 12 takes the code
    # table at 300 trials and block-by-block unranking at 2 (12 > 2 * 5)
    pv = partition((2, 2, 2))
    assert count_linear(pv, 2, 5) == count_all(pv, 2, 5) == 792
    rep = estimate_linear_probability(pv, 2, 5, trials=trials, seed=5, track_overlaps=track)
    assert (rep.hits, rep.cluster_histogram, rep.violation_counts) == (trials, {0: trials}, {})
    assert rep.overlap_total == (0 if track else None)


def test_report_tallies_sum_to_trials():
    rep = estimate_linear_probability(partition((2, 2, 2)), 3, 3, trials=20000, seed=3)
    assert sum(rep.cluster_histogram.values()) + sum(rep.violation_counts.values()) == rep.trials
    assert rep.hits == rep.cluster_histogram.get(0, 0)


def test_histogram_tracks_census_strata():
    pv = partition((2, 2, 2))
    res = census_by_cluster(pv, 3, 3)
    rep = estimate_linear_probability(pv, 3, 3, trials=10 ** 5, seed=17)
    for t, count in res.by_cluster.items():
        p = count / res.total
        spread = 4 * math.sqrt(p * (1 - p) / rep.trials)
        assert abs(rep.cluster_histogram.get(t, 0) / rep.trials - p) <= spread, t
    p_bad = res.not_plus / res.total
    spread = 4 * math.sqrt(p_bad * (1 - p_bad) / rep.trials)
    assert abs(sum(rep.violation_counts.values()) / rep.trials - p_bad) <= spread


def test_single_edge_chi_square_uniform():
    # irregular parts: the part-subset weighting must still be uniform per edge
    pv = partition((2, 2, 2, 3, 2))
    total = sigma(pv, 3)
    trials = 2 * 10 ** 5
    counts = Counter(draw_subset_ids(pv, 3, 1, trials, seed=6)[:, 0].tolist())
    observed = [counts.get(i, 0) for i in range(total)]
    res = stats.chisquare(observed)
    assert res.pvalue > 1e-3


def test_subset_chi_square_uniform():
    # all binom(8,2)=28 pair subsets equally likely
    pv = partition((2, 2, 2))
    trials = 10 ** 6
    counts = Counter(map(tuple, draw_subset_ids(pv, 3, 2, trials, seed=4).tolist()))
    assert len(counts) == 28
    res = stats.chisquare(list(counts.values()))
    assert res.pvalue > 1e-3


def test_subset_chi_square_uniform_sixvertex():
    pv = uniform_partition(6)
    trials = 4 * 10 ** 5
    counts = Counter(map(tuple, draw_subset_ids(pv, 3, 2, trials, seed=12).tolist()))
    assert len(counts) == 190
    res = stats.chisquare(list(counts.values()))
    assert res.pvalue > 1e-3


def test_edge_subset_probability_pins_and_bound():
    pv = partition((2, 2, 2))
    assert edge_subset_probability(pv, 3, 2, 0) == 1
    assert edge_subset_probability(pv, 3, 2, 1) == Fraction(1, 4)
    assert edge_subset_probability(pv, 3, 2, 2) == Fraction(1, 28)
    for sizes, r in [((2, 2, 2), 3), ((3, 3, 3), 3), ((1,) * 8, 4)]:
        pvx = partition(sizes)
        total = sigma(pvx, r)
        for m in range(0, min(5, total) + 1):
            for t in range(m + 1):
                p = edge_subset_probability(pvx, r, m, t)
                assert p <= Fraction(m, total) ** t
    with pytest.raises(DomainError):
        edge_subset_probability(pv, 3, 2, 3)


def test_expected_overlap_pairs_pins():
    got = expected_overlap_pairs(partition((2, 2, 2)), 3, 2)
    assert (got.linked_pair_count, got.exact) == (12, Fraction(3, 7))
    got6 = expected_overlap_pairs(uniform_partition(6), 3, 2)
    assert (got6.linked_pair_count, got6.exact) == (90, Fraction(9, 19))
    tiny = expected_overlap_pairs(partition((1, 1, 1)), 3, 1)
    assert tiny.linked_pair_count == 0 and tiny.exact == 0


def test_linked_pair_count_brute_force():
    for sizes, r in [((2, 2, 2, 2), 4), ((1,) * 7, 3), ((3, 1, 2), 3)]:
        pv = partition(sizes)
        index = EdgeSpaceIndex(pv, r)
        vsets = [set(v) for v in index.edges]
        brute = sum(
            1
            for i in range(index.count)
            for j in range(i + 1, index.count)
            if len(vsets[i] & vsets[j]) >= 2
        )
        assert linked_pair_count(pv, r) == brute, (sizes, r)


def test_overlap_mean_near_expectation():
    # at m=2 the linked-pair count is 0/1-valued, so its variance is exact
    for pv in (partition((2, 2, 2)), uniform_partition(6)):
        rep = estimate_linear_probability(pv, 3, 2, trials=10 ** 5, seed=13, track_overlaps=True)
        p = float(expected_overlap_pairs(pv, 3, 2).exact)
        spread = 4 * math.sqrt(p * (1 - p) / rep.trials)
        assert abs(rep.overlap_mean - p) <= spread


def test_violation_rates_fall_with_n():
    # property-(b) failures at fixed m thin out as the vertex pool grows
    rates = []
    for n in (6, 8, 10):
        rep = estimate_linear_probability(uniform_partition(n), 3, 3, trials=4 * 10 ** 4, seed=29)
        rates.append(sum(rep.violation_counts.values()) / rep.trials)
    assert rates[0] > rates[1] > rates[2]
    # property-(a) failures need r >= 4 to be possible at all
    rates4 = []
    for n in (8, 10, 12):
        rep = estimate_linear_probability(uniform_partition(n), 4, 3, trials=4 * 10 ** 4, seed=31)
        rates4.append(rep.violation_counts.get("overlap_ge3", 0) / rep.trials)
    assert rates4[0] > rates4[1] > rates4[2]


def test_sample_report_json_shape():
    rep = estimate_linear_probability(partition((2, 2, 2)), 3, 2, trials=4096, seed=2)
    payload = rep.to_json_dict()
    assert payload["trials"] == "4096"
    assert set(payload["cluster_histogram"]) <= {"0", "1"}
    assert isinstance(payload["p_hat"], float)


def test_seeded_reports_are_pinned():
    # whole seeded reports, so a changed t or reason on a few rows cannot
    # hide inside the statistical bands; the last cell puts every edge on
    # the pair {1, 2}, one run of m equal pair codes per row
    cells = [
        (partition((3,) * 6), 4, 12, 20000, 141, False),
        (uniform_partition(40), 3, 20, 20000, 142, False),
        (uniform_partition(20), 3, 10, 20000, 143, True),
        (partition((1, 1, 1000)), 3, 300, 1024, 144, False),
        # sigma_r = C(1000, 3) is far above trials * m: unranked block by block
        (uniform_partition(1000), 3, 50, 2000, 145, True),
    ]
    want = [
        {
            "parts": [3, 3, 3, 3, 3, 3], "r": 4, "m": 12, "trials": "20000", "seed": 141,
            "hits": "0", "p_hat": 0.0, "stderr": 0.0, "cluster_histogram": {"4": "1"},
            "violation_counts": {"cluster_gt2_edges": "3210", "overlap_ge3": "16789"},
        },
        {
            "parts": [1] * 40, "r": 3, "m": 20, "trials": "20000", "seed": 142,
            "hits": "2221", "p_hat": 0.11105, "stderr": 0.002221687393626745,
            "cluster_histogram": {
                "0": "2221", "1": "5155", "2": "4833", "3": "2317", "4": "627", "5": "103", "6": "5",
            },
            "violation_counts": {"cluster_gt2_edges": "4739"},
        },
        {
            "parts": [1] * 20, "r": 3, "m": 10, "trials": "20000", "seed": 143,
            "hits": "2326", "p_hat": 0.1163, "stderr": 0.0022668735077193878,
            "cluster_histogram": {"0": "2326", "1": "5649", "2": "4211", "3": "1096", "4": "85", "5": "2"},
            "violation_counts": {"cluster_gt2_edges": "6631"},
            "overlap_total": "40177", "overlap_mean": 2.00885,
        },
        {
            "parts": [1, 1, 1000], "r": 3, "m": 300, "trials": "1024", "seed": 144,
            "hits": "0", "p_hat": 0.0, "stderr": 0.0, "cluster_histogram": {},
            "violation_counts": {"cluster_gt2_edges": "1024"},
        },
        {
            "parts": [1] * 1000, "r": 3, "m": 50, "trials": "2000", "seed": 145,
            "hits": "1954", "p_hat": 0.977, "stderr": 0.0033519397369284566,
            "cluster_histogram": {"0": "1954", "1": "46"}, "violation_counts": {},
            "overlap_total": "46", "overlap_mean": 0.023,
        },
    ]
    for (pv, r, m, trials, seed, track), payload in zip(cells, want):
        rep = estimate_linear_probability(pv, r, m, trials, seed=seed, track_overlaps=track)
        assert rep.to_json_dict() == payload, (pv.sizes[:6], r, m)


@pytest.mark.parametrize(
    "sizes, r, m, trials, table",
    [
        # sigma_r = 8 against min(trials, BLOCK_TRIALS) * m: the boundary
        ((2, 2, 2), 3, 2, 4, True),
        ((2, 2, 2), 3, 2, 3, False),
        # more than one block on each side
        ((3,) * 6, 4, 5, BLOCK_TRIALS + 700, True),
        ((1,) * 60, 3, 8, BLOCK_TRIALS + 700, False),
    ],
)
@pytest.mark.parametrize("track", [False, True])
def test_edge_table_rule_matches_block_unranking(monkeypatch, sizes, r, m, trials, table, track):
    # a report on either side of the table rule against one tallied from
    # the drawn ids, unranked block by block and classified directly
    pv = partition(sizes)
    sampler = EdgeSampler(pv, r)
    assert (sampler.total <= min(trials, BLOCK_TRIALS) * m) == table
    cap = cluster_threshold(pv, r, m)
    hist: Counter = Counter()
    viol: Counter = Counter()
    overlap = 0
    for ids in _subset_id_blocks(pv, r, m, trials, seed=37):
        t, reason, overlaps = classify_rows(sampler.unrank_many(ids), pv.n, cap, track)
        hist.update(t[reason == 0].tolist())
        viol.update(REASONS[i] for i in reason[reason > 0].tolist())
        overlap += int(overlaps.sum()) if track else 0

    unranked = []
    unrank_many = EdgeSampler.unrank_many

    def recording(self, ids):
        unranked.append(np.shape(ids))
        return unrank_many(self, ids)

    monkeypatch.setattr(EdgeSampler, "unrank_many", recording)
    rep = estimate_linear_probability(pv, r, m, trials, seed=37, track_overlaps=track)
    blocks = [(min(BLOCK_TRIALS, trials - start), m) for start in range(0, trials, BLOCK_TRIALS)]
    assert unranked == ([(sampler.total,)] if table else blocks)
    assert rep.cluster_histogram == dict(hist)
    assert rep.violation_counts == dict(viol)
    assert rep.overlap_total == (overlap if track else None)


def test_unrank_many_is_the_scalar_bijection():
    # irregular parts at every r from 3 to k, and k = r
    cases = [((4, 2, 3, 1, 2), r) for r in (3, 4, 5)] + [((2, 3, 1), 3), ((3, 1, 2, 2), 4)]
    for sizes, r in cases:
        pv = partition(sizes)
        sampler = EdgeSampler(pv, r)
        got = [tuple(v) for v in sampler.unrank_many(np.arange(sampler.total)).tolist()]
        assert got == [sampler.unrank(i) for i in range(sampler.total)], (sizes, r)
        assert got == EdgeSpaceIndex(pv, r).edges, (sizes, r)
    sampler = EdgeSampler(partition((2, 2, 2)), 3)
    assert sampler.unrank_many(np.zeros((2, 0), dtype=np.int64)).shape == (2, 0, 3)
    with pytest.raises(DomainError):
        sampler.unrank_many(np.array([0, 8]))


def test_unrank_many_matches_unrank_at_large_ids():
    # parts of a million vertices and edge ids above 2**31; r = 1 is the
    # closed-form last level alone
    cases = [((10 ** 6, 10 ** 6, 3), r) for r in (1, 2, 3)]
    cases += [((2 ** 20,) * 4, r) for r in (1, 2, 3)]
    for sizes, r in cases:
        pv = partition(sizes)
        sampler = EdgeSampler(pv, r)
        drawn = _draw_block(make_rng(r), sampler.total, 1, 5)[0]
        ids = np.array([0, sampler.total - 1, *drawn.tolist()], dtype=np.int64)
        got = [tuple(v) for v in sampler.unrank_many(ids).tolist()]
        assert got == [sampler.unrank(int(i)) for i in ids], (sizes, r)
        assert r == 1 or sampler.total > 2 ** 31
    # at r = k = 4 the 2**20 parts hold 2**80 edges: refused before unranking
    with pytest.raises(DomainError):
        draw_subset_ids(partition((2 ** 20,) * 4), 4, 2, 10)


class _Drawn:
    """Fixed draws, by label, for an explicit example of a st.data() test."""

    def __init__(self, **draws):
        self.draws = draws

    def draw(self, strategy, label):
        return self.draws[label]

    def __repr__(self):
        return f"_Drawn({self.draws})"


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
# the whole edge space of parts 3,3,3: every pair code runs three deep
@example(data=_Drawn(sizes=[3, 3, 3], r=3, m=27, cap=50, seed=0))
# rows with a shared triple (t = 10 and 3), a run of three pair codes
# (t = 3), two matchings (t = 1 and t = 2 > cap) and a failed matching
@example(data=_Drawn(sizes=[3, 3, 3, 3], r=4, m=4, cap=1, seed=47))
def test_batch_classifier_agrees_with_cluster_signature(data):
    # every drawn row: classify_rows's (t, reason) against cluster_signature
    # with the cap applied after it, and its overlap count against the
    # vertex sets; r = 5 codes 2-, 3- and 4-subsets for the overlap count
    sizes = tuple(data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=5), label="sizes"))
    r = data.draw(st.sampled_from([r for r in (3, 4, 5) if r <= len(sizes)]), label="r")
    pv = partition(sizes)
    edges = [e.vertices for e in edge_space(pv, r)]
    sampler = EdgeSampler(pv, r)
    total = len(edges)
    m = data.draw(st.one_of(st.sampled_from((0, total)), st.integers(0, total)), label="m")
    cap = data.draw(st.sampled_from((0, 1, 2, 50)), label="cap")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    ids = _draw_block(make_rng(seed), total, 6, m)
    verts = sampler.unrank_many(ids)
    t, reason, overlaps = classify_rows(verts, pv.n, cap, track_overlaps=True)
    # the same tuples in row-major order, as a caller outside the sampler holds them
    t_plain, reason_plain, none = classify_rows(np.ascontiguousarray(verts), pv.n, cap)
    assert none is None
    assert reason_plain.tolist() == reason.tolist()
    for row, combo in enumerate(ids.tolist()):
        assert combo == sorted(set(combo)) and len(combo) == m
        vertex_sets = [edges[i] for i in combo]
        got_reason = REASONS[reason[row]]
        got = (int(t[row]) if got_reason is None else None, got_reason)
        assert got == _capped_signature(vertex_sets, cap)
        assert got_reason is not None or t_plain[row] == t[row]
        assert overlaps[row] == _overlap_pairs(vertex_sets)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
# the whole edge space of parts 3,3,3 in every row: every pair code runs three deep
@example(data=_Drawn(sizes=[3, 3, 3], r=3, m=27, cap=50, track=False, seed=0))
# without overlaps, shared triples decide some rows and leave the rest live
@example(data=_Drawn(sizes=[3, 3, 3, 3], r=4, m=4, cap=1, track=False, seed=47))
@example(data=_Drawn(sizes=[3, 3, 3, 3, 3, 3, 3], r=6, m=4, cap=1, track=False, seed=3))
def test_gathered_codes_match_classify_rows(data):
    # the edge space coded once and gathered by edge id, as
    # estimate_linear_probability classifies its blocks, against
    # classify_rows on the same rows' vertex tuples, row by row
    sizes = tuple(data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=7), label="sizes"))
    r = data.draw(st.sampled_from([r for r in (3, 4, 5, 6) if r <= len(sizes)]), label="r")
    pv = partition(sizes)
    sampler = EdgeSampler(pv, r)
    m = data.draw(st.integers(0, min(sampler.total, 60)), label="m")
    cap = data.draw(st.sampled_from((0, 1, 2, 50)), label="cap")
    track = data.draw(st.booleans(), label="track")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    ids = _draw_block(make_rng(seed), sampler.total, 16, m)
    table = _subset_codes(sampler.unrank_many(np.arange(sampler.total)), pv.n, m, track)

    def gather(alpha, live):
        return table[alpha].take(ids[live], axis=0)

    got = _classify(gather, len(ids), m, r, cap, track)
    want = classify_rows(sampler.unrank_many(ids), pv.n, cap, track)
    for a, b in zip(got, want):
        assert a is b is None or a.tolist() == b.tolist()


def _assert_rows_match_signature(verts, t, reason, overlaps, cap):
    """Every row's classification against cluster_signature, the cap, and the overlap count."""
    for row, tuples in enumerate(verts.tolist()):
        got_reason = REASONS[reason[row]]
        got = (int(t[row]) if got_reason is None else None, got_reason)
        assert got == _capped_signature(tuples, cap)
        assert overlaps is None or overlaps[row] == _overlap_pairs(tuples)


@pytest.mark.parametrize(
    "sizes, r, m", [((3, 3, 3, 2), 3, 6), ((3,) * 5, 4, 4), ((3,) * 6, 5, 4)]
)
@pytest.mark.parametrize("track", [False, True])
def test_classify_rows_does_not_depend_on_the_key_dtype(sizes, r, m, track):
    # the same rows with every label shifted up, so that n needs a uint32
    # and then a uint64 key: the classification is the same
    pv = partition(sizes)
    sampler = EdgeSampler(pv, r)
    verts = sampler.unrank_many(_draw_block(make_rng(r), sampler.total, 64, m))
    cap = 1
    want = classify_rows(verts, pv.n, cap, track)
    _assert_rows_match_signature(verts, *want, cap)
    # plus rows and at least two reasons for a violation
    assert len(set(want[1].tolist())) >= 3
    for dtype in (np.uint32, np.uint64):
        offsets = (10 ** k for k in range(1, 8))
        offset = next(o for o in offsets if _key_dtype(pv.n + o, r, m, track) == dtype)
        got = classify_rows(verts + offset, pv.n + offset, cap, track)
        for a, b in zip(got, want):
            assert a is b is None or a.tolist() == b.tolist(), (dtype, offset)


@pytest.mark.parametrize("track", [False, True])
def test_classify_rows_at_the_uint16_boundary(track):
    # r = 3, m = 20: the top pair key (n+1)^2 << 5 is 64,800 at n = 44 and
    # 67,712 at n = 45, so n = 45 rows overflow a uint16 key
    m, cap = 20, 3
    for n, dtype in ((44, np.uint16), (45, np.uint32)):
        assert _key_dtype(n, 3, m, track) == dtype
        pv = uniform_partition(n)
        sampler = EdgeSampler(pv, 3)
        verts = sampler.unrank_many(_draw_block(make_rng(n), sampler.total, 200, m))
        assert verts.max() == n
        got = classify_rows(verts, n, cap, track)
        _assert_rows_match_signature(verts, *got, cap)
        wide = classify_rows(verts, 10 ** 4, cap, track)
        for a, b in zip(wide, got):
            assert a is b is None or a.tolist() == b.tolist(), n


@pytest.mark.parametrize(
    "r, n, rows, t_2",
    [
        # the first row's top two pair codes are equal, and so are the
        # second row's lowest two
        (3, 8, [[(1, 7, 8), (2, 7, 8)], [(1, 2, 3), (1, 2, 4)]], 1),
        (4, 10, [[(1, 2, 9, 10), (3, 4, 9, 10)], [(1, 2, 3, 4), (1, 2, 5, 6)]], 1),
        # the same at the 3-codes: a shared top triple, then a shared
        # lowest one, each holding three shared pairs
        (4, 10, [[(1, 8, 9, 10), (2, 8, 9, 10)], [(1, 2, 3, 5), (1, 2, 3, 6)]], 3),
    ],
)
def test_runs_do_not_cross_a_row_boundary(r, n, rows, t_2):
    # the two rows' boundary flags are adjacent in the flat index; each
    # belongs to a run of two equal codes in its own row, not to one run of
    # three across both rows
    verts = np.array(rows, dtype=np.int64)
    cap = 2
    t, reason, overlaps = classify_rows(verts, n, cap, track_overlaps=True)
    _assert_rows_match_signature(verts, t, reason, overlaps, cap)
    assert t.tolist() == [t_2, t_2]
    assert overlaps.tolist() == [1, 1]
    t_plain, reason_plain, _ = classify_rows(verts, n, cap)
    assert reason_plain.tolist() == reason.tolist()


@pytest.mark.parametrize("track, dense_peak", [(False, 3.06e6), (True, 10.09e6)])
def test_classify_rows_memory_on_runs_three_deep(track, dense_peak):
    # the whole edge space of parts 3,3,3 in each of 4096 rows, so every
    # pair code runs three deep and two of every three pair codes hold a
    # flag.  The dense passes over the (rows, codes) flags peaked at
    # dense_peak bytes here (numpy 2.4.6); the sparse flag lists stay
    # within twice that
    pv = partition((3, 3, 3))
    sampler = EdgeSampler(pv, 3)
    m = sampler.total
    verts = sampler.unrank_many(_draw_block(make_rng(0), m, BLOCK_TRIALS, m))
    cap = cluster_threshold(pv, 3, m)
    classify_rows(verts, pv.n, cap, track)
    tracemalloc.start()
    try:
        _, reason, overlaps = classify_rows(verts, pv.n, cap, track)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * dense_peak, peak
    assert set(reason.tolist()) == {REASONS.index("cluster_gt2_edges")}
    if track:
        tuples = verts[0].tolist()
        assert set(overlaps.tolist()) == {_overlap_pairs(tuples)}


def test_report_tallies_are_plain_nonzero_ints():
    # the cap (331) is far above m // 2, the most clusters a plus row holds
    pv = uniform_partition(20)
    r, m = 3, 10
    assert cluster_threshold(pv, r, m) > m // 2
    rep = estimate_linear_probability(pv, r, m, trials=5000, seed=3, track_overlaps=True)
    tallies = [rep.hits, rep.overlap_total]
    tallies += list(rep.cluster_histogram.values()) + list(rep.violation_counts.values())
    assert all(type(c) is int for c in tallies), tallies
    assert all(type(t) is int for t in rep.cluster_histogram)
    assert all(type(k) is str for k in rep.violation_counts)
    assert 0 not in rep.cluster_histogram.values()
    assert 0 not in rep.violation_counts.values()
    assert rep.hits == rep.cluster_histogram[0] > 0
    assert max(rep.cluster_histogram) <= m // 2
    json.dumps(rep.to_json_dict())
