"""Tests for exhaustive counting: pinned vectors, oracle agreement, guards."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linhyp import (
    CensusResult,
    DomainError,
    WorkCeilingError,
    bijection_audit,
    census_by_cluster,
    count_all,
    count_linear,
    count_linear_naive,
    exact_linear_probability,
    make_rng,
    partition,
    sigma,
    uniform_partition,
)
from linhyp import census, switching, verify
from linhyp.census import (
    EdgeSpaceIndex,
    _plus_strata,
    orbit_count,
    stabiliser_orbits,
)
from linhyp.hypergraphs import cluster_threshold
from linhyp.montecarlo import cluster_signature

# (sizes, r, m) -> (total, by_cluster, not_plus); enumerated independently
# by a throwaway brute-force script before this module existed, then frozen
PINNED = {
    ((2, 2, 2), 3, 2): (28, {0: 16, 1: 12}, 0),
    ((2, 2, 2), 3, 3): (56, {0: 8, 1: 24}, 24),
    ((2, 2, 2), 3, 4): (70, {0: 2, 2: 6}, 62),
    ((1,) * 6, 3, 2): (190, {0: 100, 1: 90}, 0),
    ((1,) * 6, 3, 3): (1140, {0: 120, 1: 540}, 480),
    ((1,) * 6, 3, 4): (4845, {0: 30, 1: 360, 2: 495}, 3960),
    ((3, 1, 2), 3, 2): (15, {0: 6, 1: 9}, 0),
    ((3, 1, 2), 3, 3): (20, {1: 6}, 14),
    ((3, 1, 2), 3, 4): (15, {}, 15),
    ((2, 2, 2, 2), 4, 2): (120, {0: 40, 1: 48}, 32),
    ((2, 2, 2, 2), 4, 3): (560, {1: 96}, 464),
    ((2, 2, 2, 2), 4, 4): (1820, {2: 24}, 1796),
    ((1,) * 6, 4, 2): (105, {1: 45}, 60),
    ((1,) * 6, 4, 3): (455, {}, 455),
    ((1,) * 8, 4, 2): (2415, {0: 595, 1: 1260}, 560),
    ((1,) * 8, 4, 3): (54740, {1: 5040}, 49700),
    ((3, 3, 3), 3, 2): (351, {0: 270, 1: 81}, 0),
    ((3, 3, 3), 3, 3): (2925, {0: 1278, 1: 1296}, 351),
    ((3, 3, 3), 3, 4): (17550, {0: 3078, 1: 6966, 2: 1377}, 6129),
    ((2, 2, 2, 2), 3, 2): (496, {0: 352, 1: 144}, 0),
    ((2, 2, 2, 2), 3, 3): (4960, {0: 1632, 1: 2496}, 832),
    ((2, 2, 2, 2), 3, 4): (35960, {0: 3208, 1: 12672, 2: 3888}, 16192),
    ((1,) * 7, 3, 4): (52360, {0: 2310, 1: 13230, 2: 5985}, 30835),
}


def test_census_matches_frozen_vectors():
    for (sizes, r, m), (total, strata, not_plus) in PINNED.items():
        res = census_by_cluster(partition(sizes), r, m)
        expect = dict(strata)
        expect.setdefault(0, 0)
        assert res.total == total, (sizes, r, m)
        assert res.by_cluster == expect, (sizes, r, m)
        assert res.not_plus == not_plus, (sizes, r, m)
        assert res.linear == expect[0]


def test_count_linear_matches_census_and_naive():
    for (sizes, r, m), (_, strata, _) in PINNED.items():
        pv = partition(sizes)
        fast = count_linear(pv, r, m)
        assert fast == strata.get(0, 0), (sizes, r, m)
        assert fast == count_linear_naive(pv, r, m), (sizes, r, m)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_count_linear_matches_naive_on_random_partitions(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=6), label="sizes")
    pv = partition(sizes)
    r = data.draw(st.integers(3, min(4, pv.k)), label="r")
    # keep the naive filter's subset space small
    edges = sigma(pv, r)
    ms = [m for m in range(min(5, edges), 0, -1) if math.comb(edges, m) <= 20_000]
    m = data.draw(st.sampled_from(ms), label="m")
    assert count_linear(pv, r, m) == count_linear_naive(pv, r, m)


def test_count_linear_worker_count_is_irrelevant():
    pv = partition((3, 3, 3))
    base = count_linear(pv, 3, 3, workers=1)
    for workers in (2, 3, 5):
        assert count_linear(pv, 3, 3, workers=workers) == base
    for workers in (0, -1):
        with pytest.raises(DomainError):
            count_linear(partition((2, 2, 2)), 3, 2, workers=workers)


def test_count_all_and_trivial_m():
    pv = partition((2, 2, 2))
    assert count_all(pv, 3, 0) == 1
    assert count_all(pv, 3, 2) == 28
    assert count_linear(pv, 3, 0) == 1
    assert count_linear(pv, 3, 1) == 8
    res = census_by_cluster(pv, 3, 0)
    assert res.by_cluster == {0: 1} and res.not_plus == 0


def test_exact_linear_probability_pins():
    assert exact_linear_probability(partition((2, 2, 2)), 3, 2) == Fraction(4, 7)
    assert exact_linear_probability(uniform_partition(6), 3, 2) == Fraction(10, 19)


def test_domain_and_ceiling_guards():
    pv = partition((2, 2, 2))
    with pytest.raises(DomainError):
        count_linear(pv, 3, 9)
    with pytest.raises(DomainError):
        count_linear(pv, 3, -1)
    with pytest.raises(WorkCeilingError) as info:
        count_linear(uniform_partition(20), 3, 10)
    assert info.value.required > info.value.ceiling
    # raising the ceiling re-enables the small case
    assert count_linear(pv, 3, 2, work_ceiling=10 ** 9) == 16


def test_rooted_price_admits_what_the_rooted_search_runs():
    # the rooted search visits 1 * C(219, 3) four-edge subsets, about 1.0e7
    # pair checks; the naive filter still sweeps all C(220, 4) (5.7e8)
    pv = uniform_partition(12)
    assert count_linear(pv, 3, 4) == 41761720
    with pytest.raises(WorkCeilingError):
        count_linear_naive(pv, 3, 4)


def test_naive_filter_builds_no_index_and_prices_its_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("the naive filter must not build the edge index")

    monkeypatch.setattr(census, "EdgeSpaceIndex", refuse)
    for (sizes, r, m), (_, strata, _) in PINNED.items():
        assert count_linear_naive(partition(sizes), r, m) == strata.get(0, 0), (sizes, r, m)
    pv = partition((2, 2, 2))
    assert [count_linear_naive(pv, 3, m) for m in (0, 1)] == [1, 8]
    # sigma_r + C(8, 3) subsets of C(3, 2) pair checks each
    price = 8 + math.comb(8, 3) * 3
    with pytest.raises(WorkCeilingError) as info:
        count_linear_naive(pv, 3, 3, work_ceiling=price - 1)
    assert info.value.required == price
    assert count_linear_naive(pv, 3, 3, work_ceiling=price) == 8


def test_naive_filter_catches_a_wrong_pair_table(monkeypatch):
    # merged pair ids link edges that share no vertex pair; the plus
    # search reads the merged rows, the bitmask filter never sees them
    init = EdgeSpaceIndex.__init__

    def merged(self, pv, r):
        init(self, pv, r)
        self.pairs = [frozenset(pid // 2 for pid in row) for row in self.pairs]

    monkeypatch.setattr(EdgeSpaceIndex, "__init__", merged)
    pv = partition((2, 2, 2))
    assert count_linear(pv, 3, 3) == 0
    assert count_linear_naive(pv, 3, 3) == 8


def _built_indexes(monkeypatch):
    """Every EdgeSpaceIndex built while the patch holds, in order."""
    built = []
    init = EdgeSpaceIndex.__init__

    def record(self, pv, r):
        init(self, pv, r)
        built.append(self)

    monkeypatch.setattr(EdgeSpaceIndex, "__init__", record)
    return built


def test_link_rows_are_built_only_for_roots_and_second_edges(monkeypatch):
    # at m = 3 the last edge is counted, not placed, so rows exist only
    # for the roots and their second edges, not for all 34,220 edges
    built = _built_indexes(monkeypatch)
    pv = uniform_partition(60)
    res = census_by_cluster(pv, 3, 3)
    assert res.linear == count_linear(pv, 3, 3) == 6578391204000
    index = built[0]
    roots = stabiliser_orbits(index)
    bound = len(roots) + sum(len(stabiliser_orbits(index, (root,))) for root, _ in roots)
    assert bound == 4
    for index in built:
        assert 0 < len(index._links) <= bound
    # at m = 2 the root pair is classified from its pair rows alone
    built.clear()
    assert count_linear(pv, 3, 2) == census_by_cluster(pv, 3, 2).linear
    assert [index._links for index in built] == [{}, {}]
    assert all("occupants" not in vars(index) for index in built)


def test_a_wrong_link_row_makes_the_search_disagree_with_the_naive_filter(monkeypatch):
    # drop the last edge from every other edge's row: the search then
    # takes it as free beside edges it shares a vertex pair with (the
    # last edge is no root and no second edge, so its own row is unread)
    rows = EdgeSpaceIndex.link_rows

    def dropped(self, e):
        once, two = rows(self, e)
        last = self.count - 1
        return (once & ~(1 << last) if e != last else once), two

    pv = partition((3, 3, 3))
    want = count_linear_naive(pv, 3, 4)
    assert count_linear(pv, 3, 4) == want
    monkeypatch.setattr(EdgeSpaceIndex, "link_rows", dropped)
    assert count_linear(pv, 3, 4) != want


def test_rooted_price_charges_the_index_and_the_overlap_matrix(monkeypatch):
    # below two edges every subset is linear: C(2000, 3) (1.3e9) with
    # nothing built; at m = 2 the price is exactly that many index edges,
    # and the audit's at n = 100 the index and a 161700^2-byte cat
    def refuse(*args):
        raise AssertionError("a refused or trivial call must build nothing")

    monkeypatch.setattr(census, "EdgeSpaceIndex", refuse)
    monkeypatch.setattr(switching, "EdgeSpaceIndex", refuse)
    pv, edges = uniform_partition(2000), math.comb(2000, 3)
    assert count_linear(pv, 3, 1) == edges
    assert census_by_cluster(pv, 3, 1).by_cluster == {0: edges}
    assert bijection_audit(pv, 3, 1).strata == {0: edges}
    audit_edges = math.comb(100, 3)
    calls = (
        (count_linear, 2000, 2, edges),
        (census_by_cluster, 2000, 2, edges),
        (bijection_audit, 100, 2, audit_edges + audit_edges ** 2),
    )
    for func, n, m, price in calls:
        with pytest.raises(WorkCeilingError) as info:
            func(uniform_partition(n), 3, m)
        assert info.value.required == price, (func.__name__, n, m)
    # at r = 2 the audit has no switching brackets, and fails before building
    with pytest.raises(DomainError):
        bijection_audit(partition((2, 2, 2)), 2, 2)


# labelled counts of linear 3-graphs in which every pair of vertices from
# distinct parts lies in exactly one edge, far past the grid's m:
# Steiner triple systems on uniform n = v, m = v(v - 1)/6 (Colbourn &
# Rosa, Triple Systems, Oxford 1999), v!/|Aut| for their one class, and
# Latin squares of order q on parts q,q,q, m = q^2 (OEIS A002860).
# All run at the default work ceiling.  (sizes, r, m) -> count
KNOWN_COUNTS = {
    ((1,) * 7, 3, 7): 30,  # the Fano plane, 7!/168
    ((1,) * 9, 3, 12): 840,  # AG(2, 3), 9!/432
    ((3, 3, 3), 3, 9): 12,  # Latin squares of order 3
    ((4, 4, 4), 3, 16): 576,  # Latin squares of order 4, about 5.4e6 extend calls
}


@pytest.mark.parametrize("sizes, r, m", sorted(KNOWN_COUNTS))
def test_known_design_counts(sizes, r, m):
    assert count_linear(partition(sizes), r, m) == KNOWN_COUNTS[sizes, r, m]


def test_census_result_consistency_enforced():
    with pytest.raises(AssertionError):
        CensusResult(total=3, linear=1, by_cluster={0: 2}, not_plus=1, cluster_cap=5)
    with pytest.raises(AssertionError):
        CensusResult(total=9, linear=2, by_cluster={0: 2}, not_plus=1, cluster_cap=5)


def test_compat_stats_against_brute_force():
    rng = make_rng(313)
    # (sizes, r, largest h0); at r = 4 the triples of the blocked edges
    # are counted off vertex tuples
    inputs = [
        ((2, 2, 2), 3, 3), ((2, 2, 2, 2), 4, 3), ((1,) * 7, 3, 3), ((1,) * 8, 5, 3), ((1,) * 7, 6, 3),
        ((3, 1, 2), 3, 3), ((1,) * 9, 4, 4),
    ]
    for sizes, r, top in inputs:
        pv = partition(sizes)
        index = EdgeSpaceIndex(pv, r)
        vsets = [set(vs) for vs in index.edges]
        # cat: 0, 1 or 2 for at most one, exactly two or at least three shared vertices
        want = [
            [0 if i == j else {0: 0, 1: 0, 2: 1}.get(len(a & b), 2) for j, b in enumerate(vsets)]
            for i, a in enumerate(vsets)
        ]
        assert [list(row) for row in index.cat] == want, (sizes, r)
        for _ in range(25):
            hsize = int(rng.integers(0, top + 1))
            h0 = tuple(sorted(int(x) for x in rng.choice(index.count, size=hsize, replace=False)))
            pool = [
                i
                for i in range(index.count)
                if all(len(vsets[i] & vsets[g]) <= 1 for g in h0)
            ]
            ge2 = eq2 = 0
            for a, b in combinations(pool, 2):
                shared = len(vsets[a] & vsets[b])
                if shared >= 2:
                    ge2 += 1
                    if shared == 2:
                        eq2 += 1
            assert index.compat_stats(h0) == (len(pool), ge2, eq2), (sizes, r, h0)


def test_compat_stats_excludes_h0_when_edges_have_no_pairs():
    # at r = 2 no two distinct edges share two vertices, so every edge
    # outside h0 is compatible and h0's own edges are not; at r = 1 the
    # pair rows are empty and only the membership test excludes h0
    index = EdgeSpaceIndex(partition((2, 2, 2)), 2)
    assert index.compat_stats(()) == (12, 0, 0)
    assert index.compat_stats((0, 5)) == (10, 0, 0)
    index = EdgeSpaceIndex(partition((2, 2, 2)), 1)
    assert index.compat_stats(()) == (6, 0, 0)
    assert index.compat_stats((0, 5)) == (4, 0, 0)


def test_index_size_grows_with_pairs_not_subsets():
    # 18 edges of 17 vertices hold 18 * 136 pairs; a table of every vertex
    # subset of size 2..r-1 would hold about 18 * 2**17 and peak near 140 MiB
    tracemalloc.start()
    try:
        index = EdgeSpaceIndex(uniform_partition(18), 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.count == 18
    assert peak < 2 * 2 ** 20, peak


def test_classify_combo_matches_pinned_strata():
    pv = partition((2, 2, 2, 2))
    index = EdgeSpaceIndex(pv, 4)
    tally = {}
    bad = 0
    for combo in combinations(range(index.count), 3):
        t, reason, _, _ = index.classify_combo(combo, 10)
        if reason is None:
            tally[t] = tally.get(t, 0) + 1
        else:
            bad += 1
    assert tally == {1: 96} and bad == 464


def _assert_plus_search_matches_oracle(pv, r, m):
    # the search classifies its root prefix, then applies the plus rule one
    # edge at a time; hold it to cluster_signature on every m-subset, with
    # the cap applied to its count.  The second pass gives a visitor, so
    # from m = 3 on the search roots at triples (depth 3) and every subset
    # it visits is checked one by one
    index = EdgeSpaceIndex(pv, r)
    signatures = {
        combo: cluster_signature([index.edges[i] for i in combo])
        for combo in combinations(range(index.count), m)
    }
    for cap in (0, 1, 2, 50):
        want = {0: 0}
        for t, reason in signatures.values():
            if reason is None and t <= cap:
                want[t] = want.get(t, 0) + 1
        assert _plus_strata(index, m, cap) == want, (pv.sizes, r, m, cap)

        def visit(combo, t):
            assert signatures[combo] == (t, None) and t <= cap, (pv.sizes, r, m, cap, combo, t)
            return {("visited", t): 1}

        visited = {("visited", t): c for t, c in want.items() if c} if m >= 2 and r >= 3 else {}
        assert _plus_strata(index, m, cap, visit) == {**want, **visited}, (pv.sizes, r, m, cap)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_plus_search_matches_union_find_oracle(data):
    r = data.draw(st.sampled_from((3, 4, 2)), label="r")
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=max(3, r), max_size=5), label="sizes")
    pv = partition(sizes)
    edges = sigma(pv, r)
    # largest m first: strata t >= 2 need m >= 4
    ms = [m for m in range(min(8, edges), -1, -1) if math.comb(edges, m) <= 20_000]
    m = data.draw(st.sampled_from(ms), label="m")
    _assert_plus_search_matches_oracle(pv, r, m)


def test_plus_search_matches_oracle_where_caps_bind():
    # random draws seldom reach t >= 2; these cells reach t = 2 and 3,
    # so caps 1 and 2 cut populated strata
    for sizes, r, m in (
        ((2, 3, 3), 3, 6),
        ((1, 1, 2, 3), 3, 6),
        ((1, 2, 2, 2), 3, 5),
        ((2, 2, 2, 3), 4, 4),
    ):
        _assert_plus_search_matches_oracle(partition(sizes), r, m)


def test_census_does_not_use_the_overlap_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("the census must not use the overlap matrix")

    monkeypatch.setattr(EdgeSpaceIndex, "classify_combo", refuse)
    monkeypatch.setattr(EdgeSpaceIndex, "cat", property(refuse))
    for sizes in ((3, 3, 3), (1,) * 7):
        total, strata, not_plus = PINNED[(sizes, 3, 4)]
        res = census_by_cluster(partition(sizes), 3, 4)
        assert (res.total, res.by_cluster, res.not_plus) == (total, strata, not_plus)
        assert count_linear(partition(sizes), 3, 4) == strata[0]


def test_audit_below_two_edges_does_not_use_the_overlap_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("an audit of fewer than two edges compares no edges")

    monkeypatch.setattr(EdgeSpaceIndex, "cat", property(refuse))
    for m, strata in ((0, {0: 1}), (1, {0: 8})):
        audit = bijection_audit(partition((2, 2, 2)), 3, m)
        assert (audit.strata, audit.not_plus, audit.records) == (strata, 0, ())


def _brute_orbit(pv, edge):
    """Closure of one edge under in-part vertex swaps and swaps of equal-size parts."""
    moves = []
    for p in range(pv.k):
        vs = list(pv.part_vertices(p))
        moves += [{a: b, b: a} for a, b in zip(vs, vs[1:])]
    for p, q in combinations(range(pv.k), 2):
        if pv.sizes[p] == pv.sizes[q]:
            a, b = pv.part_vertices(p), pv.part_vertices(q)
            moves.append({**dict(zip(a, b)), **dict(zip(b, a))})
    seen = {edge}
    todo = [edge]
    while todo:
        e = todo.pop()
        for move in moves:
            image = tuple(sorted(move.get(v, v) for v in e))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def test_edge_orbits_cover_the_edge_space_and_match_the_histogram_count():
    for sizes in ((2, 2, 2), (3, 1, 2), (4, 2, 3, 1, 2), (1,) * 7, (2, 1, 2, 1), (3, 3, 1), (1, 1, 2, 3)):
        pv = partition(sizes)
        for r in range(0, pv.k + 1):
            orbits = stabiliser_orbits(EdgeSpaceIndex(pv, r))
            assert sum(size for _, size in orbits) == sigma(pv, r), (sizes, r)
            assert len(orbits) == orbit_count(pv, r), (sizes, r)
    assert orbit_count(partition((4, 2, 3, 1, 2)), 3) == 7


def test_edge_orbits_are_the_automorphism_orbits():
    for sizes in ((2, 1, 2, 1), (3, 3, 1)):
        pv = partition(sizes)
        index = EdgeSpaceIndex(pv, 3)
        covered = set()
        for root, size in stabiliser_orbits(index):
            orbit = {index.position[e] for e in _brute_orbit(pv, index.edges[root])}
            assert (len(orbit), min(orbit)) == (size, root), sizes
            assert covered.isdisjoint(orbit), sizes
            covered |= orbit
        assert covered == set(range(index.count)), sizes


def _shift_orbit_sizes(monkeypatch, level, shift):
    """Make stabiliser_orbits misstate two orbit sizes under every prefix of `level` edges."""
    true_orbits = census.stabiliser_orbits

    def wrong(index, fixed=()):
        orbits = true_orbits(index, fixed)
        if len(fixed) != level:
            return orbits
        (a, x), (b, y), *rest = orbits
        return [(a, x + shift[0]), (b, y + shift[1]), *rest]

    monkeypatch.setattr(census, "stabiliser_orbits", wrong)


@pytest.mark.parametrize("shift", [(1, 0), (1, -1)])
def test_wrong_orbit_size_raises_instead_of_miscounting(monkeypatch, shift):
    # (1, 0) leaves an edge uncovered; (1, -1) still sums to the edges
    # left but leaves a remainder when the weighted tallies are divided
    # by m!/(m - depth)!.  The count walks edge pairs (depth 2), the
    # audit edge triples (depth 3); a wrong size at the i-th fixed edge
    # must make every walk that reaches it raise, and leave the others be
    pv = partition((2, 1, 2, 1))
    calls = (
        (2, lambda: _plus_strata(EdgeSpaceIndex(pv, 3), 4, 50)),
        (3, lambda: bijection_audit(pv, 3, 4).to_json_dict()),
    )
    want = [call() for _, call in calls]
    for depth in (1, 2, 3):
        with monkeypatch.context() as patch:
            _shift_orbit_sizes(patch, depth - 1, shift)
            for (reach, call), expected in zip(calls, want):
                if depth <= reach:
                    with pytest.raises(AssertionError):
                        call()
                else:
                    assert call() == expected, depth


def _automorphisms(pv):
    """Every automorphism of the partition as a vertex map: equal-size parts
    permuted among themselves, then the vertices inside each part."""
    parts = [list(pv.part_vertices(p)) for p in range(pv.k)]
    classes = [[p for p in range(pv.k) if pv.sizes[p] == s] for s in sorted(set(pv.sizes))]
    inner = list(product(*(permutations(range(len(vs))) for vs in parts)))
    for images in product(*(permutations(c) for c in classes)):
        target = {}
        for c, image in zip(classes, images):
            target.update(zip(c, image))
        for perm in inner:
            yield {v: parts[target[p]][perm[p][i]] for p, vs in enumerate(parts) for i, v in enumerate(vs)}


def _check_stabiliser_orbits(index, group, fixed, label):
    """stabiliser_orbits(index, fixed) against the orbits, on the other edges,
    of the members of group that map each edge of fixed to itself."""

    def image(g, i):
        return index.position[tuple(sorted(g[v] for v in index.edges[i]))]

    stabiliser = [g for g in group if all(image(g, e) == e for e in fixed)]
    orbits = stabiliser_orbits(index, fixed)
    assert sum(size for _, size in orbits) == index.count - len(fixed), (label, fixed)
    covered = set()
    for rep, size in orbits:
        orbit = {image(g, rep) for g in stabiliser}
        assert (len(orbit), min(orbit)) == (size, rep), (label, fixed, rep)
        assert covered.isdisjoint(orbit), (label, fixed, rep)
        covered |= orbit
    assert covered == set(range(index.count)) - set(fixed), (label, fixed)
    return orbits


def test_stabiliser_orbits_are_the_orbits_of_the_roots_stabiliser():
    # the second edges under each root, and the audit's third edges under
    # each ordered root pair, against all automorphisms
    for sizes in ((2, 1, 2, 1), (3, 1, 2, 2), (1,) * 6):
        pv = partition(sizes)
        index = EdgeSpaceIndex(pv, 3)
        group = list(_automorphisms(pv))
        for root, _ in stabiliser_orbits(index):
            for rep, _ in _check_stabiliser_orbits(index, group, (root,), sizes):
                _check_stabiliser_orbits(index, group, (root, rep), sizes)


def test_the_meter_refuses_the_search_it_would_otherwise_run(monkeypatch):
    # uniform n=12 r=3 m=4 is answered at the default ceiling; at these
    # ceilings each call passes its up-front price (220 edges, and the
    # audit's 220^2-byte cat) and is stopped by the meter, having built
    # no more link rows than the ceiling pays sigma_r for
    built = _built_indexes(monkeypatch)
    pv, edges = uniform_partition(12), 220
    want = [count_linear(pv, 3, 4), census_by_cluster(pv, 3, 4), bijection_audit(pv, 3, 4)]
    assert want[0] == want[1].linear == want[2].strata[0] == 41761720
    calls = ((count_linear, 20000), (census_by_cluster, 20000), (bijection_audit, 60000))
    for func, ceiling in calls:
        built.clear()
        with pytest.raises(WorkCeilingError) as info:
            func(pv, 3, 4, work_ceiling=ceiling)
        assert info.value.required > ceiling == info.value.ceiling, func.__name__
        assert "stopped after" in str(info.value)
        (index,) = built
        assert len(index._links) <= ceiling // edges, func.__name__


@pytest.mark.parametrize("shift", [(1, 0), (1, -1)])
def test_wrong_stabiliser_orbit_size_raises_or_changes_the_answer(monkeypatch, shift):
    # (1, 0) leaves the sizes short of the edges left and must raise;
    # (1, -1) keeps the sum, so it must raise on a remainder or change an
    # answer, at every depth a walk reaches (the m = 3 audit's leaves are
    # the root triples themselves)
    pv = partition((2, 1, 2, 1))
    calls = (
        (2, lambda: _plus_strata(EdgeSpaceIndex(pv, 3), 4, 50)),
        (3, lambda: bijection_audit(pv, 3, 4).to_json_dict()),
        (3, lambda: bijection_audit(pv, 3, 3).to_json_dict()),
    )
    want = [call() for _, call in calls]
    for depth in (1, 2, 3):
        with monkeypatch.context() as patch:
            _shift_orbit_sizes(patch, depth - 1, shift)
            for (reach, call), expected in zip(calls, want):
                try:
                    got = call()
                except AssertionError:
                    assert depth <= reach, depth
                    continue
                assert (shift[1] and got != expected) if depth <= reach else got == expected, depth


@pytest.mark.parametrize("sizes, r, m", [((1,) * 8, 3, 4), ((2, 2, 2, 2), 3, 5), ((3, 3, 3), 3, 4)])
def test_audit_move_sums_regroup_over_the_unrooted_remainder(sizes, r, m):
    # removing the switched pair leaves an (m-2)-set h0 in stratum t-1; the
    # pairs sharing exactly two vertices and compatible with h0 are the
    # clusters that restore stratum t, and the ordered compatible pairs
    # sharing at most one vertex are the replacements, so below the cap
    # both move sums are sum 2 n_eq2 (C(size, 2) - n_ge2) over those h0
    # (verify runs the same regrouping on the grid; these cells are not on it)
    pv = partition(sizes)
    cap = cluster_threshold(pv, r, m)
    want = verify._regrouped_move_sums(verify.GridInstance(sizes, r, m), cap)
    audit = bijection_audit(pv, r, m)
    assert [rec.t for rec in audit.records] == list(range(1, m // 2 + 1))
    for rec in audit.records:
        assert rec.t <= cap
        assert rec.sum_forward == rec.sum_reverse == want.get(rec.t, 0), (sizes, rec.t)
