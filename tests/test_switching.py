"""Tests for switching moves, their counts, the audit, and series bounds."""

import math
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import pytest

from linhyp import (
    DomainError,
    Hypergraph,
    SeriesSpec,
    apply_forward,
    apply_reverse,
    bijection_audit,
    count_brackets,
    count_forward_moves,
    count_reverse_moves,
    edge_space,
    enumerate_forward,
    enumerate_reverse,
    hypergraph,
    is_linear,
    make_edge,
    make_rng,
    partition,
    ratio_series,
    series_sum_bounds,
    switching,
    uniform_partition,
)
from linhyp.asymptotics import cluster_mean
from linhyp.census import EdgeSpaceIndex, stabiliser_orbits
from linhyp.hypergraphs import OVERLAP_GE3, Edge, cluster_threshold
from linhyp.switching import ForwardMove, ReverseMove, _forward_total, _reverse_total


def _plus_subsets(sizes, r, m, cap=50):
    pv = partition(sizes)
    index = EdgeSpaceIndex(pv, r)
    edges = [make_edge(pv, vs) for vs in index.edges]
    for combo in combinations(range(index.count), m):
        t, reason, _, _ = index.classify_combo(combo, cap)
        if reason is None:
            yield index, Hypergraph(pv, r, frozenset(edges[i] for i in combo)), t


def test_forward_moves_on_one_cluster_pair():
    pv = partition((2, 2, 2))
    h = hypergraph(pv, 3, [(1, 3, 5), (1, 3, 6)])
    moves = enumerate_forward(h)
    # S is the whole edge space (nothing kept), minus linked orderings
    assert len(moves) == 8 * 7 - 2 * 12
    assert len(moves) == count_forward_moves(h)
    for mv in moves:
        out = apply_forward(h, mv)
        assert out.m == 2 and is_linear(out)


def test_reverse_moves_on_linear_pair():
    pv = partition((2, 2, 2))
    h = hypergraph(pv, 3, [(1, 3, 5), (2, 4, 6)])
    moves = enumerate_reverse(h)
    assert len(moves) == 2 * 12
    assert len(moves) == count_reverse_moves(h)
    for mv in moves:
        out = apply_reverse(h, mv)
        assert out.m == 2 and not is_linear(out)


def test_enumerate_matches_counts_everywhere():
    cases = [((2, 2, 2), 3, 2), ((3, 1, 2), 3, 3), ((2, 2, 2, 2), 4, 2), ((3, 3, 3), 3, 2)]
    for sizes, r, m in cases:
        for index, h, t in _plus_subsets(sizes, r, m):
            if t >= 1:
                assert len(enumerate_forward(h)) == count_forward_moves(h, index)
            assert len(enumerate_reverse(h)) == count_reverse_moves(h, index)


def test_move_counts_build_no_overlap_matrix():
    # the clusters come from classify, so no sigma_r^2 cat is built
    pv = uniform_partition(40)
    h = hypergraph(pv, 3, [(1, 2, 3), (1, 2, 4), (5, 6, 7), (8, 9, 10)])
    index = EdgeSpaceIndex(pv, 3)
    assert count_forward_moves(h, index) == 92172776
    assert count_reverse_moves(h, index) == 1063440
    assert index._cat is None


def test_moves_pair_off_exactly():
    # every forward move has exactly one reverse move undoing it
    for index, h, t in _plus_subsets((2, 2, 2), 3, 2):
        if t == 0:
            continue
        for mv in enumerate_forward(h):
            out = apply_forward(h, mv)
            undo = [
                rm
                for rm in enumerate_reverse(out)
                if rm.removed == mv.replacement and rm.inserted == mv.cluster
            ]
            assert len(undo) == 1
            assert apply_reverse(out, undo[0]) == h
    # and symmetrically for reverse moves
    for index, h, t in _plus_subsets((3, 3, 3), 3, 2):
        if t > 0:
            continue
        for rm in enumerate_reverse(h)[:40]:
            out = apply_reverse(h, rm)
            redo = [
                mv
                for mv in enumerate_forward(out)
                if mv.cluster == rm.inserted and mv.replacement == rm.removed
            ]
            assert len(redo) == 1
            assert apply_forward(out, redo[0]) == h


def _accepts(apply, h, move):
    try:
        apply(h, move)
    except DomainError:
        return False
    return True


def test_apply_accepts_exactly_the_enumerated_moves():
    # every candidate move, valid or not: apply_* raises DomainError
    # exactly on the candidates that enumerate_* leaves out
    cases = [((2, 2, 2), 3, 2), ((2, 2, 2), 3, 3), ((2, 2, 2), 3, 4), ((3, 1, 2), 3, 3), ((2, 2, 2, 2), 4, 2)]
    for sizes, r, m in cases:
        space = list(edge_space(partition(sizes), r))
        for _, h, t in _plus_subsets(sizes, r, m):
            forward = set(enumerate_forward(h)) if t else set()
            reverse = set(enumerate_reverse(h))
            for cluster in combinations(h.sorted_edges(), 2):
                for replacement in product(space, repeat=2):
                    mv = ForwardMove(frozenset(cluster), replacement)
                    assert _accepts(apply_forward, h, mv) == (mv in forward), mv
            for removed in product(h.sorted_edges(), repeat=2):
                for inserted in combinations(space, 2):
                    mv = ReverseMove(removed, frozenset(inserted))
                    assert _accepts(apply_reverse, h, mv) == (mv in reverse), mv


def test_apply_forward_validations():
    pv = partition((2, 2, 2))
    h = hypergraph(pv, 3, [(1, 3, 5), (1, 3, 6), (2, 4, 6)])
    cluster = frozenset({make_edge(pv, (1, 3, 5)), make_edge(pv, (1, 3, 6))})
    e245 = make_edge(pv, (2, 4, 5))
    e136 = make_edge(pv, (1, 3, 6))
    with pytest.raises(DomainError):
        # replacement shares two vertices with the kept edge (2,4,6)
        apply_forward(h, ForwardMove(cluster, (make_edge(pv, (2, 4, 5)), make_edge(pv, (1, 4, 6)))))
    with pytest.raises(DomainError):
        # second replacement duplicates the first
        apply_forward(h, ForwardMove(cluster, (e245, e245)))
    with pytest.raises(DomainError):
        # selected pair is not a cluster
        apply_forward(
            h,
            ForwardMove(
                frozenset({make_edge(pv, (1, 3, 5)), make_edge(pv, (2, 4, 6))}),
                (e245, e136),
            ),
        )


def test_apply_reverse_validations():
    pv = partition((2, 2, 2))
    h = hypergraph(pv, 3, [(1, 3, 5), (2, 4, 6)])
    e135 = make_edge(pv, (1, 3, 5))
    e246 = make_edge(pv, (2, 4, 6))
    with pytest.raises(DomainError):
        # inserted pair shares three vertices, not two
        apply_reverse(
            h,
            ReverseMove((e135, e246), frozenset({make_edge(pv, (1, 3, 6)), make_edge(pv, (1, 3, 6))})),
        )
    with pytest.raises(DomainError):
        # removed edges must be members
        apply_reverse(
            h,
            ReverseMove(
                (make_edge(pv, (1, 4, 5)), e246),
                frozenset({make_edge(pv, (1, 3, 5)), make_edge(pv, (1, 3, 6))}),
            ),
        )


def test_forward_needs_a_cluster():
    pv = partition((2, 2, 2))
    lin = hypergraph(pv, 3, [(1, 3, 5), (2, 4, 6)])
    with pytest.raises(DomainError):
        enumerate_forward(lin)
    with pytest.raises(DomainError):
        count_forward_moves(lin)
    bad = hypergraph(pv, 3, [(1, 3, 5), (1, 3, 6), (1, 4, 5)])
    with pytest.raises(DomainError):
        enumerate_reverse(bad)


def test_move_counts_refuse_an_index_of_another_instance():
    # an index of parts 2,2,2,2 once gave 704 forward moves for 32
    pv = partition((2, 2, 2))
    h = hypergraph(pv, 3, [(1, 3, 5), (1, 3, 6)])
    assert count_forward_moves(h, EdgeSpaceIndex(pv, 3)) == count_forward_moves(h) == 32
    for other in (EdgeSpaceIndex(partition((2, 2, 2, 2)), 3), EdgeSpaceIndex(pv, 2)):
        for count in (count_forward_moves, count_reverse_moves):
            with pytest.raises(DomainError, match="another partition or edge size"):
                count(h, other)


def test_move_counts_refuse_an_edge_outside_the_space():
    # a Hypergraph built directly can hold a vertex tuple that is no edge
    # of its space: one sorting inside the space, one after its last edge
    pv = partition((2, 2, 2))
    h = hypergraph(pv, 3, [(1, 3, 5), (1, 3, 6)])
    for stray in ((1, 4, 7), (2, 4, 7)):
        bad = Hypergraph(pv, 3, h.edges | {Edge(stray, (0, 1, 2))})
        with pytest.raises(DomainError, match="outside the edge space"):
            count_reverse_moves(bad)


def test_move_counts_refuse_before_building_the_index(monkeypatch):
    # at uniform n=100 the index holds 161,700 edges; a refused hypergraph
    # must not build it
    def no_index(*args):
        raise AssertionError("EdgeSpaceIndex built for a refused hypergraph")

    monkeypatch.setattr(switching, "EdgeSpaceIndex", no_index)
    pv = uniform_partition(100)
    cluster_free = hypergraph(pv, 3, [(1, 2, 3), (4, 5, 6)])
    with pytest.raises(DomainError, match="no cluster"):
        count_forward_moves(cluster_free)
    # three edges pairwise sharing two vertices: one cluster of three edges
    not_plus = hypergraph(pv, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    with pytest.raises(DomainError, match="not plus"):
        count_reverse_moves(not_plus)


def test_audit_pinned_384():
    rep = bijection_audit(partition((2, 2, 2)), 3, 2)
    rec = rep.records[0]
    assert (rec.sum_forward, rec.sum_reverse) == (384, 384)
    assert rec.matched
    assert rec.forward_measured == (32, 32)
    assert rec.reverse_measured == (24, 24)
    assert rec.ratio_exact == Fraction(3, 4)
    assert rec.ratio_formula == Fraction(27, 4)
    assert rep.strata == {0: 16, 1: 12}


def test_audit_identity_with_empty_strata():
    # holes in the strata force both sides of the pairing to vanish
    rep = bijection_audit(partition((2, 2, 2)), 3, 4)
    assert rep.strata == {0: 2, 2: 6}
    for rec in rep.records:
        assert rec.matched
        assert rec.sum_forward == 0 and rec.sum_reverse == 0


def test_audit_matches_on_mixed_instances():
    for sizes, r, m in [((3, 1, 2), 3, 3), ((2, 2, 2, 2), 4, 3), ((1,) * 6, 3, 3)]:
        rep = bijection_audit(partition(sizes), r, m)
        assert rep.all_matched, (sizes, r, m)


def _unrooted_audit(pv, r, m):
    """The audit's sums and ranges from a sweep of every m-subset, no orbits."""
    index = EdgeSpaceIndex(pv, r)
    cap = cluster_threshold(pv, r, m)
    stats = cache(index.compat_stats)
    counts, fwd_sum, rev_sum, fwd_range, rev_range = {}, {}, {}, {}, {}
    not_plus = 0
    for combo in combinations(range(index.count), m):
        t, reason, clusters, free = index.classify_combo(combo, cap)
        if reason is not None:
            not_plus += 1
            continue
        counts[t] = counts.get(t, 0) + 1
        moves = [(rev_sum, rev_range, t, _reverse_total(stats, combo, free))]
        if t >= 1:
            moves.append((fwd_sum, fwd_range, t, _forward_total(stats, combo, clusters)))
        for sums, ranges, s, value in moves:
            sums[s] = sums.get(s, 0) + value
            lo, hi = ranges.get(s, (value, value))
            ranges[s] = (min(lo, value), max(hi, value))
    return counts, not_plus, fwd_sum, rev_sum, fwd_range, rev_range


@pytest.mark.parametrize(
    "sizes, r, m",
    [((4, 2, 3, 1, 2), 3, 3), ((3, 1, 2, 2), 3, 4), ((2, 2, 2, 3), 4, 3), ((1,) * 7, 3, 4)],
)
def test_rooted_audit_matches_an_unrooted_sweep(sizes, r, m):
    pv = partition(sizes)
    rep = bijection_audit(pv, r, m)
    counts, not_plus, fwd_sum, rev_sum, fwd_range, rev_range = _unrooted_audit(pv, r, m)
    records = []
    for rec in rep.records:
        t = rec.t
        count_t, count_prev = counts.get(t, 0), counts.get(t - 1, 0)
        records.append(replace(
            rec,
            count_t=count_t,
            count_prev=count_prev,
            sum_forward=fwd_sum.get(t, 0),
            sum_reverse=rev_sum.get(t - 1, 0),
            matched=fwd_sum.get(t, 0) == rev_sum.get(t - 1, 0),
            ratio_exact=Fraction(count_t, count_prev) if count_prev else None,
            forward_measured=fwd_range.get(t),
            reverse_measured=rev_range.get(t - 1),
        ))
    want = replace(rep, strata=counts, not_plus=not_plus, records=tuple(records))
    assert len(records) == m // 2
    assert rep.to_json_dict() == want.to_json_dict()


def _counted_scans(monkeypatch):
    """The h0 of every compat_stats scan made while the patch holds."""
    scans = []
    scan = EdgeSpaceIndex.compat_stats

    def counted(self, h0):
        scans.append(h0)
        return scan(self, h0)

    monkeypatch.setattr(EdgeSpaceIndex, "compat_stats", counted)
    return scans


def test_audit_scans_once_per_orbit_of_the_sets_a_move_leaves(monkeypatch):
    # uniform n=12 r=3 m=4 asks for 359 distinct two-edge h0, in three
    # orbits: disjoint, sharing one vertex, sharing two
    scans = _counted_scans(monkeypatch)
    rep = bijection_audit(uniform_partition(12), 3, 4)
    assert rep.strata == {0: 41761720, 1: 39584160, 2: 3076920}
    assert rep.all_matched
    assert 0 < len(scans) <= 3


def test_audit_scans_each_set_where_the_orbit_key_costs_more_than_a_scan(monkeypatch):
    # on parts 2,2,2 r=3 a key costs 2! orderings of 2 * 3 vertices, more
    # than the 8-edge scan, so none is computed and each distinct h0 is
    # scanned once; strata and not_plus are those of test_census's PINNED
    def refuse(index, ids):
        raise AssertionError("no orbit key is worth computing here")

    scans = _counted_scans(monkeypatch)
    monkeypatch.setattr(switching, "edge_set_orbit", refuse)
    rep = bijection_audit(partition((2, 2, 2)), 3, 4)
    assert (rep.strata, rep.not_plus) == ({0: 2, 2: 6}, 62)
    assert len(scans) == len(set(scans)) > 0


@pytest.mark.parametrize("wrong", ["t", "reason"])
def test_audit_raises_when_classify_combo_disagrees_with_the_search(monkeypatch, wrong):
    true_classify = EdgeSpaceIndex.classify_combo
    calls = []

    def disagree_once(self, combo, cap):
        t, reason, clusters, free = true_classify(self, combo, cap)
        calls.append(combo)
        if len(calls) == 3:
            return (t + 1, None, clusters, free) if wrong == "t" else (None, OVERLAP_GE3, None, None)
        return t, reason, clusters, free

    monkeypatch.setattr(EdgeSpaceIndex, "classify_combo", disagree_once)
    with pytest.raises(AssertionError, match="the plus search gives"):
        bijection_audit(partition((2, 2, 2)), 3, 3)
    assert len(calls) == 3


def _edge_images(pv, index):
    """The image of every edge, as an edge id per edge, under each of the
    partition's automorphisms: equal-size parts permuted among themselves,
    then the vertices inside each part."""
    parts = [list(pv.part_vertices(p)) for p in range(pv.k)]
    position = {vs: i for i, vs in enumerate(index.edges)}
    images = []
    for target in permutations(range(pv.k)):
        if any(pv.sizes[p] != pv.sizes[q] for p, q in enumerate(target)):
            continue
        for inner in product(*(permutations(parts[q]) for q in target)):
            g = {v: w for p, image in enumerate(inner) for v, w in zip(parts[p], image)}
            images.append([position[tuple(sorted(g[v] for v in vs))] for vs in index.edges])
    return images


def _stabiliser_orbit_of(images, triple):
    """The first edge of every edge's orbit under the automorphisms, given
    by their edge images, that map each edge of triple to itself."""
    orbit = list(range(len(images[0])))
    for image in images:
        if all(image[e] == e for e in triple):
            for i, j in enumerate(image):
                orbit[j] = min(orbit[j], i)
    return orbit


@pytest.mark.parametrize(
    "sizes, r, m", [((1,) * 8, 3, 4), ((1,) * 6, 3, 4), ((3, 1, 2, 2), 3, 4), ((1,) * 7, 3, 5)]
)
def test_audit_classifies_each_plus_rooted_subset_once(monkeypatch, sizes, r, m):
    # the rooted subsets, swept here without the plus search: under each
    # root triple, one triple per orbit of ordered edge triples, the plus
    # m-subsets that hold it.  At m = 4 the fourth edge is one per orbit of
    # the triple's stabiliser, the orbit's first edge, the orbits found by
    # brute force; at m = 5 every plus completion is visited
    pv = partition(sizes)
    index = EdgeSpaceIndex(pv, r)
    cap = cluster_threshold(pv, r, m)
    images = _edge_images(pv, index) if m == 4 else None
    want = []
    for root, _ in stabiliser_orbits(index):
        for rep, _ in stabiliser_orbits(index, (root,)):
            for third, _ in stabiliser_orbits(index, (root, rep)):
                triple = (root, rep, third)
                others = [i for i in range(index.count) if i not in triple]
                if m == 4:
                    orbit = _stabiliser_orbit_of(images, triple)
                    others = [i for i in others if orbit[i] == i]
                for rest in combinations(others, m - 3):
                    combo = tuple(sorted((*triple, *rest)))
                    if index.classify_combo(combo, cap)[1] is None:
                        want.append(combo)
    true_classify = EdgeSpaceIndex.classify_combo
    seen = []

    def record(self, combo, cap):
        out = true_classify(self, combo, cap)
        seen.append((combo, out[1]))
        return out

    monkeypatch.setattr(EdgeSpaceIndex, "classify_combo", record)
    bijection_audit(pv, r, m)
    assert want and all(reason is None for _, reason in seen)
    assert sorted(combo for combo, _ in seen) == sorted(want)


def test_audit_on_the_bench_probe_cell_builds_the_overlap_matrix(monkeypatch):
    # the bench times classify_combo and the cat build inside the audit on
    # parts 2,2,2 r=3 m=2; both must still run there
    used = {"cat": 0, "classify_combo": 0}
    true_cat = EdgeSpaceIndex.cat.fget
    true_classify = EdgeSpaceIndex.classify_combo

    def cat(self):
        used["cat"] += 1
        return true_cat(self)

    def classify_combo(self, combo, cap):
        used["classify_combo"] += 1
        return true_classify(self, combo, cap)

    monkeypatch.setattr(EdgeSpaceIndex, "cat", property(cat))
    monkeypatch.setattr(EdgeSpaceIndex, "classify_combo", classify_combo)
    rep = bijection_audit(partition((2, 2, 2)), 3, 2)
    assert rep.strata == {0: 16, 1: 12}
    assert used["cat"] > 0 and used["classify_combo"] > 0


def test_count_brackets_pinned_and_contain_measurements():
    br = count_brackets(partition((2, 2, 2)), 3, 2, 1)
    assert (br.forward_low, br.forward_high) == (0, 64)
    assert (br.reverse_low, br.reverse_high) == (0, 432)
    rep = bijection_audit(partition((3, 3, 3)), 3, 2)
    rec = rep.records[0]
    lo, hi = rec.forward_measured
    assert rec.brackets.forward_low <= lo <= hi <= rec.brackets.forward_high
    lo, hi = rec.reverse_measured
    assert rec.brackets.reverse_low <= lo <= hi <= rec.brackets.reverse_high


@pytest.mark.parametrize(
    "sizes, r, mean, cap, brackets",
    [
        ((1,) * 30, 4, Fraction(145, 1323), 28, (679479570, 751034025, 10329075, 82312875)),
        ((1,) * 30, 5, Fraction(14500, 41067), 83, (14522073930, 20307960036, 0, 7170366000)),
        ((1,) * 50, 5, Fraction(122500, 1168561), 28, (4073864858840, 4489143937600, 45018750000, 470596000000)),
        (
            (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8), 4, Fraction(436334416, 5322723849), 23,
            (20236666746, 21290895396, 1049907264, 1745337664),
        ),
        (
            (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8), 5, Fraction(561652756, 1383914401), 95,
            (650782092072, 797134694976, 0, 323511987456),
        ),
    ],
)
def test_orders_above_three_pinned(sizes, r, mean, cap, brackets):
    # at r = 3 several of sigma_{r-4}..sigma_r coincide with sigma_0..sigma_2,
    # so only r >= 4 shows a wrong order read from the sigma tuple
    pv = partition(sizes)
    assert cluster_mean(pv, r, 2) == mean
    assert cluster_threshold(pv, r, 2) == cap
    br = count_brackets(pv, r, 2, 1)
    assert (br.forward_low, br.forward_high, br.reverse_low, br.reverse_high) == brackets


def test_count_brackets_domain():
    pv = partition((2, 2, 2))
    with pytest.raises(DomainError):
        count_brackets(pv, 3, 2, 0)
    with pytest.raises(DomainError):
        count_brackets(pv, 3, 3, 2)
    with pytest.raises(DomainError):
        count_brackets(partition((2, 2)), 2, 4, 1)


def test_series_factorial_example():
    res = series_sum_bounds(SeriesSpec((1.0,) * 10, (0.0,) * 10, 0.1))
    assert res.h[4] == pytest.approx(1 / 24)
    assert res.total == pytest.approx(2.7182818, abs=1e-6)
    tail = (2 * math.e / 10) ** 10
    assert res.lower == pytest.approx(math.e - tail, abs=1e-12)
    assert res.upper == pytest.approx(math.e + tail, abs=1e-12)
    assert res.lower <= res.total <= res.upper


def test_series_zero_term_propagates():
    # A(2) = 0 kills h_2 and everything after it, whatever A(3+) says
    res = series_sum_bounds(SeriesSpec((0.5, 0.0, 0.9, 0.9), (0.1, 0.1, 0.1, 0.1), 0.3))
    assert res.h[1] == pytest.approx(0.5)
    assert res.h[2] == 0.0 and res.h[3] == 0.0 and res.h[4] == 0.0
    assert res.total == pytest.approx(1.5)
    # and so does the bracket factor hitting zero at B(4) = 1/3
    res2 = series_sum_bounds(SeriesSpec((0.5,) * 5, (0.1, 0.1, 0.1, 1 / 3, 0.1), 0.2))
    assert res2.h[3] > 0.0
    assert res2.h[4] == 0.0 and res2.h[5] == 0.0


def test_series_precondition_errors():
    with pytest.raises(DomainError):
        series_sum_bounds(SeriesSpec((-0.1, 0.1), (0.0, 0.0), 0.1))
    with pytest.raises(DomainError):
        series_sum_bounds(SeriesSpec((0.1, 0.1), (0.0, 2.0), 0.1))
    with pytest.raises(DomainError):
        series_sum_bounds(SeriesSpec((0.1, 0.1), (0.0, 0.0), 0.5))
    with pytest.raises(DomainError):
        series_sum_bounds(SeriesSpec((1.0, 1.0), (0.0, 0.0), 0.1))
    with pytest.raises(DomainError):
        series_sum_bounds(SeriesSpec((1.0,), (0.0,), 0.1))


def test_series_fuzz_bounds_hold():
    rng = make_rng(404)
    for _ in range(300):
        n = int(rng.integers(2, 14))
        c_hat = 0.02 + 0.30 * float(rng.random())
        a = tuple(float(rng.random()) * c_hat * n for _ in range(n))
        b = []
        for i in range(1, n + 1):
            cap = 2.0 if a[i - 1] == 0 else min(2.0, c_hat / a[i - 1])
            if i > 1:
                cap = min(cap, 1.0 / (i - 1))
                b.append(cap * (2.0 * float(rng.random()) - 1.0))
            else:
                b.append(cap * float(rng.random()))
        res = series_sum_bounds(SeriesSpec(a, tuple(b), c_hat))
        slack = 1e-12 * max(1.0, abs(res.total))
        assert res.lower <= res.total + slack
        assert res.total <= res.upper + slack


def test_ratio_series_pinned_tiny_instance():
    rep = ratio_series(partition((2, 2, 2)), 3, 2, with_census=True)
    assert rep.a_value == pytest.approx(6.75)
    assert rep.exact_sum == Fraction(7, 4)
    assert rep.model_sum == pytest.approx(7.75)
    assert rep.t_prime == 2
    assert rep.n_terms == 1514
    assert rep.lower is None and rep.upper is None
    assert rep.applicability  # tiny-n regime violates the c_hat window


def test_ratio_series_trivial_m():
    for m in (0, 1):
        rep = ratio_series(partition((2, 2, 2)), 3, m, with_census=True)
        assert rep.model_sum == 1.0
        assert rep.exact_sum == 1
        assert rep.a_value == 0.0


def test_ratio_series_term_factor_identity():
    # below the cutoff, 1-(t-1)B(t) telescopes to [m-2t+2]_2/[m]_2
    m = 6
    rep = ratio_series(partition((3, 3, 3)), 3, m)
    a = rep.a_value
    h = rep.h_prefix
    for t in range(1, rep.t_prime):
        factor = h[t] * t / (h[t - 1] * a)
        expect = (m - 2 * t + 2) * (m - 2 * t + 1) / (m * (m - 1))
        assert factor == pytest.approx(expect, rel=1e-12)


def test_ratio_series_census_cutoff_hole():
    # the m=4 census leaves stratum 1 empty, so the cutoff degenerates
    rep = ratio_series(partition((2, 2, 2)), 3, 4, with_census=True)
    assert rep.t_prime == 1
    assert rep.model_sum == 1.0
    assert rep.exact_sum == 4
    assert rep.applicability


def test_ratio_series_census_without_linear_sets():
    # parts 2,2,2 hold 8 edges, and no 5 of them form a linear hypergraph
    rep = ratio_series(partition((2, 2, 2)), 3, 5, with_census=True)
    assert "no linear hypergraphs; exact ratio undefined" in rep.applicability
    assert rep.exact_sum is None
    assert rep.t_prime == 1


def test_ratio_series_shift_widens_with_budget():
    base = ratio_series(uniform_partition(8), 3, 3, budget_constant=1.0)
    wide = ratio_series(uniform_partition(8), 3, 3, budget_constant=3.0)
    assert wide.shift == pytest.approx(3 * base.shift)


def test_ratio_series_refuses_negative_or_non_finite_budget():
    # a negative constant would give lower > upper with no applicability
    # note (uniform n=200 m=2), and nan would end in an AssertionError
    pv = uniform_partition(200)
    for bad in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="budget constant"):
            ratio_series(pv, 3, 2, budget_constant=bad)
    for m in (0, 2):
        rep = ratio_series(pv, 3, m, budget_constant=0.0)
        assert rep.shift == 0.0
        if m:
            assert rep.lower <= rep.upper
