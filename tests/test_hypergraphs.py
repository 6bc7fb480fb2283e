"""Tests for edges, the edge space, clusters, and plus classification."""

import math
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linhyp import (
    DomainError,
    Hypergraph,
    classify,
    cluster_threshold,
    edge_space,
    from_text,
    hypergraph,
    is_linear,
    make_edge,
    make_rng,
    partition,
    sigma,
    to_text,
    uniform_partition,
)
from linhyp.census import EdgeSpaceIndex
from linhyp.hypergraphs import linked_pairs, plus_violation
from linhyp.montecarlo import cluster_signature


def test_make_edge_orders_and_labels_parts():
    pv = partition((2, 2, 2))
    e = make_edge(pv, (5, 1, 3))
    assert e.vertices == (1, 3, 5)
    assert e.parts == (0, 1, 2)


def test_make_edge_rejects_two_vertices_in_a_part():
    pv = partition((2, 2, 2))
    with pytest.raises(DomainError):
        make_edge(pv, (1, 2, 5))
    with pytest.raises(DomainError):
        make_edge(pv, (1, 3, 9))


def test_make_edge_refuses_non_integer_vertices():
    # a float must not be truncated (1.9 -> 1) nor a string parsed; numpy
    # integers and bools canonicalise to ints
    pv = partition((2, 2, 2))
    for bad in ([1.9, 3, 5], ["1", 3, 5], [1.0, 3, 5], [None, 3, 5], 5):
        with pytest.raises(DomainError, match="integers"):
            make_edge(pv, bad)
    e = make_edge(pv, np.array([5, 1, 3], dtype=np.uint8))
    assert e == make_edge(pv, (True, 3, 5)) == make_edge(pv, (1, 3, 5))
    assert all(type(v) is int for v in e.vertices)


def test_hypergraph_rejects_wrong_size_and_duplicates():
    pv = partition((2, 2, 2))
    with pytest.raises(DomainError):
        hypergraph(pv, 3, [(1, 3)])
    with pytest.raises(DomainError):
        hypergraph(pv, 3, [(1, 3, 5), (5, 3, 1)])


def test_edge_space_counts_and_order():
    cases = [((2, 2, 2), 3), ((3, 1, 2), 3), ((2, 2, 2, 2), 4), ((2, 2, 2, 3, 2), 3)]
    for sizes, r in cases:
        pv = partition(sizes)
        edges = list(edge_space(pv, r))
        assert len(edges) == sigma(pv, r)
        tuples = [e.vertices for e in edges]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)
        for e in edges:
            assert len(set(e.parts)) == r
            assert list(e.parts) == sorted(e.parts)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6), data=st.data())
def test_edge_space_is_the_lexicographic_filter_of_all_vertex_subsets(sizes, data):
    # the canonical order, spelled out: every r-subset of 1..n in
    # lexicographic order, kept when it uses each part at most once
    pv = partition(sizes)
    r = data.draw(st.sampled_from(sorted({0, 1, pv.k, min(3, pv.k)})), label="r")
    want = [vs for vs in combinations(range(1, pv.n + 1), r)
            if len({pv.part_of(v) for v in vs}) == r]
    edges = list(edge_space(pv, r))
    assert [e.vertices for e in edges] == want
    assert [e.parts for e in edges] == [tuple(pv.part_of(v) for v in vs) for vs in want]
    assert EdgeSpaceIndex(pv, r).edges == want


def test_edge_space_uniform_is_combinations():
    pv = uniform_partition(6)
    got = [e.vertices for e in edge_space(pv, 3)]
    assert got == list(combinations(range(1, 7), 3))


def test_classify_cluster_pairs():
    pv = partition((2, 2, 2))
    h = hypergraph(pv, 3, [(1, 3, 5), (1, 3, 6), (2, 4, 6)])
    cls = classify(h, cluster_threshold(pv, 3, h.m))
    assert cls.clusters == 1
    assert cls.pairs == ((make_edge(pv, (1, 3, 5)), make_edge(pv, (1, 3, 6))),)
    assert classify(h, 0).pairs == ()
    assert not is_linear(h)
    assert is_linear(hypergraph(pv, 3, [(1, 3, 5), (2, 4, 6)]))


def test_cluster_threshold_pinned():
    assert cluster_threshold(partition((2, 2, 2)), 3, 0) == 2
    assert cluster_threshold(partition((2, 2, 2)), 3, 2) == 1514
    assert cluster_threshold(uniform_partition(6), 3, 1) == 78


def test_cluster_threshold_monotone_in_m():
    pv = partition((3, 3, 3))
    caps = [cluster_threshold(pv, 3, m) for m in range(6)]
    assert caps == sorted(caps)


def test_classify_reason_priorities():
    pv4 = partition((2, 2, 2, 2))
    # 3-vertex overlap wins even though the pair is also an oversized cluster
    h = hypergraph(pv4, 4, [(1, 3, 5, 7), (1, 3, 5, 8), (1, 3, 6, 7)])
    assert classify(h, 100).reason == "overlap_ge3"

    pv = partition((2, 2, 2))
    h2 = hypergraph(pv, 3, [(1, 3, 5), (1, 3, 6), (1, 4, 5)])
    assert classify(h2, 100).reason == "cluster_gt2_edges"

    h3 = hypergraph(pv, 3, [(1, 3, 5), (1, 3, 6)])
    assert classify(h3, 0).reason == "too_many_clusters"
    good = classify(h3, 1)
    assert good.in_plus and good.clusters == 1


def test_classify_empty_and_linear():
    pv = partition((2, 2, 2))
    empty = Hypergraph(pv, 3, frozenset())
    assert classify(empty, 0).in_plus
    lin = hypergraph(pv, 3, [(1, 3, 5), (2, 4, 6)])
    cls = classify(lin, 5)
    assert cls.in_plus and cls.clusters == 0 and cls.reason is None


def test_text_roundtrip():
    pv = partition((3, 1, 2))
    h = hypergraph(pv, 3, [(2, 4, 6), (1, 4, 5)])
    text = to_text(h)
    assert text.splitlines()[0] == "parts: 3,1,2"
    assert from_text(text) == h
    # a header alone is the empty hypergraph, whose edge size is 0
    empty = from_text("parts: 2,2,2\n")
    assert (empty.pv, empty.r, empty.m) == (partition((2, 2, 2)), 0, 0)
    with pytest.raises(DomainError):
        from_text("no header\n1,2,3\n")
    for bad in ("parts: 2,a\n1,3\n", "parts: 2,2,2\n1,x,5\n", "parts: 2,2,2\n1,3.0,5\n"):
        with pytest.raises(DomainError, match="comma-separated integers"):
            from_text(bad)


def test_classify_agrees_with_index_and_signature():
    # three independent classifiers must agree on random subsets
    rng = make_rng(888)
    for sizes, r in [((2, 2, 2), 3), ((2, 2, 2, 2), 4), ((3, 3, 3), 3)]:
        pv = partition(sizes)
        index = EdgeSpaceIndex(pv, r)
        cap = 2
        for _ in range(60):
            m = int(rng.integers(0, 5))
            ids = sorted(int(x) for x in rng.choice(index.count, size=m, replace=False))
            vsets = [index.edges[i] for i in ids]
            h = hypergraph(pv, r, vsets)
            cls = classify(h, cap)
            t_idx, reason_idx, _, _ = index.classify_combo(tuple(ids), cap)
            t_sig, reason_sig = cluster_signature(vsets)
            assert cls.reason == reason_idx
            if cls.in_plus:
                assert cls.clusters == t_idx
                assert reason_sig is None and t_sig == t_idx
            elif cls.reason != "too_many_clusters":
                assert reason_sig == cls.reason


def test_edge_space_domain():
    pv = partition((2, 2, 2))
    with pytest.raises(DomainError):
        list(edge_space(pv, 4))
    assert len(list(edge_space(pv, 0))) == 1
    assert math.prod(pv.sizes) == len(list(edge_space(pv, 3)))


@lru_cache(maxsize=None)
def _index(sizes: tuple[int, ...], r: int) -> EdgeSpaceIndex:
    return EdgeSpaceIndex(partition(sizes), r)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_plus_rule_agrees_with_union_find_oracle(data):
    # the shared plus rule (classify, classify_combo, and linked_pairs with
    # plus_violation as the plus search's root prefix applies them) against
    # the union-find oracle cluster_signature, with the cap applied to its t
    sizes = tuple(data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=5), label="sizes"))
    r = data.draw(st.sampled_from([r for r in (3, 4) if r <= len(sizes)]), label="r")
    pv = partition(sizes)
    index = _index(sizes, r)
    m = data.draw(st.integers(0, min(5, index.count)), label="m")
    ids = data.draw(
        st.sets(st.integers(0, index.count - 1), min_size=m, max_size=m), label="ids"
    )
    combo = tuple(sorted(ids))
    cap = data.draw(st.sampled_from((0, 1, 2, 50)), label="cap")
    vsets = [index.edges[i] for i in combo]

    t_sig, reason_sig = cluster_signature(vsets)
    if reason_sig is not None:
        expected = (None, reason_sig)
    elif t_sig > cap:
        expected = (None, "too_many_clusters")
    else:
        expected = (t_sig, None)
    t, reason, clusters, free = index.classify_combo(combo, cap)
    cls = classify(hypergraph(pv, r, vsets), cap)
    assert (t, reason) == expected
    assert (cls.clusters, cls.reason) == expected
    assert cls.in_plus == (reason is None)
    linked = linked_pairs(vsets)
    if linked is None:
        assert expected == (None, "overlap_ge3")
    else:
        violation = plus_violation(linked, cap)
        assert (None if violation else len(linked), violation) == expected
    if reason is None:
        # classify's edge pairs are classify_combo's clusters
        position = {vs: i for i, vs in enumerate(index.edges)}
        assert tuple((position[a.vertices], position[b.vertices]) for a, b in cls.pairs) == clusters
        # clusters and free edges partition the combo
        assert len(clusters) == t
        assert sorted([i for pair in clusters for i in pair] + list(free)) == list(combo)
        for a, b in clusters:
            assert len(set(index.edges[a]) & set(index.edges[b])) == 2
        for f in free:
            assert all(len(set(index.edges[f]) & set(index.edges[g])) <= 1 for g in combo if g != f)
