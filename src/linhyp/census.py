"""Exact censuses of the edge-subset space.

One search, _plus_strata, extends only plus prefixes in canonical edge
order and counts the plus m-subsets by cluster count.  census_by_cluster
is that search at the census's cluster cap; count_linear is the same
search at cap 0, and switching.bijection_audit is that search with a
visitor that counts the moves of each plus m-subset it reaches.  The
search is rooted at an edge pair: it runs once per orbit of ordered
pairs of distinct edges under the partition's automorphisms, one root
per edge orbit (edge_orbits) and one second edge per orbit of the
root's stabiliser (stabiliser_orbits), on the m-subsets that hold both
edges; _orbit_mean turns the rooted tallies into totals over every
m-subset.  Its state is a few bitmasks over edge ids, ORed together
from the link rows of the edges it places, and its last level is two
popcounts.  count_linear_naive filters every subset by vertex bitmasks,
with no EdgeSpaceIndex, and exists to cross-check them.  All counts are
exact integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from typing import Callable

from .errors import DomainError, WorkCeilingError
from .hypergraphs import (
    OVERLAP_GE3,
    cluster_threshold,
    edge_space,
    edge_tuples,
    plus_violation,
    shared_pair_counts,
)
from .partitions import PartitionVector, sigma

DEFAULT_WORK_CEILING = 10 ** 8


class EdgeSpaceIndex:
    """Precomputed structures over the full edge space of one instance.

    Edges are indexed by their canonical enumeration order.  The index
    carries one table, pairs: per edge, the frozenset of ids of its
    vertex pairs (at r = 2 the edge's one pair, which no other edge
    holds; empty rows when r <= 1).  Two distinct edges are linked
    exactly when their pair rows meet.  Everything else is read off
    pairs and built on first use: occupants, the edges holding each
    pair; link_rows(e), the bitmasks over edge ids of the edges meeting
    one or at least two of e's pairs, built per edge the first time the
    plus search roots or places it, and kept; position, the id of each
    vertex tuple, for the switching move counters; and cat, the pairwise
    overlap matrix, read only by classify_combo.  Only the switching
    audit calls classify_combo: it re-checks each subset the plus search
    visits against the search's own classification, from the link rows.
    """

    def __init__(self, pv: PartitionVector, r: int):
        self.pv = pv
        self.r = r
        self.edges: list[tuple[int, ...]] = edge_tuples(pv, r)
        self.count = len(self.edges)

        # intern vertex pairs as small integers
        table: dict[tuple[int, int], int] = {}
        self.pairs: list[frozenset[int]] = [
            frozenset(table.setdefault(sub, len(table)) for sub in combinations(vs, 2))
            for vs in self.edges
        ]

        self._links: dict[int, tuple[int, int]] = {}
        self._cat: list[bytearray] | None = None

    @cached_property
    def position(self) -> dict[tuple[int, ...], int]:
        """Edge id of each sorted vertex tuple."""
        return {vs: i for i, vs in enumerate(self.edges)}

    @cached_property
    def vertex_part(self) -> list[int]:
        """0-based part of each vertex, by vertex id; entry 0 pads the 1-based ids."""
        return [0] + [p for p, size in enumerate(self.pv.sizes) for _ in range(size)]

    @cached_property
    def occupants(self) -> dict[int, list[int]]:
        """Ids of the edges holding each vertex pair, in edge order."""
        occupants: dict[int, list[int]] = {}
        for i, row in enumerate(self.pairs):
            for pid in row:
                occupants.setdefault(pid, []).append(i)
        return occupants

    def link_rows(self, e: int) -> tuple[int, int]:
        """Bitmasks over edge ids of the edges meeting >= 1 and >= 2 of e's pairs.

        The first holds e once e has a pair, the second once it has two.
        At r = 3 the second is e alone, since two edges sharing two pairs
        share all three vertices.  Built from the occupant lists of e's pairs on first
        use and kept; a row holds sigma_r bits.
        """
        rows = self._links.get(e)
        if rows is None:
            occupants, bit = self.occupants, (1).__lshift__
            once = twice = 0
            for pid in self.pairs[e]:
                row = sum(map(bit, occupants[pid]))
                twice |= once & row
                once |= row
            rows = self._links[e] = (once, twice)
        return rows

    @property
    def cat(self) -> list[bytearray]:
        """Pairwise overlap category: 0 for <=1 shared, 1 for exactly 2, 2 for >=3."""
        if self._cat is None:
            cat = [bytearray(self.count) for _ in range(self.count)]
            # c shared vertices meet in binomial(c, 2) pair lists
            for group in self.occupants.values():
                for i, j in combinations(group, 2):
                    cat[i][j] = cat[j][i] = min(cat[i][j] + 1, 2)
            self._cat = cat
        return self._cat

    def classify_combo(self, combo: tuple[int, ...], cap: int):
        """Stratify one subset of edge indices.

        Returns (t, reason, clusters, free): cluster count and cluster
        pairs when plus-classified (reason None), else t is None and
        reason names the violation.
        """
        m = len(combo)
        linked_pairs = []
        # cat is read only when two edges are compared
        cat = self.cat if m > 1 else None
        for x in range(m - 1):
            row = cat[combo[x]]
            for y in range(x + 1, m):
                c = row[combo[y]]
                if c:
                    if c == 2:
                        return None, OVERLAP_GE3, None, None
                    linked_pairs.append((x, y))
        if not linked_pairs:
            return 0, None, (), combo
        reason = plus_violation(linked_pairs, cap)
        if reason is not None:
            return None, reason, None, None
        paired = {x for pair in linked_pairs for x in pair}
        clusters = tuple((combo[x], combo[y]) for x, y in linked_pairs)
        free = tuple(combo[x] for x in range(m) if x not in paired)
        return len(clusters), None, clusters, free

    def compat_stats(self, h0: tuple[int, ...]) -> tuple[int, int, int]:
        """Statistics of the edges compatible with a fixed edge set h0.

        Compatible means sharing at most one vertex with every edge of
        h0 and not being one of them: the edge's vertex pairs avoid every
        pair h0 occupies, as in count_linear's search.  Returns the count
        of compatible edges, the number of unordered compatible pairs
        sharing >= 2 vertices, and the number sharing exactly 2.  Pairs
        are counted off the pairs rows, larger subsets off the edge tuples.
        """
        pairs = self.pairs
        used = frozenset().union(*(pairs[g] for g in h0))
        members = set(h0)
        pool = [i for i, row in enumerate(pairs) if used.isdisjoint(row) and i not in members]
        # T[alpha] = sum over alpha-subsets of binomial(occupancy, 2)
        t_by_alpha: dict[int, int] = {}
        for alpha in range(2, self.r):
            subsets = map(pairs.__getitem__, pool) if alpha == 2 else (
                combinations(self.edges[i], alpha) for i in pool)
            occ = Counter(chain.from_iterable(subsets))
            t_by_alpha[alpha] = sum(c * (c - 1) // 2 for c in occ.values())
        return (len(pool), *shared_pair_counts(t_by_alpha, self.r))


def count_all(pv: PartitionVector, r: int, m: int) -> int:
    """Number of m-subsets of the edge space, binomial(sigma_r, m)."""
    edge_count = sigma(pv, r)
    if not 0 <= m <= edge_count:
        raise DomainError(f"m={m} outside 0..{edge_count}")
    return math.comb(edge_count, m)


def orbit_count(pv: PartitionVector, r: int) -> int:
    """Number of edge orbits, from the part-size histogram alone.

    An orbit is a multiset of r part sizes using at most c_s parts of
    size s: the x^r coefficient of prod_s (1 + x + ... + x^{c_s}).
    """
    coeff = [1] + [0] * r
    for _, c in pv.size_counts:
        coeff = [sum(coeff[max(0, j - c):j + 1]) for j in range(r + 1)]
    return coeff[r]


def pair_orbit_count(pv: PartitionVector, r: int) -> int:
    """Number of orbits of ordered pairs of distinct edges, from the histogram alone.

    A pair orbit is a multiset of part states, one per part that either
    edge uses: the first edge only (x), the second only (y), both at one
    vertex (xy), or, in a part of size >= 2, both at different vertices
    (xy).  The c_s parts of size s hold at most c_s states, so the x^r y^r
    coefficient of the product over sizes counts the orbits of all
    ordered pairs; the orbit_count pairs of an edge with itself are taken
    off.
    """
    w = r + 1
    coeff = [1] + [0] * (w * w - 1)  # coeff[i * w + j] of x^i y^j
    for size, c in pv.size_counts:
        # x^i y^j of one size: sum over the b parts that hold both edges,
        # with i + j - b <= c parts in use, of the ways to place the two
        # edges in those b parts: b + 1 (how many at different vertices)
        # at size >= 2, else 1
        factor = []
        for i in range(w):
            for j in range(w):
                lo, hi = max(0, i + j - c), min(i, j)
                if lo <= hi:
                    ways = (hi + 1) * (hi + 2) // 2 - lo * (lo + 1) // 2 if size >= 2 else hi - lo + 1
                    factor.append((i, j, ways))
        product = [0] * (w * w)
        for k, u in enumerate(coeff):
            if u:
                i, j = divmod(k, w)
                for a, b, v in factor:
                    if i + a <= r and j + b <= r:
                        product[k + a * w + b] += u * v
        coeff = product
    return coeff[-1] - orbit_count(pv, r)


def _guard(pv: PartitionVector, r: int, m: int, work_ceiling: int, cat: bool = False) -> int:
    """count_all, after refusing a work estimate above the ceiling.

    The estimate prices what a pair-rooted caller builds and runs:
    sigma_r for the edge index, sigma_r^2 for cat when the caller reads
    it (the audit, cat=True, at m >= 2), and C(m, 2) pair checks per
    visited m-subset.  At m >= 2 the visited m-subsets are those that
    hold a root pair, pair_orbit_count * binomial(sigma_r - 2, m - 2) of
    them; at m = 1 one subset per edge orbit, and at m = 0 the empty
    subset.  Each edge orbit has at most sigma_r - 1 stabiliser orbits,
    so the pair orbits are counted only when that bound would refuse.
    Nothing is allocated before the refusal.

    The plus search's link rows, two of sigma_r bits per edge it roots
    or places, fit under this price with no term of their own.  At
    m = 2 none is built.  At m = 3 only the roots and second edges get
    rows, at most edge orbits + P of them for P pair orbits, against a
    price of P * (sigma_r - 2) * 3.  At m >= 4 at most sigma_r edges get
    rows, sigma_r^2 / 4 bytes, against a price of at least
    3 P * sigma_r^2.
    """
    total = count_all(pv, r, m)
    edge_count = sigma(pv, r)
    work = edge_count + (edge_count ** 2 if cat and m >= 2 else 0)
    if m == 0:
        work += 1
    elif m == 1:
        work += orbit_count(pv, r)
    else:
        per_pair = math.comb(edge_count - 2, m - 2) * (m * (m - 1) // 2)
        pair_orbits = orbit_count(pv, r) * (edge_count - 1)
        if work + pair_orbits * per_pair > work_ceiling:
            pair_orbits = pair_orbit_count(pv, r)
        work += pair_orbits * per_pair
    if work > work_ceiling:
        raise WorkCeilingError(work, work_ceiling, "census")
    return total


def _orbits_by_label(index: EdgeSpaceIndex, label: list[int]) -> list[tuple[int, int]]:
    """(first edge id, size) per class of edges with one multiset of vertex labels.

    label holds a small integer per vertex id.  A label of rank k weighs
    (r + 1)^k, so an edge's weight sum, at most r of each, encodes the
    multiset.  Classes come in the order of their first edges.
    """
    rank = {x: k for k, x in enumerate(set(label))}
    weight = [(index.r + 1) ** rank[x] for x in label]
    classes: dict[int, list[int]] = {}
    for i, vs in enumerate(index.edges):
        classes.setdefault(sum(map(weight.__getitem__, vs)), [i, 0])[1] += 1
    return [(first, size) for first, size in classes.values()]


def edge_orbits(index: EdgeSpaceIndex) -> list[tuple[int, int]]:
    """(root edge id, orbit size) per orbit of the partition's automorphisms.

    The automorphisms permute the vertices inside each part and swap
    parts of equal size, so two edges share an orbit exactly when they
    use the same multiset of part sizes.  The root is the orbit's first
    edge in canonical order; orbits come in the order of their roots.
    """
    sizes = index.pv.sizes
    return _orbits_by_label(index, [sizes[p] for p in index.vertex_part])


def stabiliser_orbits(index: EdgeSpaceIndex, root: int) -> list[tuple[int, int]]:
    """(representative id, orbit size) per orbit of root's stabiliser on the other edges.

    An automorphism fixing root maps root's vertex in each part it uses
    to root's vertex in the image part, so two edges share an orbit
    exactly when they have the same multiset, over the parts that root
    or the edge uses, of (part size, root uses the part, the edge uses
    it, both at the same vertex).  Each vertex is labelled 3 * size +
    [root uses its part] + [it is root's vertex]; the parts root uses
    alone follow from the edge's labels.  Root is alone in its class,
    which is dropped.  Representatives are the orbits' first edges in
    canonical order, in that order.
    """
    sizes, part = index.pv.sizes, index.vertex_part
    own = index.edges[root]
    used = {part[u] for u in own}
    label = [3 * sizes[p] + (p in used) for p in part]
    for u in own:
        label[u] += 1
    return [(rep, size) for rep, size in _orbits_by_label(index, label) if rep != root]


def _orbit_mean(index: EdgeSpaceIndex, m: int, rooted: Callable[[int, int], Counter]) -> Counter:
    """Totals over every m-subset, m >= 2, of additive statistics, from root pairs.

    rooted(root, rep) tallies the statistics, key by key, over the
    m-subsets that hold both edges.  The tally is the same for every
    ordered pair in the orbit of (root, rep), which holds |O1| |O2|
    pairs when root's edge orbit is O1 and rep's orbit under root's
    stabiliser is O2, and each m-subset holds m(m - 1) ordered pairs,
    so a total is sum |O1| |O2| rooted(root, rep) / (m(m - 1)).  Orbits
    that miss an edge, or a remainder, raise AssertionError.
    """
    orbits = edge_orbits(index)
    if sum(size for _, size in orbits) != index.count:
        raise AssertionError("edge orbits do not partition the edge space")
    weighted: Counter = Counter()
    for root, size in orbits:
        second = stabiliser_orbits(index, root)
        if sum(rep_size for _, rep_size in second) != index.count - 1:
            raise AssertionError("stabiliser orbits do not partition the other edges")
        for rep, rep_size in second:
            for key, value in rooted(root, rep).items():
                weighted[key] += size * rep_size * value
    pairs = m * (m - 1)
    totals: Counter = Counter()
    for key, value in weighted.items():
        totals[key], rest = divmod(value, pairs)
        if rest:
            raise AssertionError(f"pair-weighted {key} = {value} is not a multiple of m(m-1)={pairs}")
    return totals


def _plus_strata(index: EdgeSpaceIndex, m: int, cap: int, visit: Callable | None = None) -> dict:
    """Plus m-subsets by cluster count: stratum 0, then populated strata.

    Plus is hereditary under a fixed cap, so extending only plus
    prefixes visits exactly the plus subsets.  Each root pair starts the
    state {root, rep}, two free edges or, when they share exactly two
    vertices and cap >= 1, one cluster; a pair that is not plus starts
    nothing.  The state extends in canonical order over the other edges,
    and _orbit_mean weights the rooted strata.  The state is three
    bitmasks over edge ids, ORed together from the chosen edges' link
    rows: blocked, the edges meeting a used pair; twice, those meeting
    at least two; cblock, those meeting a pair of a clustered edge.
    Beside them: free, the ids of the chosen edges in no cluster; t; and
    ids, the chosen edge ids.  A candidate in blocked's complement joins
    as a free edge; while t < cap, one in blocked but in neither twice
    nor cblock meets exactly one used pair, held by a free edge, and
    opens a cluster with it.  Nothing else is a candidate.  The window
    is the edges after the last one chosen; it needs no skip for the two
    fixed edges, which meet the used pairs in all of their C(r, 2) >= 3
    pairs.  (twice may also hold an edge that meets one used pair twice
    over, a cluster's shared pair, but such an edge is in cblock
    anyway.)  The last edge is not placed: the free candidates are
    counted into stratum t and the cluster candidates into t + 1, two
    popcounts.  Below two edges or below r = 3 no two edges are linked,
    and every m-subset is linear.

    visit, when given, is called on every plus m-subset that holds a
    root pair, with its sorted edge ids and t, and returns a dict of
    further additive statistics, keyed apart from the integer strata;
    they are weighted like the strata and returned beside them.  The
    last edge is then also placed one at a time, over the set bits of
    the candidates.  Below two edges nothing is visited.
    """
    if m < 2 or index.r < 3:
        return {0: math.comb(index.count, m)}
    pairs = index.pairs
    link_rows = index.link_rows

    def rooted(root: int, rep: int) -> Counter:
        strata: Counter = Counter()

        def visit_each(cands: int, t: int, ids: tuple):
            while cands:
                low = cands & -cands
                cands ^= low
                strata.update(visit(tuple(sorted(ids + (low.bit_length() - 1,))), t))

        def extend(window: int, blocked: int, twice: int, cblock: int,
                   free: tuple, t: int, ids: tuple, left: int):
            fresh = window & ~blocked
            joins = window & blocked & ~(twice | cblock) if t < cap else 0
            if left == 1:
                strata[t] += fresh.bit_count()
                if joins:
                    strata[t + 1] += joins.bit_count()
                if visit is not None:
                    visit_each(fresh, t, ids)
                    visit_each(joins, t + 1, ids)
                return
            # window & -(low << 1) keeps the window's edges after i
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                i = low.bit_length() - 1
                once, two = link_rows(i)
                extend(window & -(low << 1), blocked | once, twice | (blocked & once) | two, cblock,
                       free + (i,), t, ids + (i,), left - 1)
            while joins:
                low = joins & -joins
                joins ^= low
                i = low.bit_length() - 1
                once, two = link_rows(i)
                f = next(g for g in free if link_rows(g)[0] & low)
                extend(window & -(low << 1), blocked | once, twice | (blocked & once) | two,
                       cblock | once | link_rows(f)[0], tuple(g for g in free if g != f), t + 1,
                       ids + (i,), left - 1)

        t = len(pairs[root] & pairs[rep])
        if t > 1 or (t and cap < 1):
            return strata
        if m == 2:
            strata[t] += 1
            if visit is not None:
                strata.update(visit(tuple(sorted((root, rep))), t))
            return strata
        once_a, two_a = link_rows(root)
        once_b, two_b = link_rows(rep)
        blocked = once_a | once_b
        extend((1 << index.count) - 1, blocked, (once_a & once_b) | two_a | two_b, blocked if t else 0,
               () if t else (root, rep), t, (root, rep), m - 2)
        return strata

    totals = _orbit_mean(index, m, rooted)
    strata = {t: totals.pop(t, 0) for t in range(m // 2 + 1)}
    return {**{t: c for t, c in strata.items() if c or t == 0}, **totals}


def count_linear(
    pv: PartitionVector,
    r: int,
    m: int,
    work_ceiling: int = DEFAULT_WORK_CEILING,
    workers: int = 1,
) -> int:
    """Exact number of linear m-edge hypergraphs: the plus search at cap 0, one thread."""
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    _guard(pv, r, m, work_ceiling)
    return _plus_strata(EdgeSpaceIndex(pv, r), m, 0)[0]


def count_linear_naive(
    pv: PartitionVector,
    r: int,
    m: int,
    work_ceiling: int = DEFAULT_WORK_CEILING,
) -> int:
    """Filter every m-subset for pairwise overlaps <= 1.

    Deliberately independent of count_linear: it reads the vertex sets
    of edge_space as bitmasks and builds no edge index, no pair or link
    rows and no overlap matrix, and it does no pruning and no orbit
    rooting.  Two edges overlap in two or more vertices exactly when
    their common mask has more than one bit set.  The price is its own full sweep, sigma_r
    + binomial(sigma_r, m) * C(m, 2) pair checks.  Kept as a cross-check
    oracle for the fast path.
    """
    work = sigma(pv, r) + count_all(pv, r, m) * (m * (m - 1) // 2)
    if work > work_ceiling:
        raise WorkCeilingError(work, work_ceiling, "census")
    masks = [sum(1 << v for v in e.vertices) for e in edge_space(pv, r)]
    count = 0
    for combo in combinations(masks, m):
        for a, b in combinations(combo, 2):
            both = a & b
            if both & (both - 1):
                break
        else:
            count += 1
    return count


@dataclass(frozen=True)
class CensusResult:
    """Exact stratification of all m-subsets by cluster count."""

    total: int
    linear: int
    by_cluster: dict[int, int]
    not_plus: int
    cluster_cap: int

    def __post_init__(self):
        if self.linear != self.by_cluster.get(0, 0):
            raise AssertionError("linear count disagrees with stratum zero")
        if sum(self.by_cluster.values()) + self.not_plus != self.total:
            raise AssertionError("strata do not add up to the subset total")

    def to_json_dict(self) -> dict:
        return {
            "total": str(self.total),
            "linear": str(self.linear),
            "by_cluster": {str(t): str(c) for t, c in sorted(self.by_cluster.items())},
            "not_plus": str(self.not_plus),
            "cluster_cap": str(self.cluster_cap),
        }


def census_by_cluster(
    pv: PartitionVector,
    r: int,
    m: int,
    work_ceiling: int = DEFAULT_WORK_CEILING,
) -> CensusResult:
    """Stratify the m-subsets of the edge space by plus-search cluster count."""
    total = _guard(pv, r, m, work_ceiling)
    cap = cluster_threshold(pv, r, m)
    by_cluster = _plus_strata(EdgeSpaceIndex(pv, r), m, cap)
    return CensusResult(
        total=total,
        linear=by_cluster[0],
        by_cluster=by_cluster,
        not_plus=total - sum(by_cluster.values()),
        cluster_cap=cap,
    )


def exact_linear_probability(
    pv: PartitionVector,
    r: int,
    m: int,
    work_ceiling: int = DEFAULT_WORK_CEILING,
) -> Fraction:
    """count_linear / count_all as an exact rational."""
    return Fraction(
        count_linear(pv, r, m, work_ceiling=work_ceiling),
        count_all(pv, r, m),
    )
