"""Exact censuses of the edge-subset space.

One search, _plus_strata, extends only plus prefixes in canonical edge
order and counts the plus m-subsets by cluster count.  census_by_cluster
is that search at the census's cluster cap; count_linear is the same
search at cap 0.  The search runs once per edge orbit of the partition's
automorphisms (edge_orbits), on the m-subsets that hold the orbit's
root, and _orbit_mean turns the rooted tallies into totals over every
m-subset.  count_linear_naive filters every subset and exists to
cross-check them.  All counts are exact integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable

from .errors import DomainError, WorkCeilingError
from .hypergraphs import (
    OVERLAP_GE3,
    cluster_threshold,
    edge_space,
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
    exactly when their pair rows meet.  Built on first use, and only
    when two edges are compared: cat, the pairwise overlap matrix, from
    the occupants of each vertex pair.
    """

    def __init__(self, pv: PartitionVector, r: int):
        self.pv = pv
        self.r = r
        self.edges: list[tuple[int, ...]] = [e.vertices for e in edge_space(pv, r)]
        self.count = len(self.edges)
        self.position = {vs: i for i, vs in enumerate(self.edges)}

        # intern vertex pairs as small integers
        table: dict[tuple[int, int], int] = {}
        self.pairs: list[frozenset[int]] = [
            frozenset(table.setdefault(sub, len(table)) for sub in combinations(vs, 2))
            for vs in self.edges
        ]

        self._cat: list[bytearray] | None = None

    @property
    def cat(self) -> list[bytearray]:
        """Pairwise overlap category: 0 for <=1 shared, 1 for exactly 2, 2 for >=3."""
        if self._cat is None:
            occupants: dict[int, list[int]] = {}
            for i, row in enumerate(self.pairs):
                for pid in row:
                    occupants.setdefault(pid, []).append(i)
            cat = [bytearray(self.count) for _ in range(self.count)]
            # c shared vertices meet in binomial(c, 2) pair lists
            for group in occupants.values():
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
        for x in range(m - 1):
            row = self.cat[combo[x]]
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


def _guard(
    pv: PartitionVector, r: int, m: int, work_ceiling: int, rooted: bool = True,
    cat: bool = False,
) -> int:
    """count_all, after refusing a work estimate above the ceiling.

    The estimate prices what the caller builds and runs: sigma_r for the
    edge index, sigma_r^2 for cat when the caller reads it (cat=True and
    m >= 2), and C(m, 2) pair checks per visited m-subset.  Rooted
    callers visit the m-subsets that hold an orbit root, orbits *
    binomial(sigma_r - 1, m - 1) of them; the others visit all
    binomial(sigma_r, m).  Nothing is allocated before the refusal.
    """
    total = count_all(pv, r, m)
    edge_count = sigma(pv, r)
    visited = total
    if rooted and m:
        visited = orbit_count(pv, r) * math.comb(edge_count - 1, m - 1)
    work = edge_count + visited * max(1, m * (m - 1) // 2)
    if cat and m >= 2:
        work += edge_count ** 2
    if work > work_ceiling:
        raise WorkCeilingError(work, work_ceiling, "census")
    return total


def edge_orbits(index: EdgeSpaceIndex) -> list[tuple[int, int]]:
    """(root edge id, orbit size) per orbit of the partition's automorphisms.

    The automorphisms permute the vertices inside each part and swap
    parts of equal size, so two edges share an orbit exactly when they
    use the same multiset of part sizes.  The root is the orbit's first
    edge in canonical order; orbits come in the order of their roots.
    """
    size_of = [0]  # size of the part holding each vertex, 1-based
    for size in index.pv.sizes:
        size_of += [size] * size
    orbits: dict[tuple[int, ...], list[int]] = {}
    for i, vs in enumerate(index.edges):
        key = tuple(sorted([size_of[v] for v in vs]))
        orbits.setdefault(key, [i, 0])[1] += 1
    return [(root, size) for root, size in orbits.values()]


def _orbit_mean(index: EdgeSpaceIndex, m: int, rooted: Callable[[int], Counter]) -> Counter:
    """Totals over every m-subset of additive statistics, from one root per orbit.

    rooted(root) tallies the statistics, key by key, over the m-subsets
    that hold root.  The tally is the same for every edge of an orbit
    and each subset holds m edges, so a total is sum_O |O| rooted(root_O)
    / m.  Orbits that miss an edge, or a remainder, raise AssertionError.
    """
    orbits = edge_orbits(index)
    if sum(size for _, size in orbits) != index.count:
        raise AssertionError("edge orbits do not partition the edge space")
    weighted: Counter = Counter()
    for root, size in orbits:
        for key, value in rooted(root).items():
            weighted[key] += size * value
    totals: Counter = Counter()
    for key, value in weighted.items():
        totals[key], rest = divmod(value, m)
        if rest:
            raise AssertionError(f"orbit-weighted {key} = {value} is not a multiple of m={m}")
    return totals


def _plus_strata(index: EdgeSpaceIndex, m: int, cap: int) -> dict[int, int]:
    """Plus m-subsets by cluster count: stratum 0, then populated strata.

    Plus is hereditary under a fixed cap, so extending only plus
    prefixes visits exactly the plus subsets.  Each orbit root starts
    the state {root} and extends it in canonical order over the other
    edges; _orbit_mean weights the rooted strata.  State: used and
    clustered, the pairs all chosen and all clustered edges occupy;
    free, the pair rows of the chosen edges in no cluster; and t.  A
    candidate meeting no used pair joins as a free edge; while t < cap,
    one meeting exactly one used pair, held by a free edge, opens a
    cluster with it; anything else is refused.
    """
    if m == 0:
        return {0: 1}

    def rooted(root: int) -> Counter:
        pairs = index.pairs[:root] + index.pairs[root + 1:]
        strata: Counter = Counter()

        def extend(start: int, used: frozenset, clustered: frozenset, free: tuple, t: int, left: int):
            if left == 0:
                strata[t] += 1
                return
            if left == 1 and t >= cap:
                strata[t] += sum(map(used.isdisjoint, pairs[start:]))
                return
            for i in range(start, len(pairs) - left + 1):
                ps = pairs[i]
                if used.isdisjoint(ps):
                    extend(i + 1, used | ps, clustered, free + (ps,), t, left - 1)
                elif t < cap:
                    shared = used & ps
                    if len(shared) == 1 and clustered.isdisjoint(shared):
                        f = next(g for g in free if not shared.isdisjoint(g))
                        rest = tuple(g for g in free if g is not f)
                        extend(i + 1, used | ps, clustered | f | ps, rest, t + 1, left - 1)

        own = index.pairs[root]
        extend(0, own, frozenset(), (own,), 0, m - 1)
        return strata

    strata = _orbit_mean(index, m, rooted)
    return {t: c for t, c in sorted({0: 0, **strata}.items()) if c or t == 0}


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

    Deliberately independent of count_linear: no pruning, no shared
    search logic, and no orbit rooting, so it stays independent of
    edge_orbits too; its guard prices the full sweep.  Kept as a
    cross-check oracle for the fast path.
    """
    _guard(pv, r, m, work_ceiling, rooted=False, cat=True)
    if m == 0:
        return 1
    index = EdgeSpaceIndex(pv, r)
    if m == 1:
        return index.count
    cat = index.cat
    count = 0
    for combo in combinations(range(index.count), m):
        ok = True
        for x in range(m - 1):
            row = cat[combo[x]]
            for y in range(x + 1, m):
                if row[combo[y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
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
