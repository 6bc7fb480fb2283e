"""Exact censuses of the edge-subset space.

One search, _plus_strata, extends only plus prefixes in canonical edge
order and counts the plus m-subsets by cluster count.  census_by_cluster
is that search at the census's cluster cap; count_linear is the same
search at cap 0, and switching.bijection_audit is that search with a
visitor that counts the moves of each plus m-subset it reaches.  The
search is rooted at a fixed prefix of distinct edges: it runs once per
orbit of ordered edge pairs under the partition's automorphisms, or of
ordered edge triples when a visitor is given.  One rule,
stabiliser_orbits(index, fixed), gives the orbits of the stabiliser of
a fixed prefix on the other edges (the edge orbits when the prefix is
empty), and _orbit_mean walks the plus prefixes through it and turns
the rooted tallies into totals over every m-subset.  The search's state
is a few bitmasks over edge ids, ORed together from the link rows of
the edges it places, and its last level is two popcounts.
count_linear_naive filters every subset by vertex bitmasks, with no
EdgeSpaceIndex, and exists to cross-check them.  All counts are exact
integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import add, mul
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
# edges one EdgeSpaceIndex may hold; an edge costs about 430 bytes (its
# vertex tuple and its row of pair codes), so about 1.8 GB in all.  The
# bound is fixed: no work ceiling raises it
INDEX_EDGE_LIMIT = 2 ** 22


class EdgeSpaceIndex:
    """Precomputed structures over the full edge space of one instance.

    An edge space of more than INDEX_EDGE_LIMIT edges is refused
    (WorkCeilingError) before any edge is built.  Edges are indexed by
    their canonical enumeration order.  The index
    carries one table, pairs: per edge, the frozenset of the codes
    u * (n + 1) + v of its vertex pairs u < v (at r = 2 the edge's one
    pair, which no other edge holds; empty rows when r <= 1).  Two distinct edges are linked
    exactly when their pair rows meet.  Everything else is read off
    pairs and built on first use: occupants, the edges holding each
    pair; link_rows(e), the bitmasks over edge ids of the edges meeting
    one or at least two of e's pairs, built per edge the first time the
    plus search folds it into a root prefix or places it, and kept;
    position, the id of each vertex tuple, for the switching move
    counters; and cat, the pairwise overlap matrix, read only by
    classify_combo.  Only the switching audit calls classify_combo: it
    re-checks each subset the plus search visits against the search's
    own classification, from the link rows.  edge_reads adds sigma_r per
    pass over the edge space (a link-row build, compat_stats and
    stabiliser_orbits calls), for the plus search's meter.
    """

    def __init__(self, pv: PartitionVector, r: int):
        edge_count = sigma(pv, r)
        if edge_count > INDEX_EDGE_LIMIT:
            raise WorkCeilingError(
                edge_count, INDEX_EDGE_LIMIT, "edge index", unit="edges",
                remedy="this ceiling is fixed: use fewer vertices or a smaller r",
            )
        self.pv = pv
        self.r = r
        self.edges: list[tuple[int, ...]] = edge_tuples(pv, r)
        self.count = len(self.edges)

        # pair {u, v}, u < v, is u * (n + 1) + v, coded column by column
        cols, base = list(zip(*self.edges)), repeat(pv.n + 1)
        codes = [map(add, map(mul, cols[i], base), cols[j]) for i, j in combinations(range(r), 2)]
        self.pairs: list[frozenset[int]] = (
            list(map(frozenset, zip(*codes))) if codes else [frozenset()] * self.count
        )

        self._links: dict[int, tuple[int, int]] = {}
        self._cat: list[bytearray] | None = None
        self.edge_reads = 0

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
            self.edge_reads += self.count
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
                    cat[i][j] = cat[j][i] = 2 if cat[i][j] else 1
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
        self.edge_reads += self.count
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
    return _subset_count(sigma(pv, r), m)


def _subset_count(edge_count: int, m: int) -> int:
    if not 0 <= m <= edge_count:
        raise DomainError(f"m={m} outside 0..{edge_count}")
    return math.comb(edge_count, m)


def orbit_count(pv: PartitionVector, r: int) -> int:
    """Number of edge orbits, from the part-size histogram alone.

    An orbit is a multiset of r part sizes using at most c_s parts of
    size s: the x^r coefficient of prod_s (1 + x + ... + x^{c_s}).  No
    search reads it; it is the histogram oracle that the tests hold
    stabiliser_orbits(index, ()) to.
    """
    coeff = [1] + [0] * r
    for _, c in pv.size_counts:
        coeff = [sum(coeff[max(0, j - c):j + 1]) for j in range(r + 1)]
    return coeff[r]


def _guard(
    pv: PartitionVector, r: int, m: int, work_ceiling: int, cat: bool = False
) -> tuple[int, EdgeSpaceIndex | None]:
    """(binomial(sigma_r, m), the edge index the search needs or None), or WorkCeilingError.

    With m < 2 or r < 3 no two edges are linked: every m-subset is
    linear, and nothing is priced or built.  Otherwise the price, checked
    before anything is built, is what the call allocates: sigma_r for the
    edge index, plus sigma_r^2 for cat when the caller reads it (the
    audit, cat=True).  _plus_strata meters the search's own work.
    """
    edge_count = sigma(pv, r)
    total = _subset_count(edge_count, m)
    if m < 2 or r < 3:
        return total, None
    price = edge_count + (edge_count ** 2 if cat else 0)
    if price > work_ceiling:
        raise WorkCeilingError(price, work_ceiling, "census", unit="work units")
    return total, EdgeSpaceIndex(pv, r)


def stabiliser_orbits(index: EdgeSpaceIndex, fixed: tuple[int, ...] = ()) -> list[tuple[int, int]]:
    """(representative id, orbit size) per orbit of fixed's stabiliser on the other edges.

    The automorphisms permute the vertices inside each part and swap
    parts of equal size; the stabiliser of the ordered tuple fixed maps
    each fixed edge to itself.  A fixed edge holds one vertex of each
    part it uses, so the stabiliser keeps the mask of fixed edges holding
    each vertex, moves a part only to one of the same size holding the
    same set of nonzero masks, and permutes the other vertices of a part
    freely.  Each vertex is labelled (its part's size, that set of masks,
    its own mask), and two edges share an orbit exactly when they have
    the same multiset of labels.  fixed=() gives the orbits of the edges,
    keyed by the multiset of the sizes of the parts they use.  A fixed
    edge is alone in its class, which is dropped.  Representatives are
    the orbits' first edges in canonical order, in that order.  The
    call is one pass over the edge space, added to index.edge_reads.
    """
    index.edge_reads += index.count
    part, sizes, d = index.vertex_part, index.pv.sizes, len(fixed)
    held = [0] * len(part)
    marks = [0] * index.pv.k
    for j, e in enumerate(fixed):
        for u in index.edges[e]:
            held[u] |= 1 << j
    for e in fixed:
        for u in index.edges[e]:
            marks[part[u]] |= 1 << held[u]
    # a label's bits: the part's size, its masks as a set of 2^d bits, then the vertex's d bits
    kind = [(size << (1 << d) | mark) << d for size, mark in zip(sizes, marks)]
    label = [kind[p] | mask for p, mask in zip(part, held)]
    # a label of rank k weighs (r + 1)^k, so an edge's weight sum, at most r
    # of each, encodes its multiset of labels
    rank = {x: k for k, x in enumerate(set(label))}
    weight = [(index.r + 1) ** rank[x] for x in label]
    classes: dict[int, list[int]] = {}
    for i, vs in enumerate(index.edges):
        classes.setdefault(sum(map(weight.__getitem__, vs)), [i, 0])[1] += 1
    return [(first, size) for first, size in classes.values() if first not in fixed]


def _orbit_mean(index: EdgeSpaceIndex, m: int, depth: int, rooted: Callable) -> Counter:
    """Totals over every m-subset, m >= depth, of additive statistics, from root prefixes.

    The walk fixes depth distinct edges, one orbit at a time: the i-th
    edge runs over the representatives of stabiliser_orbits of the
    prefix before it.  rooted(ids) is called on each ordered prefix the
    walk reaches, its edge ids in the order they were fixed.  It returns
    None when the prefix is not plus, and nothing under it is walked;
    below depth any other value, and the walk goes one edge deeper; at
    depth the tally, key by key, of the statistics over the m-subsets
    that hold the prefix.  That tally is the same for every ordered
    prefix in the prefix's orbit, which holds prod |O_i| of them for its
    orbit sizes O_i, and each m-subset holds m!/(m - depth)! ordered
    prefixes, so a total is sum prod |O_i| tally / (m!/(m - depth)!).
    Orbits that miss an edge, or a remainder, raise AssertionError.
    """
    weighted: Counter = Counter()

    def walk(fixed: tuple[int, ...], weight: int) -> None:
        orbits = stabiliser_orbits(index, fixed)
        if sum(size for _, size in orbits) != index.count - len(fixed):
            raise AssertionError(f"stabiliser orbits of {fixed} do not partition the other edges")
        for rep, size in orbits:
            tally = rooted(fixed + (rep,))
            if tally is None:
                continue
            if len(fixed) + 1 < depth:
                walk(fixed + (rep,), weight * size)
            else:
                for key, value in tally.items():
                    weighted[key] += weight * size * value

    walk((), 1)
    prefixes = math.perm(m, depth)
    totals: Counter = Counter()
    for key, value in weighted.items():
        totals[key], rest = divmod(value, prefixes)
        if rest:
            raise AssertionError(f"prefix-weighted {key} = {value} is not a multiple of m!/(m-{depth})! = {prefixes}")
    return totals


def _plus_strata(index: EdgeSpaceIndex, m: int, cap: int, visit: Callable | None = None,
                 work_ceiling: int = DEFAULT_WORK_CEILING) -> dict:
    """Plus m-subsets by cluster count: stratum 0, then populated strata.

    Plus is hereditary under a fixed cap, so extending only plus
    prefixes visits exactly the plus subsets.  _orbit_mean fixes a root
    prefix of depth edges, a pair, or a triple when a visitor is given
    and m >= 3, and weights the rooted strata.  Below m the search
    extends the prefix in canonical order over the other edges.

    Its state is three bitmasks over edge ids, ORed together from the
    placed edges' link rows: blocked, the edges meeting a used
    pair; twice, those meeting at least two; cblock, those meeting a
    pair of a clustered edge.  Beside them: free, the ids of the placed
    edges in no cluster; t; and ids, the placed edge ids.  A candidate in
    blocked's complement meets no used pair and joins as a free edge;
    while t < cap, one in blocked but in neither twice nor cblock meets
    exactly one used pair, held by a free edge, and opens a cluster with
    it; anything else would make the set not plus.  The window is the
    edges after the last one chosen; it needs no skip for the fixed
    edges, which meet the used pairs in all of their C(r, 2) >= 3 pairs.
    (twice may also hold an edge that meets one used pair twice over, a
    cluster's shared pair, but such an edge is in cblock anyway.)  The
    last edge is not placed: the free candidates are counted into
    stratum t and the cluster candidates into t + 1, two popcounts.
    Below two edges or below r = 3 no two edges are linked, and every
    m-subset is linear.

    Each prefix the walk reaches, at most three edges, is classified
    whole by plus_violation, from its edges' pair rows: two edges with
    one common pair are linked, and two with more share three or more
    vertices, so the prefix is not plus.  A prefix that is not plus has
    nothing walked under it.  At m = depth the prefix is the whole
    subset, and no link row is built.  Above it the prefix edges' link
    rows are folded into the three masks once, and extend goes on from
    there.  The union-find oracle tests (tests/test_census.py) hold the
    search to every m-subset's signature at depth 2, and with a visitor
    at depth 3; test_rooted_audit_matches_an_unrooted_sweep
    (tests/test_switching.py) holds the audit at depth 3, at m = 3 and 4.

    visit, when given, is called on every plus m-subset that holds a
    root prefix, with its sorted edge ids and t, and returns a dict of
    further additive statistics, keyed apart from the integer strata;
    they are weighted like the strata and returned beside them.  The
    last edge is then also placed one at a time, over the set bits of
    the candidates.  Below two edges nothing is visited.

    The search is metered, not priced: one work count, refused with
    WorkCeilingError as soon as it passes work_ceiling, reporting the
    work done.  It adds 1 per extend call; 1 per subset counted at the
    last level, or C(m, 2) when a visitor is given, for its pair checks;
    and sigma_r per pass over the edge space made on the search's
    behalf, read off index.edge_reads: a link-row build, a
    stabiliser_orbits call in _orbit_mean's walk, a compat_stats call
    in the visitor.  The count is checked once per extend call, on entry
    to rooted and after each visit.  A prefix's rows follow at least
    depth stabiliser passes, so at most work_ceiling / sigma_r link
    rows, about work_ceiling / 4 bytes, are ever built.
    """
    if m < 2 or index.r < 3:
        return {0: math.comb(index.count, m)}
    pairs = index.pairs
    link_rows = index.link_rows
    depth = 2 if visit is None else min(m, 3)
    leaf = 1 if visit is None else m * (m - 1) // 2
    # the search's own units; edge reads made before it began are not its work
    done, limit = 0, work_ceiling + index.edge_reads

    def charge(work: int) -> None:
        nonlocal done
        done += work
        if done + index.edge_reads > limit:
            spent = done + index.edge_reads - limit + work_ceiling
            raise WorkCeilingError(spent, work_ceiling, "census", unit="work units", verb="stopped after")

    def extend(strata: Counter, window: int, blocked: int, twice: int, cblock: int,
               free: tuple, t: int, ids: tuple, left: int) -> None:
        # the hot path: it charges inline and calls charge only to refuse
        nonlocal done
        fresh = window & ~blocked
        joins = window & blocked & ~(twice | cblock) if t < cap else 0
        if left == 1:
            found = fresh.bit_count()
            strata[t] += found
            if joins:
                joined = joins.bit_count()
                strata[t + 1] += joined
                found += joined
            if visit is None:
                done += 1 + found
                if done + index.edge_reads > limit:
                    charge(0)
                return
            charge(1)
            for cands, s in ((fresh, t), (joins, t + 1)):
                while cands:
                    low = cands & -cands
                    cands ^= low
                    for key, value in visit(tuple(sorted(ids + (low.bit_length() - 1,))), s).items():
                        strata[key] += value
                    charge(leaf)
            return
        done += 1
        if done + index.edge_reads > limit:
            charge(0)
        # window & -(low << 1) keeps the window's edges after i
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            i = low.bit_length() - 1
            once, two = link_rows(i)
            extend(strata, window & -(low << 1), blocked | once, twice | (blocked & once) | two, cblock,
                   free + (i,), t, ids + (i,), left - 1)
        while joins:
            low = joins & -joins
            joins ^= low
            i = low.bit_length() - 1
            f = next(g for g in free if link_rows(g)[0] & low)
            once, two = link_rows(i)
            extend(strata, window & -(low << 1), blocked | once, twice | (blocked & once) | two,
                   cblock | once | link_rows(f)[0], tuple(g for g in free if g != f), t + 1,
                   ids + (i,), left - 1)

    def rooted(ids: tuple[int, ...]):
        charge(0)  # the stabiliser passes that reached this prefix
        # the plus rule on the prefix's pair rows: one common pair links two
        # edges, more means they share three or more vertices
        linked = []
        for x, y in combinations(range(len(ids)), 2):
            common = len(pairs[ids[x]] & pairs[ids[y]])
            if common > 1:
                return None
            if common:
                linked.append((x, y))
        if plus_violation(linked, cap) is not None:
            return None
        if len(ids) < depth:
            return {}
        t = len(linked)
        if m == depth:
            # the visitor's keys are apart from the integer strata
            tally = {t: 1} if visit is None else {t: 1, **visit(tuple(sorted(ids)), t)}
            charge(leaf)
            return tally
        paired = {x for pair in linked for x in pair}
        blocked = twice = cblock = 0
        for x, i in enumerate(ids):
            once, two = link_rows(i)
            twice |= (blocked & once) | two
            blocked |= once
            if x in paired:
                cblock |= once
        free = tuple(i for x, i in enumerate(ids) if x not in paired)
        strata: Counter = Counter()
        extend(strata, (1 << index.count) - 1, blocked, twice, cblock, free, t, ids, m - depth)
        return strata

    totals = _orbit_mean(index, m, depth, rooted)
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
    total, index = _guard(pv, r, m, work_ceiling)
    return total if index is None else _plus_strata(index, m, 0, work_ceiling=work_ceiling)[0]


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
    total, index = _guard(pv, r, m, work_ceiling)
    cap = cluster_threshold(pv, r, m)
    by_cluster = {0: total} if index is None else _plus_strata(index, m, cap, work_ceiling=work_ceiling)
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
