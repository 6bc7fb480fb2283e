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
the rooted tallies into totals over every m-subset.  edge_set_orbit
keys an unordered edge set by its orbit, from the same labelling of
the vertices (_vertex_masks); the audit looks compat_stats up by that
key, so it scans the edge space once per orbit of the (m-2)-sets its
moves leave.  The search's state is a few bitmasks over edge ids, ORed
together from the link rows of the edges it places.  Every branch
ends in one of two leaves.  Without a visitor a node's last one or two
edges are counted in closed form, from the linked pairs of its
candidate pools (EdgeSpaceIndex.shared_pairs, read off per-subset edge
masks); otherwise each complete m-subset is counted, and visited, one
at a time, and where the root triple leaves one edge (the audit at
m = 4) one per orbit of the triple's stabiliser, weighted by the
orbit's size.  EdgeSpaceIndex's one table is the edges' sorted vertex
tuples; vertex pairs are read off them by combinations, never coded as
integers; the audit's overlap matrix, cat, is built a row at a time as
its rows are read.
_guard stands before every search: it refuses an m outside 0..sigma_r
(partitions.check_m), answers the cells with m < 2 or r < 3, where no
two edges are linked, once their answer C(sigma_r, m) is priced,
prices what any other call allocates and builds the index, and
returns sigma_r with it.  count_linear, census_by_cluster and
switching.bijection_audit take C(sigma_r, m) only where their answer
reports it, after the search, so no refusal waits on the binomial.
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
from itertools import chain, combinations, permutations, repeat
from typing import Callable

from .errors import FIGURE_DIGITS, DomainError, WorkCeilingError
from .hypergraphs import (
    OVERLAP_GE3,
    cluster_threshold,
    edge_space,
    edge_tuples,
    linked_pairs,
    plus_violation,
    shared_pair_counts,
)
from .partitions import PartitionVector, check_m, sigma, sigmas

DEFAULT_WORK_CEILING = 10 ** 8
# edges one EdgeSpaceIndex may hold; an edge costs 72-73 bytes when built (its
# vertex tuple and list slot, by tracemalloc at uniform n=30, 60 and 100, r=3),
# so about 0.3 GB in all.  The bound is fixed: no work ceiling raises it
INDEX_EDGE_LIMIT = 2 ** 22


class EdgeSpaceIndex:
    """Precomputed structures over the full edge space of one instance.

    An edge space of more than INDEX_EDGE_LIMIT edges is refused
    (WorkCeilingError) before any edge is built.  Edges are indexed by
    their canonical enumeration order.  The index carries one table,
    edges: per edge, its sorted vertex tuple, in lexicographic order, so
    an edge's id is found by bisection.  Two distinct edges are linked
    exactly when they share two vertices, one vertex pair (u, v), u < v,
    read off the tuples by combinations(vs, 2).  Everything else is
    built from edges on first use: occupants, the edges holding each
    vertex pair; link_rows(e), the bitmasks over edge ids of the edges
    meeting one or at least two of e's pairs, built per edge the first
    time the plus search folds it into a root prefix or places it, and
    kept; subset_masks, per alpha in 2..r-1 the bitmask of the edges
    holding each alpha-subset held by two or more, the pair masks read
    off occupants; and cat, the pairwise overlap matrix, read only by
    classify_combo: an OverlapRows table whose row i, sigma_r bytes, is
    built from occupants when it is first read, so a classify_combo call
    on an m-subset builds at most m - 1 rows.  The masks hold
    sigma_alpha(pv) sigma_r bits at most, priced as mask_price work
    units, sigma_r per mask as a link row is, before the plus search
    reads them.  shared_pairs(pool) reads
    them: the pairs of edges in a bitmask pool sharing two or more and
    exactly two vertices, by the binomial inversion of T_alpha, so the
    compatible pairs of a pool of c candidates are C(c, 2) less the
    first; the plus search counts a node's last two edges from it.  Only
    the switching audit calls classify_combo: it re-checks each subset
    the plus search visits against the search's own classification,
    from the link rows.  edge_reads adds sigma_r per pass over the edge
    space (a link-row build, compat_stats and stabiliser_orbits calls),
    for the plus search's meter.
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
        self._links: dict[int, tuple[int, int]] = {}
        self._cat: OverlapRows | None = None
        self.edge_reads = 0

    @cached_property
    def occupants(self) -> dict[tuple[int, int], list[int]]:
        """Ids of the edges holding each vertex pair (u, v), u < v, in edge order."""
        return self._holders(2)

    def _holders(self, alpha: int) -> dict[tuple[int, ...], list[int]]:
        """Ids of the edges holding each sorted alpha-subset of vertices, in edge order."""
        holders: dict[tuple[int, ...], list[int]] = {}
        for i, vs in enumerate(self.edges):
            for subset in combinations(vs, alpha):
                holders.setdefault(subset, []).append(i)
        return holders

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
            occupants = self.occupants
            once = twice = 0
            for pair in combinations(self.edges[e], 2):
                row = _bitmask(occupants[pair])
                twice |= once & row
                once |= row
            rows = self._links[e] = (once, twice)
        return rows

    @property
    def mask_price(self) -> int:
        """Work units subset_masks may allocate: one sigma_r-bit mask per alpha-subset, alpha in 2..r-1."""
        return self.count * sum(sigmas(self.pv, self.r - 1)[2:])

    @cached_property
    def subset_masks(self) -> dict[int, dict[tuple[int, ...], int]]:
        """Per alpha in 2..r-1, the bitmask over edge ids of the edges holding each alpha-subset.

        Only subsets held by two or more edges are kept.  The alpha = 2
        masks are read off occupants, so the pair table is one table read
        two ways: by link_rows and here.  Built on first use and kept; the
        plus search charges mask_price before it reads the table.
        """
        masks = {}
        for alpha in range(2, self.r):
            holders = self.occupants if alpha == 2 else self._holders(alpha)
            masks[alpha] = {subset: _bitmask(ids) for subset, ids in holders.items() if len(ids) > 1}
        return masks

    def shared_pairs(self, pool: int) -> tuple[int, int]:
        """Pairs of edges in the bitmask pool sharing >= 2 and exactly 2 vertices.

        T_alpha(pool) = sum over the alpha-subsets S of C(|pool & mask_S|, 2),
        inverted by shared_pair_counts.  When the members hold fewer
        alpha-subsets, |pool| C(r, alpha), than the table has masks, the
        sum is taken per member instead: T_alpha = 1/2 sum over i in pool
        and S in e_i of (|pool & mask_S| - 1), where a subset with no mask
        is held by i alone.
        """
        size = pool.bit_count()
        if size < 2:
            return 0, 0
        edges, t_by_alpha = self.edges, {}
        for alpha, masks in self.subset_masks.items():
            doubled = 0
            if size * math.comb(self.r, alpha) < len(masks):
                get, rest = masks.get, pool
                while rest:
                    low = rest & -rest
                    rest ^= low
                    for subset in combinations(edges[low.bit_length() - 1], alpha):
                        doubled += (pool & get(subset, low)).bit_count() - 1
            else:
                for c in map(int.bit_count, map(pool.__and__, masks.values())):
                    doubled += c * (c - 1)
            t_by_alpha[alpha] = doubled // 2
        return shared_pair_counts(t_by_alpha, self.r)

    @property
    def cat(self) -> OverlapRows:
        """The pairwise overlap matrix, its rows built on first read (OverlapRows)."""
        if self._cat is None:
            self._cat = OverlapRows(self)
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
        sharing >= 2 vertices, and the number sharing exactly 2, from the
        T_alpha tallies of their vertex alpha-subsets.
        """
        self.edge_reads += self.count
        edges = self.edges
        used = {pair for g in h0 for pair in combinations(edges[g], 2)}
        # an edge of h0 holds a used pair once r >= 2; below that only the id tells
        members = set(h0)
        pool = [vs for i, vs in enumerate(edges) if used.isdisjoint(combinations(vs, 2)) and i not in members]
        # T[alpha] = sum over alpha-subsets of binomial(occupancy, 2)
        t_by_alpha: dict[int, int] = {}
        for alpha in range(2, self.r):
            occ = Counter(chain.from_iterable(map(combinations, pool, repeat(alpha))))
            t_by_alpha[alpha] = sum(c * (c - 1) // 2 for c in occ.values())
        return (len(pool), *shared_pair_counts(t_by_alpha, self.r))


class OverlapRows:
    """The rows of an index's pairwise overlap matrix, each built on first read.

    rows[i][j] is the overlap category of edges i and j: 0 for at most
    one shared vertex (and for j = i), 1 for exactly two, 2 for three or
    more.  Row i is sigma_r bytes, built from the occupant lists of edge
    i's pairs, c shared vertices meeting in C(c, 2) of them, and kept.
    len(rows) is sigma_r, and iterating yields every row in edge order.
    """

    def __init__(self, index: EdgeSpaceIndex):
        self._index = index
        self._rows: list[bytearray | None] = [None] * index.count

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> bytearray:
        row = self._rows[i]
        if row is None:
            index = self._index
            row = self._rows[i] = bytearray(index.count)
            occupants = index.occupants
            for pair in combinations(index.edges[i], 2):
                for j in occupants[pair]:
                    row[j] = 2 if row[j] else 1
            row[i] = 0
        return row

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _bitmask(ids: list[int]) -> int:
    """The int with bit i set for each i in ids, sorted ascending, set byte by byte."""
    buf = bytearray((ids[-1] >> 3) + 1)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def count_all(pv: PartitionVector, r: int, m: int) -> int:
    """Number of m-subsets of the edge space, binomial(sigma_r, m)."""
    edge_count = sigma(pv, r)
    check_m(m, edge_count)
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


def _binomial_price(edge_count: int, m: int) -> int:
    """Work units of C(edge_count, m): k factors, k = min(m, edge_count - m), into its words.

    The binomial is at most (e edge_count / k)^k, so it has at most
    k log2(e edge_count / k) bits; each factor is charged one unit per
    64 of them.  Read off floats, without the binomial.
    """
    k = min(m, edge_count - m)
    bits = k * math.log2(math.e * edge_count / k) if k else 0
    return k * (int(bits) // 64 + 1)


def _guard(
    pv: PartitionVector, r: int, m: int, work_ceiling: int, cat: bool = False
) -> tuple[int, EdgeSpaceIndex | None]:
    """(sigma_r, the edge index the search needs or None), or a refusal.

    In order: m outside 0..sigma_r is refused (DomainError); with m < 2
    or r < 3 no two edges are linked, every m-subset is linear, nothing
    is built (index None), and the answer C(sigma_r, m) is priced
    (_binomial_price); otherwise the call is priced at what it
    allocates, sigma_r for the edge index plus sigma_r^2 for cat when
    the caller reads it (the audit, cat=True).  cat builds its rows as
    they are read, so sigma_r^2 bounds what it may build rather than
    what a call builds.  A price above work_ceiling is refused
    (WorkCeilingError) before the index or the binomial is built.
    _plus_strata meters the search's own work.  No binomial is computed
    here: the callers take C(sigma_r, m) only where their answer reports
    it, so no refusal waits on one.
    """
    edge_count = sigma(pv, r)
    check_m(m, edge_count)
    if m < 2 or r < 3:
        price = _binomial_price(edge_count, m)
        if price > work_ceiling:
            raise WorkCeilingError(price, work_ceiling, "census", unit="work units")
        return edge_count, None
    price = edge_count + (edge_count ** 2 if cat else 0)
    if price > work_ceiling:
        raise WorkCeilingError(price, work_ceiling, "census", unit="work units")
    return edge_count, EdgeSpaceIndex(pv, r)


def _vertex_masks(index: EdgeSpaceIndex, fixed: tuple[int, ...]) -> tuple[dict[int, int], dict[int, int]]:
    """(held, marks): the labelling of the vertices by an ordered tuple of edges.

    held maps each vertex of a fixed edge to its mask, bit j set when
    fixed[j] holds it; marks maps each part those vertices lie in to the
    set of their masks, bit 1 << mask per mask.  An edge holds at most
    one vertex of a part, so the masks inside one part are disjoint and
    pairwise distinct, and marks holds each of them once.
    """
    part, edges = index.pv.vertex_part, index.edges
    held: dict[int, int] = {}
    for j, e in enumerate(fixed):
        for u in edges[e]:
            held[u] = held.get(u, 0) | 1 << j
    marks: dict[int, int] = {}
    for u, mask in held.items():
        marks[part[u]] = marks.get(part[u], 0) | 1 << mask
    return held, marks


def stabiliser_orbits(index: EdgeSpaceIndex, fixed: tuple[int, ...] = ()) -> list[tuple[int, int]]:
    """(representative id, orbit size) per orbit of fixed's stabiliser on the other edges.

    The automorphisms permute the vertices inside each part and swap
    parts of equal size; the stabiliser of the ordered tuple fixed maps
    each fixed edge to itself.  So it keeps each vertex's mask of fixed
    edges holding it, moves a part only to one of the same size holding
    the same set of nonzero masks (_vertex_masks), and permutes the
    other vertices of a part freely.  Each vertex is labelled (its
    part's size, that set of masks, its own mask), and two edges share
    an orbit exactly when they have the same multiset of labels.
    fixed=() gives the orbits of the edges, keyed by the multiset of the
    sizes of the parts they use.  A fixed edge is alone in its class,
    which is dropped.  Representatives are the orbits' first edges in
    canonical order, in that order.  The call is one pass over the edge
    space, added to index.edge_reads.
    """
    index.edge_reads += index.count
    part, sizes, d = index.pv.vertex_part, index.pv.sizes, len(fixed)
    held, marks = _vertex_masks(index, fixed)
    # a label's bits: the part's size, its masks as a set of 2^d bits, then the vertex's d bits
    kind = [(size << (1 << d) | marks.get(p, 0)) << d for p, size in enumerate(sizes)]
    label = [kind[p] | held.get(u, 0) for u, p in enumerate(part)]
    # a label of rank k weighs (r + 1)^k, so an edge's weight sum, at most r
    # of each, encodes its multiset of labels
    rank = {x: k for k, x in enumerate(set(label))}
    weight = [(index.r + 1) ** rank[x] for x in label]
    classes: dict[int, list[int]] = {}
    for i, vs in enumerate(index.edges):
        classes.setdefault(sum(map(weight.__getitem__, vs)), [i, 0])[1] += 1
    return [(first, size) for first, size in classes.values() if first not in fixed]


def _covering_orbits(index: EdgeSpaceIndex, fixed: tuple[int, ...]) -> list[tuple[int, int]]:
    """stabiliser_orbits(index, fixed), whose sizes must add up to the other edges (AssertionError)."""
    orbits = stabiliser_orbits(index, fixed)
    if sum(size for _, size in orbits) != index.count - len(fixed):
        raise AssertionError(f"stabiliser orbits of {fixed} do not partition the other edges")
    return orbits


def edge_set_orbit(index: EdgeSpaceIndex, ids: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Canonical key of the unordered edge set ids under the partition's automorphisms.

    The key is the least, over the orderings of ids, of the sorted
    (part size, marks[part]) pairs of the parts the edges touch
    (_vertex_masks).  For one ordering those pairs are complete: the
    masks inside a part are distinct, so two ordered tuples have equal
    sorted pairs exactly when an automorphism carries one onto the
    other edge by edge, swapping equal-size parts of equal marks and
    matching vertices of equal mask.  Two edge sets therefore share a
    key exactly when they share an orbit.  It costs len(ids)! orderings
    of len(ids) * r vertices each and reads no other edge.
    """
    sizes = index.pv.sizes
    return min(
        tuple(sorted((sizes[p], mark) for p, mark in _vertex_masks(index, order)[1].items()))
        for order in permutations(ids)
    )


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
        for rep, size in _covering_orbits(index, fixed):
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
    cluster's shared pair, but such an edge is in cblock anyway.)

    Every branch ends in one of two leaves.  Without a visitor, a node
    with one or two edges left places none of them: from its free
    candidates F and cluster candidates J it counts them in closed form
    (counted).  With one left, |F| go into stratum t and |J| into t + 1.
    With two left, a pair from F not linked stays in stratum t,
    C(|F|, 2) - ge2(F) of them; a pair from F sharing exactly two
    vertices, eq2(F), opens a cluster, as does a member of F with one of
    J it is not linked to, |F| |J| - (ge2(F | J) - ge2(F) - ge2(J)),
    into t + 1; two members of J not linked make t + 2 unless both join
    the same free edge f, C(|J|, 2) - ge2(J) - sum over f of
    (C(|J_f|, 2) - ge2(J_f)), J_f = J & link_rows(f)[0].  ge2 and eq2
    are the pool's pairs sharing at least two and exactly two vertices
    (index.shared_pairs); strata past cap get nothing, and a count of
    zero adds no key.  Every other branch ends at a complete m-subset,
    one at a time (whole): the root prefix at m = depth, or, with a
    visitor, each candidate at the last level, over the set bits of F
    and then J.  whole adds a weight, 1 unless said otherwise, to the
    subset's stratum and, with a visitor, weight times the statistics
    visit returns for it.  Where the root prefix leaves one edge,
    m = depth + 1 (the audit at m = 4), the window is the whole edge
    space and F and J are read off the prefix's link rows, so both are
    unions of orbits of the prefix's stabiliser, and the subset's
    stratum and statistics are the same across an orbit.  There F and J
    are masked to the representatives of stabiliser_orbits(index, ids),
    each visited once with its orbit's size as weight; sizes that do not
    add up to the edges left raise AssertionError.  Deeper nodes are not
    weighted: their window, the edges after the last one placed, is no
    union of orbits.  Below two edges or below r = 3 no two edges are
    linked, and every m-subset is linear.

    Each prefix the walk reaches, at most three edges, is classified
    whole as hypergraphs.classify does: hypergraphs.linked_pairs reads
    its linked pairs off its edges' shared vertices, or None when two
    share three or more, and plus_violation applies the rule to them.  A
    prefix that is not plus has nothing walked under it.  At m = depth
    the prefix is the whole subset, a leaf, and no link row is built.
    Below m the prefix edges' link rows are folded into the three masks
    once, and extend goes on from there with the m - depth edges left.
    The union-find oracle tests (tests/test_census.py) hold the search
    to every m-subset's signature at depth 2, and with a visitor at
    depth 3;
    test_rooted_audit_matches_an_unrooted_sweep (tests/test_switching.py)
    holds the audit at depth 3, at m = 3 and 4.

    visit, when given, is called by whole, and only there, on every plus
    m-subset that holds a root prefix (at m = depth + 1, on one per
    orbit of the prefix's stabiliser), with its sorted edge ids and t,
    and returns a dict of further additive statistics, keyed apart from
    the integer strata; they are weighted like the strata and returned
    beside them.  Below two edges nothing is visited.

    The search is metered, not priced: one work count, refused with
    WorkCeilingError as soon as it passes work_ceiling, reporting the
    work done.  It adds 1 per extend call, a counted node's included;
    at a leaf, 1 per subset counted, in closed form or by whole, or
    C(m, 2) per subset whole visits, whatever its weight, for its pair
    checks, and, when counted takes two edges, 1 per candidate, so that
    node costs what placing each candidate and counting the edges after
    it would; and sigma_r per pass over the edge space made on the
    search's behalf, read off index.edge_reads: a link-row build, a
    stabiliser_orbits call in _orbit_mean's walk or under a root prefix
    that leaves one edge, a compat_stats call in the visitor.  When
    counted will take two edges, the count starts at index.mask_price,
    sigma_r per subset mask the table may hold, and a price above
    work_ceiling is refused ("needs more than") before the walk and
    before any mask is built.  The count is checked once per extend
    call, on entry to rooted and after each whole subset.  A prefix's
    rows follow at least depth stabiliser passes, so at most
    work_ceiling / sigma_r link rows, about work_ceiling / 4 bytes, are
    ever built.
    """
    if m < 2 or index.r < 3:
        return {0: math.comb(index.count, m)}
    edges = index.edges
    link_rows = index.link_rows
    depth = 2 if visit is None else min(m, 3)
    leaf = 1 if visit is None else m * (m - 1) // 2
    # the search's own units; edge reads made before it began are not its work
    done, limit = 0, work_ceiling + index.edge_reads
    if visit is None and m >= depth + 2:
        # the subset masks counted reads, priced before the walk can build them
        done = index.mask_price
        if done > work_ceiling:
            raise WorkCeilingError(done, work_ceiling, "census", unit="work units", verb="needs more than")

    def charge(work: int) -> None:
        nonlocal done
        done += work
        if done + index.edge_reads > limit:
            spent = done + index.edge_reads - limit + work_ceiling
            raise WorkCeilingError(spent, work_ceiling, "census", unit="work units", verb="stopped after")

    def whole(strata: Counter, ids: tuple, t: int, weight: int = 1) -> None:
        # one complete m-subset standing for weight of them: its stratum,
        # then the visitor's statistics
        strata[t] += weight
        if visit is not None:
            for key, value in visit(tuple(sorted(ids)), t).items():
                strata[key] += weight * value
        charge(leaf)

    def counted(strata: Counter, fresh: int, joins: int, free: tuple, t: int, left: int) -> int:
        # the last one or two edges in closed form, into strata t to t + left
        # (the docstring gives the counts); returns the units to charge
        f, j = fresh.bit_count(), joins.bit_count()
        if left == 1:
            counts = [f, j]
        else:
            shared = index.shared_pairs
            f_ge2, f_eq2 = shared(fresh)
            counts = [f * (f - 1) // 2 - f_ge2, f_eq2 if t < cap else 0, 0]
            if joins:
                j_ge2 = shared(joins)[0]
                counts[1] += f * j - (shared(fresh | joins)[0] - f_ge2 - j_ge2)
                if t + 2 <= cap:
                    counts[2] = j * (j - 1) // 2 - j_ge2
                    for g in free:
                        alike = joins & link_rows(g)[0]
                        k = alike.bit_count()
                        if k > 1:
                            counts[2] -= k * (k - 1) // 2 - shared(alike)[0]
        for s, c in enumerate(counts):
            if c:
                strata[t + s] += c
        return sum(counts) + (f + j if left == 2 else 0)

    def extend(strata: Counter, window: int, blocked: int, twice: int, cblock: int,
               free: tuple, t: int, ids: tuple, left: int) -> None:
        # the hot path: it charges inline and calls charge only to refuse
        nonlocal done
        # the window's candidates: the free ones, and while t < cap those opening a cluster
        fresh = window & ~blocked
        joins = window & blocked & ~(twice | cblock) if t < cap else 0
        if visit is None and left <= 2:
            charge(1 + counted(strata, fresh, joins, free, t, left))
            return
        done += 1
        if done + index.edge_reads > limit:
            charge(0)
        if left == 1:
            # only with a visitor: the last edge is placed, one whole subset
            # each; under the root prefix, one per orbit of its stabiliser
            weights = {}
            if m == depth + 1:
                weights = dict(_covering_orbits(index, ids))
                reps = _bitmask(sorted(weights))
                fresh, joins = fresh & reps, joins & reps
            for cands, s in ((fresh, t), (joins, t + 1)):
                while cands:
                    low = cands & -cands
                    cands ^= low
                    i = low.bit_length() - 1
                    whole(strata, ids + (i,), s, weights.get(i, 1))
            return
        # window & -(low << 1) keeps the window's edges after i
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            i = low.bit_length() - 1
            once, two = link_rows(i)
            after, blocked_i, twice_i = window & -(low << 1), blocked | once, twice | (blocked & once) | two
            extend(strata, after, blocked_i, twice_i, cblock, free + (i,), t, ids + (i,), left - 1)
        while joins:
            low = joins & -joins
            joins ^= low
            i = low.bit_length() - 1
            f = next(g for g in free if link_rows(g)[0] & low)
            once, two = link_rows(i)
            after, blocked_i, twice_i = window & -(low << 1), blocked | once, twice | (blocked & once) | two
            clustered = cblock | once | link_rows(f)[0]
            extend(strata, after, blocked_i, twice_i, clustered, tuple(g for g in free if g != f), t + 1,
                   ids + (i,), left - 1)

    def rooted(ids: tuple[int, ...]):
        charge(0)  # the stabiliser passes that reached this prefix
        # the plus rule on the prefix's shared vertices, as classify applies it
        linked = linked_pairs([edges[i] for i in ids])
        if linked is None or plus_violation(linked, cap) is not None:
            return None
        if len(ids) < depth:
            return {}
        t = len(linked)
        strata: Counter = Counter()
        if m == depth:
            # the prefix is the whole subset: no link row is built
            whole(strata, ids, t)
            return strata
        paired = {x for pair in linked for x in pair}
        blocked = twice = cblock = 0
        for x, i in enumerate(ids):
            once, two = link_rows(i)
            twice |= (blocked & once) | two
            blocked |= once
            if x in paired:
                cblock |= once
        free = tuple(i for x, i in enumerate(ids) if x not in paired)
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
    edge_count, index = _guard(pv, r, m, work_ceiling)
    if index is None:
        return math.comb(edge_count, m)
    return _plus_strata(index, m, 0, work_ceiling=work_ceiling)[0]


def count_linear_naive(
    pv: PartitionVector,
    r: int,
    m: int,
    work_ceiling: int = DEFAULT_WORK_CEILING,
) -> int:
    """Filter every m-subset for pairwise overlaps <= 1.

    Deliberately independent of count_linear: it reads the vertex sets
    of edge_space as bitmasks and builds no edge index, no occupant
    lists or link rows and no overlap matrix, and it does no pruning
    and no orbit rooting.  Two edges overlap in two or more vertices exactly when
    their common mask has more than one bit set.  The price is its own full sweep, sigma_r
    + binomial(sigma_r, m) * C(m, 2) pair checks, exact when it is
    admitted; a refusal may report a lower bound on it instead, as
    C(sigma_r, i) rises with i up to min(m, sigma_r - m), where it
    reaches binomial(sigma_r, m), and the first partial product whose
    price passes work_ceiling refuses the call.  So no refusal waits on
    the full binomial.  Kept as a cross-check oracle for the fast path.
    """
    edge_count = sigma(pv, r)
    check_m(m, edge_count)
    pairs = m * (m - 1) // 2
    steps = min(m, edge_count - m) if pairs else 0
    subsets, i = 1, 0
    work = edge_count + pairs
    while i < steps and work <= work_ceiling:
        subsets = subsets * (edge_count - i) // (i + 1)
        i += 1
        work = edge_count + subsets * pairs
    if work > work_ceiling:
        verb = "needs about" if i == steps else "needs more than"
        raise WorkCeilingError(work, work_ceiling, "census", verb=verb)
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


def _decimal(x: int) -> str:
    """x >= 0 in decimal at any length: str() refuses an int past 4,300 digits, so a longer x is split."""
    if x < 10 ** FIGURE_DIGITS:
        return str(x)
    low_digits = int(x.bit_length() * math.log10(2)) // 2
    high, low = divmod(x, 10 ** low_digits)
    return _decimal(high) + _decimal(low).zfill(low_digits)


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
            "total": _decimal(self.total),
            "linear": _decimal(self.linear),
            "by_cluster": {str(t): _decimal(c) for t, c in sorted(self.by_cluster.items())},
            "not_plus": _decimal(self.not_plus),
            "cluster_cap": str(self.cluster_cap),
        }


def census_by_cluster(
    pv: PartitionVector,
    r: int,
    m: int,
    work_ceiling: int = DEFAULT_WORK_CEILING,
) -> CensusResult:
    """Stratify the m-subsets of the edge space by plus-search cluster count."""
    edge_count, index = _guard(pv, r, m, work_ceiling)
    cap = cluster_threshold(pv, r, m)
    by_cluster = None if index is None else _plus_strata(index, m, cap, work_ceiling=work_ceiling)
    # taken after the metered search, which a refusal never waits on
    total = math.comb(edge_count, m)
    if by_cluster is None:
        by_cluster = {0: total}
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
