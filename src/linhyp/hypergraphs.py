"""Multipartite edges, hypergraphs, cluster structure, and classification.

An edge is an r-set of vertices touching each part at most once.  Two
edges are "linked" when they share at least two vertices; the connected
components with two or more edges in that relation are the clusters.  A
hypergraph is "plus-classified" with t clusters when every cluster is a
pair of edges sharing exactly two vertices and t stays below the cluster
expansion threshold.  With no pair sharing three or more vertices, that
holds exactly when no edge lies in two linked pairs, and then t is the
number of linked pairs; plus_violation is this rule, shared by classify,
EdgeSpaceIndex.classify_combo and the census's plus search
(census._plus_strata).  linked_pairs is the one overlap rule on vertex
sets: it lists the pairs sharing exactly two vertices, or refuses a pair
sharing three or more, for classify, is_linear and the search's root
prefix of at most three edges.  The search then applies
the same rule one edge at a time, on bitmasks of the edges that meet
one, two or a clustered vertex pair of its selection, and is held to
the oracle montecarlo.cluster_signature by a property test; the
switching audit walks that search and re-checks each subset it visits
with classify_combo.  classify is the one place that finds a
hypergraph's clusters: it returns them as edge pairs, and the switching
moves read them from it.  The sampler's montecarlo.classify_rows
applies the same rule, in the same order of reasons, to arrays.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product, starmap
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError
from .partitions import PartitionVector, sigmas

OVERLAP_GE3 = "overlap_ge3"
CLUSTER_GT2_EDGES = "cluster_gt2_edges"
TOO_MANY_CLUSTERS = "too_many_clusters"


class Edge(NamedTuple):
    """Sorted vertex tuple plus the (derived) tuple of part indices."""

    vertices: tuple[int, ...]
    parts: tuple[int, ...]


def make_edge(pv: PartitionVector, vertices: Iterable[int]) -> Edge:
    """Validate and build an edge: distinct integer vertices, one per part at most.

    Vertices are canonicalised with operator.index, as PartitionVector
    does its sizes: numpy integers become ints, and floats or strings are
    refused rather than truncated or parsed.
    """
    try:
        vs = tuple(sorted(map(operator.index, vertices)))
    except TypeError:
        raise DomainError(f"edge vertices must be integers, got {vertices!r}") from None
    if len(set(vs)) != len(vs):
        raise DomainError(f"repeated vertex in edge {vs}")
    parts = tuple(pv.part_of(v) for v in vs)
    if len(set(parts)) != len(parts):
        raise DomainError(f"edge {vs} uses a part twice")
    return Edge(vs, parts)


@dataclass(frozen=True)
class Hypergraph:
    """An m-subset of the edge space over a fixed partition vector."""

    pv: PartitionVector
    r: int
    edges: frozenset[Edge]

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=lambda e: e.vertices))


def hypergraph(pv: PartitionVector, r: int, vertex_sets: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a hypergraph from vertex collections, rejecting duplicates."""
    if not 0 <= r <= pv.k:
        raise DomainError(f"edge size {r} outside 0..{pv.k}")
    edges = []
    seen = set()
    for vs in vertex_sets:
        e = make_edge(pv, vs)
        if len(e.vertices) != r:
            raise DomainError(f"edge {e.vertices} has size {len(e.vertices)}, expected {r}")
        if e.vertices in seen:
            raise DomainError(f"duplicate edge {e.vertices}")
        seen.add(e.vertices)
        edges.append(e)
    return Hypergraph(pv, r, frozenset(edges))


def edge_tuples(pv: PartitionVector, r: int) -> list[tuple[int, ...]]:
    """Sorted vertex tuples of all edges, in lexicographic order.

    Parts are consecutive blocks of vertex ids, so the product of r part
    ranges, taken in part order, yields sorted tuples; one sort of all of
    them gives the canonical enumeration order used everywhere else in
    the package.  Built by C-level iterators, with no object per edge.
    """
    if not 0 <= r <= pv.k:
        raise DomainError(f"edge size {r} outside 0..{pv.k}")
    ranges = [pv.part_vertices(p) for p in range(pv.k)]
    return sorted(chain.from_iterable(starmap(product, combinations(ranges, r))))


def edge_space(pv: PartitionVector, r: int) -> Iterator[Edge]:
    """All edges in lexicographic order of their sorted vertex tuples.

    The stream has sigma(pv, r) members, in the order of edge_tuples.
    """
    tuples = edge_tuples(pv, r)
    part = pv.vertex_part.__getitem__
    return (Edge(vs, tuple(map(part, vs))) for vs in tuples)


def linked_pairs(vertex_sets: Iterable[Iterable[int]]) -> list[tuple[int, int]] | None:
    """Index pairs (x, y), x < y, of the vertex sets sharing exactly two vertices.

    None when two of them share three or more.  The one overlap rule:
    classify, is_linear and the census's root prefixes
    (census._plus_strata) read their linked pairs from it.
    """
    linked = []
    for (x, a), (y, b) in combinations(enumerate(map(frozenset, vertex_sets)), 2):
        shared = len(a & b)
        if shared == 2:
            linked.append((x, y))
        elif shared > 2:
            return None
    return linked


def is_linear(h: Hypergraph) -> bool:
    """True when every pair of edges shares at most one vertex."""
    return linked_pairs(e.vertices for e in h.edges) == []


@functools.lru_cache(maxsize=256)
def cluster_threshold(pv: PartitionVector, r: int, m: int) -> int:
    """Cap on the cluster count for plus-classification.

    ceil(ln n + 56 sigma_{r-2}^2 sigma_2 m^2 / sigma_r^2), with the
    rational part kept exact and only ln n in floating point, so the
    ceiling cannot drift.  Cached: every switching move and census asks
    for it.
    """
    if not 2 <= r <= pv.k:
        raise DomainError(f"need 2 <= r <= k, got r={r}, k={pv.k}")
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    sig = sigmas(pv, r)
    rational = Fraction(56 * sig[r - 2] ** 2 * sig[2] * m * m, sig[r] * sig[r])
    return math.ceil(rational + Fraction(math.log(pv.n)))


@dataclass(frozen=True)
class Classification:
    """Outcome of the plus test: cluster count, or the failure reason.

    pairs holds the clusters of a plus hypergraph, each as its two edges
    in sorted order, listed in sorted order of their first edges; it is
    empty when the hypergraph is not plus.
    """

    in_plus: bool
    clusters: int | None
    reason: str | None
    pairs: tuple[tuple[Edge, Edge], ...] = ()


def plus_violation(linked_pairs: list[tuple[int, int]], cap: int) -> str | None:
    """The plus rule, for a subset with no pair sharing three or more vertices.

    linked_pairs lists the index pairs of edges sharing exactly two
    vertices.  Returns CLUSTER_GT2_EDGES when an edge lies in two of them
    (its cluster has three or more edges), TOO_MANY_CLUSTERS when there
    are more than cap of them, else None: the subset is plus with
    len(linked_pairs) clusters.
    """
    seen: set[int] = set()
    for x, y in linked_pairs:
        if x in seen or y in seen:
            return CLUSTER_GT2_EDGES
        seen.add(x)
        seen.add(y)
    if len(linked_pairs) > cap:
        return TOO_MANY_CLUSTERS
    return None


def shared_pair_counts(t_by_alpha, r: int):
    """Edge pairs sharing >= 2 and exactly 2 vertices, by binomial inversion.

    t_by_alpha[alpha], for alpha = 2..r-1, counts the unordered edge
    pairs containing each alpha-subset of vertices, summed over the
    subsets: T_alpha = sum_j C(j, alpha) N_j over the N_j pairs sharing
    exactly j vertices.  Inverted, N_j = sum_alpha (-1)^(alpha-j)
    C(alpha, j) T_alpha, and summing over j >= 2 gives two closed sums:
    sum_{j>=2} N_j = sum_alpha (-1)^alpha (alpha - 1) T_alpha and
    N_2 = sum_alpha (-1)^alpha C(alpha, 2) T_alpha.  Returns the pair;
    works on ints and elementwise on integer arrays.
    """
    n_ge2 = n_eq2 = 0
    for alpha in range(2, r):
        signed = t_by_alpha[alpha] if alpha % 2 == 0 else -t_by_alpha[alpha]
        n_ge2 += (alpha - 1) * signed
        n_eq2 += alpha * (alpha - 1) // 2 * signed
    return n_ge2, n_eq2


def classify(h: Hypergraph, cap: int) -> Classification:
    """Plus-classify a hypergraph against a cluster-count cap.

    Failure reasons, checked in this order: a pair of edges overlapping
    in three or more vertices, a cluster with more than two edges, more
    than cap clusters.  A plus hypergraph's clusters are its linked
    pairs; they come back in Classification.pairs, and the switching
    code reads them from there.
    """
    order = h.sorted_edges()
    linked = linked_pairs(e.vertices for e in order)
    if linked is None:
        return Classification(False, None, OVERLAP_GE3)
    reason = plus_violation(linked, cap)
    if reason is not None:
        return Classification(False, None, reason)
    pairs = tuple((order[i], order[j]) for i, j in linked)
    return Classification(True, len(pairs), None, pairs)


def to_text(h: Hypergraph) -> str:
    """Canonical text form: a parts header then one sorted edge per line."""
    lines = ["parts: " + ",".join(str(s) for s in h.pv.sizes)]
    for e in h.sorted_edges():
        lines.append(",".join(str(v) for v in e.vertices))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    """Parse the canonical text form back into a hypergraph."""

    def integers(line: str) -> list[int]:
        try:
            return [int(x) for x in line.split(",")]
        except ValueError:
            raise DomainError(f"expected comma-separated integers, got {line!r}") from None

    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("parts:"):
        raise DomainError("expected a 'parts:' header line")
    pv = PartitionVector(tuple(integers(lines[0].split(":", 1)[1])))
    vertex_sets = [integers(ln) for ln in lines[1:]]
    if vertex_sets:
        r = len(vertex_sets[0])
    else:
        r = 0
    return hypergraph(pv, r, vertex_sets)
