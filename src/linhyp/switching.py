"""Switchings between cluster strata, their counts, and series bounds.

A forward move removes one two-edge cluster and appends two edges that
are link-free against everything kept; a reverse move removes an ordered
pair of link-free edges and inserts an unordered pair overlapping in
exactly two vertices.  The two move sets biject, which bijection_audit
verifies by aggregate counting with both sides computed independently.

Clusters come from hypergraphs.classify (Classification.pairs) for one
hypergraph, and from EdgeSpaceIndex.classify_combo in the audit, on each
m-subset the census's plus search (census._plus_strata) visits: the plus
m-subsets that hold a root triple (a root pair at m = 2), one ordered
triple per orbit, each edge a representative of the orbits of the
stabiliser of the edges before it (census.stabiliser_orbits).  The move
counts are written once, in _forward_total and _reverse_total.
classify also decides whether a given move is valid: apply_forward
accepts it exactly when the result has one cluster fewer, apply_reverse
exactly when the inserted pair is one of the result's clusters.  The
enumerations scan the edge space by vertex sets, once per kept set, and
stay independent of EdgeSpaceIndex, so that they cross-check the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Iterable, NamedTuple

from .asymptotics import cluster_mean
from .census import DEFAULT_WORK_CEILING, EdgeSpaceIndex, _guard, _plus_strata, census_by_cluster
from .errors import DomainError
from .hypergraphs import (
    Classification,
    Edge,
    Hypergraph,
    classify,
    cluster_threshold,
    edge_space,
)
from .partitions import PartitionVector, sigmas


class ForwardMove(NamedTuple):
    """Cluster to delete (unordered) and ordered replacement pair."""

    cluster: frozenset[Edge]
    replacement: tuple[Edge, Edge]


class ReverseMove(NamedTuple):
    """Ordered pair of link-free edges to delete and cluster to insert."""

    removed: tuple[Edge, Edge]
    inserted: frozenset[Edge]


def _classified(h: Hypergraph, cap: int | None = None) -> Classification:
    if cap is None:
        cap = cluster_threshold(h.pv, h.r, h.m)
    cls = classify(h, cap)
    if not cls.in_plus:
        raise DomainError(f"hypergraph is not plus-classified ({cls.reason})")
    return cls


def _candidates(h: Hypergraph, removals: Iterable[tuple[Edge, Edge]]):
    """(removed, stage) per removal: the edges linked to no edge h keeps.

    stage holds (edge, vertex set) pairs in edge-space order; the edge
    space is scanned once per kept set, each vertex set built once.
    """
    pool = [(x, frozenset(x.vertices)) for x in edge_space(h.pv, h.r)]
    for removed in removals:
        kept = [frozenset(g.vertices) for g in h.edges if g not in removed]
        yield removed, [(x, vs) for x, vs in pool if all(len(vs & g) <= 1 for g in kept)]


def _swapped(h: Hypergraph, removed, inserted) -> Hypergraph:
    """h with removed swapped for inserted; refused unless m edges of size r remain."""
    edges = (h.edges - set(removed)) | set(inserted)
    if len(edges) != h.m or any(len(x.vertices) != h.r for x in edges):
        raise DomainError(f"a move must leave {h.m} distinct edges of size {h.r}")
    return Hypergraph(h.pv, h.r, frozenset(edges))


def enumerate_forward(h: Hypergraph) -> list[ForwardMove]:
    """All forward moves available from a plus hypergraph with clusters."""
    cls = _classified(h)
    if cls.clusters == 0:
        raise DomainError("no cluster to switch away")
    moves: list[ForwardMove] = []
    for pair, stage in _candidates(h, cls.pairs):
        cluster = frozenset(pair)
        moves += [
            ForwardMove(cluster, (e1, e2))
            for (e1, v1), (e2, v2) in permutations(stage, 2)
            if len(v1 & v2) <= 1
        ]
    return moves


def apply_forward(h: Hypergraph, move: ForwardMove) -> Hypergraph:
    """Perform one forward move, validated by classify alone.

    The cluster must be one of h's, and the result must have one cluster
    fewer.  The kept edges hold the other clusters, so that happens
    exactly when neither replacement edge is linked to a kept edge or to
    the other one.
    """
    cap = cluster_threshold(h.pv, h.r, h.m)
    cls = _classified(h, cap)
    if tuple(sorted(move.cluster)) not in cls.pairs:
        raise DomainError("selected pair is not a cluster of the hypergraph")
    out = _swapped(h, move.cluster, move.replacement)
    if _classified(out, cap).clusters != cls.clusters - 1:
        raise DomainError("a replacement edge shares a link")
    return out


def enumerate_reverse(h: Hypergraph) -> list[ReverseMove]:
    """All reverse moves available from a plus hypergraph."""
    clustered = {e for pair in _classified(h).pairs for e in pair}
    free = [e for e in h.sorted_edges() if e not in clustered]
    inserts = {
        frozenset(pair): [
            frozenset({x, y}) for (x, vx), (y, vy) in combinations(stage, 2) if len(vx & vy) == 2
        ]
        for pair, stage in _candidates(h, combinations(free, 2))
    }
    return [
        ReverseMove((e1, e2), inserted)
        for e1, e2 in permutations(free, 2)
        for inserted in inserts[frozenset((e1, e2))]
    ]


def apply_reverse(h: Hypergraph, move: ReverseMove) -> Hypergraph:
    """Perform one reverse move, validated by classify alone.

    The removed edges must be two distinct link-free edges of h, and the
    inserted pair must be a cluster of the result.  The kept edges hold
    h's clusters and link nothing else, so the result then has one
    cluster more.
    """
    cap = cluster_threshold(h.pv, h.r, h.m)
    cls = _classified(h, cap)
    clustered = {e for pair in cls.pairs for e in pair}
    e1, e2 = move.removed
    if e1 == e2 or not {e1, e2} <= h.edges - clustered:
        raise DomainError("removed edges must be two distinct link-free members")
    out = _swapped(h, move.removed, move.inserted)
    if tuple(sorted(move.inserted)) not in _classified(out, cap).pairs:
        raise DomainError("the inserted pair is not a cluster of the result")
    return out


def _plus_ids(h: Hypergraph, cls: Classification, index: EdgeSpaceIndex):
    """(ids, clusters, free): h's edges, cluster pairs and free edges as index ids.

    cls is h's plus classification (_classified), taken before the
    caller builds an index.  Raises DomainError when an edge lies outside
    the edge space.  Ids follow sorted vertex tuples, as classify does.
    """
    position = index.position
    try:
        ids = tuple(sorted(position[e.vertices] for e in h.edges))
    except KeyError as exc:
        raise DomainError(f"edge {exc.args[0]} outside the edge space") from exc
    clusters = tuple((position[a.vertices], position[b.vertices]) for a, b in cls.pairs)
    paired = {i for pair in clusters for i in pair}
    return ids, clusters, tuple(i for i in ids if i not in paired)


def _forward_total(stats, combo: tuple[int, ...], clusters) -> int:
    """Forward moves from combo, summed over its clusters.

    A cluster (a, b) is replaced by an ordered pair of distinct edges
    that are compatible with the rest of combo and not linked to each
    other.  stats(h0) returns EdgeSpaceIndex.compat_stats(h0).
    """
    total = 0
    for a, b in clusters:
        size, n_ge2, _ = stats(tuple(i for i in combo if i != a and i != b))
        total += size * (size - 1) - 2 * n_ge2
    return total


def _reverse_total(stats, combo: tuple[int, ...], free) -> int:
    """Reverse moves from combo, summed over unordered pairs of free edges.

    Each pair, removed in either order, is replaced by a compatible pair
    sharing exactly two vertices.  stats is as in _forward_total.
    """
    total = 0
    for g1, g2 in combinations(free, 2):
        total += 2 * stats(tuple(i for i in combo if i != g1 and i != g2))[2]
    return total


def count_forward_moves(h: Hypergraph, index: EdgeSpaceIndex | None = None) -> int:
    """|forward moves| without materializing them (cross-checked in tests).

    h is classified, and refused, before any index is built.
    """
    cls = _classified(h)
    if not cls.pairs:
        raise DomainError("no cluster to switch away")
    index = index or EdgeSpaceIndex(h.pv, h.r)
    ids, clusters, _ = _plus_ids(h, cls, index)
    return _forward_total(index.compat_stats, ids, clusters)


def count_reverse_moves(h: Hypergraph, index: EdgeSpaceIndex | None = None) -> int:
    """|reverse moves| without materializing them (cross-checked in tests).

    h is classified, and refused, before any index is built.
    """
    cls = _classified(h)
    index = index or EdgeSpaceIndex(h.pv, h.r)
    ids, _, free = _plus_ids(h, cls, index)
    return _reverse_total(index.compat_stats, ids, free)


@dataclass(frozen=True)
class CountBrackets:
    """Exact lower and upper brackets for the per-hypergraph move counts."""

    forward_low: Fraction
    forward_high: Fraction
    reverse_low: Fraction
    reverse_high: Fraction


def count_brackets(pv: PartitionVector, r: int, m: int, t: int) -> CountBrackets:
    """Brackets for |forward moves| on stratum t and |reverse moves| below.

    The upper brackets are the plain product counts; the lower brackets
    subtract the explicit overcount bounds (linked candidates against
    kept edges, inserted pairs overlapping in three or more vertices,
    inserted edges sharing a link with a kept edge).
    """
    if not 3 <= r <= pv.k:
        raise DomainError(f"need 3 <= r <= k, got r={r}, k={pv.k}")
    if t < 1 or m < 2 * t:
        raise DomainError(f"stratum t={t} needs m >= 2t, got m={m}")

    sig = sigmas(pv, r)
    s_r, s_1, s_2 = sig[r], sig[1], sig[2]
    s_rm2, s_rm3 = sig[r - 2], sig[r - 3]
    s_rm4 = sig[r - 4] if r >= 4 else 0  # a negative order reads as 0
    pair_per_edge = math.comb(r, 2)

    fwd_hi = Fraction(t * s_r * s_r)
    first = max(0, s_r - pair_per_edge * (m - 2) * s_rm2)
    second = max(0, s_r - 1 - pair_per_edge * (m - 1) * s_rm2)
    fwd_lo = Fraction(t * first * second)

    removals = 2 * math.comb(m - 2 * (t - 1), 2)
    insert_hi = Fraction(s_2 * s_rm2 * s_rm2, 2)
    overcount = (
        Fraction(r, 2) * s_2 * s_rm2 * s_rm3
        + m * r * r * (s_rm2 * s_rm2 + s_1 * s_rm3 * s_rm2 + s_2 * s_rm4 * s_rm2)
    )
    rev_hi = removals * insert_hi
    rev_lo = max(Fraction(0), removals * (insert_hi - overcount))
    return CountBrackets(fwd_lo, fwd_hi, rev_lo, rev_hi)


@dataclass(frozen=True)
class AuditStratum:
    """One row of the switching audit, pairing stratum t with t-1.

    ratio_formula is the ratio of the upper brackets,
    brackets.reverse_high / brackets.forward_high.
    """

    t: int
    count_t: int
    count_prev: int
    sum_forward: int
    sum_reverse: int
    matched: bool
    ratio_exact: Fraction | None
    ratio_formula: Fraction
    forward_measured: tuple[int, int] | None
    reverse_measured: tuple[int, int] | None
    brackets: CountBrackets

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "count_t": str(self.count_t),
            "count_prev": str(self.count_prev),
            "sum_forward": str(self.sum_forward),
            "sum_reverse": str(self.sum_reverse),
            "matched": self.matched,
            "ratio_exact": None if self.ratio_exact is None else str(self.ratio_exact),
            "ratio_formula": str(self.ratio_formula),
            "forward_measured": self.forward_measured,
            "reverse_measured": self.reverse_measured,
            "forward_bracket": [str(self.brackets.forward_low), str(self.brackets.forward_high)],
            "reverse_bracket": [str(self.brackets.reverse_low), str(self.brackets.reverse_high)],
        }


@dataclass(frozen=True)
class AuditReport:
    """Aggregate switching audit over every m-subset of one instance.

    Strata, not_plus and the move sums are totals over every m-subset,
    computed from the plus subsets that hold a root triple (a root pair
    at m = 2); the measured
    ranges are taken over those subsets, which meet every orbit of plus
    hypergraphs.
    """

    sizes: tuple[int, ...]
    r: int
    m: int
    cluster_cap: int
    strata: dict[int, int]
    not_plus: int
    records: tuple[AuditStratum, ...]

    @property
    def all_matched(self) -> bool:
        return all(rec.matched for rec in self.records)

    def to_json_dict(self) -> dict:
        return {
            "parts": list(self.sizes),
            "r": self.r,
            "m": self.m,
            "cluster_cap": str(self.cluster_cap),
            "strata": {str(t): str(c) for t, c in sorted(self.strata.items())},
            "not_plus": str(self.not_plus),
            "all_matched": self.all_matched,
            "records": [rec.to_json_dict() for rec in self.records],
        }


def bijection_audit(
    pv: PartitionVector,
    r: int,
    m: int,
    work_ceiling: int = DEFAULT_WORK_CEILING,
) -> AuditReport:
    """Count both move sets independently over the whole subset space.

    For every plus hypergraph the forward moves are counted per cluster
    and the reverse moves per link-free pair; the audit then reports,
    per stratum t, the forward total from stratum t against the reverse
    total from stratum t-1, which an exact bijection forces to agree.
    The subsets are those census._plus_strata visits: every quantity is
    invariant under the partition's automorphisms, so at m >= 3 the
    search walks only the plus m-subsets that hold a root triple, one
    per orbit of ordered edge triples, and weights strata and move sums
    by the triple orbit's size over m(m - 1)(m - 2) exactly
    (census._orbit_mean); at m = 2 it walks one root pair per orbit of
    ordered pairs.  not_plus is the rest of the subset total.  Each
    visited subset is classified again by EdgeSpaceIndex.classify_combo,
    which reads the overlap matrix, not the search's pair and link rows;
    a reason or a cluster count that differs from the search's raises
    AssertionError.  The per-hypergraph ranges are taken over the
    visited subsets unweighted: any three edges of a hypergraph (two at
    m = 2) can be carried to a root triple, so every orbit of
    hypergraphs has a member there.
    """
    total, index = _guard(pv, r, m, work_ceiling, cat=True)
    cap = cluster_threshold(pv, r, m)
    measured: dict[tuple[str, int], tuple[int, int]] = {}
    stats = None if index is None else cache(index.compat_stats)

    def visit(combo: tuple[int, ...], t: int) -> dict:
        got, reason, clusters, free = index.classify_combo(combo, cap)
        if reason is not None or got != t:
            raise AssertionError(f"{combo}: the plus search gives t={t}, classify_combo {got} ({reason})")
        tally = {}
        if t >= 1:
            tally["forward", t] = _forward_total(stats, combo, clusters)
        tally["reverse", t] = _reverse_total(stats, combo, free)
        for key, value in tally.items():
            lo, hi = measured.setdefault(key, (value, value))
            if not lo <= value <= hi:
                measured[key] = (min(lo, value), max(hi, value))
        return tally

    totals = {0: total} if index is None else _plus_strata(index, m, cap, visit, work_ceiling)
    counts = {t: c for t, c in totals.items() if isinstance(t, int) and c}

    records = []
    for t in range(1, m // 2 + 1):
        count_t = counts.get(t, 0)
        count_prev = counts.get(t - 1, 0)
        sum_fwd = totals.get(("forward", t), 0)
        sum_rev = totals.get(("reverse", t - 1), 0)
        brackets = count_brackets(pv, r, m, t)
        records.append(
            AuditStratum(
                t=t,
                count_t=count_t,
                count_prev=count_prev,
                sum_forward=sum_fwd,
                sum_reverse=sum_rev,
                matched=sum_fwd == sum_rev,
                ratio_exact=Fraction(count_t, count_prev) if count_prev else None,
                ratio_formula=brackets.reverse_high / brackets.forward_high,
                forward_measured=measured.get(("forward", t)),
                reverse_measured=measured.get(("reverse", t - 1)),
                brackets=brackets,
            )
        )
    return AuditReport(
        sizes=pv.sizes,
        r=r,
        m=m,
        cluster_cap=cap,
        strata=counts,
        not_plus=total - sum(counts.values()),
        records=tuple(records),
    )


@dataclass(frozen=True)
class SeriesSpec:
    """Term-ratio data for the bounded series: A(i), B(i) for i = 1..N."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    c_hat: float

    @property
    def n_terms(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class SeriesBounds:
    """Terms, their sum, and the closed-form enclosure of the sum."""

    h: tuple[float, ...]
    total: float
    lower: float
    upper: float


def _series_terms(a: Iterable[float], b: Iterable[float]) -> list[float]:
    h = [1.0]
    for i, (ai, bi) in enumerate(zip(a, b), start=1):
        h.append(h[-1] * (ai / i) * (1.0 - (i - 1) * bi))
    return h


def series_sum_bounds(spec: SeriesSpec) -> SeriesBounds:
    """Sum h_0..h_N from the term ratios and enclose it in closed form.

    h_0 = 1 and h_i / h_{i-1} = (A(i)/i)(1 - (i-1)B(i)); once a term
    hits zero everything after stays zero.  Requires A(i) >= 0, the
    bracket factors nonnegative, and max(A_max/N, |AB|) <= c_hat < 1/3;
    then the sum lies between
    exp(A_min - A_min C_max / 2) - (2 e c_hat)^N and
    exp(A_max - A_max C_min / 2 + A_max C_min^2 / 2) + (2 e c_hat)^N.
    """
    n = spec.n_terms
    if n < 2:
        raise DomainError(f"need at least 2 terms, got {n}")
    if len(spec.b) != n:
        raise DomainError("A and B sequences must have equal length")
    if not 0 < spec.c_hat < 1.0 / 3.0:
        raise DomainError(f"need 0 < c_hat < 1/3, got {spec.c_hat}")
    for i, (ai, bi) in enumerate(zip(spec.a, spec.b), start=1):
        if ai < 0:
            raise DomainError(f"A({i}) = {ai} is negative")
        if 1.0 - (i - 1) * bi < 0:
            raise DomainError(f"term factor 1-(i-1)B(i) negative at i={i}")
    a_min, a_max = min(spec.a), max(spec.a)
    products = [ai * bi for ai, bi in zip(spec.a, spec.b)]
    c_min, c_max = min(products), max(products)
    worst = max(a_max / n, abs(c_min), abs(c_max))
    if worst > spec.c_hat:
        raise DomainError(f"need max(A/N, |AB|) <= c_hat, got {worst} > {spec.c_hat}")
    h = _series_terms(spec.a, spec.b)
    total = math.fsum(h)
    tail = (2 * math.e * spec.c_hat) ** n
    lower = math.exp(a_min - a_min * c_max / 2) - tail
    upper = math.exp(a_max - a_max * c_min / 2 + a_max * c_min * c_min / 2) + tail
    slack = 1e-12 * max(1.0, abs(total))
    if not (lower <= total + slack and total <= upper + slack):
        raise AssertionError(f"series sum {total} escaped [{lower}, {upper}]")
    return SeriesBounds(h=tuple(h), total=total, lower=lower, upper=upper)


@dataclass(frozen=True)
class RatioSeriesReport:
    """Model of sum_t |stratum t| / |stratum 0| with optional exact check."""

    a_value: float
    shift: float
    n_terms: int
    t_prime: int
    c_hat: float
    model_sum: float
    h_prefix: tuple[float, ...]
    lower: float | None
    upper: float | None
    applicability: tuple[str, ...]
    exact_sum: Fraction | None
    exact_gap: float | None

    def to_json_dict(self) -> dict:
        return {
            "a_value": self.a_value,
            "shift": self.shift,
            "n_terms": self.n_terms,
            "t_prime": self.t_prime,
            "c_hat": self.c_hat,
            "model_sum": self.model_sum,
            "h_prefix": list(self.h_prefix),
            "lower": self.lower,
            "upper": self.upper,
            "applicability": list(self.applicability),
            "exact_sum": None if self.exact_sum is None else str(self.exact_sum),
            "exact_gap": self.exact_gap,
        }


RATIO_C_HAT = 1.0 / 110.0


def ratio_series(
    pv: PartitionVector,
    r: int,
    m: int,
    t_prime: int | None = None,
    budget_constant: float = 1.0,
    with_census: bool = False,
    work_ceiling: int = DEFAULT_WORK_CEILING,
) -> RatioSeriesReport:
    """Build the stratum-ratio series and, when possible, its enclosure.

    The term ratio uses A(t) = sigma_2 sigma_{r-2}^2 [m]_2 / (2 sigma_r^2)
    with a symmetric uncertainty of budget_constant * (m^2/n^3 + m^3/n^4),
    and B(t) = 2(2m-2t+1)/(m(m-1)) below the cutoff t_prime, 1/(t-1) at
    and above it.  The cutoff defaults to the smallest t whose stratum
    must be empty (2t > m); with_census replaces it by the first stratum
    the exact census finds empty and records the exact ratio sum.  A
    budget_constant that is negative or not finite, or an explicit
    t_prime below 1, raises DomainError before the census runs.
    """
    if not 3 <= r <= pv.k:
        raise DomainError(f"need 3 <= r <= k, got r={r}, k={pv.k}")
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    if not (math.isfinite(budget_constant) and budget_constant >= 0):
        raise DomainError(f"budget constant must be finite and >= 0, got {budget_constant}")
    if t_prime is not None and t_prime < 1:
        raise DomainError(f"cutoff t_prime must be >= 1, got {t_prime}")
    applicability: list[str] = []
    exact_sum: Fraction | None = None
    census = None
    if with_census:
        census = census_by_cluster(pv, r, m, work_ceiling=work_ceiling)
        if census.linear > 0:
            exact_sum = Fraction(sum(census.by_cluster.values()), census.linear)
        else:
            applicability.append("no linear hypergraphs; exact ratio undefined")
        if t_prime is None:
            t = 1
            while census.by_cluster.get(t, 0) > 0:
                t += 1
            t_prime = t
    if m < 2:
        return RatioSeriesReport(
            a_value=0.0,
            shift=0.0,
            n_terms=0,
            t_prime=1,
            c_hat=RATIO_C_HAT,
            model_sum=1.0,
            h_prefix=(1.0,),
            lower=1.0,
            upper=1.0,
            applicability=tuple(applicability),
            exact_sum=exact_sum,
            exact_gap=None if exact_sum is None else 1.0 - float(exact_sum),
        )
    if t_prime is None:
        t_prime = m // 2 + 1

    n_terms = cluster_threshold(pv, r, m)
    a_value = float(cluster_mean(pv, r, m))
    n = pv.n
    shift = budget_constant * (m * m / n ** 3 + m ** 3 / n ** 4)

    def b_of(t: int) -> float:
        if t < t_prime:
            return 2.0 * (2 * m - 2 * t + 1) / (m * (m - 1))
        return 1.0 / (t - 1)

    b_seq = tuple(b_of(t) for t in range(1, n_terms + 1)) if t_prime >= 2 else None
    if t_prime < 2:
        applicability.append("stratum 1 already empty; term-ratio cutoff not expressible")
        h = [1.0] + [0.0] * n_terms
    else:
        h = _series_terms((a_value,) * n_terms, b_seq)
        for t in range(t_prime, n_terms + 1):
            h[t] = 0.0
    model_sum = math.fsum(h)
    prefix_len = min(len(h), t_prime + 1)
    lower = upper = None
    if b_seq is not None:
        a_lo = max(0.0, a_value - shift)
        a_hi = a_value + shift
        try:
            low_bounds = series_sum_bounds(SeriesSpec((a_lo,) * n_terms, b_seq, RATIO_C_HAT))
            high_bounds = series_sum_bounds(SeriesSpec((a_hi,) * n_terms, b_seq, RATIO_C_HAT))
            lower, upper = low_bounds.lower, high_bounds.upper
        except DomainError as exc:
            applicability.append(str(exc))
    return RatioSeriesReport(
        a_value=a_value,
        shift=shift,
        n_terms=n_terms,
        t_prime=t_prime,
        c_hat=RATIO_C_HAT,
        model_sum=model_sum,
        h_prefix=tuple(h[:prefix_len]),
        lower=lower,
        upper=upper,
        applicability=tuple(applicability),
        exact_sum=exact_sum,
        exact_gap=None if exact_sum is None else model_sum - float(exact_sum),
    )
