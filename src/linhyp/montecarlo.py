"""Uniform sampling of edge sets and the linearity hit-rate estimator.

Single edges are drawn exactly uniformly by unranking a uniform index
through the part-suffix product counts, so part subsets come out with
probability proportional to the product of their part sizes.  Trials
are grouped into fixed-size blocks keyed (seed, block) on a counter
RNG, and every sampler draws its m-subsets through _draw_ids, so one
seed pins the same draws everywhere and every report is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .census import EdgeSpaceIndex
from .errors import DomainError, WorkCeilingError
from .hypergraphs import Hypergraph, cluster_threshold, make_edge
from .partitions import PartitionVector, falling_factorial, sigma

BLOCK_TRIALS = 4096
# largest sigma_r^2 for which the sampler builds the edge-pair overlap
# matrix (one byte per ordered edge pair)
SAMPLER_CAT_CEILING = 2 ** 31


def make_rng(seed: int, lane: int = 0) -> np.random.Generator:
    """Counter-based generator for one lane of a seeded experiment."""
    if seed < 0 or lane < 0:
        raise DomainError("seed and lane must be nonnegative")
    return np.random.Generator(np.random.Philox(key=[seed & (2 ** 64 - 1), lane]))


def _randbelow(rng: np.random.Generator, bound: int) -> int:
    if bound <= 0:
        raise DomainError(f"bound must be positive, got {bound}")
    if bound < 2 ** 63:
        return int(rng.integers(0, bound))
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    while True:
        value = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - nbits)
        if value < bound:
            return value


def _blocks(trials: int) -> list[tuple[int, int]]:
    """(block, trials in it): BLOCK_TRIALS per block, the last one short."""
    return [
        (b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
        for b in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)
    ]


def _draw_ids(rng: np.random.Generator, total: int, m: int) -> tuple[int, ...]:
    """Sorted uniform m-subset of range(total): redraw repeats until m distinct."""
    chosen: set[int] = set()
    while len(chosen) < m:
        chosen.add(_randbelow(rng, total))
    return tuple(sorted(chosen))


class EdgeSampler:
    """Canonical-order unranking of one edge space: uniform ids give uniform edges."""

    def __init__(self, pv: PartitionVector, r: int):
        if not 1 <= r <= pv.k:
            raise DomainError(f"need 1 <= r <= k, got r={r}, k={pv.k}")
        self.pv = pv
        self.r = r
        # suffix[i][j] = weighted count of j-part choices among parts i..k-1
        suffix = [[0] * (r + 1) for _ in range(pv.k + 1)]
        suffix[pv.k][0] = 1
        for i in range(pv.k - 1, -1, -1):
            suffix[i][0] = 1
            for j in range(1, r + 1):
                suffix[i][j] = suffix[i + 1][j] + pv.sizes[i] * suffix[i + 1][j - 1]
        self.suffix = suffix
        self.total = suffix[0][r]

    def unrank(self, idx: int) -> tuple[int, ...]:
        """Vertex tuple of the idx-th edge in the canonical order."""
        if not 0 <= idx < self.total:
            raise DomainError(f"index {idx} outside [0, {self.total})")
        verts = []
        i, j = 0, self.r
        while j > 0:
            used = self.pv.sizes[i] * self.suffix[i + 1][j - 1]
            if idx < used:
                local, idx = divmod(idx, self.suffix[i + 1][j - 1])
                verts.append(self.pv.part_vertices(i)[local])
                j -= 1
            else:
                idx -= used
            i += 1
        return tuple(verts)


def sample_hypergraph(
    pv: PartitionVector, r: int, m: int, rng: np.random.Generator
) -> Hypergraph:
    """One uniform m-subset of the edge space, as a hypergraph."""
    sampler = EdgeSampler(pv, r)
    if not 0 <= m <= sampler.total:
        raise DomainError(f"need 0 <= m <= {sampler.total}, got {m}")
    ids = _draw_ids(rng, sampler.total, m)
    return Hypergraph(pv, r, frozenset(make_edge(pv, sampler.unrank(i)) for i in ids))


def cluster_signature(vertex_sets: list[tuple[int, ...]]) -> tuple[int, str | None]:
    """(cluster count, violation reason) by direct pairwise overlap.

    The deliberately independent oracle for classify and
    EdgeSpaceIndex.classify_combo: it finds clusters by union-find and
    must not call the shared rule plus_violation.  It applies no cluster
    cap.
    """
    m = len(vertex_sets)
    sets = [set(v) for v in vertex_sets]
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    linked = 0
    for i, j in combinations(range(m), 2):
        shared = len(sets[i] & sets[j])
        if shared >= 3:
            return 0, "overlap_ge3"
        if shared == 2:
            linked += 1
            parent[find(i)] = find(j)
    comp_size: dict[int, int] = {}
    for i in range(m):
        root = find(i)
        comp_size[root] = comp_size.get(root, 0) + 1
    if any(size > 2 for size in comp_size.values()):
        return 0, "cluster_gt2_edges"
    clusters = sum(1 for size in comp_size.values() if size == 2)
    if clusters != linked:
        return 0, "cluster_gt2_edges"
    return clusters, None


@dataclass(frozen=True)
class SampleReport:
    """Outcome tallies of a seeded sampling experiment."""

    sizes: tuple[int, ...]
    r: int
    m: int
    trials: int
    seed: int
    hits: int
    cluster_histogram: dict[int, int]
    violation_counts: dict[str, int]
    overlap_total: int | None = None

    @property
    def p_hat(self) -> float:
        return self.hits / self.trials

    @property
    def stderr(self) -> float:
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def overlap_mean(self) -> float | None:
        if self.overlap_total is None:
            return None
        return self.overlap_total / self.trials

    def to_json_dict(self) -> dict:
        out = {
            "parts": list(self.sizes),
            "r": self.r,
            "m": self.m,
            "trials": str(self.trials),
            "seed": self.seed,
            "hits": str(self.hits),
            "p_hat": self.p_hat,
            "stderr": self.stderr,
            "cluster_histogram": {str(t): str(c) for t, c in sorted(self.cluster_histogram.items())},
            "violation_counts": {k: str(v) for k, v in sorted(self.violation_counts.items())},
        }
        if self.overlap_total is not None:
            out["overlap_total"] = str(self.overlap_total)
            out["overlap_mean"] = self.overlap_mean
        return out


def estimate_linear_probability(
    pv: PartitionVector,
    r: int,
    m: int,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    cluster_cap: int | None = None,
    track_overlaps: bool = False,
) -> SampleReport:
    """Hit-rate estimate of the linearity probability at m uniform edges.

    Also tallies the cluster histogram of the plus samples and the
    violation reasons of the rest; optionally the number of edge pairs
    sharing two or more vertices, for the overlap-expectation check.
    workers is validated but the blocks run in one thread.  Edge spaces
    with sigma_r^2 above SAMPLER_CAT_CEILING are refused before anything
    is built.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    total = sigma(pv, r)
    if total * total > SAMPLER_CAT_CEILING:
        raise WorkCeilingError(total * total, SAMPLER_CAT_CEILING, "sampler overlap matrix")
    if not 0 <= m <= total:
        raise DomainError(f"need 0 <= m <= {total}, got m={m}")
    index = EdgeSpaceIndex(pv, r)
    cap = cluster_threshold(pv, r, m) if cluster_cap is None else cluster_cap
    cat = index.cat if track_overlaps else None
    hist: dict[int, int] = {}
    viol: dict[str, int] = {}
    overlap = 0
    for block, size in _blocks(trials):
        rng = make_rng(seed, block)
        for _ in range(size):
            combo = _draw_ids(rng, total, m)
            t, reason, _, _ = index.classify_combo(combo, cap)
            if reason is None:
                hist[t] = hist.get(t, 0) + 1
            else:
                viol[reason] = viol.get(reason, 0) + 1
            if cat is not None:
                for i, j in combinations(combo, 2):
                    if cat[i][j]:
                        overlap += 1
    return SampleReport(
        sizes=pv.sizes,
        r=r,
        m=m,
        trials=trials,
        seed=seed,
        hits=hist.get(0, 0),
        cluster_histogram=hist,
        violation_counts=viol,
        overlap_total=overlap if track_overlaps else None,
    )


def draw_subset_ids(
    pv: PartitionVector, r: int, m: int, trials: int, seed: int = 0
) -> list[tuple[int, ...]]:
    """Raw uniform m-subsets as sorted edge-index tuples, one per trial.

    Same blocks and draws as estimate_linear_probability, so a seed pins
    the exact draws here too.
    """
    sampler = EdgeSampler(pv, r)
    if not 0 <= m <= sampler.total:
        raise DomainError(f"need 0 <= m <= {sampler.total}, got {m}")
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    out: list[tuple[int, ...]] = []
    for block, size in _blocks(trials):
        rng = make_rng(seed, block)
        out.extend(_draw_ids(rng, sampler.total, m) for _ in range(size))
    return out


def edge_subset_probability(pv: PartitionVector, r: int, m: int, t: int) -> Fraction:
    """P(t fixed distinct edges all land in a uniform m-subset)."""
    total = sigma(pv, r)
    if not 0 <= t <= m <= total:
        raise DomainError(f"need 0 <= t <= m <= {total}, got t={t}, m={m}")
    return Fraction(falling_factorial(m, t), falling_factorial(total, t))


def linked_pair_count(pv: PartitionVector, r: int) -> int:
    """Unordered pairs of distinct edges sharing at least two vertices.

    The binomial inversion of EdgeSpaceIndex.compat_stats over the whole
    edge space, never a scan of edge pairs.
    """
    if not 2 <= r <= pv.k:
        raise DomainError(f"need 2 <= r <= k, got r={r}, k={pv.k}")
    return EdgeSpaceIndex(pv, r).compat_stats(())[1]


@dataclass(frozen=True)
class OverlapExpectation:
    """Exact expected number of linked pairs in a uniform m-subset."""

    linked_pair_count: int
    exact: Fraction


def expected_overlap_pairs(pv: PartitionVector, r: int, m: int) -> OverlapExpectation:
    """Linked pairs in the edge space and their expected hit count at m."""
    total = sigma(pv, r)
    if not 0 <= m <= total:
        raise DomainError(f"need 0 <= m <= {total}, got {m}")
    pairs = linked_pair_count(pv, r)
    if m < 2:
        return OverlapExpectation(pairs, Fraction(0))
    return OverlapExpectation(
        pairs, pairs * Fraction(falling_factorial(m, 2), falling_factorial(total, 2))
    )
