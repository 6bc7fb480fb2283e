"""Uniform sampling of edge sets and the linearity hit-rate estimator.

Every sampler runs one batch path, a block of BLOCK_TRIALS rows at a
time, each block on its own counter RNG keyed (seed, block):

1. draw: Floyd's algorithm, column by column, gives each row an exactly
   uniform sorted m-subset of edge ids.  Column c is drawn as
   rng.integers(0, sigma_r - m + c + 1) draws it, bit for bit, so the
   seeded stream and every seeded output stay numpy's: _bounded_columns
   splits the generator's raw 64-bit words into numpy's 32-bit stream
   and takes Lemire's multiply-shift over the whole block in a few
   passes, where numpy's call with an array of bounds goes element by
   element.  numpy's own call draws the block only where the passes
   cannot follow it: when a word is rejected, or the bounds expect one
   (about rows * m * sigma_r / 2**33 per block: below 0.1 at sigma_r =
   10^4 and m = 20, thousands at sigma_r = 1.7e8 and m = 300), when a
   bound is 1 or above 2**32, and when a generator passed to
   sample_hypergraph holds a buffered 32-bit half or none (MT19937);
2. unrank: EdgeSampler.unrank_many maps the ids to vertex tuples through
   the part-suffix counts, so part subsets come out with probability
   proportional to the product of their part sizes: one searchsorted per
   vertex but the last, which is n + 1 minus the remaining weight;
3. classify: _subset_codes codes the edges' vertex subsets in the
   narrowest unsigned dtype that holds them, one row of codes per edge,
   and _classify sorts each sampled row's codes once and reads the plus
   classification and the overlap count off the sparse list of equal
   sorted neighbours.  When sigma_r <= min(trials, BLOCK_TRIALS) * m,
   no more ids than one block draws, estimate_linear_probability codes
   the whole edge space once, a (sigma_r, C(r, alpha)) table per coded
   size alpha, and each block gathers its rows of codes from it by edge
   id, already laid out for the sort; above the rule each block is
   unranked and coded by classify_rows.  Shared triples are found
   first, and the pair codes are gathered and analysed only on the
   rows they leave undecided (on every row when overlaps are tracked).
   Each pair code carries its edge's index in its low bits, so the same
   sort gives the edges of every linked pair; the linked pairs form a
   matching when no edge is named twice, which one sort of the named
   edges tests, only on rows with two or more linked pairs and no run
   of three equal pair codes;
4. tally: np.bincount adds each block's cluster counts and reasons to
   fixed arrays.

Nothing indexes the edge pairs, and the code table is built only when
it holds no more than one block's codes, so a run needs
O(BLOCK_TRIALS * m * r) memory however large sigma_r is.  One seed pins
the same draws in estimate_linear_probability, draw_subset_ids and
sample_hypergraph, and every report is reproducible; the stream is not
the one of the earlier per-trial loop, so seeded outputs differ from it.
Before anything is allocated the sampler refuses edge spaces whose
counts do not fit in int64, an m outside 0..sigma_r (partitions.check_m)
and tagged pair codes that do not fit in 64 bits (DomainError), trials *
m^2 above
SAMPLER_WORK_CEILING, and blocks of more than SAMPLER_BLOCK_CELLS
vertex-subset codes (WorkCeilingError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterator

import numpy as np

from .census import EdgeSpaceIndex
from .errors import DomainError, WorkCeilingError
from .hypergraphs import (
    CLUSTER_GT2_EDGES,
    OVERLAP_GE3,
    TOO_MANY_CLUSTERS,
    Hypergraph,
    cluster_threshold,
    make_edge,
    shared_pair_counts,
)
from .partitions import PartitionVector, check_m, falling_factorial, sigma

BLOCK_TRIALS = 4096
# trials * m^2 bounds a run's id comparisons: the draw compares up to m
# ids per id, and the classifier sorts m*C(r,2) pair codes per row.
# Fixed: only fewer trials or a smaller m admit a run above it
SAMPLER_WORK_CEILING = 2 * 10 ** 10
# vertex-subset codes classified at once in one block,
# min(trials, 4096) * m * sum_alpha C(r, alpha); each code costs one key
# of 1 to 8 bytes (the key dtype's width) in each of a handful of (rows,
# codes) arrays, and every flat index into them fits in the int32 flag
# lists of classify_rows.  Fixed, like SAMPLER_WORK_CEILING
SAMPLER_BLOCK_CELLS = 2 ** 23
# edge ids and suffix counts are int64, and untagged subset codes stay below it
INT64_LIMIT = 2 ** 63
# classify_rows reason codes: 0 is plus
REASONS = (None, OVERLAP_GE3, CLUSTER_GT2_EDGES, TOO_MANY_CLUSTERS)


def make_rng(seed: int, lane: int = 0) -> np.random.Generator:
    """Counter-based generator for one lane of a seeded experiment."""
    if seed < 0 or lane < 0:
        raise DomainError("seed and lane must be nonnegative")
    return np.random.Generator(np.random.Philox(key=[seed & (2 ** 64 - 1), lane]))


def _blocks(trials: int, seed: int) -> Iterator[tuple[np.random.Generator, int]]:
    """(generator, rows) per block: BLOCK_TRIALS rows, the last one short."""
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        yield make_rng(seed, block), min(BLOCK_TRIALS, trials - start)


def _bounded_columns(rng: np.random.Generator, bounds: np.ndarray, rows: int) -> np.ndarray:
    """rng.integers(0, bounds, size=(rows, len(bounds))), bit for bit, in whole-array passes.

    numpy draws each value from the generator's 32-bit stream by
    Lemire's multiply-shift, (u * b) >> 32, and rejects u when
    u * b mod 2**32 < 2**32 mod b; with an array of bounds it does so
    one element at a time.  Here the block's ceil(n/2) raw 64-bit words
    are split into 32-bit halves, low half first, as next_uint32 hands
    them out, and every value comes from the same few passes; when n is
    odd the last high half is left buffered in the state, as numpy
    leaves it.  A rejection shifts every later value, which no pass
    reproduces, so numpy's own call draws the block, from the saved
    state, when a value is rejected or the bounds expect a rejection
    (rows * sum(2**32 mod b) >= 2**32), when a bound is 1 (numpy takes
    no word for it) or above 2**32 (numpy's 64-bit path), and when the
    state holds a buffered half or has none (MT19937).
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    shape = (rows, len(bounds))
    if bounds.min(initial=2) < 2 or bounds.max(initial=2) > 2 ** 32 or saved.get("has_uint32", 1):
        return rng.integers(0, bounds, size=shape)
    wide = bounds.astype(np.uint64)
    thresholds = np.uint64(2 ** 32) % wide
    if rows * int(thresholds.sum()) >= 2 ** 32:
        return rng.integers(0, bounds, size=shape)
    n = rows * len(bounds)
    raw = bitgen.random_raw((n + 1) // 2)
    # little-endian words on any host, so the uint32 view reads low halves first
    words = raw.astype("<u8", copy=False).view("<u4")[:n].reshape(shape)
    # u * b mod 2**32, in uint32 arithmetic
    if (words * bounds.astype(np.uint32) < thresholds.astype(np.uint32)).any():
        bitgen.state = saved
        return rng.integers(0, bounds, size=shape)
    if n % 2:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, int(raw[-1] >> np.uint64(32))
        bitgen.state = state
    out = words.astype(np.uint64)
    del raw, words
    out *= wide
    out >>= np.uint64(32)
    return out.view(np.int64)


def _draw_block(rng: np.random.Generator, total: int, rows: int, m: int) -> np.ndarray:
    """(rows, m) sorted uniform m-subsets of range(total), by Floyd's algorithm.

    Column c draws t uniform in [0, j], j = total - m + c, and takes j
    instead when t is already in the row.  All columns are drawn up
    front, as rng.integers(0, j + 1) draws them (_bounded_columns, which
    keeps numpy's stream and so every seeded output): a row whose draws
    are distinct keeps them as they are, so only rows with a repeat run
    the column loop.  Those rows are read off the flat list of equal
    sorted neighbours, m - 1 comparisons per row.
    """
    draws = _bounded_columns(rng, np.arange(total - m, total, dtype=np.int64) + 1, rows)
    ids = np.sort(draws, axis=1)
    flagged = np.flatnonzero(ids[:, 1:] == ids[:, :-1])
    if flagged.size:
        # not np.unique, whose first call imports numpy.ma
        repeat = np.zeros(rows, dtype=bool)
        repeat[flagged // (m - 1)] = True
        sub = draws[repeat]
        for c in range(1, m):
            col = sub[:, c]
            taken = (sub[:, :c] == col[:, None]).any(axis=1)
            sub[:, c] = np.where(taken, total - m + c, col)
        ids[repeat] = np.sort(sub, axis=1)
    return ids


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
        """Vertex tuple of the idx-th edge in the canonical order.

        The scalar form, kept as the oracle of unrank_many.
        """
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

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The suffix table by column, each column reversed, and the first vertex of each part.

        columns[j][i] = suffix[i][j], and rising[j] = columns[j][:0:-1]
        is sorted for searchsorted; all are contiguous int64 rows.
        """
        columns = np.array(self.suffix, dtype=np.int64).T.copy()
        first = np.cumsum((1,) + self.pv.sizes[:-1], dtype=np.int64)
        return columns, columns[:, :0:-1].copy(), first

    def unrank_many(self, ids: np.ndarray) -> np.ndarray:
        """Vertex tuples of an int64 array of edge ids, shape ids.shape + (r,).

        The tuples are a view of an (r,) + ids.shape array, so each
        vertex column is contiguous, as _subset_codes reads them when it
        casts them to its key dtype in one copy.  key is
        the weight from the id to the end of the order.  At each level
        j >= 2 the next vertex lies in the first part i with
        suffix[i+1][j] < key, found by one searchsorted on the rising
        suffix column.  At j = 1 every vertex weighs one, so key counts
        vertices from the end and the last vertex is n + 1 - key: r - 1
        searches in all, and none at r = 1.  Needs every suffix count
        below 2**63.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.total):
            raise DomainError(f"edge ids outside [0, {self.total})")
        k = self.pv.k
        columns, rising, first = self._arrays
        key = self.total - ids
        out = np.empty((self.r,) + ids.shape, dtype=np.int64)
        for level, j in enumerate(range(self.r, 1, -1)):
            part = k - np.searchsorted(rising[j], key)
            step = columns[j - 1].take(part + 1)
            local, rest = np.divmod(columns[j].take(part) - key, step)
            out[level] = first.take(part) + local
            key = step - rest
        out[-1] = self.pv.n + 1 - key
        return np.moveaxis(out, 0, -1)


def _batch_sampler(pv: PartitionVector, r: int, m: int, trials: int) -> EdgeSampler:
    """The edge sampler of a batch run, once the request passes the guards."""
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    total = sigma(pv, r)
    if total >= INT64_LIMIT:
        raise DomainError(
            f"the edge space has sigma_r = {total} edges; the sampler needs edge ids below 2**63"
        )
    sampler = EdgeSampler(pv, r)
    if max(sampler.suffix[0]) >= INT64_LIMIT:
        raise DomainError(
            f"a part-suffix count reaches {max(sampler.suffix[0])}; "
            "the sampler needs every count below 2**63"
        )
    check_m(m, total)
    work = trials * max(m, 1) ** 2
    if work > SAMPLER_WORK_CEILING:
        raise WorkCeilingError(
            work, SAMPLER_WORK_CEILING, "sampler work (trials x m^2)", unit="id comparisons",
            remedy="this ceiling is fixed: lower the trials or m",
        )
    return sampler


def sample_hypergraph(
    pv: PartitionVector, r: int, m: int, rng: np.random.Generator
) -> Hypergraph:
    """One uniform m-subset of the edge space, as a hypergraph."""
    sampler = _batch_sampler(pv, r, m, 1)
    (verts,) = sampler.unrank_many(_draw_block(rng, sampler.total, 1, m)).tolist()
    return Hypergraph(pv, r, frozenset(make_edge(pv, vs) for vs in verts))


def _subset_sizes(r: int, track_overlaps: bool) -> range:
    """Subset sizes classify_rows codes: 2 and 3 decide the plus rule, the rest the overlap count."""
    return range(2, r if track_overlaps else min(r, 4))


def _classifier_guard(n: int, r: int, m: int, trials: int, track_overlaps: bool) -> None:
    """Refuse codes beyond int64, tagged pair keys beyond 64 bits and oversized blocks."""
    alphas = _subset_sizes(r, track_overlaps)
    if alphas and (n + 1) ** alphas[-1] >= INT64_LIMIT:
        raise DomainError(
            f"codes of {alphas[-1]}-subsets of {n} vertices need (n+1)^{alphas[-1]} below 2**63"
        )
    # raises when the tagged pair keys need more than 64 bits
    _key_dtype(n, r, m, track_overlaps)
    cells = min(trials, BLOCK_TRIALS) * m * sum(math.comb(r, a) for a in alphas)
    if cells > SAMPLER_BLOCK_CELLS:
        raise WorkCeilingError(
            cells, SAMPLER_BLOCK_CELLS, "sampler block", unit="vertex-subset codes",
            remedy="this ceiling is fixed: lower m, the trials below 4096, or drop overlap tracking",
        )


def _tag_bits(m: int) -> int:
    """Low bits of a pair key that carry its edge's index, 0 to m - 1."""
    return (m - 1).bit_length()


def _key_dtype(n: int, r: int, m: int, track_overlaps: bool) -> np.dtype:
    """The narrowest unsigned dtype holding every vertex label and every classify_rows key.

    A pair code is below (n+1)^2 and is shifted left by the bits of
    m - 1 to carry its edge's index; an alpha-subset code, alpha >= 3,
    is below (n+1)^alpha.  Raises DomainError when the pair keys need
    more than 64 bits.
    """
    bits = _tag_bits(m)
    sizes = _subset_sizes(r, track_overlaps)
    top = max([n] + [(n + 1) ** a << (bits if a == 2 else 0) for a in sizes])
    if top >= 2 ** 64:
        raise DomainError(
            f"pair codes of {n} vertices tagged with {m} edge indices need "
            f"(n+1)^2 << {bits} below 2**64"
        )
    return np.min_scalar_type(top)


def _subset_codes(verts: np.ndarray, n: int, m: int, track_overlaps: bool) -> dict[int, np.ndarray]:
    """Per coded size alpha, the (edges, C(r, alpha)) subset codes of an (edges, r) vertex array.

    An alpha-subset's code is its vertices read as digits in base n + 1,
    in the key dtype (_key_dtype), and each pair code is shifted left by
    _tag_bits(m) to leave the low bits for an edge index.  An edge's
    codes are one row, so gathering m edge rows lays out one sampled
    row's codes side by side, ready to sort.  The vertex columns are cast
    to the key dtype once, and every column of codes is built by whole
    passes over them in that dtype.
    """
    edges, r = verts.shape
    dtype = _key_dtype(n, r, m, track_overlaps)
    cols = np.ascontiguousarray(verts.T, dtype=dtype)
    base = dtype.type(n + 1)
    table = {}
    for alpha in _subset_sizes(r, track_overlaps):
        subsets = list(combinations(range(r), alpha))
        codes = table[alpha] = np.empty((edges, len(subsets)), dtype=dtype)
        for code, pos in zip(codes.T, subsets):
            np.multiply(cols[pos[0]], base, out=code)
            for p in pos[1:-1]:
                code += cols[p]
                code *= base
            code += cols[pos[-1]]
        if alpha == 2:
            codes <<= dtype.type(_tag_bits(m))
    return table


def _equal_flags(codes: np.ndarray, bits: int = 0) -> tuple[np.ndarray, ...]:
    """(keys, idx, row, start): each row's keys, sorted in place, and its equal neighbours.

    codes is a (rows, m, C) array of the rows' edge codes, and a row's
    keys are its m * C codes side by side.  With bits, each code first
    gets its edge's index, 0 to m - 1, ORed into its low bits: key >>
    bits is the code and key & (2**bits - 1) the edge.  idx is the flat
    index into keys of every key whose code the next key in its row
    repeats, rising, and row its row, both int32.  A run of occ equal
    codes leaves occ - 1 flags at consecutive indices; start marks the
    first flag of each run.  A row's last key has no successor, so two
    rows' flags are never adjacent.  Equal codes are rare (about A
    linked pairs per row), so every count is read from this list rather
    than from the (rows, m * C) keys.  SAMPLER_BLOCK_CELLS keeps every
    flat index far below 2**31.
    """
    rows, m, width = codes.shape
    keys = codes.reshape(rows, m * width)
    if bits:
        keys |= np.repeat(np.arange(m, dtype=keys.dtype), width)
    keys.sort(axis=1)
    runs = (keys >> keys.dtype.type(bits) if bits else keys).reshape(-1)
    # one pass over the flat keys, then each row's last key is unflagged
    same = np.empty(runs.size, dtype=bool)
    np.equal(runs[1:], runs[:-1], out=same[:-1])
    del runs
    cols = max(m * width, 1)
    same[cols - 1::cols] = False
    idx = np.flatnonzero(same).astype(np.int32)
    del same
    row = idx // np.int32(cols)
    start = np.ones(idx.size, dtype=bool)
    np.not_equal(idx[1:], idx[:-1] + 1, out=start[1:])
    return keys, idx, row, start


def _run_sums(row: np.ndarray, start: np.ndarray, rows: int) -> np.ndarray:
    """Per row, the sum of C(occ, 2) over its runs of occ equal codes, from _equal_flags.

    A run of L = occ - 1 flags adds C(occ, 2) = L(L + 1)/2, read once
    per run from the run starts.
    """
    first = np.flatnonzero(start)
    flags = np.diff(first, append=start.size)
    flags *= flags + 1
    flags //= 2
    sums = np.zeros(rows, dtype=np.int64)
    np.add.at(sums, row[first], flags)
    return sums


def classify_rows(verts: np.ndarray, n: int, cap: int, track_overlaps: bool = False):
    """Plus-classify every row of a (rows, m, r) array of sorted edge vertex tuples.

    Codes the rows' edges with _subset_codes, in the narrowest unsigned
    dtype that holds every key (_key_dtype, from n, r, m and
    track_overlaps), and classifies them with _classify, as the edge
    table of estimate_linear_probability is.  The codes are sorted in
    place, and only the pair codes of the rows no shared triple decides
    are copied, so the codes and their sorted keys are all the call
    holds at once.

    Returns (t, reason, overlaps): reason indexes REASONS, and t is the
    cluster count where reason is 0 (elsewhere it is T_2 with
    track_overlaps and unspecified without).  overlaps counts the edge
    pairs sharing two or more vertices, by shared_pair_counts on the
    exact T_alpha, with track_overlaps; else it is None.
    """
    rows, m, r = verts.shape
    codes = _subset_codes(verts.reshape(rows * m, r), n, m, track_overlaps)

    def gather(alpha, live):
        return codes[alpha].reshape(rows, m, math.comb(r, alpha))[live]

    return _classify(gather, rows, m, r, cap, track_overlaps)


def _classify(gather, rows: int, m: int, r: int, cap: int, track_overlaps: bool):
    """classify_rows on the subset codes that gather(alpha, live) returns.

    gather returns the (rows, m, C(r, alpha)) codes of _subset_codes for
    the rows that live selects (a slice or a boolean mask), as an array
    this call may overwrite.  Sorting a row puts equal codes in runs;
    each coded size is sorted once per row, and its flags of equal
    sorted neighbours are read once, as the sparse list of their flat
    key indices (_equal_flags).  Linked subsets are rare, so everything
    after the sort is a pass over that list, not over the rows' codes.
    A run of occ codes adds C(occ, 2) to T_alpha, the number of edge
    pairs sharing an alpha-subset; with track_overlaps each T_alpha is
    exact, read once per run from the run starts (_run_sums).  In
    plus_violation's order:

    - alpha >= 3 goes first.  A row with a flag among its 3-codes
      shares a triple and is OVERLAP_GE3; without track_overlaps that
      is all these sizes are sorted for.
    - alpha = 2, gathered only for the rows left live: each pair code
      carries its edge's index in its low bits, and t is the row's
      number of flags.  A flag that does not start its run is the third
      edge of a run of three equal pair codes, and its row is
      CLUSTER_GT2_EDGES.  On the other rows every run is one linked
      pair, so t = T_2, and the linked pairs form a matching exactly
      when no edge ends two flags: each flag names the edges of its two
      codes, read off the low bits and offset by row * m, and a value
      named twice marks the row CLUSTER_GT2_EDGES.  Only rows with
      t >= 2, no run of three and no shared triple are named, as one
      flag always names two edges.  A row that passes is
      TOO_MANY_CLUSTERS when t > cap.
    """
    alphas = _subset_sizes(r, track_overlaps)
    t_by_alpha = {}
    triple = np.zeros(rows, dtype=bool)
    for alpha in alphas[1:]:
        _, _, row, start = _equal_flags(gather(alpha, slice(None)))
        if track_overlaps:
            t_by_alpha[alpha] = _run_sums(row, start, rows)
        if alpha == 3:
            triple[row] = True
    t = np.zeros(rows, dtype=np.int64)
    in_two_pairs = np.zeros(rows, dtype=bool)
    if alphas:
        # a shared triple decides a row, unless its T_2 counts towards overlaps
        live = slice(None) if track_overlaps or not triple.any() else ~triple
        bits = _tag_bits(m)
        keys, idx, row, start = _equal_flags(gather(2, live), bits)
        # np.add.at reads the int32 rows in buffered chunks, where
        # np.bincount would first copy the whole list to intp
        count = np.zeros(len(keys), dtype=np.int64)
        np.add.at(count, row, 1)
        t[live] = _run_sums(row, start, len(keys)) if track_overlaps else count
        # a flag that does not start its run is a third edge on one pair
        in_two = np.zeros(len(keys), dtype=bool)
        in_two[row[~start]] = True
        pick = ((count >= 2) & ~in_two & ~triple[live])[row]
        # a flag's lower code is key idx of the flat keys and its upper
        # code the next one; each names its edge, offset by row * m
        idx = idx[pick]
        row = row[pick] * np.int32(m)
        flat, mask = keys.reshape(-1), keys.dtype.type((1 << bits) - 1)
        ends = np.empty((2, idx.size), dtype=np.int32)
        ends[0] = flat[idx] & mask
        idx += 1
        ends[1] = flat[idx] & mask
        ends += row
        ends = ends.reshape(-1)
        ends.sort()
        in_two[ends[1:][ends[1:] == ends[:-1]] // m] = True
        in_two_pairs[live] = in_two
        t_by_alpha[2] = t
    reason = np.where(t > cap, 3, 0).astype(np.int8)
    reason[in_two_pairs] = 2
    reason[triple] = 1
    overlaps = None
    if track_overlaps:
        overlaps = np.zeros(rows, dtype=np.int64) + shared_pair_counts(t_by_alpha, r)[0]
    return t, reason, overlaps


def cluster_signature(vertex_sets: list[tuple[int, ...]]) -> tuple[int, str | None]:
    """(cluster count, violation reason) by direct pairwise overlap.

    The deliberately independent oracle for classify,
    EdgeSpaceIndex.classify_combo and the census's plus search: it finds
    clusters by union-find and must not call the shared rule
    plus_violation.  It applies no cluster cap.
    """
    m = len(vertex_sets)
    sets = [set(v) for v in vertex_sets]
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in combinations(range(m), 2):
        shared = len(sets[i] & sets[j])
        if shared >= 3:
            return 0, "overlap_ge3"
        if shared == 2:
            parent[find(i)] = find(j)
    comp_size: dict[int, int] = {}
    for i in range(m):
        root = find(i)
        comp_size[root] = comp_size.get(root, 0) + 1
    if any(size > 2 for size in comp_size.values()):
        return 0, "cluster_gt2_edges"
    # each two-edge component holds exactly one linked pair
    return sum(1 for size in comp_size.values() if size == 2), None


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
    track_overlaps: bool = False,
) -> SampleReport:
    """Hit-rate estimate of the linearity probability at m uniform edges.

    Also tallies the cluster histogram of the plus samples and the
    violation reasons of the rest; optionally the number of edge pairs
    sharing two or more vertices, for the overlap-expectation check.
    workers is validated but the blocks run in one thread.  The guards
    in the module docstring run before anything is allocated.
    """
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    sampler = _batch_sampler(pv, r, m, trials)
    _classifier_guard(pv.n, r, m, trials, track_overlaps)
    cap = cluster_threshold(pv, r, m)
    # a plus row has at most min(cap, m // 2) clusters, each two edges
    hist = np.zeros(min(cap, m // 2) + 1, dtype=np.int64)
    viol = np.zeros(len(REASONS), dtype=np.int64)
    overlap = 0
    table = None
    if sampler.total <= min(trials, BLOCK_TRIALS) * m:
        # the edge space has no more ids than one block draws: code it
        # once, in no more cells than one block's codes
        edges = sampler.unrank_many(np.arange(sampler.total))
        table = _subset_codes(edges, pv.n, m, track_overlaps)
    for rng, rows in _blocks(trials, seed):
        ids = _draw_block(rng, sampler.total, rows, m)
        if table is None:
            t, reason, overlaps = classify_rows(sampler.unrank_many(ids), pv.n, cap, track_overlaps)
        else:
            t, reason, overlaps = _classify(
                lambda alpha, live: table[alpha].take(ids[live], axis=0),
                rows, m, r, cap, track_overlaps,
            )
        hist += np.bincount(t[reason == 0], minlength=hist.size)
        viol += np.bincount(reason, minlength=viol.size)
        if track_overlaps:
            overlap += int(overlaps.sum())
    return SampleReport(
        sizes=pv.sizes,
        r=r,
        m=m,
        trials=trials,
        seed=seed,
        hits=int(hist[0]),
        cluster_histogram={t: int(c) for t, c in enumerate(hist) if c},
        violation_counts={REASONS[i]: int(c) for i, c in enumerate(viol) if i and c},
        overlap_total=overlap if track_overlaps else None,
    )


def _subset_id_blocks(pv: PartitionVector, r: int, m: int, trials: int, seed: int = 0) -> Iterator[np.ndarray]:
    """draw_subset_ids one block at a time: (rows, m) arrays of at most BLOCK_TRIALS rows.

    The guards run when it is called; each block is drawn when it is reached.
    """
    sampler = _batch_sampler(pv, r, m, trials)
    return (_draw_block(rng, sampler.total, rows, m) for rng, rows in _blocks(trials, seed))


def draw_subset_ids(pv: PartitionVector, r: int, m: int, trials: int, seed: int = 0) -> np.ndarray:
    """Raw uniform m-subsets: a (trials, m) int64 array of sorted edge ids.

    Same blocks and draws as estimate_linear_probability, so a seed pins
    the exact draws here too.
    """
    return np.concatenate(list(_subset_id_blocks(pv, r, m, trials, seed)))


def edge_subset_probability(pv: PartitionVector, r: int, m: int, t: int) -> Fraction:
    """P(t fixed distinct edges all land in a uniform m-subset)."""
    total = sigma(pv, r)
    check_m(m, total)
    if not 0 <= t <= m:
        raise DomainError(f"need 0 <= t <= m, got t={t}, m={m}")
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
    check_m(m, total)
    pairs = linked_pair_count(pv, r)
    if m < 2:
        return OverlapExpectation(pairs, Fraction(0))
    return OverlapExpectation(
        pairs, pairs * Fraction(falling_factorial(m, 2), falling_factorial(total, 2))
    )
