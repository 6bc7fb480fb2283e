"""Part-size vectors and exact elementary symmetric functions over them.

Vertices 1..n are laid out in consecutive blocks: part 0 holds 1..n_0,
part 1 holds the next n_1 integers, and so on.  The elementary symmetric
functions are taken over the part-size histogram, so equal parts cost one
closed-form factor, not one step each.  The histogram is built once, by
two C-level passes, when the vector is built: bytearray() packs the parts
one byte each when every size lies in 0..255, refusing non-integers, and
numpy counts the bytes; n, k, the smallest size and the sum of 1/n_i are
then read from the histogram, not from the parts.  The per-part tuple of
exact ints is built only when sizes is first read, which no numeric
reader here does.  Everything here is exact integer or rational
arithmetic up to the final math.log in log_sigma, which takes the exact
sigma however large it is.
"""

from __future__ import annotations

import math
import operator
import reprlib
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable

import numpy as np

from .errors import DomainError


def falling_factorial(x: int, t: int) -> int:
    """x (x-1) ... (x-t+1) with the empty product equal to 1."""
    if t < 0:
        raise DomainError(f"falling factorial needs t >= 0, got {t}")
    out = 1
    for i in range(t):
        out *= x - i
    return out


class PartitionVector:
    """Immutable vector of part sizes, all at least 1.

    Construction makes two C-level passes over the parts: bytearray()
    packs them one byte each, reading every part through __index__ and
    refusing non-integers, and np.bincount counts the packed bytes.  k, n
    and the size histogram come from those two passes; only a vector
    holding a size past 255 (or below 0) is canonicalised and counted by a
    Counter.
    The per-part tuple sizes is built on its first read and kept: a tuple
    of exact ints comes back as given, anything else as exact ints equal
    to the values the histogram counted.  No numeric reader reads it.
    The part bounds and vertex_part, the part of each vertex, are built
    on first use and kept.  Two vectors are equal when their sizes are;
    equal histograms decide it without the tuples when every part has
    one size, and the hash reads the histogram.
    """

    def __init__(self, sizes: Iterable[int]):
        try:
            # bytearray() of a tuple or list reads each part through
            # __index__; of a numpy array or a memoryview it would copy raw
            # memory
            parts = sizes if type(sizes) in (tuple, list) else tuple(sizes)
        except TypeError:
            raise DomainError(f"part sizes must be an iterable of integers, got {reprlib.repr(sizes)}") from None
        if not parts:
            raise DomainError("a partition vector needs at least one part")
        try:
            # bytes() refuses the same parts but is two to three times
            # slower a part on a tuple or list
            packed = bytearray(parts)
        except TypeError:
            raise _refusal(parts) from None
        except ValueError:
            # a size past a byte, or below 0
            try:
                kept = tuple(map(operator.index, parts))
            except TypeError:
                raise _refusal(parts) from None
            size_counts = tuple(Counter(kept).items())
            if min(size for size, _ in size_counts) < 1:
                raise _refusal(parts) from None
        else:
            counts = np.bincount(np.frombuffer(packed, np.uint8)).tolist()
            if counts[0]:
                raise _refusal(parts, packed.find(0))
            seen = sorted((size for size, count in enumerate(counts) if count), key=packed.index)
            size_counts = tuple((size, counts[size]) for size in seen)
            kept = packed
        # a given tuple is kept so that sizes can be the very object given;
        # a given list is not: the vector keeps its own packed buffer
        self._fill(parts if type(parts) is tuple else kept, size_counts, len(parts))

    def _fill(self, parts: tuple | bytearray | None, size_counts: tuple[tuple[int, int], ...], k: int) -> None:
        vars(self).update(
            _parts=parts,
            # (size, number of parts of that size), sizes in first-seen order
            size_counts=size_counts,
            k=k,
            n=sum(size * count for size, count in size_counts),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"PartitionVector is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"PartitionVector is immutable: cannot delete {name}")

    def __repr__(self) -> str:
        return f"PartitionVector(sizes={self.sizes!r})"

    def __eq__(self, other) -> bool:
        if type(other) is not PartitionVector:
            return NotImplemented
        return self.size_counts == other.size_counts and (
            len(self.size_counts) == 1 or self.sizes == other.sizes
        )

    def __hash__(self) -> int:
        return hash(self.size_counts)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """The part sizes as exact ints, built on first read and kept."""
        parts = self._parts
        if parts is None:
            return (1,) * self.k
        if type(parts) is bytearray:
            return tuple(parts)
        # bytearray() packed True as 1 and a numpy integer as its value
        if operator.countOf(map(type, parts), int) == len(parts):
            return parts
        return tuple(map(operator.index, parts))

    @cached_property
    def _bounds(self) -> tuple[int, ...]:
        """bounds[i] = last vertex id of part i."""
        return tuple(accumulate(self.sizes))

    @cached_property
    def vertex_part(self) -> tuple[int, ...]:
        """0-based part of each vertex, by vertex id; entry 0 pads the 1-based ids.

        Built on first read and kept, like sizes: a vector nothing reads
        it from holds no per-vertex table.
        """
        return (0, *[p for p, size in enumerate(self.sizes) for _ in range(size)])

    def part_of(self, v: int) -> int:
        """0-based index of the part containing vertex v (1-based)."""
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} outside 1..{self.n}")
        return bisect_right(self._bounds, v - 1)

    def part_vertices(self, i: int) -> range:
        """Vertices of part i as a range."""
        lo = 1 if i == 0 else self._bounds[i - 1] + 1
        return range(lo, self._bounds[i] + 1)

    def reciprocal_sum(self) -> Fraction:
        """sum_i 1/n_i, exact: count/size summed over the size histogram."""
        return sum((Fraction(count, size) for size, count in self.size_counts), Fraction(0))


def _is_size(x) -> bool:
    try:
        return operator.index(x) >= 1
    except TypeError:
        return False


def _refusal(parts: tuple | list, at: int | None = None) -> DomainError:
    """The refusal naming the first part that is not an integer >= 1.

    Searched for only once the vector is refused: at is given when the
    byte path has already found it, and is otherwise found by a scan.
    """
    if at is None:
        at = next(i for i, x in enumerate(parts) if not _is_size(x))
    return DomainError(
        f"part sizes must be integers >= 1, but part {at} of {len(parts)} is {reprlib.repr(parts[at])}"
    )


def partition(sizes: Iterable[int]) -> PartitionVector:
    """A PartitionVector from any iterable of sizes, validated as PartitionVector does."""
    return PartitionVector(sizes)


def uniform_partition(n: int) -> PartitionVector:
    """n singleton parts: the fully uniform (unpartitioned) case.

    Built from its histogram ((1, n),) alone: no per-part tuple or byte
    string exists until sizes is read.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"need an integer n, got {reprlib.repr(n)}") from None
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    pv = object.__new__(PartitionVector)
    pv._fill(None, ((1, n),), n)
    return pv


def _check_order(pv: PartitionVector, s: int) -> None:
    if not 0 <= s <= pv.k:
        raise DomainError(f"symmetric function order {s} outside 0..{pv.k}")


def sigmas(pv: PartitionVector, s: int) -> tuple[int, ...]:
    """sigma_0, ..., sigma_s of the part sizes, exact, from one pass.

    The coefficients of prod_i (1 + n_i x) = prod_size (1 + size x)^count
    truncated at degree s, over the part-size histogram.  Each factor adds
    C(count, i) size^i x^i for i <= min(count, s), which costs at most
    s*min(count, s) multiplications: at most k*s in all, and at most d*s^2
    for d distinct sizes, never a sum over the binomial(k, s) monomials.
    """
    _check_order(pv, s)
    coeff = [1] + [0] * s
    for size, count in pv.size_counts:
        if count == 1:
            # 1 + size x, in place from the top: no snapshot needed
            for j in range(s, 0, -1):
                coeff[j] += coeff[j - 1] * size
            continue
        prev = coeff[:]
        term = 1
        for i in range(1, min(count, s) + 1):
            term = term * (count - i + 1) // i * size  # C(count, i) size^i
            for j in range(i, s + 1):
                coeff[j] += prev[j - i] * term
    return tuple(coeff)


def sigma(pv: PartitionVector, s: int) -> int:
    """Elementary symmetric function of the part sizes, exact."""
    return sigmas(pv, s)[s]


def log_sigma(pv: PartitionVector, s: int) -> float:
    """Natural log of sigma(pv, s): math.log of the exact integer."""
    return math.log(sigma(pv, s))


def check_m(m: int, edge_count: int) -> None:
    """Refuse an m outside 0..edge_count, for which no m-subset of the edges exists.

    The one m-range check: every count, estimate and sampler over
    m-subsets of the sigma_r-edge space calls it before it computes
    anything from m, C(sigma_r, m) included.
    """
    if not 0 <= m <= edge_count:
        raise DomainError(f"m={m} outside 0..{edge_count}")


def newton_gap(pv: PartitionVector, j: int) -> Fraction:
    """S_j^2 - S_{j-1} S_{j+1}, exact; nonnegative by Newton's inequality."""
    if not 1 <= j <= pv.k - 1:
        raise DomainError(f"newton gap needs 1 <= j <= k-1, got j={j}, k={pv.k}")
    sig = sigmas(pv, j + 1)
    lo, mid, hi = (Fraction(sig[i], math.comb(pv.k, i)) for i in range(j - 1, j + 2))
    gap = mid * mid - lo * hi
    if gap < 0:
        raise AssertionError(f"Newton inequality violated for {pv.sizes}, j={j}: {gap}")
    return gap


@dataclass(frozen=True)
class SigmaRatioCheck:
    """Ratio sigma_s/sigma_r against its balance-driven upper bound."""

    ratio: float
    bound: float
    holds: bool


def sigma_ratio_check(pv: PartitionVector, s: int, r: int) -> SigmaRatioCheck:
    """Check sigma_s/sigma_r <= ([r]_{r-s} / [k-s]_{r-s}) (C k / n)^{r-s}.

    C is the minimal balance constant, so C k / n is exactly the mean of
    the reciprocal part sizes.  The comparison is done in exact rational
    arithmetic; the returned ratio and bound are floats for reporting.
    """
    if not 1 <= s <= r <= pv.k:
        raise DomainError(f"need 1 <= s <= r <= k, got s={s}, r={r}, k={pv.k}")
    sig = sigmas(pv, r)
    ratio = Fraction(sig[s], sig[r])
    mean_recip = pv.reciprocal_sum() / pv.k  # equals C k / n
    bound = Fraction(falling_factorial(r, r - s), falling_factorial(pv.k - s, r - s))
    bound *= mean_recip ** (r - s)
    return SigmaRatioCheck(ratio=float(ratio), bound=float(bound), holds=ratio <= bound)
