"""Part-size vectors and exact elementary symmetric functions over them.

Vertices 1..n are laid out in consecutive blocks: part 0 holds 1..n_0,
part 1 holds the next n_1 integers, and so on.  The elementary symmetric
functions are taken over the part-size histogram, so equal parts cost one
closed-form factor, not one step each.  The histogram is built once, by
C-level passes, when the vector is built: the sizes are canonicalised to
ints, packed one byte each when every size lies in 0..255, and counted by
numpy; n, the smallest size and the sum of 1/n_i are then read from the
histogram, not from the parts.  Everything here is exact integer
or rational arithmetic up to the final math.log in log_sigma, which takes
the exact sigma however large it is.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class PartitionVector:
    """Immutable vector of part sizes, all at least 1.

    n and the size histogram are built at construction: sizes that all fit
    in a byte are packed by bytes() and counted by np.bincount, and only a
    vector holding a size past 255 is counted by a Counter.  The part bounds
    are built on first use and kept.  Equality and hashing read sizes alone.
    """

    sizes: tuple[int, ...]
    # (size, number of parts of that size), sizes in first-seen order
    size_counts: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            sizes = tuple(self.sizes)
            # a tuple of exact ints is kept as given; numpy integers and
            # bools become ints, and anything without __index__ is refused.
            # The per-part type test matters: bytes() would pack True as 1,
            # and a Counter would merge 3.0 into the int key 3.  A first
            # part that is not an int (a numpy array's) already decides it
            # without the pass.
            if not (sizes and type(sizes[0]) is int
                    and operator.countOf(map(type, sizes), int) == len(sizes)):
                sizes = tuple(map(operator.index, sizes))
        except TypeError:
            raise DomainError(f"part sizes must be integers, got {self.sizes}") from None
        if not sizes:
            raise DomainError("a partition vector needs at least one part")
        try:
            # on the canonical tuple only: bytes() of a numpy array or a
            # memoryview would copy its raw memory, not its values
            packed = bytes(sizes)
        except ValueError:
            size_counts = tuple(Counter(sizes).items())
        else:
            counts = np.bincount(np.frombuffer(packed, np.uint8)).tolist()
            seen = sorted((size for size, count in enumerate(counts) if count), key=packed.index)
            size_counts = tuple((size, counts[size]) for size in seen)
        if min(size for size, _ in size_counts) < 1:
            raise DomainError(f"part sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "size_counts", size_counts)
        object.__setattr__(self, "n", sum(size * count for size, count in size_counts))

    @property
    def k(self) -> int:
        return len(self.sizes)

    @cached_property
    def _bounds(self) -> tuple[int, ...]:
        """bounds[i] = last vertex id of part i."""
        return tuple(accumulate(self.sizes))

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


def partition(sizes: Iterable[int]) -> PartitionVector:
    """A PartitionVector from any iterable of sizes, validated as PartitionVector does."""
    return PartitionVector(sizes)


def uniform_partition(n: int) -> PartitionVector:
    """n singleton parts: the fully uniform (unpartitioned) case."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return PartitionVector((1,) * n)


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
