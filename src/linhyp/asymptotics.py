"""Closed-form estimates for the number of linear hypergraphs.

Each estimate is reported in log space as a leading term plus a
nonpositive correction, together with an explicit error budget for the
neglected terms.  The correction is also kept as an exact rational so
callers can reason about it without float noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .partitions import PartitionVector, falling_factorial, log_sigma, sigmas

__all__ = [
    "EstimateResult",
    "cluster_mean",
    "estimate_partite",
    "estimate_refined_uniform",
    "estimate_uniform",
    "falling_factorial",
    "log_factorial",
]


def log_factorial(m: int) -> float:
    """ln m!, as lgamma(m + 1)."""
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    return math.lgamma(m + 1)


@dataclass(frozen=True)
class EstimateResult:
    """Log-space estimate: log_value = leading_log + correction."""

    leading_log: float
    correction: float
    error_budget: float
    correction_exact: Fraction

    @property
    def log_value(self) -> float:
        return self.leading_log + self.correction

    def to_json_dict(self) -> dict:
        return {
            "leading_log": self.leading_log,
            "correction": self.correction,
            "log_value": self.log_value,
            "error_budget": self.error_budget,
            "correction_exact": str(self.correction_exact),
        }


def cluster_mean(pv: PartitionVector, r: int, m: int) -> Fraction:
    """A = sigma_2 sigma_{r-2}^2 [m]_2 / (2 sigma_r^2), exactly.

    The leading-order mean number of two-edge clusters in m uniform
    edges: estimate_partite's correction is -A, and ratio_series uses A
    as its term ratio.
    """
    return _cluster_mean(sigmas(pv, r), r, m)


def _cluster_mean(sig: tuple[int, ...], r: int, m: int) -> Fraction:
    return Fraction(sig[2] * sig[r - 2] ** 2 * falling_factorial(m, 2), 2 * sig[r] * sig[r])


def _check_m(m: int, edges: int) -> None:
    if not 0 <= m <= edges:
        raise DomainError(f"m={m} outside 0..{edges}")


def estimate_partite(pv: PartitionVector, r: int, m: int) -> EstimateResult:
    """General multipartite estimate of ln |linear hypergraphs|.

    Leading term ln(sigma_r^m / m!), corrected by
    -sigma_2 sigma_{r-2}^2 [m]_2 / (2 sigma_r^2); the neglected terms
    are budgeted at m^2/n^3 + m^3/n^4.  m outside 0..sigma_r raises
    DomainError.
    """
    if not 3 <= r <= pv.k:
        raise DomainError(f"need 3 <= r <= k, got r={r}, k={pv.k}")
    sig = sigmas(pv, r)
    _check_m(m, sig[r])
    # log_sigma stays the leading term's own call, so that a traced bench
    # run times it as a layer (bench/tracer.py)
    leading = m * log_sigma(pv, r) - log_factorial(m)
    correction = -_cluster_mean(sig, r, m)
    n = pv.n
    budget = m * m / n ** 3 + m ** 3 / n ** 4
    return EstimateResult(leading, float(correction), budget, correction)


def estimate_uniform(n: int, r: int, m: int) -> EstimateResult:
    """Unpartitioned estimate: edge space is all r-subsets of [n].

    Leading term ln(binomial(n, r)^m / m!), corrected by
    -[r]_2^2 [m]_2 / (4 n^2), budget m^2/n^3 + m^3/n^4.  m outside
    0..binomial(n, r) raises DomainError.
    """
    if not 3 <= r <= n:
        raise DomainError(f"need 3 <= r <= n, got r={r}, n={n}")
    edges = math.comb(n, r)
    _check_m(m, edges)
    leading = m * math.log(edges) - log_factorial(m)
    correction = -Fraction(
        falling_factorial(r, 2) ** 2 * falling_factorial(m, 2),
        4 * n * n,
    )
    budget = m * m / n ** 3 + m ** 3 / n ** 4
    return EstimateResult(leading, float(correction), budget, correction)


def estimate_refined_uniform(n: int, r: int, m: int) -> EstimateResult:
    """Uniform estimate with the next-order term, budget m^2/n^3.

    Subtracts the additional [r]_2^3 (3r^2 - 15r + 20) m^3 / (24 n^4);
    the quadratic 3r^2 - 15r + 20 is positive for every r, so the
    correction stays nonpositive.
    """
    base = estimate_uniform(n, r, m)
    extra = Fraction(
        falling_factorial(r, 2) ** 3 * (3 * r * r - 15 * r + 20) * m ** 3,
        24 * n ** 4,
    )
    correction = base.correction_exact - extra
    return EstimateResult(
        leading_log=base.leading_log,
        correction=float(correction),
        error_budget=m * m / n ** 3,
        correction_exact=correction,
    )
