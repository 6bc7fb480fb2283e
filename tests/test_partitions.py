"""Tests for part vectors, symmetric sums, and the classical inequalities."""

import json
import math
import operator
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linhyp import (
    DomainError,
    PartitionVector,
    cluster_threshold,
    estimate_partite,
    falling_factorial,
    log_sigma,
    make_rng,
    newton_gap,
    partition,
    sigma,
    sigma_ratio_check,
    sigmas,
    uniform_partition,
)


def test_falling_factorial_values():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 1) == 5
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(2, 2) == 2


def test_partition_vector_basic():
    pv = partition((2, 2, 2))
    assert pv.k == 3 and pv.n == 6
    assert list(pv.part_vertices(0)) == [1, 2]
    assert list(pv.part_vertices(2)) == [5, 6]
    assert [pv.part_of(v) for v in range(1, 7)] == [0, 0, 1, 1, 2, 2]
    assert pv.reciprocal_sum() == Fraction(3, 2)
    # numpy integers are integral sizes too
    assert partition(make_rng(0).integers(1, 4, size=5)).k == 5
    # the histogram readers against per-part oracles, on a numpy array
    raw = make_rng(1515).integers(1, 40, size=1000)
    pv = partition(raw)
    parts = [int(x) for x in raw]
    assert pv.sizes == tuple(parts)
    assert pv.n == sum(parts)
    assert pv.size_counts == tuple(Counter(parts).items())
    assert pv.reciprocal_sum() == sum((Fraction(1, x) for x in parts), Fraction(0))


def test_part_bounds_built_on_first_use_cover_the_vertices():
    rng = make_rng(31)
    pv = partition(rng.integers(1, 6, size=40))
    assert "_bounds" not in vars(pv)
    # part_vertices first here, part_of first on the fresh vector below
    blocks = [pv.part_vertices(i) for i in range(pv.k)]
    assert [v for block in blocks for v in block] == list(range(1, pv.n + 1))
    assert [len(block) for block in blocks] == list(pv.sizes)
    fresh = partition(pv.sizes)
    assert [fresh.part_of(v) for v in range(1, pv.n + 1)] == [
        i for i, block in enumerate(blocks) for _ in block
    ]
    with pytest.raises(DomainError):
        fresh.part_of(pv.n + 1)


def test_vertex_part_agrees_with_part_of_and_is_built_on_first_read():
    for pv in (partition((2, 2, 2)), partition((4, 1, 3, 1, 5, 3, 3)), partition((300, 2, 1, 256)),
               uniform_partition(7)):
        assert "vertex_part" not in vars(pv)
        assert pv.vertex_part == (0, *(pv.part_of(v) for v in range(1, pv.n + 1))), pv.size_counts
        assert "vertex_part" in vars(pv)
    # nothing per vertex or per part is built for a vector nobody reads it from
    huge = uniform_partition(10**9)
    assert not {"vertex_part", "sizes", "_bounds"} & set(vars(huge))


def test_cached_views_leave_equality_and_hash_alone():
    warm = partition((4, 1, 3, 1, 5, 3, 3))
    assert warm.size_counts == ((4, 1), (1, 2), (3, 3), (5, 1))
    assert warm.n == 20 and warm.part_of(20) == 6
    assert {"size_counts", "_bounds", "n"} <= set(vars(warm))
    fresh = partition((4, 1, 3, 1, 5, 3, 3))
    assert warm == fresh and hash(warm) == hash(fresh)
    assert warm != partition((4, 1, 3, 1, 5, 3, 2))
    # cluster_threshold's lru_cache keys on the vector: the fresh one hits
    first = cluster_threshold(warm, 3, 2)
    hits = cluster_threshold.cache_info().hits
    assert cluster_threshold(fresh, 3, 2) == first
    assert cluster_threshold.cache_info().hits == hits + 1


def test_partition_vector_rejects_bad_sizes():
    with pytest.raises(DomainError):
        partition(())
    with pytest.raises(DomainError):
        partition((2, 0, 2))
    with pytest.raises(DomainError):
        partition((2, -1))
    with pytest.raises(DomainError):
        partition((0, 2, 2))
    with pytest.raises(DomainError):
        partition((2.5, 1))
    # equal to an int, but not an integer type: a Counter would merge these
    with pytest.raises(DomainError):
        partition((3, 3.0))
    with pytest.raises(DomainError):
        partition((2, "2"))
    with pytest.raises(DomainError):
        PartitionVector(5)


def test_partition_refuses_a_non_iterable_as_partition_vector_does():
    for bad in (5, np.array(3)):
        with pytest.raises(DomainError):
            partition(bad)
        with pytest.raises(DomainError):
            PartitionVector(bad)
    assert partition(iter([2, 1])).sizes == (2, 1)


def test_constructor_keeps_exact_ints_and_canonicalises_the_rest():
    given = (4, 1, 3)
    assert partition(given).sizes is given
    from_list = PartitionVector([2, 2, 2])
    assert type(from_list.sizes) is tuple
    assert from_list == partition((2, 2, 2)) and hash(from_list) == hash(partition((2, 2, 2)))
    mixed = partition((3, np.int64(3), True))
    assert mixed.sizes == (3, 3, 1)
    assert all(type(x) is int for x in mixed.sizes)
    assert json.dumps(list(mixed.sizes)) == "[3, 3, 1]"
    assert mixed.size_counts == ((3, 2), (1, 1))
    huge = partition((2 ** 70, 3, 5))
    assert huge.n == 2 ** 70 + 8
    assert sigma(huge, 3) == 2 ** 70 * 15
    # kept at scale too, on the byte-packed and the Counter histogram: a
    # copy would cost 8 bytes a part
    for top in (255, 256):
        given = tuple(make_rng(top).integers(1, top + 1, size=10**5).tolist())
        assert partition(given).sizes is given


def test_partition_reads_values_from_arrays_and_memoryviews():
    # an array's or memoryview's raw bytes are not its sizes
    for raw, plain in (
        (np.array([1, 300, 2], dtype=np.int64), (1, 300, 2)),
        (memoryview(np.array([3, 1, 3])), (3, 1, 3)),
    ):
        got, want = partition(raw), partition(plain)
        assert (got.sizes, got.size_counts, got.n) == (want.sizes, want.size_counts, want.n)
        assert all(type(x) is int for x in got.sizes)


_BYTE_SIZE = st.one_of(st.integers(1, 255), st.just(True), st.integers(1, 255).map(np.int64))
_SIZE = st.one_of(_BYTE_SIZE, st.integers(250, 300), st.integers(1, 300).map(np.uint16))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(sizes=st.lists(_SIZE, min_size=1, max_size=40))
@example(sizes=[255, 1, 255])
@example(sizes=[256, 1, 256])
@example(sizes=[True, np.int64(255), 256])
def test_size_histogram_matches_a_counter_oracle(sizes):
    canonical = tuple(map(operator.index, sizes))
    oracle = Counter(canonical)
    for given in (sizes, tuple(sizes)):
        pv = partition(given)
        assert pv.sizes == canonical and all(type(x) is int for x in pv.sizes)
        # a Counter keeps its keys in first-seen order
        assert pv.size_counts == tuple(oracle.items())
        assert pv.n == sum(canonical)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    sizes=st.lists(_BYTE_SIZE, max_size=20),
    bad=st.sampled_from([0, -1, -256, np.int64(0), 2.0, 3.5, "2"]),
    at=st.integers(0, 20),
    past_a_byte=st.booleans(),
)
def test_bad_sizes_are_refused_on_both_histogram_paths(sizes, bad, at, past_a_byte):
    sizes = sizes + [256] * past_a_byte
    at %= len(sizes) + 1
    sizes.insert(at, bad)
    with pytest.raises(DomainError, match=f"part {at} of {len(sizes)} is "):
        partition(sizes)


def test_estimate_never_builds_or_type_checks_the_per_part_tuple():
    given = tuple(make_rng(2901).integers(1, 8, size=10**5).tolist())
    # a numpy integer among exact ints: a type pass at construction would
    # build the canonical tuple there
    for t in (given, given[:-1] + (np.int64(given[-1]),)):
        pv = partition(t)
        estimate_partite(pv, 3, 10)
        assert "sizes" not in vars(pv)
        assert pv.sizes == given and all(type(x) is int for x in pv.sizes)
    assert partition(given).sizes is given


def test_mixed_types_equal_and_hash_like_their_canonical_twin_read_or_not():
    for read_mixed in (False, True):
        for read_twin in (False, True):
            mixed, twin = partition((3, np.int64(3), True)), partition((3, 3, 1))
            if read_mixed:
                assert mixed.sizes == (3, 3, 1)
            if read_twin:
                assert twin.sizes == (3, 3, 1)
            assert mixed == twin and twin == mixed and hash(mixed) == hash(twin)
            assert mixed != partition((3, 1, 3)) and mixed != partition((1, 3, 3))


@pytest.mark.parametrize("tail", [(0,), (2.5,), (-3,), (300, 0)])
def test_refusal_names_the_first_bad_part_briefly(tail):
    sizes = (2,) * 100000 + tail
    with pytest.raises(DomainError) as info:
        partition(sizes)
    message = str(info.value)
    assert len(message) < 200
    at = 100000 + (len(tail) - 1)
    assert f"part {at} of {len(sizes)} is {sizes[at]!r}" in message


def test_uniform_partition_is_built_from_its_histogram():
    tracemalloc.start()
    try:
        pv = uniform_partition(10**7)
        est = estimate_partite(pv, 3, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (pv.size_counts, pv.n, pv.k) == (((1, 10**7),), 10**7, 10**7)
    assert "sizes" not in vars(pv)
    # singleton parts: sigma_s = C(n, s)
    n = 10**7
    assert est.correction_exact == -Fraction(math.comb(n, 2) * n * n * 10 * 9, 2 * math.comb(n, 3) ** 2)
    assert estimate_partite(uniform_partition(50), 3, 10) == estimate_partite(partition((1,) * 50), 3, 10)
    assert uniform_partition(6) == partition((1,) * 6) and hash(uniform_partition(6)) == hash(partition([1] * 6))


def test_uniform_partition_is_all_singletons():
    pv = uniform_partition(5)
    assert pv.sizes == (1, 1, 1, 1, 1)
    assert pv.part_of(3) == 2


def test_sigma_known_values():
    pv = partition((2, 2, 2))
    assert [sigma(pv, s) for s in range(4)] == [1, 6, 12, 8]
    assert sigma(partition((3, 1, 2)), 3) == 6
    for n in (4, 7, 10):
        pvn = uniform_partition(n)
        for s in range(n + 1):
            assert sigma(pvn, s) == math.comb(n, s)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6))
def test_sigma_matches_sum_over_part_subsets(sizes):
    pv = partition(sizes)
    for s in range(len(sizes) + 1):
        want = tuple(sum(math.prod(c) for c in combinations(sizes, j)) for j in range(s + 1))
        assert sigmas(pv, s) == want, (sizes, s)
        assert sigma(pv, s) == want[s], (sizes, s)


def _per_part_sigmas(sizes, s):
    """sigma_0..sigma_s from prod_i (1 + n_i x), one factor per part."""
    coeff = [1] + [0] * s
    for size in sizes:
        for j in range(s, 0, -1):
            coeff[j] += coeff[j - 1] * size
    return tuple(coeff)


def test_sigmas_match_the_per_part_product():
    rng = make_rng(1212)
    many = partition(rng.integers(1, 8, size=10**5))
    want = _per_part_sigmas(many.sizes, 5)
    for s in range(6):
        # truncating the product at degree s keeps the lower coefficients
        assert sigmas(many, s) == want[: s + 1], s
    # one size's count below s, another's above it
    mixed = partition((3,) * 2 + (5,) * 40 + (7,))
    assert sigmas(mixed, 12) == _per_part_sigmas(mixed.sizes, 12)
    distinct = partition(range(1, 301))
    assert sigmas(distinct, 20) == _per_part_sigmas(distinct.sizes, 20)


def test_sigma_order_domain():
    pv = partition((2, 2, 2))
    with pytest.raises(DomainError):
        sigma(pv, 4)
    with pytest.raises(DomainError):
        sigma(pv, -1)


def test_log_sigma_matches_exact_small():
    rng = make_rng(101)
    for _ in range(50):
        k = int(rng.integers(1, 12))
        sizes = tuple(int(rng.integers(1, 9)) for _ in range(k))
        pv = partition(sizes)
        s = int(rng.integers(0, k + 1))
        assert log_sigma(pv, s) == math.log(sigma(pv, s))


def test_log_sigma_large_k():
    # 2*10^5 parts, order 3: sigma_3 is near 1e16, past exact float range
    rng = make_rng(77)
    sizes = tuple(int(x) for x in rng.integers(1, 6, size=200000))
    pv = partition(sizes)
    exact = sigma(pv, 3)
    assert abs(log_sigma(pv, 3) - math.log(exact)) < 1e-9


def test_log_sigma_rescaling_branch():
    # equal parts make sigma analytic: sigma_s = binomial(k, s) c^s,
    # far beyond float range, so only the log of the exact integer holds it
    k, s, c = 2000, 120, 1000
    pv = partition((c,) * k)
    expected = math.log(math.comb(k, s)) + s * math.log(c)
    assert expected > 1000
    assert abs(log_sigma(pv, s) - expected) < 1e-9 * expected


def test_estimate_partite_matches_newton_identities_at_scale():
    # sigma_1..sigma_3 from exact power sums p_j = sum_i n_i^j
    rng = make_rng(4242)
    pv = partition(rng.integers(1, 8, size=10**5))
    m = pv.n
    p1, p2, p3 = (sum(size ** j for size in pv.sizes) for j in (1, 2, 3))
    e1 = p1
    e2, rem2 = divmod(e1 * p1 - p2, 2)
    e3, rem3 = divmod(e2 * p1 - e1 * p2 + p3, 3)
    assert rem2 == rem3 == 0
    est = estimate_partite(pv, 3, m)
    # the estimate reads the histogram only: no per-part bounds are built
    assert "_bounds" not in vars(pv)
    assert est.correction_exact == -Fraction(e2 * e1 ** 2 * m * (m - 1), 2 * e3 * e3)
    assert est.leading_log == pytest.approx(m * math.log(e3) - math.lgamma(m + 1), rel=1e-12)


def test_newton_gap_values_and_domain():
    pv = partition((2, 2, 2))
    assert newton_gap(pv, 1) == Fraction(6, 3) ** 2 - Fraction(12, 3)
    with pytest.raises(DomainError):
        newton_gap(pv, 0)
    with pytest.raises(DomainError):
        newton_gap(pv, 3)


def test_newton_gap_nonnegative_fuzz():
    rng = make_rng(2024)
    for _ in range(500):
        k = int(rng.integers(2, 10))
        sizes = tuple(int(rng.integers(1, 50)) for _ in range(k))
        pv = partition(sizes)
        j = int(rng.integers(1, k))
        assert newton_gap(pv, j) >= 0


def test_sigma_ratio_equal_parts_is_equality():
    check = sigma_ratio_check(uniform_partition(5), 1, 3)
    assert check.holds
    assert check.ratio == pytest.approx(0.5)
    assert check.bound == pytest.approx(0.5)
    check2 = sigma_ratio_check(partition((2, 2, 2)), 2, 3)
    assert check2.holds
    assert check2.ratio == pytest.approx(1.5)
    assert check2.bound == pytest.approx(1.5)


def test_sigma_ratio_unequal_parts_strict():
    check = sigma_ratio_check(partition((3, 1, 2)), 1, 3)
    assert check.holds
    assert check.ratio == pytest.approx(1.0)
    assert check.bound == pytest.approx(121 / 108)


def test_sigma_ratio_fuzz():
    rng = make_rng(515)
    for _ in range(500):
        k = int(rng.integers(2, 11))
        sizes = tuple(int(rng.integers(1, 30)) for _ in range(k))
        s = int(rng.integers(1, k))
        r = int(rng.integers(s + 1, k + 1))
        assert sigma_ratio_check(partition(sizes), s, r).holds


def test_sigma_ratio_domain():
    pv = partition((2, 2, 2))
    # s == r degenerates to ratio 1 against bound 1
    same = sigma_ratio_check(pv, 2, 2)
    assert (same.ratio, same.bound, same.holds) == (1.0, 1.0, True)
    with pytest.raises(DomainError):
        sigma_ratio_check(pv, 3, 2)
    with pytest.raises(DomainError):
        sigma_ratio_check(pv, 0, 2)
    with pytest.raises(DomainError):
        sigma_ratio_check(pv, 1, 4)
