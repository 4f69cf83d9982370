import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwl import (
    Bipartition,
    GainStructure,
    GainVector,
    biseparable_bound,
    enumerate_bipartitions,
    equal_split_gains,
    genuine_bound,
    steering_bound,
)
from cvwl.partitions import BLOCK_SUMS, genuine_bounds


def _doubling_bounds(products):
    """Every bipartition's sum bound in enumeration order, (2^(N-1) - 1, B),
    from subset sums built one mode at a time: N - 1 doubling steps, each
    adding one mode to a copy of every sum so far.  The per-mode reference
    for the grouped bound."""
    p = np.atleast_2d(products).T
    sums = np.stack((p[0], np.zeros_like(p[0])))[:, None, :]
    for k in range(1, len(p)):
        sums = np.concatenate((sums, sums + p[k]), axis=1)
    return 2.0 * (np.abs(sums[0, -2::-1]) + np.abs(sums[1, 1:]))


def _tied_rows(n, qs):
    """Products (1, q, ..., q) of tied gains, one row per q."""
    products = np.ones((len(qs), n))
    products[:, 1:] = np.asarray(qs)[:, None]
    return products


# tied products: cancelling, exact and random values, and q = p_0
TIED_QS = (1.0, -1.0, 0.0, -0.5, 1 / 3, -1 / 3, 0.1, -0.7, -1.3, 2.9, -0.2468, 0.8642)


def _sets(parts):
    return {(tuple(sorted(p.set_a)), tuple(sorted(p.set_b))) for p in parts}


class TestEnumeration:
    def test_three_modes(self):
        assert _sets(enumerate_bipartitions(3)) == {
            ((0, 2), (1,)), ((0, 1), (2,)), ((0,), (1, 2)),
        }

    def test_four_modes_lists_all_seven(self):
        expected = {
            ((0, 1, 2), (3,)), ((0, 1, 3), (2,)), ((0, 2, 3), (1,)), ((0,), (1, 2, 3)),
            ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
        }
        assert _sets(enumerate_bipartitions(4)) == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_count(self, n):
        assert len(enumerate_bipartitions(n)) == 2 ** (n - 1) - 1

    def test_deterministic_order(self):
        first = [p.label() for p in enumerate_bipartitions(4)]
        second = [p.label() for p in enumerate_bipartitions(4)]
        assert first == second
        assert first[0] == "1,3,4|2"

    def test_mode_zero_always_in_set_a(self):
        assert all(0 in p.set_a for p in enumerate_bipartitions(6))

    @pytest.mark.parametrize("n", [1, 21])
    def test_range_guard(self, n):
        with pytest.raises(ValueError):
            enumerate_bipartitions(n)

    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            Bipartition(frozenset({1}), frozenset({0}))
        with pytest.raises(ValueError):
            Bipartition(frozenset({0, 1}), frozenset({1}))


def _partition(a, b):
    return Bipartition(frozenset(a), frozenset(b))


class TestBiseparableBound:
    def test_pair_form_sees_nothing_from_its_own_split(self):
        gains = GainVector((1, -1, 0), (1, 1, 0.7))
        assert biseparable_bound(gains, _partition({0, 1}, {2})) == pytest.approx(0.0)

    def test_pair_form_constrains_the_other_splits(self):
        gains = GainVector((1, -1, 0), (1, 1, 1))
        assert biseparable_bound(gains, _partition({0, 2}, {1})) == pytest.approx(4.0)

    def test_all_ones(self):
        n = 5
        gains = GainVector((1,) * n, (1,) * n)
        assert biseparable_bound(gains, _partition({0, 1}, {2, 3, 4})) == pytest.approx(2 * n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            biseparable_bound(GainVector((1, 1), (1, 1)), _partition({0}, {1, 2}))


class TestGenuineBound:
    @pytest.mark.parametrize("g,h", [(0.5, -0.5), (0.9, -0.3), (0.2, -0.9)])
    def test_tied_gains_with_small_negative_product(self, g, h):
        gains = GainVector((1, h, h), (1, g, g))
        assert genuine_bound(gains, 3) == pytest.approx(2.0)

    def test_four_mode_equal_split_pattern(self):
        c = 1 / math.sqrt(3)
        gains = GainVector((1, -c, -c, -c), (1, c, c, c))
        assert genuine_bound(gains, 4) == pytest.approx(4 / 3)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_equal_split_bound_any_n(self, n):
        assert genuine_bound(equal_split_gains(n), n) == pytest.approx(4 / (n - 1))

    def test_is_minimum_over_bipartitions(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 7))
            gains = GainVector(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
            bound = genuine_bound(gains, n)
            per_part = [biseparable_bound(gains, p) for p in enumerate_bipartitions(n)]
            assert bound == pytest.approx(min(per_part))
            assert all(bound <= b + 1e-12 for b in per_part)

    def test_matches_explicit_three_term_minimum(self, rng):
        for _ in range(1000):
            h = rng.uniform(-2, 2, 3)
            g = rng.uniform(-2, 2, 3)
            p = h * g
            explicit = 2 * min(
                abs(p[2]) + abs(p[0] + p[1]),
                abs(p[1]) + abs(p[0] + p[2]),
                abs(p[0]) + abs(p[1] + p[2]),
            )
            assert genuine_bound(GainVector(h, g), 3) == pytest.approx(explicit)

    @given(
        perm=st.permutations(range(4)),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, perm, seed):
        local = np.random.default_rng(seed)
        h = local.uniform(-2, 2, 4)
        g = local.uniform(-2, 2, 4)
        permuted = GainVector(h[list(perm)], g[list(perm)])
        assert genuine_bound(permuted, 4) == pytest.approx(
            genuine_bound(GainVector(h, g), 4))

    @given(c=st.floats(0.01, 50).flatmap(lambda v: st.sampled_from([v, -v])))
    @settings(max_examples=60, deadline=None)
    def test_gain_rescaling_invariance(self, c):
        h = np.array([1.0, -0.7, 0.3])
        g = np.array([0.9, 0.4, -1.1])
        scaled = GainVector(c * h, g / c)
        assert genuine_bound(scaled, 3) == pytest.approx(
            genuine_bound(GainVector(h, g), 3))

    @given(n=st.integers(2, 12), rows=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batched_bound_matches_enumeration(self, n, rows, seed):
        local = np.random.default_rng(seed)
        h, g = local.uniform(-2, 2, (rows, n)), local.uniform(-2, 2, (rows, n))
        batched = genuine_bounds(h * g)
        for hi, gi, bound in zip(h, g, batched):
            gains = GainVector(hi, gi)
            oracle = min(biseparable_bound(gains, p) for p in enumerate_bipartitions(n))
            assert bound == pytest.approx(oracle, rel=1e-12, abs=1e-15)
            assert genuine_bound(gains, n) == bound

    def test_batched_bound_blocks_rows(self, rng):
        # a block holds BLOCK_SUMS >> 11 rows at N = 12; take two and a bit
        products = rng.uniform(-2, 2, ((BLOCK_SUMS >> 10) + 3, 12))
        assert np.array_equal(genuine_bounds(products),
                              np.array([genuine_bounds(p)[0] for p in products]))

    @given(n=st.integers(2, 12), rows=st.integers(1, 3), values=st.sampled_from([2, 3, None]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_grouped_bound_matches_enumeration(self, n, rows, values, seed):
        # `values` columns shared by every row force multiplicities; None
        # draws every product on its own
        local = np.random.default_rng(seed)
        if values is None:
            products = local.uniform(-2, 2, (rows, n))
        else:
            products = local.uniform(-2, 2, (rows, values))[:, local.integers(0, values, n)]
        parts = enumerate_bipartitions(n)
        for row, bound in zip(products, genuine_bounds(products)):
            gains = GainVector(row, np.ones(n))
            oracle = min(biseparable_bound(gains, p) for p in parts)
            assert bound == pytest.approx(oracle, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_tied_rows_equal_the_doubling(self, n):
        products = _tied_rows(n, TIED_QS)
        expected = np.array([_doubling_bounds(row).min() for row in products])
        assert np.array_equal(genuine_bounds(products), expected)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_tied_rows_match_the_closed_form(self, n):
        # k of the N - 1 tied modes on side B
        for q, bound in zip(TIED_QS, genuine_bounds(_tied_rows(n, TIED_QS))):
            closed = 2 * min(abs(1 + (n - 1 - k) * q) + abs(k * q) for k in range(1, n))
            assert bound == pytest.approx(closed, rel=1e-12, abs=1e-15)

    def test_columns_equal_in_one_row_only(self):
        # dyadic products sum exactly in any order, so grouping the columns
        # equal in row 0 alone would show in row 1
        products = np.array([[1.0, 0.25, 0.25, -0.75, 0.25, -0.75],
                             [1.0, 0.25, -0.5, -0.75, 0.25, 1.5],
                             [-0.5, 0.25, 0.25, 0.5, 0.25, -0.75]])
        expected = np.array([_doubling_bounds(row).min() for row in products])
        assert np.array_equal(genuine_bounds(products), expected)
        assert np.array_equal(genuine_bounds(products),
                              np.array([genuine_bounds(row)[0] for row in products]))

    @pytest.mark.parametrize("n", range(3, 12))
    def test_epr2_rows_match_the_doubling(self, n, rng):
        # three product values, 1, h_R g_R and h_L^2, on interleaved modes:
        # the sums add the same values in another order
        rows = GainStructure("epr2", n).rows(rng.uniform(-2, 2, (200, 3)))
        products = rows[:, :n] * rows[:, n:]
        np.testing.assert_allclose(genuine_bounds(products),
                                   _doubling_bounds(products).min(axis=0), rtol=1e-14, atol=0)


class TestSteeringBound:
    def test_tied_gains(self):
        gains = GainVector((1, -0.4, -0.4), (1, 0.6, 0.6))
        assert steering_bound(gains) == pytest.approx(2 * 0.24)

    def test_equal_split(self):
        assert steering_bound(equal_split_gains(3)) == pytest.approx(1.0)

    def test_zero_product_gives_no_constraint(self):
        assert steering_bound(GainVector((1, 1, 0), (1, 1, 5))) == 0.0

    def test_only_three_modes(self):
        with pytest.raises(ValueError):
            steering_bound(GainVector((1, 1, 1, 1), (1, 1, 1, 1)))

    def test_never_exceeds_genuine_bound(self, rng):
        for _ in range(1000):
            gains = GainVector(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
            assert steering_bound(gains) <= genuine_bound(gains, 3) + 1e-12
