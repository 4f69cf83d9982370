import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwl import (
    GainVector,
    GaussianState,
    PhysicalityError,
    SqueezeSpec,
    apply_beam_splitter,
    apply_loss,
    mix,
    permute_modes,
    quadrature_variances,
    second_moments,
    squeezed_vacuum,
    tensor,
    vacuum_state,
)
from conftest import random_pure_state, random_state


class TestVacuum:
    def test_single_mode_unit_variances(self):
        state = vacuum_state(1)
        assert state.cov[0, 0] == 1.0
        assert state.cov[1, 1] == 1.0

    def test_three_modes_identity(self):
        assert np.array_equal(vacuum_state(3).cov, np.eye(6))

    def test_difference_variance(self):
        var_u, _ = quadrature_variances(vacuum_state(2), GainVector((1, -1), (0, 0)))
        assert var_u == pytest.approx(2.0)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        state = squeezed_vacuum(SqueezeSpec(0.0, "x"))
        assert np.array_equal(state.cov, np.eye(2))

    @pytest.mark.parametrize("r,orientation", [(1.0, "x"), (2.0, "p"), (0.3, "p")])
    def test_variances(self, r, orientation):
        state = squeezed_vacuum(SqueezeSpec(r, orientation))
        vx, vp = state.cov[0, 0], state.cov[1, 1]
        if orientation == "x":
            assert vx == pytest.approx(math.exp(-2 * r), abs=1e-15)
            assert vp == pytest.approx(math.exp(2 * r), rel=1e-15)
        else:
            assert vp == pytest.approx(math.exp(-2 * r), abs=1e-15)
            assert vx == pytest.approx(math.exp(2 * r), rel=1e-15)
        assert state.cov[0, 1] == 0.0

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezeSpec(-0.1, "x")

    @pytest.mark.parametrize("r", [float("nan"), float("inf")])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(ValueError):
            SqueezeSpec(r, "x")

    def test_overflowing_r_is_a_physicality_error(self):
        # exp(2r) is not finite for r = 400; no overflow warning may leak
        with pytest.raises(PhysicalityError, match="r = 400"):
            squeezed_vacuum(SqueezeSpec(400.0, "p"))

    def test_bad_orientation_rejected(self):
        with pytest.raises(ValueError):
            SqueezeSpec(1.0, "y")


class TestTensor:
    def test_two_vacua(self):
        state = tensor([vacuum_state(1), vacuum_state(1)])
        assert np.array_equal(state.cov, vacuum_state(2).cov)

    def test_independent_blocks_have_zero_cross_covariance(self):
        state = tensor([squeezed_vacuum(SqueezeSpec(1.2, "x")), vacuum_state(1)])
        assert state.cov[0, 1] == 0.0
        assert state.cov[0, 3] == 0.0
        assert state.cov[2, 1] == 0.0

    def test_mode_count(self):
        parts = [squeezed_vacuum(SqueezeSpec(0.5, "p")), vacuum_state(1), vacuum_state(1)]
        assert tensor(parts).n_modes == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor([])


class TestBeamSplitter:
    def test_vacuum_invariant(self):
        state = apply_beam_splitter(vacuum_state(2), 0, 1, 0.5)
        assert np.allclose(state.cov, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_two_mode_squeezing(self, r):
        # orthogonally squeezed inputs on a 50:50 splitter give the
        # correlated pair with Var(x0 - x1) = Var(p0 + p1) = 2 exp(-2r)
        state = tensor([
            squeezed_vacuum(SqueezeSpec(r, "p")),
            squeezed_vacuum(SqueezeSpec(r, "x")),
        ])
        state = apply_beam_splitter(state, 0, 1, 0.5)
        var_minus, _ = quadrature_variances(state, GainVector((1, -1), (0, 0)))
        _, var_plus = quadrature_variances(state, GainVector((0, 0), (1, 1)))
        assert var_minus == pytest.approx(2 * math.exp(-2 * r), rel=1e-12)
        assert var_plus == pytest.approx(2 * math.exp(-2 * r), rel=1e-12)

    def test_full_reflection_keeps_spectrum(self, rng):
        state = random_pure_state(3, rng)
        swapped = apply_beam_splitter(state, 0, 2, 1.0)
        assert np.allclose(
            np.linalg.eigvalsh(swapped.cov), np.linalg.eigvalsh(state.cov), rtol=1e-10
        )

    @pytest.mark.parametrize("i,j,r", [(0, 0, 0.5), (0, 5, 0.5), (0, 1, 1.5), (0, 1, -0.1)])
    def test_invalid_arguments(self, i, j, r):
        with pytest.raises(ValueError):
            apply_beam_splitter(vacuum_state(2), i, j, r)

    def test_preserves_symmetry_psd_and_determinant(self, rng):
        # 1000 random (state, R) trials
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            state = random_state(n, rng)
            i, j = rng.choice(n, size=2, replace=False)
            out = apply_beam_splitter(state, int(i), int(j), float(rng.uniform()))
            assert np.allclose(out.cov, out.cov.T, atol=1e-10)
            assert np.linalg.eigvalsh(out.cov)[0] > -1e-9
            assert np.linalg.det(out.cov) == pytest.approx(
                np.linalg.det(state.cov), rel=1e-8
            )

    def test_every_mode_obeys_uncertainty(self, rng):
        for _ in range(200):
            state = random_state(int(rng.integers(1, 5)), rng)
            n = state.n_modes
            for m in range(n):
                vx, vp = state.cov[m, m], state.cov[n + m, n + m]
                cxp = state.cov[m, n + m]
                assert vx * vp - cxp**2 >= 1 - 1e-9


class TestLoss:
    def test_lossless_identity(self, rng):
        state = random_pure_state(2, rng)
        assert np.allclose(apply_loss(state, 0, 1.0).cov, state.cov, atol=1e-14)

    def test_full_loss_gives_decorrelated_vacuum(self, rng):
        state = random_pure_state(3, rng)
        out = apply_loss(state, 1, 0.0)
        n = 3
        assert out.cov[1, 1] == pytest.approx(1.0)
        assert out.cov[n + 1, n + 1] == pytest.approx(1.0)
        assert np.allclose(out.cov[1, [0, 2, n, n + 2]], 0.0, atol=1e-14)

    def test_half_loss_on_squeezed_mode(self):
        state = apply_loss(squeezed_vacuum(SqueezeSpec(1.0, "x")), 0, 0.5)
        assert state.cov[0, 0] == pytest.approx(0.5 * math.exp(-2) + 0.5, rel=1e-14)

    def test_semigroup_composition(self, rng):
        state = random_pure_state(2, rng)
        twice = apply_loss(apply_loss(state, 0, 0.7), 0, 0.6)
        once = apply_loss(state, 0, 0.42)
        assert np.allclose(twice.cov, once.cov, atol=1e-12)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            apply_loss(vacuum_state(1), 0, 1.2)


class TestQuadratureVariances:
    def test_vacuum_equal_split(self):
        c = 1 / math.sqrt(2)
        gains = GainVector((1, -c, -c), (1, c, c))
        assert quadrature_variances(vacuum_state(3), gains) == (
            pytest.approx(2.0), pytest.approx(2.0))

    @given(scale=st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_in_gains(self, scale):
        state = vacuum_state(2)
        base = GainVector((1.0, 0.5), (0.3, -0.2))
        scaled = GainVector(tuple(scale * h for h in base.h), base.g)
        vu0, vv0 = quadrature_variances(state, base)
        vu1, vv1 = quadrature_variances(state, scaled)
        assert vu1 == pytest.approx(scale**2 * vu0, abs=1e-12)
        assert vv1 == pytest.approx(vv0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            quadrature_variances(vacuum_state(3), GainVector((1, 2), (1, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_gain_vector_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GainVector((1.0, bad), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            GainVector((1.0, 1.0), (bad, 1.0))

    def test_gain_vector_validation(self):
        with pytest.raises(ValueError):
            GainVector((1, 2), (1,))
        with pytest.raises(ValueError):
            GainVector((), ())


class TestMixtures:
    def test_single_component_matches_state(self, rng):
        state = random_pure_state(2, rng)
        mixture = mix([(1.0, state)])
        gains = GainVector((1, -1), (1, 1))
        assert quadrature_variances(mixture, gains) == quadrature_variances(state, gains)

    def test_equal_mix_of_identical_states(self, rng):
        state = random_pure_state(2, rng)
        mixture = mix([(0.5, state), (0.5, state)])
        assert np.allclose(second_moments(mixture), state.cov)

    def test_variance_is_weighted_average_and_above_minimum(self, rng):
        for _ in range(100):
            a = random_state(3, rng)
            b = random_state(3, rng)
            w = float(rng.uniform(0.05, 0.95))
            mixture = mix([(w, a), (1 - w, b)])
            gains = GainVector(rng.normal(size=3), rng.normal(size=3))
            vu, vv = quadrature_variances(mixture, gains)
            vua, vva = quadrature_variances(a, gains)
            vub, vvb = quadrature_variances(b, gains)
            assert vu == pytest.approx(w * vua + (1 - w) * vub, rel=1e-12, abs=1e-12)
            assert vv == pytest.approx(w * vva + (1 - w) * vvb, rel=1e-12, abs=1e-12)
            assert vu >= min(vua, vub) - 1e-12

    def test_weight_sum_tolerance(self, rng):
        state = random_pure_state(1, rng)
        mixture = mix([(0.5 + 4e-10, state), (0.5, state)])
        assert sum(w for w, _ in mixture.components) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            mix([(0.6, state), (0.5, state)])

    def test_mode_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            mix([(0.5, vacuum_state(1)), (0.5, vacuum_state(2))])

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            mix([(0.0, vacuum_state(1)), (1.0, vacuum_state(1))])


class TestValidationAndImmutability:
    def test_asymmetric_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-6
        with pytest.raises(PhysicalityError):
            GaussianState(bad)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(PhysicalityError):
            GaussianState(np.diag([-0.5, 1.0]))

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(PhysicalityError):
            GaussianState(np.diag([0.5, 0.5]))

    def test_nonfinite_rejected(self):
        with pytest.raises(PhysicalityError):
            GaussianState(np.diag([np.inf, 0.0]))

    def test_covariance_is_readonly(self):
        state = vacuum_state(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 5.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.eye(3))


def test_permute_modes_roundtrip(rng):
    state = random_pure_state(4, rng)
    order = [2, 0, 3, 1]
    back = [order.index(k) for k in range(4)]
    assert np.allclose(permute_modes(permute_modes(state, order), back).cov, state.cov)
    gains = GainVector((1, 2, 3, 4), (4, 3, 2, 1))
    permuted_gains = GainVector([gains.h[m] for m in order], [gains.g[m] for m in order])
    assert quadrature_variances(permute_modes(state, order), permuted_gains) == \
        pytest.approx(quadrature_variances(state, gains))
