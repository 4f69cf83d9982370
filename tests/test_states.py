import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwl import (
    GainVector,
    GaussianState,
    MixedState,
    PhysicalityError,
    SqueezeSpec,
    apply_beam_splitter,
    apply_loss,
    build_state,
    quadrature_variances,
    second_moments,
    squeezed_vacuum,
    tensor,
    vacuum_state,
)
from cvwl.states import lossy_covariances
from conftest import permute_modes, random_pure_state, random_state

# from this squeeze parameter on, exp(2r) rounds past half the largest float,
# the most that a covariance entry may hold
R_LIMIT = math.log(np.finfo(float).max / 2.0) / 2.0


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

    @pytest.mark.parametrize("r", [R_LIMIT, np.nextafter(R_LIMIT, math.inf), 400.0, 1e308])
    def test_r_from_the_overflow_limit_rejected(self, r):
        assert math.exp(2.0 * R_LIMIT) > np.finfo(float).max / 2.0
        with pytest.raises(ValueError, match="below 354.54478"):
            SqueezeSpec(r, "p")

    @pytest.mark.parametrize("orientation", ["x", "p"])
    def test_r_just_below_the_limit_builds(self, orientation):
        cov = squeezed_vacuum(SqueezeSpec(np.nextafter(R_LIMIT, 0.0), orientation)).cov
        assert np.max(cov) == pytest.approx(math.exp(2.0 * R_LIMIT), rel=1e-12)
        assert np.max(cov) <= np.finfo(float).max / 2.0

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


def loss_by_fancy_index(state, modes, eta):
    """The per-mode loop that apply_loss ran before it scaled by a vector:
    for each mode in turn, its two rows and then its two columns times
    sqrt(eta), and (1 - eta) I added to its 2 x 2 block."""
    n = state.n_modes
    cov = np.array(state.cov)
    root = np.sqrt(eta)
    for mode in modes:
        idx = [mode, n + mode]
        cov[idx, :] *= root
        cov[:, idx] *= root
        cov[np.ix_(idx, idx)] += (1.0 - eta) * np.eye(2)
    return cov


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

    def test_several_modes_equal_the_chain_of_single_mode_calls(self, rng):
        for _ in range(200):
            state = random_state(int(rng.integers(1, 6)), rng)
            n = state.n_modes
            modes = [int(m) for m in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
            eta = (0.0, 1.0, float(rng.uniform()))[int(rng.integers(3))]
            chained = state
            for mode in modes:
                chained = apply_loss(chained, mode, eta)
            assert np.array_equal(apply_loss(state, modes, eta).cov, chained.cov)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           preset=st.sampled_from(["random", "vacuum", "ghz", "epr1", "epr2"]),
           eta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
           negative_zeros=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_mode_loop_bit_for_bit(self, seed, n, preset, eta, negative_zeros,
                                                   data):
        # the presets hold exact zeros; flipping them to -0.0 makes the sign
        # of every zero that the two ways compute count
        rng = np.random.default_rng(seed)
        if preset == "random" or (preset != "vacuum" and n < (2 if preset == "ghz" else 3)):
            state = random_state(n, rng)
        else:
            state = build_state(preset, n, float(rng.uniform(0.0, 2.0)))
        if negative_zeros:
            state = GaussianState(np.where(state.cov == 0.0, -0.0, state.cov))
        order = data.draw(st.permutations(range(n)))
        modes = order[:data.draw(st.integers(1, n))]
        assert apply_loss(state, modes, eta).cov.tobytes() == \
            loss_by_fancy_index(state, modes, eta).tobytes()

    def test_one_pass_over_many_efficiencies_equals_apply_loss_at_each(self, rng):
        # the pass a sweep makes per block: each efficiency's matrix, once
        # validated, is apply_loss's at that efficiency, whatever shares the pass
        for _ in range(100):
            state = random_state(int(rng.integers(1, 8)), rng)
            n = state.n_modes
            modes = [int(m) for m in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
            etas = [0.0, 1.0, *rng.uniform(size=5).tolist()]
            etas = [etas[i] for i in rng.permutation(len(etas))]
            covs = lossy_covariances(state, modes, etas)
            assert covs.shape == (len(etas), 2 * n, 2 * n)
            for eta, cov in zip(etas, covs, strict=True):
                want = apply_loss(state, modes, eta).cov
                assert GaussianState(cov).cov.tobytes() == want.tobytes()
                assert cov.tobytes() == lossy_covariances(state, modes, [eta])[0].tobytes()

    def test_one_pass_checks_every_efficiency_first(self):
        with pytest.raises(ValueError, match="got 1.5"):
            lossy_covariances(vacuum_state(2), (0,), [0.5, 1.5, -1.0])
        assert lossy_covariances(vacuum_state(2), (0,), []).shape == (0, 4, 4)

    def test_invalid_mode_lists(self):
        with pytest.raises(ValueError, match="distinct"):
            apply_loss(vacuum_state(3), (1, 2, 1), 0.5)
        with pytest.raises(ValueError, match="out of range"):
            apply_loss(vacuum_state(3), (0, 3), 0.5)

    def test_mixture_rejected(self):
        squeezed = tensor([squeezed_vacuum(SqueezeSpec(1.0)), vacuum_state(1)])
        mixture = MixedState([(0.5, vacuum_state(2)), (0.5, squeezed)])
        with pytest.raises(ValueError, match="mixtures"):
            apply_loss(mixture, 0, 0.5)


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
        mixture = MixedState([(1.0, state)])
        gains = GainVector((1, -1), (1, 1))
        assert quadrature_variances(mixture, gains) == quadrature_variances(state, gains)

    def test_equal_mix_of_identical_states(self, rng):
        state = random_pure_state(2, rng)
        mixture = MixedState([(0.5, state), (0.5, state)])
        assert np.allclose(second_moments(mixture), state.cov)

    def test_variance_is_weighted_average_and_above_minimum(self, rng):
        for _ in range(100):
            a = random_state(3, rng)
            b = random_state(3, rng)
            w = float(rng.uniform(0.05, 0.95))
            mixture = MixedState([(w, a), (1 - w, b)])
            gains = GainVector(rng.normal(size=3), rng.normal(size=3))
            vu, vv = quadrature_variances(mixture, gains)
            vua, vva = quadrature_variances(a, gains)
            vub, vvb = quadrature_variances(b, gains)
            assert vu == pytest.approx(w * vua + (1 - w) * vub, rel=1e-12, abs=1e-12)
            assert vv == pytest.approx(w * vva + (1 - w) * vvb, rel=1e-12, abs=1e-12)
            assert vu >= min(vua, vub) - 1e-12

    def test_weight_sum_tolerance(self, rng):
        state = random_pure_state(1, rng)
        mixture = MixedState([(0.5 + 4e-10, state), (0.5, state)])
        assert sum(w for w, _ in mixture.components) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            MixedState([(0.6, state), (0.5, state)])

    def test_mode_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            MixedState([(0.5, vacuum_state(1)), (0.5, vacuum_state(2))])

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            MixedState([(0.0, vacuum_state(1)), (1.0, vacuum_state(1))])


class TestValidationAndImmutability:
    def test_asymmetric_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-6
        with pytest.raises(PhysicalityError):
            GaussianState(bad)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(PhysicalityError):
            GaussianState(np.diag([-0.5, 1.0]))

    @pytest.mark.parametrize("r", [10.0, 20.0, 50.0])
    @pytest.mark.parametrize("builder", ["ghz", "epr1", "epr2"])
    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_presets_build_at_large_squeezing(self, builder, n, r):
        # eigvalsh rounds at about eps exp(2r), far beyond an absolute 1e-9
        cov = build_state(builder, n, r).cov
        assert np.max(np.abs(cov)) > math.exp(2.0 * r) / n

    @pytest.mark.parametrize("r", [200.0, 300.0, 354.0, np.nextafter(R_LIMIT, 0.0), 354.8])
    @pytest.mark.parametrize("builder,n", [("ghz", 3), ("epr1", 3), ("epr2", 4), ("ghz", 6)])
    def test_presets_near_the_overflow_leak_no_warning(self, builder, n, r):
        # Var(x) Var(p) overflows from r ~ 178 and passes; up to the float
        # below R_LIMIT every input variance stays within half the largest
        # float, and from R_LIMIT the squeeze parameter itself is rejected;
        # warnings are errors in this suite
        if r >= R_LIMIT:
            with pytest.raises(ValueError, match="below 354.54478"):
                build_state(builder, n, r)
        else:
            cov = build_state(builder, n, r).cov
            assert np.all(np.isfinite(cov))
            assert np.max(np.abs(cov)) > math.exp(2.0 * r) / (2 * n)

    def test_overflowing_uncertainty_product_passes_and_nan_fails(self):
        # 1e200 * 1e200 is inf, above 1; inf - inf is NaN, which must fail
        assert GaussianState(np.diag([1e200, 1e200])).n_modes == 1
        with pytest.raises(PhysicalityError, match="uncertainty bound.*nan"):
            GaussianState(np.array([[1e200, 5e199], [5e199, 1e200]]))

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e20, 1e43])
    def test_negative_eigenvalue_relative_to_the_scale_rejected(self, scale, rng):
        # the positivity tolerance grows with the largest entry, but an
        # eigenvalue of -1e-6 times it is still rejected
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        cov = (q * [scale, scale, scale, -1e-6 * scale]) @ q.T
        cov = (cov + cov.T) / 2.0
        assert np.linalg.eigvalsh(cov)[0] <= -1e-6 * np.max(np.abs(cov)) * (1 - 1e-9)
        with pytest.raises(PhysicalityError, match="not positive semidefinite"):
            GaussianState(cov)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(PhysicalityError):
            GaussianState(np.diag([0.5, 0.5]))

    def test_nonfinite_rejected(self):
        with pytest.raises(PhysicalityError):
            GaussianState(np.diag([np.inf, 0.0]))
        for bad in (-np.inf, np.nan):
            with pytest.raises(PhysicalityError, match="non-finite"):
                GaussianState(np.diag([bad, 1.0]))

    def test_covariance_is_readonly(self):
        state = vacuum_state(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 5.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.eye(3))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           r_max=st.floats(0.0, 3.0), lossy=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_random_physical_states_are_accepted(self, seed, n, r_max, lossy):
        # squeezers, a passive network and loss only ever give physical
        # states, so validation must never reject one
        rng = np.random.default_rng(seed)
        state = random_pure_state(n, rng, r_max=r_max)
        if lossy:
            modes = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            state = apply_loss(state, [int(m) for m in modes], float(rng.uniform()))
        cov = state.cov
        det = np.diag(cov)[:n] * np.diag(cov)[n:] - np.diag(cov[:n, n:]) ** 2
        assert np.all(det >= 1.0 - 1e-9)


def test_permute_modes_roundtrip(rng):
    state = random_pure_state(4, rng)
    order = [2, 0, 3, 1]
    back = [order.index(k) for k in range(4)]
    assert np.allclose(permute_modes(permute_modes(state, order), back).cov, state.cov)
    gains = GainVector((1, 2, 3, 4), (4, 3, 2, 1))
    permuted_gains = GainVector([gains.h[m] for m in order], [gains.g[m] for m in order])
    assert quadrature_variances(permute_modes(state, order), permuted_gains) == \
        pytest.approx(quadrature_variances(state, gains))
