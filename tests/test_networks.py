import math

import numpy as np
import pytest

from cvwl import (
    BeamSplitter,
    GainVector,
    NetworkSpec,
    SqueezeSpec,
    build_counterexample,
    build_epr_type_i,
    build_epr_type_ii,
    build_ghz,
    equal_split_gains,
    evaluate,
    execute,
    quadrature_variances,
    second_moments,
)
from cvwl.networks import LossChannel, epr_type_ii_network, ghz_network, right_left_groups
from conftest import permute_modes

R_VALUES = (0.0, 0.3, 1.0, 2.0)


def ghz_uv_expansion(n, r, g, h):
    """Input-variance expansion of the GHZ combination variances: an oracle
    independent of the covariance pipeline.  Input 0 is antisqueezed in x
    (variance exp(2r)), the others squeezed (exp(-2r)); for p, the reverse."""
    vx1, vx2 = math.exp(2 * r), math.exp(-2 * r)
    vp1, vp2 = vx2, vx1
    var_u = ((n - 1) ** 2 * h * h + 2 * h * (n - 1) + 1) / n * vx1 \
        + (n - 1) / n * (h * h - 2 * h + 1) * vx2
    var_v = ((n - 1) ** 2 * g * g + 2 * g * (n - 1) + 1) / n * vp1 \
        + (n - 1) / n * (g * g - 2 * g + 1) * vp2
    return var_u, var_v


class TestGHZ:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", R_VALUES)
    def test_total_momentum_variance(self, n, r):
        _, var_v = quadrature_variances(build_ghz(n, r), GainVector((0,) * n, (1,) * n))
        assert var_v == pytest.approx(n * math.exp(-2 * r), rel=1e-12)

    @pytest.mark.parametrize("r", R_VALUES)
    def test_all_pair_differences(self, r):
        state = build_ghz(4, r)
        for i in range(4):
            for j in range(i + 1, 4):
                h = [0.0] * 4
                h[i], h[j] = 1.0, -1.0
                var_u, _ = quadrature_variances(state, GainVector(h, (0,) * 4))
                assert var_u == pytest.approx(2 * math.exp(-2 * r), rel=1e-12)

    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(build_ghz(3, 0.0).cov, np.eye(6), atol=1e-14)

    def test_permutation_symmetry(self):
        state = build_ghz(3, 1.0)
        for order in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            assert np.allclose(permute_modes(state, order).cov, state.cov, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("r", [0.0, 0.4, 1.0, 2.0])
    def test_matches_input_variance_expansion(self, n, r, rng):
        state = build_ghz(n, r)
        for _ in range(10):
            g, h = rng.uniform(-1.5, 1.5, size=2)
            gains = GainVector((1.0,) + (h,) * (n - 1), (1.0,) + (g,) * (n - 1))
            var_u, var_v = quadrature_variances(state, gains)
            exp_u, exp_v = ghz_uv_expansion(n, r, g, h)
            assert var_u == pytest.approx(exp_u, rel=1e-9, abs=1e-12)
            assert var_v == pytest.approx(exp_v, rel=1e-9, abs=1e-12)

    def test_half_gain_combination(self):
        # u = x1 - (x2 + x3)/2 kills the antisqueezed input exactly
        r = 1.3
        gains = GainVector((1, -0.5, -0.5), (1, 1, 1))
        var_u, var_v = quadrature_variances(build_ghz(3, r), gains)
        assert var_u == pytest.approx(1.5 * math.exp(-2 * r), rel=1e-12)
        assert var_v == pytest.approx(3.0 * math.exp(-2 * r), rel=1e-12)

    def test_reflectivity_cascade(self):
        spec = ghz_network(4, 1.0)
        assert [op.reflectivity for op in spec.ops] == pytest.approx([1 / 4, 1 / 3, 1 / 2])
        assert [(op.i, op.j) for op in spec.ops] == [(0, 1), (1, 2), (2, 3)]

    def test_too_few_modes(self):
        with pytest.raises(ValueError):
            build_ghz(1, 1.0)


class TestEPRTypeI:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("r", R_VALUES)
    def test_epr_combination_variances(self, n, r):
        var_u, var_v = quadrature_variances(build_epr_type_i(n, r), equal_split_gains(n))
        assert var_u == pytest.approx(2 * math.exp(-2 * r), rel=1e-12)
        assert var_v == pytest.approx(2 * math.exp(-2 * r), rel=1e-12)

    def test_fanned_modes_are_exchange_symmetric(self):
        state = build_epr_type_i(4, 1.0)
        cov = state.cov
        for a, b in ((1, 2), (2, 3)):
            assert cov[a, a] == pytest.approx(cov[b, b], rel=1e-12)
            assert cov[4 + a, 4 + a] == pytest.approx(cov[4 + b, 4 + b], rel=1e-12)
            assert cov[0, a] == pytest.approx(cov[0, b], rel=1e-12)
            assert cov[4, 4 + a] == pytest.approx(cov[4, 4 + b], rel=1e-12)

    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(build_epr_type_i(4, 0.0).cov, np.eye(8), atol=1e-14)

    def test_too_few_modes(self):
        with pytest.raises(ValueError):
            build_epr_type_i(2, 1.0)


class TestEPRTypeII:
    @pytest.mark.parametrize("r", R_VALUES)
    def test_four_mode_correlations(self, r):
        state = build_epr_type_ii(4, r)
        var_u, var_v = quadrature_variances(
            state, GainVector((1, -1, -1, -1), (1, 1, 1, -1)))
        assert var_u == pytest.approx(4 * math.exp(-2 * r), rel=1e-12)
        assert var_v == pytest.approx(4 * math.exp(-2 * r), rel=1e-12)

    def test_three_modes_reduces_to_type_i(self):
        a = build_epr_type_ii(3, 0.8)
        b = build_epr_type_i(3, 0.8)
        assert np.array_equal(a.cov, b.cov)

    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(build_epr_type_ii(4, 0.0).cov, np.eye(8), atol=1e-14)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_arm_groups_partition_the_modes(self, n):
        right, left = right_left_groups(n)
        assert sorted(right + left) == list(range(n))
        assert 0 in left and 1 in right and 2 in right

    @pytest.mark.parametrize("n,r", [(5, 0.7), (6, 1.1)])
    def test_arm_quadratures_recombine(self, n, r):
        # each arm's original quadrature reappears as the equal-weight
        # combination over its final modes (mode 0 positive, other left
        # modes negative, right modes positive); the arms' EPR correlation
        # survives the fan-out
        state = build_epr_type_ii(n, r)
        right, left = right_left_groups(n)
        cl = 1.0 / math.sqrt(len(left))
        cr = 1.0 / math.sqrt(len(right))
        hu = np.zeros(n)
        hu[list(left)] = -cl
        hu[0] = cl
        hu[list(right)] = -cr
        gv = np.zeros(n)
        gv[list(left)] = -cl
        gv[0] = cl
        gv[list(right)] = cr
        var_u, var_v = quadrature_variances(state, GainVector(tuple(hu), tuple(gv)))
        assert var_u == pytest.approx(2 * math.exp(-2 * r), rel=1e-12)
        assert var_v == pytest.approx(2 * math.exp(-2 * r), rel=1e-12)

    def test_too_few_modes(self):
        with pytest.raises(ValueError):
            build_epr_type_ii(2, 1.0)


def two_mode_squeezed(r):
    """Two-mode squeezed vacuum with Var(x_0 - x_1) = Var(p_0 + p_1) = 2 exp(-2r)."""
    return execute(NetworkSpec((SqueezeSpec(r, "p"), SqueezeSpec(r, "x")),
                               (BeamSplitter(0, 1, 0.5),)))


class TestTwoModeSqueezed:
    def test_epr_variances(self):
        r = 1.0
        state = two_mode_squeezed(r)
        assert state.cov[0, 0] == pytest.approx(math.cosh(2 * r), rel=1e-12)
        assert state.cov[0, 1] == pytest.approx(math.sinh(2 * r), rel=1e-12)
        assert state.cov[2, 3] == pytest.approx(-math.sinh(2 * r), rel=1e-12)


class TestCounterexample:
    def test_zero_squeezing_is_vacuum_mixture(self):
        assert np.allclose(second_moments(build_counterexample(0.0)), np.eye(6))

    def test_mixture_variance_is_component_average(self):
        mixture = build_counterexample(0.8)
        gains = GainVector((1, -1, 0), (0.4, 0.7, -0.2))
        vu, vv = quadrature_variances(mixture, gains)
        parts = [quadrature_variances(s, gains) for _, s in mixture.components]
        assert vu == pytest.approx(0.5 * parts[0][0] + 0.5 * parts[1][0], rel=1e-12)
        assert vv == pytest.approx(0.5 * parts[0][1] + 0.5 * parts[1][1], rel=1e-12)

    def test_dual_violation_at_moderate_squeezing(self):
        # a single shared gain drives both pair inequalities below the
        # bound even though the mixture is biseparable by construction
        mixture = build_counterexample(0.5)
        grid = np.arange(0.0, 1.5, 0.005)
        b1 = min(evaluate(mixture, "b1", (0, 0, g)).lhs for g in grid)
        b2 = min(evaluate(mixture, "b2", (g, 0, 0)).lhs for g in grid)
        assert b1 < 4.0 and b2 < 4.0

    @pytest.mark.parametrize("orientation", ["p", "x"])
    def test_dual_violation_window_closes(self, orientation):
        # by r = 1 the lone modes' antisqueezed quadratures dominate the
        # cross components and the shared-gain violation is gone for
        # either lone-mode orientation (it persists to r* ~ 0.691 for "p")
        mixture = build_counterexample(1.0, orientation)
        grid = np.arange(-2.0, 2.0001, 0.002)
        best = min(evaluate(mixture, "b1", (0, 0, g)).lhs for g in grid)
        assert best > 4.0

    def test_lone_orientation_p_gives_widest_window(self):
        grid = np.arange(0.0, 1.5, 0.005)

        def best_b1(r, orientation):
            mixture = build_counterexample(r, orientation)
            return min(evaluate(mixture, "b1", (0, 0, g)).lhs for g in grid)

        assert best_b1(0.65, "p") < 4.0
        assert best_b1(0.65, "x") > 4.0


class TestNetworkExecution:
    def test_deterministic(self):
        spec = ghz_network(3, 1.1)
        assert np.array_equal(execute(spec).cov, execute(spec).cov)

    def test_loss_ops_apply(self):
        spec = NetworkSpec(
            (SqueezeSpec(1.0, "x"),), (LossChannel(0, 0.5),))
        state = execute(spec)
        assert state.cov[0, 0] == pytest.approx(0.5 * math.exp(-2) + 0.5, rel=1e-14)

    def test_out_of_range_ops_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec((None, None), (BeamSplitter(0, 2, 0.5),))
        with pytest.raises(ValueError):
            NetworkSpec((), ())
