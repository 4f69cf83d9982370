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
from cvwl.cli import NetworkParseError, parse_network
from cvwl.networks import (
    LossChannel,
    epr_type_i_network,
    epr_type_ii_network,
    ghz_network,
    right_left_groups,
)
from cvwl.states import (
    apply_beam_splitter,
    apply_loss,
    check_beam_splitter,
    check_loss,
    vacuum_state,
)
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


def _message(call):
    """The message of the ValueError that call() raises."""
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


def _op(modes, value, n=2):
    """One op on n modes, given by its 0-based modes: a beam splitter of
    reflectivity `value` (two modes) or a loss of efficiency `value` (one
    mode).  Returns the owner's rule (called with the modes as a network
    file counts them, from `first`), the library op on the vacuum, the op
    type in a NetworkSpec, and the op's network file: (rule, library,
    spec, text)."""
    if len(modes) == 2:
        def rule(first):
            return check_beam_splitter(*(m + first for m in modes), value, n, first=first)

        def library():
            return apply_beam_splitter(vacuum_state(n), *modes, value)

        def spec():
            return NetworkSpec((None,) * n, (BeamSplitter(*modes, value),))
        word = "bs"
    else:
        def rule(first):
            return check_loss(tuple(m + first for m in modes), value, n, first=first)

        def library():
            return apply_loss(vacuum_state(n), modes[0], value)

        def spec():
            return NetworkSpec((None,) * n, (LossChannel(modes[0], value),))
        word = "loss"
    line = " ".join([word] + [str(m + 1) for m in modes] + [repr(value)])
    return rule, library, spec, "input vacuum\n" * n + line + "\n"


def _located(text, token):
    """The (line, column, message) of the error parse_network raises, with
    the line and column it must have: the last line, at token `token`."""
    with pytest.raises(NetworkParseError) as err:
        parse_network(text)
    last = text.splitlines()[-1]
    column = len(" ".join(last.split()[:token])) + 2 if token else 1
    found = (err.value.line, err.value.column, str(err.value).split(": ", 1)[1])
    return found, (len(text.splitlines()), column)


class TestOpRules:
    """Each rule of an op's arguments is stated once, in cvwl.states.  The
    library ops, the op types, NetworkSpec and the network parser raise its
    message; the parser places it at the token it names and counts modes
    from 1, as the file does."""

    def check(self, modes, value, token):
        """The rule that (modes, value) breaks: the library op, the op type
        (in a NetworkSpec) and the parser raise the owner's message, the
        parser at token `token` of the op's line."""
        rule, library, spec, text = _op(modes, value)
        owner = _message(lambda: rule(0))
        assert _message(library) == owner
        assert _message(spec) == owner
        found, where = _located(text, token)
        assert found == where + (_message(lambda: rule(1)),)
        return owner

    @pytest.mark.parametrize("value", [-0.1, 1.5, -math.inf, math.nan])
    def test_reflectivity_lies_in_the_unit_interval(self, value):
        owner = self.check((0, 1), value, 3)
        assert owner == f"reflectivity must lie in [0, 1], got {value}"

    @pytest.mark.parametrize("value", [-0.1, 1.5, math.inf, math.nan])
    def test_efficiency_lies_in_the_unit_interval(self, value):
        owner = self.check((0,), value, 2)
        assert owner == f"efficiency must lie in [0, 1], got {value}"
        assert _message(lambda: apply_loss(vacuum_state(2), (0, 1), value)) == owner

    @pytest.mark.parametrize("i", [0, 1])
    def test_modes_are_distinct(self, i):
        owner = self.check((i, i), 0.5, 2)
        assert owner == f"an op's modes must be distinct, got ({i}, {i})"
        # a loss on several modes: LossChannel and the file take one mode
        owner = _message(lambda: check_loss((i, 2, i), 0.5))
        assert owner == f"an op's modes must be distinct, got ({i}, 2, {i})"
        assert _message(lambda: apply_loss(vacuum_state(3), (i, 2, i), 0.5)) == owner

    @pytest.mark.parametrize("modes,bad", [((0, 2), 1), ((2, 0), 0), ((-1, 0), 0),
                                           ((2,), 0), ((-1,), 0), ((7,), 0)])
    def test_modes_lie_in_range(self, modes, bad):
        owner = self.check(modes, 0.5, bad + 1)
        assert owner == f"mode {modes[bad]} out of range 0..1"

    @pytest.mark.parametrize("state", [build_counterexample(0.5), np.eye(6), None])
    def test_ops_act_only_on_a_gaussian_state(self, state):
        owner = _message(lambda: apply_loss(state, 0, 0.5))
        assert "act only on a GaussianState" in owner
        assert f"got {type(state).__name__}" in owner
        assert _message(lambda: apply_beam_splitter(state, 0, 1, 0.5)) == owner

    @pytest.mark.parametrize("n", range(2, 21))
    def test_cascades_keep_their_closed_forms(self, n):
        # each fan-out written out on its own, the reference for the one
        # cascade that builds them all
        def bs(i, j, reflectivity):
            return BeamSplitter(i, j, reflectivity)

        assert ghz_network(n, 1.0).ops == tuple(bs(k - 1, k, 1.0 / (n + 1 - k))
                                                for k in range(1, n))
        if n >= 3:
            assert epr_type_i_network(n, 1.0).ops == (bs(0, 1, 0.5),) + tuple(
                bs(k, k + 1, 1.0 / (n - k)) for k in range(1, n - 1))
        if n < 4:  # epr2 is epr1 at three modes
            return
        right, left = right_left_groups(n)
        path = list(left[1:]) + [left[0]]
        right_ops = [bs(right[k - 1], right[k], 1.0 / (len(right) - k + 1))
                     for k in range(1, len(right))]
        left_ops = [bs(path[k], path[k - 1], 1.0 / (len(left) - k + 1))
                    for k in range(1, len(left))]
        interleaved = [op for pair in zip(right_ops, left_ops + [None]) for op in pair if op]
        assert epr_type_ii_network(n, 1.0).ops == (bs(3, 1, 0.5),) + tuple(interleaved)
