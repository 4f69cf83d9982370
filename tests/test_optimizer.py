import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from cvwl import (
    GainStructure,
    GainVector,
    SqueezeSpec,
    analytic_gains_epr1,
    analytic_gains_ghz,
    apply_loss,
    build_epr_type_i,
    build_epr_type_ii,
    build_ghz,
    build_state,
    evaluate,
    optimize_gains,
    quadrature_variances,
    second_moments,
    squeezed_vacuum,
    sweep,
    tensor,
    vacuum_state,
)
import cvwl.optimizer
from cvwl.cli import R_GRID
from cvwl.optimizer import _objective, _tied_pieces, default_structure, solve
from cvwl.partitions import MAX_MODES
from cvwl.states import GaussianState, lossy_covariances
from cvwl.witnesses import TABLE, VECTOR, batch_bound, batch_terms, lookup
from conftest import counting_states, random_state
from exact_solve_reference import exact_solve
from nelder_mead_reference import nelder_mead as reference_nelder_mead


class TestAnalyticGains:
    def test_zero_squeezing(self):
        assert analytic_gains_ghz(3, 0.0) == (0.0, 0.0)
        assert analytic_gains_epr1(3, 0.0) == (0.0, 0.0)

    def test_ghz_large_r_limits(self):
        g, h = analytic_gains_ghz(4, 12.0)
        assert g == pytest.approx(1.0, abs=1e-6)
        assert h == pytest.approx(-1 / 3, abs=1e-6)

    def test_epr1_large_r_limits(self):
        g, h = analytic_gains_epr1(4, 12.0)
        assert g == pytest.approx(1 / math.sqrt(3), abs=1e-6)
        assert h == pytest.approx(-1 / math.sqrt(3), abs=1e-6)

    def test_printed_three_mode_values(self):
        assert analytic_gains_ghz(3, 1.0) == (pytest.approx(0.95, abs=0.005),
                                              pytest.approx(-0.49, abs=0.005))
        g, h = analytic_gains_epr1(3, 1.0)
        assert g == pytest.approx(math.tanh(2) / math.sqrt(2), rel=1e-12)
        assert h == -g

    @pytest.mark.parametrize("analytic", [analytic_gains_ghz, analytic_gains_epr1])
    @pytest.mark.parametrize("r", [math.nan, math.inf, -0.5])
    def test_non_finite_or_negative_r_rejected(self, analytic, r):
        with pytest.raises(ValueError, match="squeeze parameter"):
            analytic(3, r)

    def test_huge_r_reaches_the_limits_without_overflow(self):
        assert analytic_gains_ghz(3, 1e3) == (1.0, -0.5)
        g, h = analytic_gains_epr1(3, 1e3)
        assert g == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert h == -g

    @pytest.mark.parametrize("builder,analytic", [
        (build_ghz, analytic_gains_ghz), (build_epr_type_i, analytic_gains_epr1)])
    @pytest.mark.parametrize("n,r", [(3, 0.5), (4, 1.0), (5, 2.0)])
    def test_gains_are_stationary_points(self, builder, analytic, n, r):
        # central differences of each combination variance at the analytic
        # gains, step 1e-4
        state = builder(n, r)
        g, h = analytic(n, r)
        step = 1e-4

        def var_u(hh):
            return quadrature_variances(
                state, GainVector((1,) + (hh,) * (n - 1), (1,) + (g,) * (n - 1)))[0]

        def var_v(gg):
            return quadrature_variances(
                state, GainVector((1,) + (h,) * (n - 1), (1,) + (gg,) * (n - 1)))[1]

        du = (var_u(h + step) - var_u(h - step)) / (2 * step)
        dv = (var_v(g + step) - var_v(g - step)) / (2 * step)
        assert abs(du) < 1e-6
        assert abs(dv) < 1e-6


class TestOptimizeGains:
    @pytest.mark.parametrize("r", [0.0, 0.25, 1.0, 2.0])
    def test_numerical_matches_analytic_for_ghz(self, r):
        result = optimize_gains(build_ghz(3, r), "c5")
        g, h = analytic_gains_ghz(3, r)
        assert result.params[0] == pytest.approx(g, abs=0.01)
        assert result.params[1] == pytest.approx(h, abs=0.01)

    @pytest.mark.parametrize("cid", ["c1", "c3", "c5", "c8"])
    def test_vacuum_never_beats_the_bound(self, cid):
        assert optimize_gains(vacuum_state(3), cid).ent_ratio >= 1 - 1e-9

    @pytest.mark.parametrize("cid", ["c9", "c10"])
    def test_vacuum_four_modes(self, cid):
        assert optimize_gains(vacuum_state(4), cid).ent_ratio >= 1 - 1e-9

    @pytest.mark.parametrize("builder,analytic", [
        (build_ghz, analytic_gains_ghz), (build_epr_type_i, analytic_gains_epr1)])
    @pytest.mark.parametrize("n,r,cid", [(3, 1.0, "c5"), (4, 1.0, "c8"), (5, 0.5, "c8")])
    def test_numerical_never_exceeds_analytic_ratio(self, builder, analytic, n, r, cid):
        state = builder(n, r)
        result = optimize_gains(state, cid)
        structure = GainStructure("tied", n)
        at_analytic = evaluate(state, cid, structure.expand(analytic(n, r))).ent_ratio
        assert result.ent_ratio <= at_analytic + 1e-6

    def test_reported_ratio_matches_witness_evaluation(self):
        state = build_ghz(3, 0.8)
        result = optimize_gains(state, "c5")
        recomputed = evaluate(state, "c5", result.gains).ent_ratio
        assert result.ent_ratio == pytest.approx(recomputed, abs=1e-10)
        assert result.ratio == pytest.approx(recomputed, abs=1e-8)
        assert result.converged

    def test_epr2_structure_reproduces_printed_gains(self):
        result = optimize_gains(
            build_epr_type_ii(4, 1.0), "c8",
            structure=GainStructure("epr2", 4), objective="lhs")
        assert result.params[0] == pytest.approx(-0.76, abs=0.02)
        assert result.params[1] == pytest.approx(-0.58, abs=0.02)
        assert result.params[2] == pytest.approx(0.76, abs=0.02)

    def test_lhs_objective_matches_analytic_beyond_three_modes(self):
        # the gain-dependent bound pulls the ratio optimum away from the
        # stationary point, so published-table reproduction uses "lhs"
        for n, r in ((4, 1.0), (6, 0.5)):
            result = optimize_gains(build_ghz(n, r), "c8", objective="lhs")
            g, h = analytic_gains_ghz(n, r)
            assert result.params[0] == pytest.approx(g, abs=1e-4)
            assert result.params[1] == pytest.approx(h, abs=1e-4)

    def test_steering_objective(self):
        state = build_ghz(3, 2.0)
        result = optimize_gains(state, "c5", objective="steering")
        assert result.ratio < 1.0
        report = evaluate(state, "c5", result.gains)
        assert report.verdict_steering

    def test_warm_start_refines_from_init(self):
        state = build_ghz(3, 1.0)
        cold = optimize_gains(state, "c5")
        warm = optimize_gains(state, "c5", init=(0.9, -0.45))
        assert warm.ent_ratio == pytest.approx(cold.ent_ratio, abs=1e-6)

    @pytest.mark.parametrize("criterion,init,fragment", [
        ("c1", (1.0, math.nan, 0.0), "finite values"),
        ("c5", (1.0, math.inf), "finite values"),
        ("c5", (1e300, 1e300), "not finite at init"),
    ])
    def test_non_finite_init_is_refused(self, criterion, init, fragment):
        # a warm start is the library's alone: sweep seeds each point after
        # the first with the previous optimum
        with pytest.raises(ValueError, match=fragment):
            optimize_gains(build_ghz(3, 1.0), criterion, init=init)

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            optimize_gains(vacuum_state(3), "c5", objective="magic")

    def test_converged_reports_nelder_mead_failure(self, monkeypatch):
        def fail(fun, simplex, **kwargs):
            return simplex[0], float(fun(simplex[:1])[0]), 7, False

        monkeypatch.setattr(cvwl.optimizer, "_nelder_mead", fail)
        result = optimize_gains(build_ghz(3, 1.0), "c5", init=(0.9, -0.45))
        assert result.converged is False
        assert result.iterations == 7

    def test_fixed_criterion_needs_no_search(self):
        result = optimize_gains(build_epr_type_i(3, 1.0), "c3")
        assert result.params == ()
        assert result.ent_ratio == pytest.approx(2 * math.exp(-2), rel=1e-12)
        assert (result.iterations, result.converged) == (0, True)

    def test_iterations_count_nelder_mead_only(self, monkeypatch):
        seen = []
        nelder_mead = cvwl.optimizer._nelder_mead

        def spy(fun, simplex, xatol, fatol, maxiter, maxfev):
            seen.append(_scipy_nelder_mead(_single(fun), simplex, xatol, fatol, maxiter,
                                           maxfev)[2])
            return nelder_mead(fun, simplex, xatol, fatol, maxiter, maxfev)

        monkeypatch.setattr(cvwl.optimizer, "_nelder_mead", spy)
        result = optimize_gains(build_epr_type_ii(4, 1.0), "c8",  # cold: grid, then refine
                                structure=GainStructure("epr2", 4))
        assert seen and result.iterations == seen[0]

    def test_package_import_leaves_scipy_unloaded(self):
        src = Path(cvwl.optimizer.__file__).resolve().parents[1]
        code = ("import sys, cvwl.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.strip() == "[]"

    def test_refining_commands_run_with_scipy_blocked(self):
        # a warm eta sweep and an epr2 grid search each refine
        src = Path(cvwl.optimizer.__file__).resolve().parents[1]
        runs = [
            ["sweep", "--state", "ghz", "--n", "3", "--r", "0.8", "--criterion", "c5",
             "--param", "eta", "--values", "1,0.9,0.8", "--loss-modes", "1"],
            ["optimize", "--state", "epr2", "--n", "4", "--r", "1", "--criterion", "c8",
             "--structure", "epr2"],
        ]
        code = ("import contextlib, io, sys\n"
                "sys.modules['scipy'] = None\n"
                "import cvwl.cli, cvwl.optimizer\n"
                "calls, nelder_mead = [], cvwl.optimizer._nelder_mead\n"
                "cvwl.optimizer._nelder_mead = lambda *a, **k: calls.append(1) or nelder_mead(*a, **k)\n"
                f"for argv in {runs!r}:\n"
                "    before = len(calls)\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        code = cvwl.cli.main(argv)\n"
                "    print(code, len(calls) - before)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.split("\n")[:-1] == ["0 2", "0 1"]


def _scipy_nelder_mead(fun, simplex, xatol, fatol, maxiter, maxfev):
    res = minimize(fun, simplex[0], method="Nelder-Mead", options={
        "xatol": xatol, "fatol": fatol, "maxiter": maxiter, "maxfev": maxfev,
        "initial_simplex": simplex})
    return res.x, res.fun, res.nit, res.success, res.status


def _objective_cases():
    """Every criterion with every structure and objective it supports."""
    for cid, crit in TABLE.items():
        sizes = (3, 4, 5) if crit.n_modes is None else (crit.n_modes,)
        for n in sizes:
            kinds = ("tied", "epr2") if crit.slots is VECTOR else (crit.structure,)
            objectives = ["entanglement", "lhs"]
            if crit.steer_bound is not None and n == 3:
                objectives.append("steering")
            for kind in kinds:
                for objective in objectives:
                    yield cid, n, kind, objective


def _rowwise(fun):
    """A scalar objective as a batched one that scores its rows one by one."""
    return lambda points: np.array([fun(p) for p in points], dtype=float)


def _single(batch):
    """A batched objective as a scalar one: one single-row call per point."""
    return lambda p: float(batch(p[None])[0])


def _nelder_mead_objectives(rng):
    """(k, batched, scalar) objectives: the tied and epr2 ratio objectives
    on random states, a 1-parameter slice of the epr2 one, quadratics, and
    flat or stepped functions whose simplex values tie.  The three-mode
    tied objectives are batched as they are; every other one scores its
    rows one by one, so that both forms give the same values."""
    for n in (3, 4):
        state = random_state(n, rng)
        cases = [("c8", "tied", "entanglement"), ("c8", "epr2", "entanglement")]
        if n == 3:
            cases += [(cid, "tied", objective) for cid in ("c5", "c6")
                      for objective in ("entanglement", "steering")]
        for cid, kind, objective in cases:
            batch = _objective(second_moments(state), cid, GainStructure(kind, n), objective)
            fun = _single(batch)
            as_is = n == 3 and kind == "tied"
            yield GainStructure(kind, n).n_params, batch if as_is else _rowwise(fun), fun
        epr2 = _objective(second_moments(state), "c8", GainStructure("epr2", n), "entanglement")
        h0 = float(rng.uniform(-1.0, 1.0))
        fun = lambda p: float(epr2(np.array([[p[0], h0, -h0]]))[0])  # noqa: E731
        yield 1, _rowwise(fun), fun
    for k in (1, 2, 3):
        a = rng.normal(size=(k, k))
        a = a @ a.T + 0.1 * np.eye(k)
        b, c = rng.normal(size=k), float(rng.normal())
        for fun in (lambda p, a=a, b=b, c=c: float(c + b @ p + p @ a @ p / 2.0),
                    lambda p: 1.0, lambda p: float(np.round(np.sum(p * p), 1))):
            yield k, _rowwise(fun), fun


def _simplex_and_options(rng, k):
    """A random (k + 1, k) simplex and (xatol, fatol, maxiter, maxfev): half
    with the settings optimize_gains uses and half with limits small enough
    to stop in any step."""
    centre = rng.uniform(-2.0, 2.0, k)
    if rng.uniform() < 0.5:  # the absolute-scale simplex optimize_gains uses
        simplex = np.vstack((centre, centre + 0.1 * np.eye(k)))
    else:
        simplex = centre + rng.normal(scale=rng.uniform(0.01, 0.5), size=(k + 1, k))
    if rng.uniform() < 0.5:
        return simplex, (1e-7, 1e-8, 2000, 4000)
    xatol, fatol = [(1e-7, 1e-8), (1e-10, 1e-13), (0.0, 0.0)][rng.integers(3)]
    return simplex, (xatol, fatol, int(rng.integers(1, 30)), int(rng.integers(1, 60)))


def _nelder_mead_cases(rng):
    """(batched, scalar, simplex, xatol, fatol, maxiter, maxfev)."""
    for k, batched, fun in _nelder_mead_objectives(rng):
        for _ in range(3):
            simplex, options = _simplex_and_options(rng, k)
            yield batched, fun, simplex, *options
    for k in (1, 2, 3):  # shrinks collapse the simplex to a point, which meets zero tolerances
        fun = lambda p: 1.0  # noqa: E731
        yield _rowwise(fun), fun, rng.normal(size=(k + 1, k)), 0.0, 0.0, 2000, 4000
    for k in (1, 2, 3):  # budgets spent inside or just after the initial simplex
        fun = lambda p: float(p @ p)  # noqa: E731
        for maxfev in range(1, k + 3):
            yield _rowwise(fun), fun, rng.normal(size=(k + 1, k)), 1e-7, 1e-8, 2000, maxfev
    # a NaN vertex left in the simplex makes the value NaN, as np.min does
    walled = lambda p: math.nan if p[0] > 1.0 else float(p @ p)  # noqa: E731
    for maxiter in (1, 2, 3):
        yield (_rowwise(walled), walled, np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
               1e-7, 1e-8, maxiter, 4000)


def _assert_same_steps(got, want):
    """Bitwise equal (x, fun) and equal (iterations, converged)."""
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert tuple(got[2:4]) == tuple(want[2:4])


class TestNelderMead:
    def test_matches_scipy_bit_for_bit(self, rng):
        statuses = []
        for batched, fun, simplex, *options in _nelder_mead_cases(rng):
            x, value, nit, success, status = _scipy_nelder_mead(fun, simplex, *options)
            got = cvwl.optimizer._nelder_mead(batched, simplex, *options)
            _assert_same_steps(got, (x, value, nit, success))
            _assert_same_steps(reference_nelder_mead(fun, simplex, *options), got)
            statuses.append(status)
        # converged, stopped by maxfev, stopped by maxiter
        assert min(statuses.count(s) for s in (0, 1, 2)) >= 5

    @given(seed=st.integers(0, 2**32 - 1), cid=st.sampled_from(["c5", "c6", "c8"]),
           objective=st.sampled_from(["entanglement", "steering"]))
    @settings(max_examples=60, deadline=None)
    def test_three_mode_tied_objectives_batched_as_they_are(self, seed, cid, objective):
        # at three modes a batch's rows are single-row values bit for bit
        # (see the test below), so the batched objective takes SciPy's steps
        rng = np.random.default_rng(seed)
        batch = _objective(second_moments(random_state(3, rng)), cid, GainStructure("tied", 3),
                           objective)
        simplex, options = _simplex_and_options(rng, 2)
        got = cvwl.optimizer._nelder_mead(batch, simplex, *options)
        _assert_same_steps(got, _scipy_nelder_mead(_single(batch), simplex, *options))
        _assert_same_steps(reference_nelder_mead(_single(batch), simplex, *options), got)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
           step=st.sampled_from([0.1, 0.5, 2.0]), wall=st.sampled_from([None, 0.0, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_tied_and_nan_values_keep_scipy_order(self, seed, k, step, wall):
        # stepped values tie and a NaN past the wall sorts last; the order
        # argsort gives them picks the best and the reflected vertex, and a
        # NaN anywhere in the simplex makes the returned value NaN
        def fun(p):
            if wall is not None and p[0] > wall:
                return math.nan
            return float(np.round(p @ p / step) * step)

        rng = np.random.default_rng(seed)
        simplex, options = _simplex_and_options(rng, k)
        got = cvwl.optimizer._nelder_mead(_rowwise(fun), simplex, *options)
        _assert_same_steps(got, _scipy_nelder_mead(fun, simplex, *options))

    @pytest.mark.parametrize("cid,n,kind,objective",
                             [case for case in _objective_cases() if case[1] == 3])
    def test_batched_rows_equal_single_rows_at_three_modes(self, cid, n, kind, objective,
                                                           rng):
        structure = GainStructure(kind, n)
        for state in _states(n, rng):
            batch = _objective(second_moments(state), cid, structure, objective)
            for size in (2, 3, 4):
                params = rng.uniform(-3.0, 3.0, (size, structure.n_params))
                want = np.concatenate([batch(params[i:i + 1]) for i in range(size)])
                assert batch(params).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("kind", ["tied", "epr2"])
    def test_more_modes_within_rounding_of_the_reference(self, n, kind, rng):
        # from four modes a batched matrix product may round a row otherwise
        # than a single-row one, and the steps may part at rounding level
        structure = GainStructure(kind, n)
        for state in _states(n, rng):
            batch = _objective(second_moments(state), "c8", structure, "entanglement")
            centre = rng.uniform(-1.5, 1.5, structure.n_params)
            simplex = np.vstack((centre, centre + 0.1 * np.eye(structure.n_params)))
            got = cvwl.optimizer._nelder_mead(batch, simplex, 1e-7, 1e-8, 2000, 4000)
            want = reference_nelder_mead(_single(batch), simplex, 1e-7, 1e-8, 2000, 4000)
            assert abs(got[1] - want[1]) <= 1e-9 * max(1.0, abs(want[1]))

    def test_scores_each_step_in_one_call(self, rng):
        sizes = []

        def batched(points):
            sizes.append(len(points))
            return np.round(np.einsum("bi,bi->b", points, points), 1)  # stepped: shrinks too

        for k in (1, 2, 3):
            for _ in range(5):
                sizes.clear()
                simplex = rng.normal(size=(k + 1, k))
                nit = cvwl.optimizer._nelder_mead(batched, simplex, 1e-7, 1e-8, 2000, 4000)[2]
                # the simplex, then per iteration its four candidate points
                # and, after a failed contraction, the k shrunk vertices
                assert sizes[0] == k + 1
                assert sizes[1:].count(4) == nit - 1
                assert set(sizes[1:]) <= {4, k}
                assert all(sizes[i - 1] == 4 for i in range(2, len(sizes)) if sizes[i] == k)

    def test_leaves_the_initial_simplex_alone(self):
        simplex = np.array([[0.5, 0.5], [0.6, 0.5], [0.5, 0.6]])
        kept = simplex.copy()
        cvwl.optimizer._nelder_mead(lambda p: np.einsum("bi,bi->b", p, p), simplex,
                                    1e-7, 1e-8, 2000, 4000)
        assert np.array_equal(simplex, kept)


class TestBatchedObjective:
    @pytest.mark.parametrize("cid,n,kind,objective", list(_objective_cases()))
    def test_matches_evaluate_at_random_parameters(self, cid, n, kind, objective, rng):
        structure = GainStructure(kind, n)
        builders = ["ghz", "epr1", "epr2"] + (["counterexample"] if n == 3 else [])
        states = [build_state(b, n, float(rng.uniform(0.1, 1.5))) for b in builders]
        states += [random_state(n, rng) for _ in range(2)]
        for state in states:
            params = rng.uniform(-2, 2, (8, structure.n_params))
            batch = _objective(second_moments(state), cid, structure, objective)(params)
            for p, got in zip(params, batch):
                report = evaluate(state, cid, structure.expand(p))
                want = {"entanglement": report.ent_ratio, "steering": report.steer_ratio,
                        "lhs": report.lhs}[objective]
                if math.isinf(want):
                    assert got == want
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0)


# the exact quadratic solve covers every objective of these rows, and "lhs"
# on c5, c6 and c8
EXACT_ROWS = ("b1", "b2", "b3", "s1", "s2", "s3", "c1", "c2", "c9", "c10")


def _exact_cases():
    for cid, n, kind, objective in _objective_cases():
        if cid in EXACT_ROWS or (objective == "lhs" and cid in ("c5", "c6", "c8")):
            yield cid, n, kind, objective


def _tied_ratio_cases():
    """The ratio objectives solved from stationary candidates: c5/c6 at
    N = 3 (entanglement and steering) and c8 at N = 3..7."""
    for cid, n in [("c5", 3), ("c6", 3)] + [("c8", n) for n in range(3, 8)]:
        for objective in ("entanglement", "steering") if n == 3 else ("entanglement",):
            yield cid, n, objective


def _states(n, rng):
    builders = ["ghz", "epr1", "epr2"] + (["counterexample"] if n == 3 else [])
    return ([build_state(b, n, float(rng.uniform(0.0, 2.0))) for b in builders]
            + [random_state(n, rng) for _ in range(2)])


class TestExactSolve:
    @pytest.mark.parametrize("builder,analytic", [
        (build_ghz, analytic_gains_ghz), (build_epr_type_i, analytic_gains_epr1)])
    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("r", [0.0, 0.25, 1.0, 2.0, 3.0])
    def test_tied_c8_lhs_matches_the_closed_forms(self, builder, analytic, n, r):
        result = optimize_gains(builder(n, r), "c8", objective="lhs")
        g, h = analytic(n, r)
        assert result.params[0] == pytest.approx(g, abs=1e-12)
        assert result.params[1] == pytest.approx(h, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0, 2.0])
    def test_epr1_c1_gain_matches_the_closed_form(self, r):
        result = optimize_gains(build_epr_type_i(3, r), "c1")
        assert result.params[0] == pytest.approx(math.sqrt(2) * math.tanh(2 * r), abs=1e-12)

    def test_path_follows_the_table(self):
        exact = set(_exact_cases())
        tied_ratio = {(cid, n, "tied", objective) for cid, n, objective in _tied_ratio_cases()}
        for cid, n, kind, objective in _objective_cases():
            structure = GainStructure(kind, n)
            if structure.n_params:
                moments = second_moments(vacuum_state(n))
                solve = _objective(moments, cid, structure, objective).kind
                assert (solve == "quadratic") == ((cid, n, kind, objective) in exact)
                assert (solve == "tied") == ((cid, n, kind, objective) in tied_ratio)

    @pytest.mark.parametrize("cid,n,kind,objective", list(_exact_cases()))
    def test_no_grid_point_or_refine_does_better(self, cid, n, kind, objective, rng):
        structure = GainStructure(kind, n)
        k = structure.n_params
        axis = np.arange(-2.0, 2.01, 0.25)
        pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * k), indexing="ij")], axis=1)
        for state in _states(n, rng):
            exact = optimize_gains(state, cid, structure=structure, objective=objective)
            batch = _objective(second_moments(state), cid, structure, objective)
            grid = batch(pts)
            refined = minimize(lambda p: float(batch(p[None])[0]), pts[np.argmin(grid)],
                               method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-15, "maxfev": 20000})
            assert exact.ratio <= grid.min() * (1 + 1e-12)
            assert exact.ratio <= refined.fun * (1 + 1e-12)

    def test_no_exact_case_calls_nelder_mead(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("Nelder-Mead called")

        monkeypatch.setattr(cvwl.optimizer, "_nelder_mead", refuse)
        for cid, n, kind, objective in _exact_cases():
            state = random_state(n, rng)
            result = optimize_gains(state, cid, structure=GainStructure(kind, n),
                                    objective=objective)
            assert (result.iterations, result.converged) == (0, True)
            assert optimize_gains(state, cid, init=result.params,
                                  structure=GainStructure(kind, n),
                                  objective=objective).params == result.params

    @pytest.mark.parametrize("cid,n,objective", list(_tied_ratio_cases()))
    def test_tied_ratio_no_grid_search_or_restart_does_better(self, cid, n, objective, rng):
        structure = GainStructure("tied", n)
        axis = np.arange(-2.0, 2.01, 0.1)
        pts = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        builders = ["ghz", "epr1", "epr2"] + (["counterexample"] if n == 3 else [])
        states = [build_state(b, n, r) for b in builders for r in R_GRID]
        # loss on one mode pulls A(h) and B(g) apart most, and with them
        # the free mode-0 scales of the product pencil
        states += [apply_loss(build_state(b, n, 1.0), mode, 0.5)
                   for b in ("ghz", "epr1", "epr2") for mode in range(n)]
        states += [vacuum_state(n)] + [random_state(n, rng) for _ in range(3)]
        options = {"xatol": 1e-9, "fatol": 1e-14, "maxfev": 4000}
        for state in states:
            exact = optimize_gains(state, cid, structure=structure, objective=objective)
            batch = _objective(second_moments(state), cid, structure, objective)
            fun = lambda p: float(batch(p[None])[0])
            grid = batch(pts)
            searched = minimize(fun, pts[np.argmin(grid)], method="Nelder-Mead", options=options)
            restart = minimize(fun, 1.05 * np.array(exact.params), method="Nelder-Mead",
                               options=options)
            assert exact.ratio == pytest.approx(fun(np.array(exact.params)), rel=1e-15)
            assert exact.ratio <= min(grid.min(), searched.fun) * (1 + 1e-12)
            assert exact.ratio <= restart.fun * (1 + 1e-12)

    def test_tied_bound_pieces_describe_the_bound(self, rng):
        # the tied entanglement bound has the closed form below, the
        # greatest of the pieces, so it is convex in q = gh and no kink is a
        # candidate; it is checked at random q and at its kink -1/(n - 2)
        # and either side of it, where the two negative-q pieces cross
        c8 = lookup("c8")
        for n in range(2, MAX_MODES + 1):
            q = rng.uniform(-5.0, 5.0, 64)
            if n >= 3:
                kink = -1.0 / (n - 2)
                q = np.concatenate((q, kink * np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6])))
            rows = GainStructure("tied", n).rows(np.stack((q, np.ones_like(q)), axis=1))
            closed = np.where(q >= 0.0, 2.0 * (1.0 + (n - 1) * q),
                              2.0 * np.maximum(1.0 + (n - 3) * q, -1.0 - (n - 1) * q))
            assert batch_bound(c8, rows, n) == pytest.approx(closed, rel=1e-12)
            alpha, beta, kinks = _tied_pieces(n, "entanglement")
            assert np.max(alpha + beta * q[:, None], axis=1) == pytest.approx(closed, rel=1e-12)
            assert kinks.size == 0
        # the steering bound 2 min(1, |q|) is concave: its kinks stay candidates
        alpha, beta, kinks = _tied_pieces(3, "steering")
        assert kinks.tolist() == [-1.0, 1.0]
        q = np.concatenate((rng.uniform(-5.0, 5.0, 64), kinks))
        rows = GainStructure("tied", 3).rows(np.stack((q, np.ones_like(q)), axis=1))
        bound = batch_bound(c8, rows, 3, "steering")
        assert bound == pytest.approx(2.0 * np.minimum(1.0, np.abs(q)), rel=1e-12)
        assert np.min(np.abs(alpha + beta * q[:, None] - bound[:, None]), axis=1) == \
            pytest.approx(0.0, abs=1e-12)

    def test_tied_c8_finds_the_optimum_outside_the_old_box(self):
        result = optimize_gains(build_epr_type_ii(6, 0.25), "c8")
        assert result.ratio == pytest.approx(1.0035386230, abs=1e-10)
        assert result.params == (pytest.approx(3.26408, abs=1e-5),
                                 pytest.approx(-4.84745, abs=1e-5))

    def test_tied_c6_on_a_lossy_state_finds_the_optimum_outside_the_old_box(self):
        # grid + Nelder-Mead on [-2, 2]^2 stopped at 1.1540987 here
        state = apply_loss(build_ghz(3, 0.817946), 1, 1 - 45 * 0.95 / 49)
        result = optimize_gains(state, "c6")
        assert result.ratio == pytest.approx(1.1320462, abs=1e-7)
        assert result.params[0] == pytest.approx(44.23, abs=0.01)
        assert result.params[1] == pytest.approx(-0.830, abs=0.001)

    @pytest.mark.parametrize("cid,n", [("c5", 3), ("c8", 3), ("c8", 5)])
    def test_uncorrelated_mode_zero_reaches_its_infimum_at_infinity(self, cid, n):
        # biseparable across mode 0, so the ratio is at least 1; it tends to 1
        # along a pencil eigenvector with a zero mode-0 gain, and (0, 0) gives 1.5431
        state = tensor([squeezed_vacuum(SqueezeSpec(0.5, "x")), build_ghz(n - 1, 1.0)])
        result = optimize_gains(state, cid)
        assert 1.0 - 1e-9 <= result.ratio <= 1.0 + 1e-6
        assert result.ent_ratio == evaluate(state, cid, result.gains).ent_ratio
        assert min(abs(v) for v in result.params) > 1e3

    @pytest.mark.parametrize("r", [10.0, 15.0, 50.0])
    def test_tied_ratio_at_large_squeezing_keeps_the_closed_form_gains(self, r):
        # L is positive definite only to rounding here, and Cholesky may
        # refuse it; the unconstrained minimum is still a candidate.  A
        # variance may round below zero, and then the result is refused
        refused = 0
        for cid, n, objective in _tied_ratio_cases():
            state, closed_form = build_ghz(n, r), analytic_gains_ghz(n, r)
            with np.errstate(all="ignore"):
                points = _objective(second_moments(state)[None], cid, default_structure(cid, n),
                                    objective).candidates()[0]
            assert np.any(np.all(np.abs(points - closed_form) <= 1e-6, axis=1))
            try:
                result = optimize_gains(state, cid, objective=objective)
            except ValueError as exc:
                assert "past what double precision resolves" in str(exc)
                refused += 1
            else:
                assert result.params == pytest.approx(closed_form, abs=1e-6)
        assert refused > 0

    def test_no_cold_tied_ratio_search_refines(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("Nelder-Mead called")

        monkeypatch.setattr(cvwl.optimizer, "_nelder_mead", refuse)
        for cid, n, objective in _tied_ratio_cases():
            for state in (build_ghz(n, 1.0), random_state(n, rng)):
                result = optimize_gains(state, cid, objective=objective)
                assert (result.iterations, result.converged) == (0, True)

    def test_reproduce_of_the_searched_targets_leaves_scipy_unloaded(self):
        src = Path(cvwl.optimizer.__file__).resolve().parents[1]
        code = ("import contextlib, io, sys, cvwl.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [cvwl.cli.main(['reproduce', t]) for t in ('table1', 'fig4')]\n"
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.strip() == "[0, 0] []"

    def test_unused_parameters_come_out_zero(self):
        # B_I takes g3 only; h_L of the epr2 structure copies nowhere at N = 3
        assert optimize_gains(build_ghz(3, 1.0), "b1").params[:2] == (0.0, 0.0)
        result = optimize_gains(build_epr_type_ii(3, 1.0), "c8",
                                structure=GainStructure("epr2", 3), objective="lhs")
        assert result.params[1] == 0.0

    @pytest.mark.parametrize("cid,kwargs,match", [
        ("c1", {"init": (0.5,)}, "init must supply"),
        ("c3", {"init": (1.0, 2.0)}, "init must supply"),
        ("c9", {"objective": "steering"}, "no steering bound"),
        # a non-finite init is rejected on the exact and the refining paths
        ("c1", {"init": (1.0, math.nan, 0.0)}, "finite values"),
        ("c5", {"init": (1.0, math.inf)}, "finite values"),
        ("c5", {"init": (1.0, math.nan), "objective": "lhs"}, "finite values"),
        # a warm start whose objective overflows, or sits on a zero bound
        ("c5", {"init": (1e300, 1e300)}, "objective is not finite"),
        ("c6", {"init": (1e200, 1e-200)}, "objective is not finite"),
        ("c5", {"init": (0.0, 0.0), "objective": "steering"}, "objective is not finite"),
    ])
    def test_errors_still_raise(self, cid, kwargs, match):
        n = 4 if cid == "c9" else 3
        with pytest.raises(ValueError, match=match):
            optimize_gains(build_ghz(n, 1.0), cid, **kwargs)

    @pytest.mark.parametrize("r", [9.5, 9.75, 10.0])
    @pytest.mark.parametrize("builder", ["ghz", "epr1", "epr2", "counterexample"])
    def test_products_past_rounding_leak_no_warning(self, builder, r):
        # from r ~ 9.5 a product's Var u Var v may round negative, and its
        # square root is NaN, or a variance rounds below zero and the result
        # is refused; warnings are errors in this suite
        state = build_state(builder, 3, r)
        cases = [(cid, "entanglement") for cid in ("s1", "s2", "s3", "c2", "c4", "c6")]
        cases += [("c4", "steering"), ("c4", "lhs"), ("c6", "lhs")]
        for cid, objective in cases:
            try:
                result = optimize_gains(state, cid, objective=objective)
            except ValueError as exc:
                assert ("is not finite at these gains" in str(exc)
                        or "past what double precision resolves" in str(exc))
            else:
                assert math.isfinite(result.ratio)


def _block_cases():
    """Every criterion, structure and objective with an exact solve: the
    quadratic ones, those without free gains, and the cold tied ratios."""
    tied_ratio = {(cid, n, "tied", objective) for cid, n, objective in _tied_ratio_cases()}
    for case in _objective_cases():
        cid, n, kind, objective = case
        if case in tied_ratio or cid in EXACT_ROWS + ("c3", "c4", "c7") or objective == "lhs":
            yield case


def _lossy_states(n):
    """The ghz and epr1 states at r = 1 with mode 0 or the last mode lost
    wholly (eta = 0) or not at all (eta = 1).  A mode lost wholly is
    uncorrelated with the rest, so where it is mode 0 the tied candidates
    lie at infinity."""
    return [apply_loss(build_state(builder, n, 1.0), mode, eta)
            for builder in ("ghz", "epr1") for mode in (0, n - 1) for eta in (0.0, 1.0)]


def _assert_as_reference(results, states, cid, structure, objective):
    assert len(results) == len(states)
    for result, state in zip(results, states):
        params, ratio, gains, report = exact_solve(state, cid, structure, objective)
        assert (result.params, result.ratio, result.gains, result.report) == \
            (params, ratio, gains, report)
        assert (result.criterion_id, result.objective, result.ent_ratio) == \
            (cid, objective, report.ent_ratio)
        assert (result.iterations, result.converged) == (0, True)


def _stack(states):
    return np.stack([second_moments(state) for state in states])


class TestBlockSolve:
    """``solve`` on exact kinds against the per-point reference of
    ``exact_solve_reference``, which is ``optimize_gains``'s exact solve as
    it was before the stacked solve, bit for bit."""

    @pytest.mark.parametrize("cid,n,kind,objective", list(_block_cases()))
    def test_blocks_of_one_and_of_seven_equal_the_reference(self, cid, n, kind, objective,
                                                             rng):
        structure = GainStructure(kind, n)
        states = _lossy_states(n) + [random_state(n, rng) for _ in range(6)]
        for state in states:
            _assert_as_reference(solve(_stack([state]), cid, structure, objective),
                                 [state], cid, structure, objective)
            result = optimize_gains(state, cid, structure=structure, objective=objective)
            _assert_as_reference([result], [state], cid, structure, objective)
        order = rng.permutation(len(states))
        for block in ([states[i] for i in order[:7]], [states[i] for i in order[7:]]):
            _assert_as_reference(solve(_stack(block), cid, structure, objective),
                                 block, cid, structure, objective)

    @pytest.mark.parametrize("cid,n,kind,objective", [
        ("c1", 3, "free_g3", "entanglement"), ("c10", 4, "free_g14", "entanglement"),
        ("c5", 3, "tied", "entanglement"), ("c6", 3, "tied", "steering"),
        ("c8", 5, "tied", "entanglement"),
    ])
    def test_a_thousand_point_block_equals_the_reference(self, cid, n, kind, objective, rng):
        # 40 random draws among the efficiencies 0..1 of one loss pass on each
        # lossy state's base, in a shuffled order
        structure = GainStructure(kind, n)
        etas = np.linspace(0.0, 1.0, 240)
        covs = [cov for builder in ("ghz", "epr1") for mode in (0, n - 1)
                for cov in lossy_covariances(build_state(builder, n, 1.0), mode, etas)]
        states = [GaussianState(cov) for cov in covs] + [random_state(n, rng) for _ in range(40)]
        states = [states[i] for i in rng.permutation(len(states))]
        assert len(states) == 1000
        _assert_as_reference(solve(_stack(states), cid, structure, objective),
                             states, cid, structure, objective)

    @pytest.mark.parametrize("cid,r", [("c5", 10.0), ("c6", 9.25)])
    @pytest.mark.parametrize("objective", ["entanglement", "steering"])
    def test_a_point_whose_cholesky_fails_drops_only_its_pencil(self, cid, r, objective,
                                                                monkeypatch, rng):
        # at these squeezings L is positive definite only to rounding and
        # Cholesky refuses it, which a stacked call does for the whole stack
        masks = []

        def recording(stack):
            factors, ok = cholesky(stack)
            masks.append(ok.tolist())
            return factors, ok

        cholesky = cvwl.optimizer._cholesky
        monkeypatch.setattr(cvwl.optimizer, "_cholesky", recording)
        structure = GainStructure("tied", 3)
        states = [random_state(3, rng) for _ in range(6)]
        states.insert(2, build_ghz(3, r))
        results = solve(_stack(states), cid, structure, objective)
        assert masks == [[True, True, False, True, True, True, True]]
        _assert_as_reference(results, states, cid, structure, objective)

    def test_the_free_parameters_can_differ_inside_a_block(self, monkeypatch):
        # modes 1 and 3 p-squeezed at r = 12: the Hessian rows of g1 and g3,
        # 2 Var p ~ 1e-10, fall below the rounding of Var x ~ 3e10, so only g2
        # is solved for there, and all three on the other states
        sizes = []

        def recording(a, b, rcond=None):
            sizes.append(a.shape)
            return lstsq(a, b, rcond=rcond)

        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", recording)
        squeezed = squeezed_vacuum(SqueezeSpec(12.0, "p"))
        structure = GainStructure("free_g3", 3)
        states = [build_ghz(3, 1.0), tensor([squeezed, vacuum_state(1), squeezed]),
                  build_epr_type_i(3, 0.5)]
        results = solve(_stack(states), "c1", structure, "entanglement")
        assert sizes == [(3, 3), (1, 1), (3, 3)]
        _assert_as_reference(results, states, "c1", structure, "entanglement")

    def test_a_failing_point_raises_as_alone(self, rng):
        # at r = 50 a c5 variance rounds below zero; a block raises for it
        block = [random_state(3, rng), build_ghz(3, 50.0), random_state(3, rng)]
        with pytest.raises(ValueError) as want:
            optimize_gains(block[1], "c5")
        with pytest.raises(ValueError) as got:
            solve(_stack(block), "c5")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cid,n,kind,init", [
        ("c8", 4, "epr2", None), ("c8", 4, "epr2", (-1.0, -1.5, 1.0)),
        ("c5", 3, "tied", (0.9, -0.5)), ("c6", 3, "tied", (0.9, -0.5)),
    ], ids=["cold-epr2", "warm-epr2", "warm-tied-c5", "warm-tied-c6"])
    def test_a_stack_of_searches_equals_each_search_alone(self, cid, n, kind, init, rng):
        # a search runs state by state on the state's own moments; the stack
        # shares its reports call and, when warm, its init
        structure = GainStructure(kind, n)
        states = [apply_loss(build_state("epr2" if kind == "epr2" else "ghz", n, 1.0), 1, eta)
                  for eta in (1.0, 0.6)] + [random_state(n, rng) for _ in range(3)]
        results = solve(_stack(states), cid, structure, init=init)
        assert results == [solve(_stack([state]), cid, structure, init=init)[0]
                           for state in states]
        assert any(result.iterations for result in results)
        with pytest.raises(ValueError, match="objective must be"):
            solve(_stack(states), cid, structure, objective="ratio", init=init)


class TestStructures:
    def test_tied_expansion(self):
        structure = GainStructure("tied", 4)
        gains = structure.expand((0.9, -0.3))
        assert gains.h == (1.0, -0.3, -0.3, -0.3)
        assert gains.g == (1.0, 0.9, 0.9, 0.9)

    def test_epr2_expansion_groups(self):
        structure = GainStructure("epr2", 6)
        gains = structure.expand((-0.7, -0.5, 0.7))
        assert gains.h == (1.0, -0.7, -0.7, -0.5, -0.7, -0.5)
        assert gains.g == (1.0, 0.7, 0.7, -0.5, 0.7, -0.5)

    def test_param_count_enforced(self):
        with pytest.raises(ValueError):
            GainStructure("tied", 3).expand((1.0,))

    @pytest.mark.parametrize("cid,kind", [("c1", "tied"), ("c5", "free_g3"), ("c10", "tied_g")])
    def test_structure_must_fit_the_criterion(self, cid, kind):
        n = 4 if cid == "c10" else 3
        with pytest.raises(ValueError, match="does not fit"):
            optimize_gains(vacuum_state(n), cid, structure=GainStructure(kind, n))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown structure kind"):
            GainStructure("nope", 3)

    def test_default_structures(self):
        assert default_structure("c5", 3).kind == "tied"
        assert default_structure("c1", 3).kind == "free_g3"
        assert default_structure("c9", 4).kind == "tied_g"
        assert default_structure("c10", 4).kind == "free_g14"
        assert default_structure("c3", 3).kind == "fixed"
        with pytest.raises(ValueError):
            default_structure("nope", 3)


class TestSweep:
    def test_warm_and_cold_agree(self):
        values = np.linspace(0.1, 2.0, 6)
        warm = sweep("ghz", 3, "c5", r_values=values, warm_start=True)
        cold = sweep("ghz", 3, "c5", r_values=values, warm_start=False)
        for a, b in zip(warm, cold):
            assert a.report.ent_ratio == pytest.approx(b.report.ent_ratio, abs=1e-6)

    def test_warm_start_escapes_the_degenerate_zero_row(self):
        # the r=0 optimum is (0, 0); warm-starting the next point from it
        # must still find the moving optimum
        values = (0.0, 1.0)
        warm = sweep("epr1", 4, "c8", r_values=values, objective="lhs")
        g, h = analytic_gains_epr1(4, 1.0)
        assert warm[1].gains.g[1] == pytest.approx(g, abs=1e-4)
        assert warm[1].gains.h[1] == pytest.approx(h, abs=1e-4)

    def test_loss_on_steered_party_keeps_detection(self):
        # with the attenuation entirely on the inferred mode, the witness
        # survives down to small efficiencies
        rows = sweep("epr1", 3, "c5", eta_values=np.linspace(0.1, 1.0, 10),
                     r=2.0, loss_modes=(0,))
        assert all(row.report.ent_ratio < 1.0 for row in rows)

    def test_loss_on_steering_pair_kills_steering_at_half(self):
        rows = sweep("ghz", 3, "c5", eta_values=np.linspace(0.05, 0.5, 6),
                     r=2.0, loss_modes=(1, 2), objective="steering")
        for row in rows:
            assert row.report.steer_ratio >= 1.0
            assert not row.report.verdict_steering

    def test_fixed_gain_sweep(self):
        rows = sweep("epr1", 3, "c3", r_values=(0.5, 1.0), optimize=False)
        assert rows[0].report.ent_ratio == pytest.approx(2 * math.exp(-1), rel=1e-12)
        assert rows[1].report.ent_ratio == pytest.approx(2 * math.exp(-2), rel=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            sweep("ghz", 3, "c5")
        with pytest.raises(ValueError):
            sweep("ghz", 3, "c5", r_values=(1,), eta_values=(0.5,))
        with pytest.raises(ValueError):
            sweep("ghz", 3, "c5", eta_values=(0.5,))

    def test_repeated_loss_mode_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            sweep("ghz", 3, "c3", eta_values=(0.5,), r=1.0, loss_modes=(1, 1), optimize=False)

    @pytest.mark.parametrize("extra", [dict(loss_modes=(1,)), dict(r=1.0)])
    def test_r_sweep_rejects_loss_arguments(self, extra):
        with pytest.raises(ValueError, match="r sweeps"):
            sweep("ghz", 3, "c3", r_values=(0.5,), optimize=False, **extra)

    def test_eta_sweep_builds_its_state_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return build_state(*args)

        monkeypatch.setattr(cvwl.optimizer, "build_state", counting)
        sweep("ghz", 4, "c8", eta_values=(0.2, 0.5, 0.9), r=1.0, loss_modes=(3, 1),
              optimize=False)
        assert calls == [("ghz", 4, 1.0)]
        calls.clear()
        sweep("ghz", 4, "c8", r_values=(0.2, 0.5, 0.9), optimize=False)
        assert calls == [("ghz", 4, 0.2), ("ghz", 4, 0.5), ("ghz", 4, 0.9)]

    @pytest.mark.parametrize("mode", ["fixed", "cold", "warm"])
    def test_eta_sweep_equals_a_rebuild_at_every_point(self, mode):
        # the reference: build the preset and chain one single-mode loss per
        # lossy mode at every point
        builder, n, criterion, r, modes = (("epr2", 6, "c8", 1.0, (4, 2)) if mode == "fixed"
                                           else ("ghz", 3, "c5", 0.8, (2, 0)))
        gains = GainStructure("tied", n).expand((0.8, -0.4)) if mode == "fixed" else None
        etas = np.linspace(0.05, 1.0, 20)
        rows = sweep(builder, n, criterion, eta_values=etas, r=r, loss_modes=modes,
                     optimize=gains is None, gains=gains, warm_start=mode == "warm")
        prev = None
        for eta, row in zip(etas, rows, strict=True):
            state = build_state(builder, n, r)
            for m in modes:
                state = apply_loss(state, m, eta)
            if gains is None:
                result = optimize_gains(state, criterion, init=prev)
                expected_gains, report = result.gains, result.report
                if mode == "warm":
                    prev = result.params or None
            else:
                expected_gains, report = gains, evaluate(state, criterion, gains)
            assert row.param == eta
            assert row.gains == expected_gains
            assert (row.report.lhs, row.report.ent_bound, row.report.steer_bound) == (
                report.lhs, report.ent_bound, report.steer_bound)

    @pytest.mark.parametrize("builder,n,criterion,params,modes", [
        ("ghz", 6, "c8", (0.7, -0.3), (1, 3)),
        ("epr1", 3, "c5", (0.6, -0.6), (2,)),
    ])
    def test_fixed_gain_sweeps_equal_evaluate_at_every_point(self, builder, n, criterion,
                                                             params, modes):
        # the criterion is bound to the gains once per sweep; every point must
        # report what evaluate reports on that point's state, field for field
        gains = GainStructure("tied", n).expand(params)
        etas, rs = np.linspace(0.05, 1.0, 12), np.linspace(0.1, 1.5, 8)
        eta_rows = sweep(builder, n, criterion, eta_values=etas, r=1.0, loss_modes=modes,
                         optimize=False, gains=gains)
        r_rows = sweep(builder, n, criterion, r_values=rs, optimize=False, gains=gains)
        states = [apply_loss(build_state(builder, n, 1.0), modes, eta) for eta in etas]
        states += [build_state(builder, n, r) for r in rs]
        for row, value, state in zip(eta_rows + r_rows, list(etas) + list(rs), states,
                                     strict=True):
            want = evaluate(state, criterion, gains)
            assert (row.param, row.gains, row.report) == (value, gains, want)
            crit = lookup(criterion)
            lhs = batch_terms(crit, second_moments(state))(crit.gain_row(gains, n)[None])[-1]
            assert row.report.lhs == float(lhs[0])
            assert (row.report.steer_bound is None) == (n != 3)

    @pytest.mark.parametrize("block", [1, 7, 1000])
    @pytest.mark.parametrize("criterion", list(TABLE))
    def test_every_criterion_in_blocks_equals_evaluate_at_every_point(self, criterion, block,
                                                                      monkeypatch, rng):
        # a fixed-gain sweep scores each block of points in one call; whatever
        # the block size, every point must report exactly what evaluate does
        crit = TABLE[criterion]
        n = crit.n_modes or 6
        monkeypatch.setattr(cvwl.optimizer, "BLOCK_SUMS", block * (2 * n) ** 2)
        if crit.slots is VECTOR:
            gains = GainVector(rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n))
        else:
            gains = tuple(rng.uniform(-1.5, 1.5, len(crit.slots)).tolist()) or None
        builder, modes = ("epr2", (3, 1)) if n > 3 else ("ghz", (2,))
        etas = [0.0, 1.0, *rng.uniform(size=18).tolist()]
        rs = rng.uniform(0.0, 1.5, 9).tolist()
        sweeps = [(etas, sweep(builder, n, criterion, eta_values=etas, r=0.9, loss_modes=modes,
                               optimize=False, gains=gains),
                   lambda eta: apply_loss(build_state(builder, n, 0.9), modes, eta)),
                  (rs, sweep(builder, n, criterion, r_values=rs, optimize=False, gains=gains),
                   lambda r: build_state(builder, n, r))]
        if n == 3:  # a mixture's stack holds its second moments
            sweeps.append((rs, sweep("counterexample", 3, criterion, r_values=rs,
                                     optimize=False, gains=gains),
                           lambda r: build_state("counterexample", 3, r)))
        for values, rows, state_at in sweeps:
            assert len(rows) == len(values)
            for value, row in zip(values, rows):
                assert (row.param, row.gains, row.report) == (
                    value, gains, evaluate(state_at(value), criterion, gains))

    def test_blocks_at_the_mode_ceiling_equal_evaluate(self):
        # BLOCK_SUMS // (2N)^2 = 163 points a block at N = 20: three blocks
        n, modes = MAX_MODES, (1, 3)
        gains = GainStructure("tied", n).expand((0.7, -0.3))
        etas = np.linspace(0.0, 1.0, 401)
        rows = sweep("ghz", n, "c8", eta_values=etas, r=1.0, loss_modes=modes,
                     optimize=False, gains=gains)
        base = build_state("ghz", n, 1.0)
        for eta, row in zip(etas, rows, strict=True):
            assert row.report == evaluate(apply_loss(base, modes, eta), "c8", gains)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_eta_sweep_takes_one_loss_pass_per_block(self, optimize, monkeypatch):
        passes = []

        def counting(state, modes, etas):
            passes.append(len(etas))
            return lossy_covariances(state, modes, etas)

        monkeypatch.setattr(cvwl.optimizer, "lossy_covariances", counting)
        monkeypatch.setattr(cvwl.optimizer, "BLOCK_SUMS", 7 * 6 ** 2)
        gains = None if optimize else GainVector((1, -1, -1), (1, 1, 1))
        rows = sweep("ghz", 3, "c5", eta_values=np.linspace(0.1, 1.0, 20), r=0.8,
                     loss_modes=(1,), optimize=optimize, gains=gains)
        assert len(rows) == 20 and passes == [7, 7, 6]

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("builder,n,modes,etas", [
        ("ghz", 3, (1,), (0.5, 0.9, 1.5, 0.2)),
        ("ghz", 3, (1,), (0.5, math.nan)),
        ("ghz", 3, (0, 3), (0.5, 0.9)),
        ("ghz", 3, (2, 2), (0.5,)),
        ("counterexample", 3, (1,), (0.5, 0.9)),
    ])
    def test_bad_loss_inputs_raise_what_apply_loss_raises(self, builder, n, modes, etas,
                                                         optimize):
        base = build_state(builder, n, 0.8)
        gains = None if optimize else GainVector((1, -1, -1), (1, 1, 1))
        with pytest.raises(ValueError) as want:
            for eta in etas:
                apply_loss(base, modes, eta)
        with pytest.raises(ValueError) as got:
            sweep(builder, n, "c5", eta_values=etas, r=0.8, loss_modes=modes,
                  optimize=optimize, gains=gains)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("criterion,n,kwargs", [
        ("c1", 3, {}), ("c10", 4, {}), ("c8", 4, {"objective": "lhs"}), ("c3", 3, {}),
        ("c5", 3, {"warm_start": False}),
        ("c6", 3, {"warm_start": False, "objective": "steering"}),
    ])
    @pytest.mark.parametrize("param", ["eta", "r"])
    def test_sweeps_that_need_no_seed_solve_each_block_at_once(self, criterion, n, kwargs,
                                                                param, monkeypatch):
        # each point as a cold optimize_gains; the eta sweep loses mode 2 wholly at eta = 0
        values = np.linspace(0.0, 1.0, 20)
        objective = kwargs.get("objective", "entanglement")
        if param == "eta":
            states = [apply_loss(build_state("ghz", n, 0.8), 1, eta) for eta in values]
            kwargs = dict(kwargs, eta_values=values, r=0.8, loss_modes=(1,))
        else:
            states = [build_state("ghz", n, r) for r in values]
            kwargs = dict(kwargs, r_values=values)
        want = [optimize_gains(state, criterion, objective=objective) for state in states]
        blocks = []

        def counting(moments, *args):
            blocks.append(len(moments))
            return solve(moments, *args)

        monkeypatch.setattr(cvwl.optimizer, "solve", counting)
        monkeypatch.setattr(cvwl.optimizer, "BLOCK_SUMS", 7 * (2 * n) ** 2)
        rows = sweep("ghz", n, criterion, **kwargs)
        assert blocks == [7, 7, 6]
        assert [(row.gains, row.report) for row in rows] == \
            [(result.gains, result.report) for result in want]

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_a_failing_point_raises_before_its_block_is_solved(self, warm_start, monkeypatch):
        calls = []

        def counting(moments, *args, **kwargs):
            calls.append(len(moments))
            return solve(moments, *args, **kwargs)

        monkeypatch.setattr(cvwl.optimizer, "solve", counting)
        with pytest.raises(ValueError, match="squeeze parameter must be"):
            sweep("ghz", 3, "c5", r_values=(0.5, 1.0, -1.0), warm_start=warm_start)
        assert calls == []

    def test_warm_tied_sweeps_stay_per_point(self, monkeypatch):
        # the first point is solved cold, each later one alone from the last optimum
        calls = []

        def counting(moments, *args, init=None):
            results = solve(moments, *args, init=init)
            calls.append((len(moments), init, results[0].params))
            return results

        monkeypatch.setattr(cvwl.optimizer, "solve", counting)
        rows = sweep("ghz", 3, "c5", eta_values=np.linspace(0.5, 1.0, 6), r=0.8,
                     loss_modes=(1,))
        assert len(rows) == 6 and [size for size, _, _ in calls] == [1] * 6
        assert [init for _, init, _ in calls] == [None] + [params for _, _, params in calls[:-1]]

    @pytest.mark.parametrize("criterion,kwargs", [
        ("c8", {"optimize": False, "gains": GainStructure("tied", 3).expand((0.7, -0.3))}),
        ("c3", {"optimize": False}),
        ("c1", {}),
        ("c5", {"warm_start": False}),
        ("c5", {}),
    ], ids=["fixed-c8", "fixed-c3", "quadratic-c1", "cold-tied-c5", "warm-tied-c5"])
    def test_eta_sweeps_build_only_their_base_state(self, criterion, kwargs):
        # every block is checked as one stack, and a warm point is solved on
        # its matrix of that stack
        with counting_states() as built:
            build_state("ghz", 3, 0.8)
        base = built[0]
        etas = np.linspace(0.1, 1.0, 10)
        with counting_states() as built:
            rows = sweep("ghz", 3, criterion, eta_values=etas, r=0.8, loss_modes=(1,), **kwargs)
        assert len(rows) == len(etas)
        assert built[0] == base

    def test_overflowing_gains_rejected_before_the_first_point(self, monkeypatch):
        monkeypatch.setattr(cvwl.optimizer, "build_state", None)  # no state may be built
        gains = GainVector((1.0, 1e300, 1e300), (1.0, 1e300, 1e300))
        with pytest.raises(ValueError, match="bound is not finite"):
            sweep("ghz", 3, "c5", r_values=(0.5, 1.0), optimize=False, gains=gains)


class TestBuildState:
    def test_presets(self):
        assert build_state("vacuum", 3, 0.0).n_modes == 3
        assert build_state("ghz", 4, 1.0).n_modes == 4
        assert build_state("counterexample", 3, 0.5).n_modes == 3

    def test_counterexample_mode_guard(self):
        with pytest.raises(ValueError):
            build_state("counterexample", 4, 0.5)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_state("bell", 2, 0.1)
