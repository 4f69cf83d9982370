import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from cvwl import (
    GainStructure,
    GainVector,
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
    sweep,
    vacuum_state,
)
import cvwl.optimizer
from cvwl.optimizer import _objective, default_structure
from cvwl.witnesses import TABLE, VECTOR
from conftest import random_state


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

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            optimize_gains(vacuum_state(3), "c5", objective="magic")

    def test_converged_reports_nelder_mead_failure(self, monkeypatch):
        def fail(fun, x0, **kwargs):
            return OptimizeResult(x=np.asarray(x0), fun=fun(x0), success=False, nit=7)

        monkeypatch.setattr(cvwl.optimizer, "_scipy_minimize", fail)
        result = optimize_gains(build_ghz(3, 1.0), "c5", init=(0.9, -0.45))
        assert result.converged is False
        assert result.iterations == 7

    def test_fixed_criterion_needs_no_search(self):
        result = optimize_gains(build_epr_type_i(3, 1.0), "c3")
        assert result.params == ()
        assert result.ent_ratio == pytest.approx(2 * math.exp(-2), rel=1e-12)


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


class TestBatchedObjective:
    @pytest.mark.parametrize("cid,n,kind,objective", list(_objective_cases()))
    def test_matches_evaluate_at_random_parameters(self, cid, n, kind, objective, rng):
        structure = GainStructure(kind, n)
        builders = ["ghz", "epr1", "epr2"] + (["counterexample"] if n == 3 else [])
        states = [build_state(b, n, float(rng.uniform(0.1, 1.5))) for b in builders]
        states += [random_state(n, rng) for _ in range(2)]
        for state in states:
            params = rng.uniform(-2, 2, (8, structure.n_params))
            batch = _objective(state, cid, structure, objective)(params)
            for p, got in zip(params, batch):
                report = evaluate(state, cid, structure.expand(p))
                want = {"entanglement": report.ent_ratio, "steering": report.steer_ratio,
                        "lhs": report.lhs}[objective]
                if math.isinf(want):
                    assert got == want
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0)


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
            assert a.ent == pytest.approx(b.ent, abs=1e-6)

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
        assert all(row.ent < 1.0 for row in rows)

    def test_loss_on_steering_pair_kills_steering_at_half(self):
        rows = sweep("ghz", 3, "c5", eta_values=np.linspace(0.05, 0.5, 6),
                     r=2.0, loss_modes=(1, 2), objective="steering")
        for row in rows:
            assert row.report.steer_ratio >= 1.0
            assert not row.report.verdict_steering

    def test_fixed_gain_sweep(self):
        rows = sweep("epr1", 3, "c3", r_values=(0.5, 1.0), optimize=False)
        assert rows[0].ent == pytest.approx(2 * math.exp(-1), rel=1e-12)
        assert rows[1].ent == pytest.approx(2 * math.exp(-2), rel=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            sweep("ghz", 3, "c5")
        with pytest.raises(ValueError):
            sweep("ghz", 3, "c5", r_values=(1,), eta_values=(0.5,))
        with pytest.raises(ValueError):
            sweep("ghz", 3, "c5", eta_values=(0.5,))


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
