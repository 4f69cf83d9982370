import math

import numpy as np
import pytest

from cvwl import (
    GainVector,
    biseparable_bound,
    build_counterexample,
    build_epr_type_i,
    build_epr_type_ii,
    build_ghz,
    equal_split_gains,
    evaluate,
    quadrature_variances,
    vacuum_state,
)
from cvwl.partitions import Bipartition
from cvwl.witnesses import WitnessReport
from conftest import random_biseparable_mixture, random_state


class TestVlfForms:
    def test_vacuum_sits_at_the_bound(self):
        report = evaluate(vacuum_state(3), "b1", (0, 0, 0))
        assert report.lhs == pytest.approx(4.0)
        assert report.ent_ratio == pytest.approx(1.0)
        assert not report.verdict_entanglement
        assert report.steer_bound == 2.0

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_ghz_unit_gains(self, r):
        report = evaluate(build_ghz(3, r), "b1", (1, 1, 1))
        assert report.lhs == pytest.approx(5 * math.exp(-2 * r), rel=1e-12)

    def test_product_form_vacuum(self):
        report = evaluate(vacuum_state(3), "s1", (0, 0, 0))
        assert report.lhs == pytest.approx(2.0)
        assert report.ent_bound == 2.0 and report.steer_bound == 1.0

    def test_ghz_product_value(self):
        report = evaluate(build_ghz(3, 1.0), "s1", (1, 1, 1))
        assert report.lhs == pytest.approx(math.sqrt(6) * math.exp(-2), rel=1e-12)

    def test_product_never_above_half_sum(self, rng):
        for _ in range(200):
            state = random_state(3, rng)
            gains = tuple(rng.uniform(-2, 2, 3))
            which = rng.choice(["1", "2", "3"])
            assert evaluate(state, "s" + which, gains).lhs <= \
                evaluate(state, "b" + which, gains).lhs / 2 + 1e-12

    def test_wrong_mode_count(self):
        with pytest.raises(ValueError):
            evaluate(vacuum_state(2), "b1", (0, 0, 0))
        with pytest.raises(ValueError):
            evaluate(vacuum_state(3), "b4", (0, 0, 0))


class TestSummedCriteria:
    def test_c1_vacuum(self):
        report = evaluate(vacuum_state(3), "c1", (0, 0, 0))
        assert report.lhs == pytest.approx(12.0)
        assert report.ent_ratio == pytest.approx(1.5)
        assert report.steer_bound == 4.0

    @pytest.mark.parametrize("r", [0.2, 0.6, 1.2])
    def test_c1_ghz_symmetric(self, r):
        report = evaluate(build_ghz(3, r), "c1", (1, 1, 1))
        assert report.lhs == pytest.approx(15 * math.exp(-2 * r), rel=1e-12)
        assert report.verdict_entanglement == (math.exp(-2 * r) < 8 / 15)

    def test_c2_vacuum(self):
        report = evaluate(vacuum_state(3), "c2", (0, 0, 0))
        assert report.lhs == pytest.approx(6.0)
        assert report.ent_bound == 4.0 and report.steer_bound == 2.0

    @pytest.mark.parametrize("r", [0.2, 0.6, 1.2])
    def test_c2_ghz_symmetric(self, r):
        report = evaluate(build_ghz(3, r), "c2", (1, 1, 1))
        assert report.lhs == pytest.approx(3 * math.sqrt(6) * math.exp(-2 * r), rel=1e-12)

    def test_product_ratio_never_above_sum_ratio(self, rng):
        for _ in range(200):
            state = random_state(3, rng)
            gains = tuple(rng.uniform(-2, 2, 3))
            assert evaluate(state, "c2", gains).ent_ratio <= \
                evaluate(state, "c1", gains).ent_ratio + 1e-12


class TestSimpleCriterion:
    def test_vacuum(self):
        sum_report = evaluate(vacuum_state(3), "c3")
        prod_report = evaluate(vacuum_state(3), "c4")
        assert sum_report.lhs == pytest.approx(4.0)
        assert sum_report.ent_ratio == pytest.approx(2.0)
        assert prod_report.lhs == pytest.approx(2.0)
        assert prod_report.ent_bound == 1.0 and prod_report.steer_bound == 0.5

    @pytest.mark.parametrize("r", [0.3, 0.694, 1.5])
    def test_epr_closed_form_and_steering_onset(self, r):
        sum_report = evaluate(build_epr_type_i(3, r), "c3")
        assert sum_report.lhs == pytest.approx(4 * math.exp(-2 * r), rel=1e-12)
        assert sum_report.ent_ratio == pytest.approx(2 * math.exp(-2 * r), rel=1e-12)
        assert sum_report.verdict_steering == (r > math.log(2))

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_ghz_sits_above_epr(self, r):
        ghz_report = evaluate(build_ghz(3, r), "c3")
        epr_report = evaluate(build_epr_type_i(3, r), "c3")
        assert ghz_report.ent_ratio > epr_report.ent_ratio


class TestGeneralCriterion:
    def test_ghz_printed_gains(self):
        gains = GainVector((1, -0.49, -0.49), (1, 0.95, 0.95))
        sum_report = evaluate(build_ghz(3, 1.0), "c5", gains)
        prod_report = evaluate(build_ghz(3, 1.0), "c6", gains)
        assert sum_report.ent_bound == pytest.approx(2.0)
        assert sum_report.verdict_entanglement
        assert prod_report.verdict_entanglement

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.5])
    def test_ghz_half_gain_closed_form(self, r):
        gains = GainVector((1, -0.5, -0.5), (1, 1, 1))
        sum_report = evaluate(build_ghz(3, r), "c5", gains)
        assert sum_report.lhs == pytest.approx(4.5 * math.exp(-2 * r), rel=1e-12)
        assert sum_report.ent_bound == pytest.approx(2.0)
        assert sum_report.ent_ratio == pytest.approx(2.25 * math.exp(-2 * r), rel=1e-12)

    def test_epr_large_r_gains_match_simple_criterion(self):
        # tied gains tanh(4)/sqrt(2) ~ 0.70 sit within 1e-2 of the fixed
        # 1/sqrt(2) combination
        state = build_epr_type_i(3, 2.0)
        gains = GainVector((1, -0.70, -0.70), (1, 0.70, 0.70))
        sum_report = evaluate(state, "c5", gains)
        simple_report = evaluate(state, "c3")
        assert sum_report.ent_ratio == pytest.approx(simple_report.ent_ratio, abs=1e-2)

    def test_epr_family_sum_and_product_agree(self):
        # g = -h makes Var(u) = Var(v) exactly, so the two normalized
        # ratios coincide
        for r in (0.3, 1.0, 2.0):
            scale = math.tanh(2 * r) / math.sqrt(2)
            gains = GainVector((1, -scale, -scale), (1, scale, scale))
            sum_report = evaluate(build_epr_type_i(3, r), "c5", gains)
            prod_report = evaluate(build_epr_type_i(3, r), "c6", gains)
            assert prod_report.ent_ratio == pytest.approx(sum_report.ent_ratio, abs=1e-12)

    def test_ghz_sum_and_product_differ(self):
        # the GHZ combination variances are unequal (1.5 vs 3 exp(-2r) at
        # the stationary gains), so the product form is strictly tighter
        gains = GainVector((1, -0.4864, -0.4864), (1, 0.947, 0.947))
        sum_report = evaluate(build_ghz(3, 1.0), "c5", gains)
        prod_report = evaluate(build_ghz(3, 1.0), "c6", gains)
        assert prod_report.ent_ratio < sum_report.ent_ratio - 1e-3


class TestTwoVlfCriterion:
    def test_vacuum(self):
        report = evaluate(vacuum_state(3), "c7")
        assert report.lhs == pytest.approx(10.0)
        assert report.ent_ratio == pytest.approx(2.5)

    @pytest.mark.parametrize("r", [0.2, 0.6, 1.5])
    def test_ghz_pairs(self, r):
        report = evaluate(build_ghz(3, r), "c7")
        assert report.lhs == pytest.approx(10 * math.exp(-2 * r), rel=1e-12)
        assert report.verdict_entanglement == (r > math.log(2.5) / 2)

    def test_epr_never_violates(self):
        for r in np.linspace(0.0, 3.0, 31):
            assert evaluate(build_epr_type_i(3, r), "c7").lhs > 4.0


class TestNPartiteCriterion:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("r", [0.4, 1.0])
    def test_epr_equal_split(self, n, r):
        report = evaluate(build_epr_type_i(n, r), "c8", equal_split_gains(n))
        assert report.lhs == pytest.approx(4 * math.exp(-2 * r), rel=1e-12)
        assert report.ent_bound == pytest.approx(4 / (n - 1))
        assert report.ent_ratio == pytest.approx((n - 1) * math.exp(-2 * r), rel=1e-12)

    def test_ghz4_printed_gains(self):
        gains = GainVector((1, -0.33, -0.33, -0.33), (1, 1, 1, 1))
        report = evaluate(build_ghz(4, 2.0), "c8", gains)
        assert report.verdict_entanglement

    def test_reduces_to_simple_criterion_at_three_modes(self):
        state = build_epr_type_i(3, 0.9)
        npartite = evaluate(state, "c8", equal_split_gains(3))
        simple = evaluate(state, "c3")
        assert npartite.lhs == simple.lhs
        assert npartite.ent_bound == simple.ent_bound
        assert npartite.steer_bound == pytest.approx(simple.steer_bound, abs=1e-15)

    def test_pair_splits_invisible_to_the_epr2_combination(self):
        # the combination pairing (x1 - x4) with (x2 + x3) has vanishing
        # bound contributions for the 12|34 and 13|24 splits, so it can
        # never negate them
        gains = GainVector((1, -1, -1, -1), (1, 1, 1, -1))
        blind = {(0, 1), (0, 2)}
        for part in (Bipartition(frozenset({0, 1}), frozenset({2, 3})),
                     Bipartition(frozenset({0, 2}), frozenset({1, 3}))):
            assert biseparable_bound(gains, part) == pytest.approx(0.0)
        report = evaluate(build_epr_type_ii(4, 2.0), "c8", gains)
        assert report.ent_bound == 0.0
        assert report.ent_ratio == math.inf
        assert not report.verdict_entanglement


class TestFourModeCriteria:
    def test_c9_vacuum(self):
        report = evaluate(vacuum_state(4), "c9", (0, 0, 0, 0))
        assert all(v == pytest.approx(4.0) for v in report.details.values())
        assert report.ent_ratio == pytest.approx(2.0)

    @pytest.mark.parametrize("r", [0.4, 0.8, 1.5])
    def test_c9_ghz_symmetric(self, r):
        report = evaluate(build_ghz(4, r), "c9", (1, 1, 1, 1))
        values = list(report.details.values())
        assert all(v == pytest.approx(values[0], rel=1e-10) for v in values)
        assert report.lhs == pytest.approx(36 * math.exp(-2 * r), rel=1e-12)
        assert report.verdict_entanglement == (3 * math.exp(-2 * r) < 1)

    def test_c9_epr_states_not_detected(self):
        for r in np.linspace(0, 2, 9):
            for builder in (build_epr_type_i, build_epr_type_ii):
                report = evaluate(builder(4, r), "c9", (1, 1, 1, 1))
                assert report.ent_ratio >= 1 - 1e-12

    def test_c10_vacuum(self):
        report = evaluate(vacuum_state(4), "c10")
        assert report.details["I"] == pytest.approx(8.0)
        assert report.details["B_II"] == pytest.approx(4.0)
        assert report.ent_ratio == pytest.approx(3.0)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_c10_epr2_closed_form(self, r):
        report = evaluate(build_epr_type_ii(4, r), "c10", (1.0, -1.0))
        assert report.details["I"] == pytest.approx(8 * math.exp(-2 * r), rel=1e-12)
        assert report.details["B_II"] == pytest.approx(2 + 4 * math.exp(-2 * r), rel=1e-12)
        assert report.verdict_entanglement == (r > math.log(6) / 2)

    def test_c10_ghz_reports_value(self):
        assert evaluate(build_ghz(4, 1.0), "c10", (1.0, -1.0)).lhs > 0

    def test_four_mode_criteria_need_four_modes(self):
        with pytest.raises(ValueError):
            evaluate(vacuum_state(3), "c9")
        with pytest.raises(ValueError):
            evaluate(vacuum_state(3), "c10")


class TestReportInvariants:
    def test_steering_implies_entanglement(self, rng):
        hits = 0
        for _ in range(300):
            state = random_state(3, rng)
            gains = tuple(rng.uniform(-1.5, 1.5, 3))
            cid = rng.choice(["b1", "s2", "c1", "c2", "c3", "c4", "c5", "c6"])
            gv = GainVector((1, *rng.uniform(-1.5, 1.5, 2)), (1, *rng.uniform(-1.5, 1.5, 2)))
            report = evaluate(state, cid, gv if cid in ("c5", "c6") else gains)
            if report.verdict_steering:
                hits += 1
                assert report.verdict_entanglement
        assert hits > 0

    def test_steer_bound_le_ent_bound_everywhere(self, rng):
        for _ in range(200):
            state = random_state(3, rng)
            gv = GainVector(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
            for cid in ("b1", "b2", "b3", "s1", "s2", "s3", "c1", "c2", "c3", "c4"):
                report = evaluate(state, cid, tuple(rng.uniform(-2, 2, 3)))
                assert report.steer_bound <= report.ent_bound
            for cid in ("c5", "c6", "c8"):
                report = evaluate(state, cid, gv)
                assert report.steer_bound <= report.ent_bound + 1e-12

    def test_bound_violation_in_report_constructor(self):
        with pytest.raises(ValueError):
            WitnessReport("x", 1.0, 1.0, 2.0)

    def test_zero_bound_gives_infinite_ratio_and_no_verdict(self):
        report = WitnessReport("x", 1.0, 0.0, 0.0)
        assert report.ent_ratio == math.inf
        assert not report.verdict_entanglement
        assert report.steer_ratio == math.inf
        assert report.verdict_steering is False

    def test_mixture_sum_form_is_weighted_component_average(self, rng):
        for _ in range(50):
            mixture = random_biseparable_mixture(3, rng)
            gains = tuple(rng.uniform(-1, 1, 3))
            total = evaluate(mixture, "c1", gains).lhs
            weighted = sum(
                w * evaluate(s, "c1", gains).lhs for w, s in mixture.components)
            assert total == pytest.approx(weighted, rel=1e-10)


class TestSoundnessSample:
    def test_biseparable_mixtures_never_flag_genuine_entanglement(self, rng):
        # quick version of the full acceptance sweep
        for _ in range(100):
            mixture = random_biseparable_mixture(3, rng)
            gains3 = tuple(rng.uniform(-1.5, 1.5, 3))
            gv = GainVector((1, *rng.uniform(-1.5, 1.5, 2)), (1, *rng.uniform(-1.5, 1.5, 2)))
            for cid, gains in (("c1", gains3), ("c2", gains3), ("c5", gv),
                               ("c6", gv), ("c8", gv)):
                assert evaluate(mixture, cid, gains).ent_ratio >= 1 - 1e-9

    def test_counterexample_full_inseparability_without_genuine_flag(self):
        mixture = build_counterexample(0.5)
        grid = np.arange(0.2, 1.2, 0.005)
        best = min(grid, key=lambda g: evaluate(mixture, "b1", (g, 0, g)).lhs
                   + evaluate(mixture, "b2", (g, 0, g)).lhs)
        assert evaluate(mixture, "b1", (best, 0, best)).lhs < 4
        assert evaluate(mixture, "b2", (best, 0, best)).lhs < 4
        assert evaluate(mixture, "c1", (best, 0, best)).ent_ratio >= 1 - 1e-9


class TestDispatcher:
    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            evaluate(vacuum_state(3), "c11")

    def test_default_gains(self):
        assert evaluate(vacuum_state(3), "c1").lhs == pytest.approx(12.0)
        assert evaluate(vacuum_state(3), "c5").ent_bound == pytest.approx(2.0)
        assert evaluate(vacuum_state(4), "c10").ent_ratio == pytest.approx(3.0)

    def test_ids_route_to_expected_reports(self):
        state = build_ghz(3, 0.7)
        assert evaluate(state, "b2", (1, 1, 1)).criterion_id == "B_II"
        assert evaluate(state, "s3", (1, 1, 1)).criterion_id == "S_III"
        assert evaluate(state, "C7").criterion_id == "C7"

    def test_c10_gain_count(self):
        with pytest.raises(ValueError):
            evaluate(vacuum_state(4), "c10", (1, 2, 3))
