"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values tagged to external tables/figures were transcribed from
the published grids; derived values come from the closed forms exercised
in the module tests.  Two published claims disagree with the quantities
they describe, and each is settled by a closed form derived beside the
test that uses it:

- criterion 2: one Table II entry, epr1 r=0.25 g1, is printed as 0.63; the
  exact c1 minimiser is sqrt(2) tanh(2r) = 0.6535, so `TABLE2` carries
  0.65 there (the only entry that differs from the printed table);
- criterion 6: the counterexample mixture shows the shared-gain dual
  violation only for r < r* ~ 0.691, so the violation is asserted at
  r = 0.5, and the absence of any genuine-entanglement flag at r = 0.5
  and r = 1.
"""

import math
import time

import numpy as np
import pytest

from cvwl import (
    GainStructure,
    GainVector,
    analytic_gains_epr1,
    analytic_gains_ghz,
    build_counterexample,
    build_epr_type_i,
    build_ghz,
    build_state,
    enumerate_bipartitions,
    equal_split_gains,
    evaluate,
    genuine_bound,
    optimize_gains,
    quadrature_variances,
    sweep,
)
from cvwl.partitions import steering_bounds
from bipartition_reference import biseparable_bound
from conftest import random_biseparable_mixture, random_state

R_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)

TABLE1 = {
    "ghz": {0.0: (0.0, 0.0), 0.25: (0.36, -0.27), 0.5: (0.68, -0.40),
            0.75: (0.86, -0.46), 1.0: (0.95, -0.49), 1.5: (0.99, -0.50),
            2.0: (1.00, -0.50)},
    "epr1": {0.0: (0.0, 0.0), 0.25: (0.33, -0.33), 0.5: (0.54, -0.54),
             0.75: (0.64, -0.64), 1.0: (0.68, -0.68), 1.5: (0.70, -0.70),
             2.0: (0.70, -0.70)},
}

TABLE2 = {
    "ghz": {0.0: (0.0, 0.0, 0.0), 0.25: (0.53, 0.53, 0.53), 0.5: (0.81, 0.81, 0.81),
            0.75: (0.93, 0.93, 0.93), 1.0: (0.97, 0.97, 0.97),
            1.5: (1.00, 1.00, 1.00), 2.0: (1.00, 1.00, 1.00)},
    # r=0.25 g1 is printed as 0.63 (TABLE2_PRINTED_EPR1_G1); see
    # test_criterion_02_table2_gains for why 0.65 is the minimiser.
    "epr1": {0.0: (0.0, 0.0, 0.0), 0.25: (0.65, 0.29, 0.29), 0.5: (1.08, 0.44, 0.44),
             0.75: (1.28, 0.50, 0.50), 1.0: (1.36, 0.50, 0.50),
             1.5: (1.41, 0.46, 0.46), 2.0: (1.41, 0.43, 0.43)},
}
TABLE2_PRINTED_EPR1_G1 = {0.25: 0.63}

# columns (g, h) per mode count
TABLE3_EPR = {
    4: {0.0: (0.0, 0.0), 0.25: (0.27, -0.27), 0.5: (0.44, -0.44), 0.75: (0.52, -0.52),
        1.0: (0.56, -0.56), 1.5: (0.57, -0.57), 2.0: (0.58, -0.58)},
    5: {0.0: (0.0, 0.0), 0.25: (0.23, -0.23), 0.5: (0.38, -0.38), 0.75: (0.45, -0.45),
        1.0: (0.48, -0.48), 1.5: (0.50, -0.50), 2.0: (0.50, -0.50)},
    6: {0.0: (0.0, 0.0), 0.25: (0.21, -0.21), 0.5: (0.34, -0.34), 0.75: (0.40, -0.40),
        1.0: (0.43, -0.43), 1.5: (0.45, -0.45), 2.0: (0.45, -0.45)},
}

TABLE4_GHZ = {
    4: {0.0: (0.0, 0.0), 0.25: (0.30, -0.19), 0.5: (0.61, -0.28), 0.75: (0.83, -0.31),
        1.0: (0.93, -0.33), 1.5: (0.99, -0.33), 2.0: (1.00, -0.33)},
    5: {0.0: (0.0, 0.0), 0.25: (0.26, -0.14), 0.5: (0.56, -0.21), 0.75: (0.79, -0.23),
        1.0: (0.91, -0.24), 1.5: (0.99, -0.25), 2.0: (1.00, -0.25)},
    6: {0.0: (0.0, 0.0), 0.25: (0.22, -0.12), 0.5: (0.52, -0.17), 0.75: (0.76, -0.19),
        1.0: (0.90, -0.20), 1.5: (0.99, -0.20), 2.0: (1.00, -0.20)},
}


def _verdict(name, ok, budget_s, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name} ({elapsed:.2f}s)"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget_s, f"{name} exceeded the {budget_s}s budget ({elapsed:.2f}s)"


def test_criterion_01_table1_gains():
    start = time.time()
    bad = []
    for builder, rows in TABLE1.items():
        for r, (pg, ph) in rows.items():
            result = optimize_gains(build_state(builder, 3, r), "c5")
            g, h = result.params
            if abs(g - pg) > 0.01 or abs(h - ph) > 0.01:
                bad.append(f"{builder} r={r}: got ({g:.3f},{h:.3f}) want ({pg},{ph})")
    _verdict("criterion 1: table-1 gains for c5 within +-0.01",
             not bad, 5.0, time.time() - start, "; ".join(bad))


def test_criterion_02_table2_gains():
    # The c1 objective B_I + B_II + B_III is separable: each form holds one
    # free gain, quadratically, so the exact minimiser is one vertex per
    # form.  B_II = Var(x2 - x3) + Var(g1 p1 + p2 + p3) is least at
    # g1 = -Cov(p1, p2 + p3) / Var(p1).  On epr1 the trunk of the squeezed
    # pair reappears as p2 + p3 = sqrt(2) p_B, with Var(p1) = cosh 2r and
    # Cov(p1, p_B) = -sinh 2r, so g1 = sqrt(2) tanh(2r): 0.6535, 1.0771,
    # 1.2801, 1.3633 at r = 0.25, 0.5, 0.75, 1.0.  The printed r = 0.25
    # entry 0.63 is 0.0235 off; every other of the 36 printed entries lies
    # within 0.0052 of the exact minimiser.  Nor is 0.63 a minimum: the c1
    # LHS is 9.41779 at the printed (0.63, 0.29, 0.29) and 9.41714 at the
    # exact (0.6535, 0.2864, 0.2864).  `TABLE2` therefore carries 0.65.
    start = time.time()
    bad = []
    for builder, rows in TABLE2.items():
        for r, printed in rows.items():
            result = optimize_gains(build_state(builder, 3, r), "c1")
            deltas = [abs(a - b) for a, b in zip(result.params, printed)]
            if max(deltas) > 0.02:
                got = tuple(round(v, 3) for v in result.params)
                bad.append(f"{builder} r={r}: got {got} want {printed}")
    for r, (g1, _, _) in TABLE2["epr1"].items():
        exact = math.sqrt(2) * math.tanh(2 * r)
        if r > 0 and abs(g1 - exact) > 0.005:
            bad.append(f"epr1 r={r}: g1 {g1} is not sqrt(2) tanh(2r) = {exact:.4f}")
    for r, g1 in TABLE2_PRINTED_EPR1_G1.items():
        state = build_state("epr1", 3, r)
        corrected = TABLE2["epr1"][r]
        printed_lhs = evaluate(state, "c1", (g1,) + corrected[1:]).lhs
        corrected_lhs = evaluate(state, "c1", corrected).lhs
        if not printed_lhs > corrected_lhs:
            bad.append(f"epr1 r={r}: printed g1 {g1} gives c1 LHS {printed_lhs:.5f}, "
                       f"not above {corrected_lhs:.5f} at {corrected}")
    _verdict("criterion 2: table-2 gains for c1 within +-0.02",
             not bad, 10.0, time.time() - start, "; ".join(bad))


def test_criterion_03_tables_3_and_4_gains():
    start = time.time()

    def deviation(table, analytic):
        worst = 0.0
        for n, rows in table.items():
            for r, (pg, ph) in rows.items():
                g, h = analytic(n, r)
                worst = max(worst, abs(g - pg), abs(h - ph))
        return worst

    matching = max(deviation(TABLE3_EPR, analytic_gains_epr1),
                   deviation(TABLE4_GHZ, analytic_gains_ghz))
    crossed = min(deviation(TABLE3_EPR, analytic_gains_ghz),
                  deviation(TABLE4_GHZ, analytic_gains_epr1))
    ok = matching <= 0.02 and crossed > 0.02
    _verdict(
        "criterion 3: tables 3/4 c8 gains within +-0.02 "
        "(recorded assignment: table3=EPR-type-I, table4=GHZ; crossed assignment rejected)",
        ok, 30.0, time.time() - start,
        f"matching dev {matching:.4f}, crossed dev {crossed:.4f}")


def test_criterion_04_closed_form_curves():
    start = time.time()
    bad = []
    for r in np.linspace(0.0, 2.5, 50):
        report = evaluate(build_epr_type_i(3, r), "c3")
        if abs(report.ent_ratio - 2 * math.exp(-2 * r)) > 1e-9:
            bad.append(f"c3 ent at r={r:.3f}")
    gains = GainVector((1, -0.5, -0.5), (1, 1, 1))
    for r in np.linspace(0.0, 2.5, 50):
        lhs = sum(quadrature_variances(build_ghz(3, r), gains))
        if abs(lhs - 4.5 * math.exp(-2 * r)) > 1e-9:
            bad.append(f"ghz lhs at r={r:.3f}")
    _verdict("criterion 4: closed-form curves within 1e-9",
             not bad, 1.0, time.time() - start, "; ".join(bad[:3]))


def test_criterion_05_thresholds():
    start = time.time()
    ok = True
    detail = ""
    for r in np.linspace(0.0, 1.5, 16):
        state = build_ghz(3, r)
        for g in (0.5, 0.9, 1.0):
            total = evaluate(state, "c1", (g, g, g))
            single = evaluate(state, "b1", (g, g, g))
            if total.verdict_entanglement != (single.lhs < 8 / 3):
                ok = False
                detail = f"threshold mismatch at r={r:.2f}, g={g}"
    gains = equal_split_gains(3)
    bipartite = biseparable_bound(gains, ({0}, {1, 2}))
    genuine = genuine_bound(gains, 3)
    if not (abs(bipartite - 4.0) < 1e-12 and abs(genuine - 2.0) < 1e-12):
        ok = False
        detail = f"bounds: bipartite {bipartite}, genuine {genuine}"
    _verdict("criterion 5: c1 violation iff B_I < 8/3; c3 bounds 4 (bipartite) vs 2 (genuine)",
             ok, 1.0, time.time() - start, detail)


def _counterexample_min_b(r):
    """Exact min over g of B_I on `build_counterexample(r)`, and the
    curvature d^2 B_I / dg^2; B_II is its mirror image and has the same.

    In 1-based labels B_I = Var(x1 - x2) + Var(p1 + p2 + g p3).  The
    component pairing (1, 2), lone mode 3 p-squeezed at r, contributes
    2 e^{-2r} + (2 + g^2) e^{-2r}.  The component pairing (2, 3), lone mode 1,
    contributes e^{2r} + cosh 2r + e^{-2r} + (1 + g^2) cosh 2r - 2 g sinh 2r:
    the lone mode's anti-squeezed x enters Var(x1 - x2).  The equal mixture
    averages the two, so
        B_I(g) = 1/2 [5 e^{-2r} + e^{2r} + 2 cosh 2r]
                 + 1/2 g^2 (e^{-2r} + cosh 2r) - g sinh 2r,
    least at g = sinh 2r / (e^{-2r} + cosh 2r), where it equals
        1/2 [5 e^{-2r} + e^{2r} + 2 cosh 2r] - sinh^2 2r / (2 (e^{-2r} + cosh 2r)).
    That is 3.4606 at r = 0.5 and 6.1076 at r = 1; it crosses the bound 4
    at r* ~ 0.6908, which closes the dual-violation window.
    """
    e_minus, e_plus = math.exp(-2 * r), math.exp(2 * r)
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    curvature = e_minus + ch
    return 0.5 * (5 * e_minus + e_plus + 2 * ch) - sh ** 2 / (2 * curvature), curvature


def test_criterion_06_counterexample():
    start = time.time()
    step = 0.01
    grid = np.arange(-2.0, 2.0001, step)
    detail_parts = []
    best = {}
    for r in (0.5, 1.0):
        mixture = build_counterexample(r)
        best[r] = (min(evaluate(mixture, "b1", (0, 0, g)).lhs for g in grid),
                   min(evaluate(mixture, "b2", (g, 0, 0)).lhs for g in grid))
        # the grid holds a point within step/2 of the minimiser, so its
        # minimum exceeds the exact one by at most curvature/2 * (step/2)^2
        exact, curvature = _counterexample_min_b(r)
        for name, got in zip(("B_I", "B_II"), best[r]):
            if not exact - 1e-12 <= got <= exact + 0.5 * curvature * (step / 2) ** 2 + 1e-12:
                detail_parts.append(f"r={r}: grid min {name}={got:.6f}, "
                                    f"closed form {exact:.6f}")
        for cid in ("c1", "c2", "c5", "c6"):
            ratio = optimize_gains(mixture, cid).ent_ratio
            if ratio < 1 - 1e-9:
                detail_parts.append(f"r={r}: {cid} ratio {ratio:.6f}")
    if max(best[0.5]) >= 4.0:
        detail_parts.insert(
            0, f"no shared-gain dual violation at r=0.5: min B_I={best[0.5][0]:.3f}, "
               f"min B_II={best[0.5][1]:.3f} (exact min B_I = 1/2 [5 e^-2r + e^2r "
               f"+ 2 cosh 2r] - sinh^2 2r / (2 (e^-2r + cosh 2r)) < 4 for r < r* ~ 0.691)")
    _verdict("criterion 6: dual vLF violation on the biseparable mixture at r=0.5 "
             "(window r < 0.691), no genuine-entanglement flag at r=0.5 or r=1",
             not detail_parts, 10.0, time.time() - start,
             "; ".join(detail_parts))


def test_criterion_07_loss_monogamy():
    start = time.time()
    etas = np.linspace(0.01, 0.5, 50)
    ok = True
    detail = ""
    for builder in ("ghz", "epr1"):
        steer_rows = sweep(builder, 3, "c5", eta_values=etas, r=2.0,
                           loss_modes=(1, 2), objective="steering")
        ent_rows = sweep(builder, 3, "c5", eta_values=etas, r=2.0, loss_modes=(1, 2))
        for row in steer_rows:
            if row.report.verdict_steering:
                ok = False
                detail = f"{builder}: steering flagged at eta={row.param:.3f}"
        for row in ent_rows:
            if not row.report.ent_ratio > 0.5:
                ok = False
                detail = f"{builder}: Ent={row.report.ent_ratio:.3f} at eta={row.param:.3f}"
    _verdict("criterion 7: no steering and Ent > 0.5 with eta <= 0.5 on the steering pair",
             ok, 20.0, time.time() - start, detail)


def test_criterion_08_soundness_properties():
    start = time.time()
    rng = np.random.default_rng(1729)
    violations = []
    for _ in range(500):
        mixture = random_biseparable_mixture(3, rng)
        gains3 = tuple(rng.uniform(-1.5, 1.5, 3))
        gv = GainVector((1, *rng.uniform(-1.5, 1.5, 2)), (1, *rng.uniform(-1.5, 1.5, 2)))
        for cid, gains in (("c1", gains3), ("c2", gains3), ("c5", gv), ("c6", gv), ("c8", gv)):
            if evaluate(mixture, cid, gains).ent_ratio < 1 - 1e-9:
                violations.append(f"{cid} on a 3-mode biseparable mixture")
    for _ in range(500):
        mixture = random_biseparable_mixture(4, rng)
        gains4 = tuple(rng.uniform(-1.5, 1.5, 4))
        gv = GainVector((1, *rng.uniform(-1.5, 1.5, 3)), (1, *rng.uniform(-1.5, 1.5, 3)))
        for cid, gains in (("c8", gv), ("c9", gains4), ("c10", tuple(gains4[:2]))):
            if evaluate(mixture, cid, gains).ent_ratio < 1 - 1e-9:
                violations.append(f"{cid} on a 4-mode biseparable mixture")
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        gains = GainVector(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
        low = genuine_bound(gains, n)
        if any(low > biseparable_bound(gains, p) + 1e-12 for p in enumerate_bipartitions(n)):
            violations.append("genuine bound above a bipartition bound")
        if n == 3 and steering_bounds(gains.products())[0] > low + 1e-12:
            violations.append("steering bound above the genuine bound")
    _verdict("criterion 8: 1000 biseparable mixtures never flagged; bound ordering holds",
             not violations, 20.0, time.time() - start, "; ".join(violations[:3]))


def test_criterion_09_product_vs_sum():
    start = time.time()
    rng = np.random.default_rng(2718)
    bad = []
    for _ in range(500):
        state = random_state(3, rng)
        gains = GainVector((1, *rng.uniform(-1.5, 1.5, 2)), (1, *rng.uniform(-1.5, 1.5, 2)))
        sum_ratio = evaluate(state, "c5", gains).ent_ratio
        prod_ratio = evaluate(state, "c6", gains).ent_ratio
        if prod_ratio > sum_ratio + 1e-12:
            bad.append("product ratio above sum ratio")
        var_u, var_v = quadrature_variances(state, gains)
        scale = math.sqrt(math.sqrt(var_v / var_u))
        balanced = GainVector(tuple(scale * h for h in gains.h),
                              tuple(g / scale for g in gains.g))
        bu, bv = quadrature_variances(state, balanced)
        assert abs(bu - bv) < 1e-9 * max(bu, bv)
        eq_sum = evaluate(state, "c5", balanced).ent_ratio
        eq_prod = evaluate(state, "c6", balanced).ent_ratio
        if abs(eq_sum - eq_prod) > 1e-9 * max(1.0, eq_sum):
            bad.append(f"ratios differ under equal variances: {eq_sum} vs {eq_prod}")
    _verdict("criterion 9: product ratio <= sum ratio, equal when Var u = Var v",
             not bad, 5.0, time.time() - start, "; ".join(bad[:3]))


def test_criterion_10_equal_split_bound():
    start = time.time()
    bad = []
    for n in range(3, 10):
        bound = genuine_bound(equal_split_gains(n), n)
        if abs(bound - 4 / (n - 1)) > 1e-12:
            bad.append(f"n={n}: {bound} != {4 / (n - 1)}")
        if len(enumerate_bipartitions(n)) != 2 ** (n - 1) - 1:
            bad.append(f"n={n}: enumeration incomplete")
    _verdict("criterion 10: c8 bound equals 4/(N-1) for N=3..9 by full enumeration",
             not bad, 1.0, time.time() - start, "; ".join(bad))
