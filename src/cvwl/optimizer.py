"""Gain selection: closed forms for the GHZ and asymmetric EPR families,
plus a derivative-free minimizer over tied gain structures.

Objectives: "entanglement" minimizes ``ent_ratio = lhs / bound`` (the
bound of c5/c6/c8 moves with the gains, so this differs from minimizing
the left-hand side once the bound is gain-dependent); "steering" divides
by the steering bound instead; "lhs" minimizes the raw left-hand side —
the stationarity procedure behind the published gain tables, and the only
objective whose optimum matches them for the criterion-8 structures at
four or more modes.

The search runs a vectorized coarse grid over [-2, 2] per free parameter
followed by Nelder-Mead refinement; with at most three tied parameters
the grid brackets the global optimum.  Passing an explicit ``init`` skips
the grid (warm start) and refines from there.

Grid step: 0.01 for one or two free parameters.  Three-parameter problems
use a 0.05 grid plus refinement instead — a 0.01 cube would be 6.5e7
points for no accuracy gain, since the simplex stage converges to ~1e-8
from any bracketing cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from . import networks, witnesses
from .networks import build_counterexample, build_epr_type_i, build_epr_type_ii, build_ghz
from .states import GainVector, State, apply_loss, second_moments, vacuum_state

GRID_RANGE = (-2.0, 2.0)
# grid rows evaluated at once; keeps the objective's temporaries in cache
GRID_CHUNK = 1 << 14
RATIO_TOL = 1e-8


def analytic_gains_ghz(n: int, r: float):
    """Stationary gains (g, h) of the GHZ-state variance expansion for the
    tied structure h_1 = g_1 = 1, h_i = h, g_i = g (i >= 2).

    With input variances vx1 = exp(2r), vx2 = exp(-2r) (and the p variances
    swapped), h = -(vx1 - vx2) / (vx2 + (N-1) vx1) and g likewise from the
    p variances; at large r these approach g = 1, h = -1/(N-1).
    """
    if n < 2:
        raise ValueError(f"need at least 2 modes, got {n}")
    if r < 0:
        raise ValueError(f"squeeze parameter must be nonnegative, got {r}")
    vx1, vx2 = math.exp(2.0 * r), math.exp(-2.0 * r)
    vp1, vp2 = vx2, vx1
    h = -(vx1 - vx2) / (vx2 + (n - 1) * vx1) + 0.0
    g = -(vp1 - vp2) / (vp2 + (n - 1) * vp1) + 0.0
    return g, h


def analytic_gains_epr1(n: int, r: float):
    """Stationary gains (g, h) for the asymmetric EPR-type state:
    h = -(vx1 - vx2) / (sqrt(N-1) (vx2 + vx1)) = -tanh(2r)/sqrt(N-1),
    g = +tanh(2r)/sqrt(N-1); at large r these approach +-1/sqrt(N-1)."""
    if n < 2:
        raise ValueError(f"need at least 2 modes, got {n}")
    if r < 0:
        raise ValueError(f"squeeze parameter must be nonnegative, got {r}")
    scale = math.tanh(2.0 * r) / math.sqrt(n - 1)
    return scale, -scale + 0.0


# structure kind -> its parameter names, and the parameter each scalar gain
# copies (None for the kinds whose gain rows are (h, g))
KINDS = {
    "tied": (("g", "h"), None),
    "free_g3": (("g1", "g2", "g3"), (0, 1, 2)),
    "tied_g": (("g",), (0, 0, 0, 0)),
    "free_g14": (("g1", "g4"), (0, 1)),
    "epr2": (("h_R", "h_L", "g_R"), None),
    "fixed": ((), ()),
}


@dataclass(frozen=True)
class GainStructure:
    """Tied-parameter layout mapping free parameters to criterion gains.

    Kinds:
      - "tied":    params (g, h) -> GainVector (1, h, ..., h), (1, g, ..., g)
      - "free_g3": params (g1, g2, g3) for the three-mode forms and c1/c2
      - "tied_g":  single g tied across all four scalar gains of c9
      - "free_g14": params (g1, g4) for c10
      - "epr2":    params (h_R, h_L, g_R) for c8 on the symmetric EPR state,
                   with g on the left-arm modes tied to h_L
      - "fixed":   no free parameters (c3, c4, c7)

    Every kind copies parameters into a gain row (h_1..h_N, g_1..g_N for
    "tied" and "epr2", the scalar gains otherwise); the entries that copy
    none are mode 0's h_1 = g_1 = 1.
    """

    kind: str
    n_modes: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown structure kind {self.kind!r}; known: {', '.join(KINDS)}")

    @property
    def param_names(self):
        return KINDS[self.kind][0]

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @cached_property
    def _sources(self):
        """The parameter index each gain-row entry copies (-1 for a 1), and
        the positions of the 1s."""
        if KINDS[self.kind][1] is not None:
            sources = np.array(KINDS[self.kind][1], dtype=int)
        else:
            n = self.n_modes
            h, g = np.full(n, -1), np.full(n, -1)
            if self.kind == "tied":
                h[1:], g[1:] = 1, 0
            else:
                right, left = (list(group) for group in networks.right_left_groups(n))
                h[right], g[right] = 0, 2
                h[left[1:]] = g[left[1:]] = 1
            sources = np.concatenate((h, g))
        return sources, np.flatnonzero(sources < 0)

    def rows(self, params) -> np.ndarray:
        """Gain rows, one per row of a (B, n_params) parameter array."""
        sources, ones = self._sources
        rows = np.asarray(params, dtype=float).take(sources, axis=1)
        rows[:, ones] = 1.0
        return rows

    def expand(self, params: Sequence[float]):
        """Criterion-level gains for one parameter point."""
        params = tuple(float(v) for v in params)
        if len(params) != self.n_params:
            raise ValueError(
                f"structure {self.kind!r} takes {self.n_params} parameters, "
                f"got {len(params)}"
            )
        row = self.rows([params])[0]
        if KINDS[self.kind][1] is None:
            return GainVector(row[:self.n_modes], row[self.n_modes:])
        return tuple(float(v) for v in row) if self.n_params else None


def default_structure(criterion: str, n_modes: int, name: Optional[str] = None) -> GainStructure:
    """The customary structure for a criterion, or a named override."""
    return GainStructure(name or witnesses.lookup(criterion).structure, n_modes)


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal gains for one (state, criterion) pair.

    `gains` is whatever the criterion's evaluator accepts (a GainVector for
    c5/c6/c8, a tuple of scalar gains otherwise); `ratio` is the minimized
    objective and `ent_ratio` the entanglement ratio re-evaluated through
    :mod:`cvwl.witnesses` at the returned gains.
    """

    criterion_id: str
    objective: str
    params: tuple
    gains: object
    ratio: float
    ent_ratio: float
    report: witnesses.WitnessReport
    iterations: int
    converged: bool


def _objective(state: State, criterion: str, structure: GainStructure, objective: str):
    """The minimized objective as a function of a (B, k) parameter array."""
    crit = witnesses.lookup(criterion)
    terms = witnesses.batch_terms(crit, second_moments(state))
    n = state.n_modes
    width = 2 * n if crit.slots is witnesses.VECTOR else len(crit.slots)
    if structure.rows(np.zeros((1, structure.n_params))).shape[1] != width:
        raise ValueError(f"structure {structure.kind!r} does not fit criterion {criterion}")

    def at(params: np.ndarray) -> np.ndarray:
        rows = structure.rows(params)
        lhs = terms(rows)[-1]
        if objective == "lhs":
            return lhs
        bound = witnesses.batch_bound(crit, rows, n, objective)
        if bound is None:
            raise ValueError(f"no {objective} bound is defined for {criterion} at {n} modes")
        return np.where(bound > 0.0, lhs / np.maximum(bound, 1e-300), np.inf)

    return at


def optimize_gains(state: State, criterion: str,
                   structure: Optional[GainStructure] = None,
                   init: Optional[Sequence[float]] = None,
                   objective: str = "entanglement") -> OptimizationResult:
    """Minimize the normalized witness ratio over a tied gain structure.

    Cold start (no `init`): vectorized grid over [-2, 2]^k followed by
    Nelder-Mead refinement from the best cell.  Warm start: refinement from
    `init` only.  Deterministic either way.  `converged` reports whether
    Nelder-Mead met its tolerances.
    """
    if objective not in ("entanglement", "steering", "lhs"):
        raise ValueError(
            f"objective must be 'entanglement', 'steering' or 'lhs', got {objective!r}")
    cid = str(criterion).strip().lower()
    structure = structure or default_structure(cid, state.n_modes)
    k = structure.n_params
    batch = _objective(state, cid, structure, objective)

    def ratio_at(params) -> float:
        return float(batch(np.atleast_2d(params))[0])

    evaluations = 0
    if k == 0:
        best = ()
        best_ratio = ratio_at(np.zeros((1, 0)))
        converged = True
        iterations = 1
    else:
        if init is not None:
            best = np.asarray(init, dtype=float)
            if best.shape != (k,):
                raise ValueError(f"init must supply {k} values for {structure.param_names}")
            best_ratio = ratio_at(best)
        else:
            step = 0.01 if k <= 2 else 0.05
            axis = np.arange(GRID_RANGE[0], GRID_RANGE[1] + step / 2.0, step)
            pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * k), indexing="ij")],
                           axis=1)
            ratios = np.concatenate([batch(pts[lo:lo + GRID_CHUNK])
                                     for lo in range(0, len(pts), GRID_CHUNK)])
            floor = float(np.min(ratios))
            # flat objectives (e.g. every separable state at ratio 1) are
            # tie-broken toward the smallest gains
            tied = np.flatnonzero(ratios <= floor + 1e-9)
            idx = int(tied[np.argmin(np.einsum("bi,bi->b", pts[tied], pts[tied]))])
            best = pts[idx]
            best_ratio = float(ratios[idx])
            evaluations = pts.shape[0]
        # absolute-scale initial simplex: the default one is relative to the
        # start point and degenerates when warm-starting from gains near zero
        simplex = np.tile(np.asarray(best, dtype=float), (k + 1, 1))
        for axis_idx in range(k):
            simplex[axis_idx + 1, axis_idx] += 0.1
        res = _scipy_minimize(
            ratio_at, best, method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": RATIO_TOL, "maxiter": 2000,
                     "maxfev": 4000, "initial_simplex": simplex},
        )
        if np.isfinite(res.fun) and res.fun <= best_ratio:
            best, best_ratio = res.x, float(res.fun)
        best = tuple(float(v) for v in np.atleast_1d(best))
        converged = bool(res.success)
        iterations = evaluations + int(res.nit)

    gains = structure.expand(best)
    report = witnesses.evaluate(state, cid, gains)
    return OptimizationResult(
        criterion_id=cid,
        objective=objective,
        params=tuple(best) if k else (),
        gains=gains,
        ratio=best_ratio,
        ent_ratio=report.ent_ratio,
        report=report,
        iterations=iterations,
        converged=converged,
    )


BUILDERS: dict = {
    "vacuum": lambda n, r: vacuum_state(n),
    "ghz": build_ghz,
    "epr1": build_epr_type_i,
    "epr2": build_epr_type_ii,
    "counterexample": lambda n, r: build_counterexample(r),
}


def build_state(name: str, n: int, r: float) -> State:
    """Build a preset state by name (vacuum, ghz, epr1, epr2, counterexample)."""
    key = str(name).strip().lower()
    if key not in BUILDERS:
        raise ValueError(f"unknown state preset {name!r}; known: {', '.join(sorted(BUILDERS))}")
    if key == "counterexample" and n != 3:
        raise ValueError("the counterexample mixture is defined for 3 modes")
    return BUILDERS[key](n, r)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a parameter sweep."""

    param: float
    gains: object
    report: witnesses.WitnessReport

    @property
    def ent(self) -> float:
        return self.report.ent_ratio


def sweep(builder: str, n: int, criterion: str,
          r_values: Optional[Sequence[float]] = None,
          eta_values: Optional[Sequence[float]] = None,
          r: Optional[float] = None,
          loss_modes: Sequence[int] = (),
          optimize: bool = True,
          gains=None,
          structure: Optional[GainStructure] = None,
          objective: str = "entanglement",
          warm_start: bool = True):
    """Evaluate (and optionally gain-optimize) a criterion over a grid.

    Exactly one of `r_values` (state squeezing sweep) or `eta_values`
    (loss sweep at fixed `r`, applying efficiency eta to each mode in
    `loss_modes`, 0-based) must be given.  With `optimize`, each point is
    gain-optimized; `warm_start` seeds each point with the previous
    optimum (the coarse grid still runs for the first point).
    """
    if (r_values is None) == (eta_values is None):
        raise ValueError("provide exactly one of r_values or eta_values")
    if eta_values is not None and r is None:
        raise ValueError("eta sweeps need the base squeeze parameter r")
    if eta_values is not None and not loss_modes:
        raise ValueError("eta sweeps need at least one loss mode")

    def state_at(value: float) -> State:
        if r_values is not None:
            return build_state(builder, n, value)
        state = build_state(builder, n, r)
        for mode in loss_modes:
            state = apply_loss(state, mode, value)
        return state

    rows, prev = [], None
    for value in (r_values if r_values is not None else eta_values):
        state = state_at(value)
        if not optimize:
            rows.append(SweepRow(value, gains, witnesses.evaluate(state, criterion, gains)))
            continue
        result = optimize_gains(state, criterion, structure=structure, init=prev,
                                objective=objective)
        rows.append(SweepRow(value, result.gains, result.report))
        if warm_start:
            prev = result.params or None
    return rows
