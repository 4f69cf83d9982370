"""Gain selection: closed forms for the GHZ and asymmetric EPR families,
exact solves where the objective allows them, and a derivative-free
minimizer elsewhere.

Objectives: "entanglement" minimizes ``ent_ratio = lhs / bound`` (the
bound of c5/c6/c8 moves with the gains, so this differs from minimizing
the left-hand side once the bound is gain-dependent); "steering" divides
by the steering bound instead; "lhs" minimizes the raw left-hand side —
the stationarity procedure behind the published gain tables, and the only
objective whose optimum matches them for the criterion-8 structures at
four or more modes.

Exact quadratic solve: where the objective's bound does not move with the
gains (objective "lhs", or a constant bound), a sum criterion's objective
is a quadratic in the free parameters.  A product criterion's objective
has the minimizers of the sum of the variances its gains move: Var u +
Var v for c6, and the Var v of its forms for s1-s3 and c2, whose Var u
are fixed.  The quadratic is read off the batched evaluator at
1 + 2k + k(k-1)/2 points and its minimum-norm minimizer solved for, so a
parameter no form uses comes out as 0.  This covers every objective of
b1-b3, s1-s3, c1, c2, c9 and c10, and "lhs" on c5, c6 and c8.

Exact tied ratio solve: with the "tied" structure the left-hand side of
c5, c6 and c8 is built from A(h) = Var u and B(g) = Var v, two 1-D
quadratics read off three evaluator probes, and the bound depends only on
q = gh, piecewise affine in q.  With mode 0's gains as free scales, the
left-hand side and each affine piece alpha + beta q become quadratic
forms L and B in the gains, so the stationary points of the ratio on a
piece are the eigenvectors of the symmetric-definite pencil L z = R B z:
the Rayleigh-quotient form of fractional programming (Dinkelbach,
Management Science 13, 492, 1967).  One Cholesky factor of L and one
batched ``eigh`` give them for every piece, sums and products alike.  The
entanglement bound is the greatest of three pieces, so it is convex and
its ratio minimum is one of these points; the steering bound
2 min(1, |q|) is concave, and the minima on its kink curves gh = +-1,
roots of a quartic, join the candidates.  Where a candidate's mode-0
gain is exactly 0 (mode 0 uncorrelated with the rest), the infimum lies at
infinity, and the candidate is a point far along its direction.

Block solves: both exact solves work on a stack of states at once
(:func:`solve_exact`, which takes an (E, 2N, 2N) stack of second moments):
one probe call for every state, the (E, k, k) Hessians with a
least-squares solve per state, or one stacked Cholesky factor and one
``eigh`` over every state's pieces, one scoring call of the candidates of
all states with as many of them, and one batched report.  Each state's
result is bit for bit its own solve alone, and a cold
:func:`optimize_gains` on an exact path is a block of one.  A sweep solves
a block of points whose objective needs no seed in one call, and
``cvwl reproduce`` solves each column over its seven squeezings in one.

Search: the ratio objectives of the 3-parameter "epr2" structure score a
vectorized coarse grid over [-2, 2] per free parameter (step 0.05) and
refine its best point by Nelder-Mead; the grid does not bracket every
optimum.  Passing an explicit ``init`` to a c5/c6/c8 ratio objective
skips the grid or the tied solve (warm start) and refines from there.
These solve one state at a time.  Every solve first chooses its points
(the quadratic's minimizer, the tied candidates, a warm ``init`` or the
grid), then scores them with one batched call of the objective and keeps
the least; only a searched start, ``init`` or the best grid point, goes
on to refinement.  The refinement is :func:`_nelder_mead`, SciPy's
Nelder-Mead step for step, so no command loads SciPy; it scores each
iteration's candidate points in one batched call of the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import networks, witnesses
from .networks import build_counterexample, build_epr_type_i, build_epr_type_ii, build_ghz
from .partitions import BLOCK_SUMS
from .states import (GainVector, GaussianState, State, checked_covariances, lossy_covariances,
                     second_moments, vacuum_state)

GRID_RANGE = (-2.0, 2.0)
GRID_STEP = 0.05
# grid rows evaluated at once; keeps the objective's temporaries in cache
GRID_CHUNK = 1 << 14
RATIO_TOL = 1e-8


class _MaxFev(Exception):
    """The evaluation budget of :func:`_nelder_mead` is spent."""


def _nelder_mead(fun, simplex, xatol: float, fatol: float, maxiter: int, maxfev: int):
    """Minimize `fun`, a batched objective mapping a (B, k) array to (B,)
    values, by Nelder-Mead (Comput. J. 7, 308, 1965) from an initial
    (k + 1, k) simplex; returns (x, fun, iterations, converged).

    The steps are SciPy's ``minimize(method="Nelder-Mead")`` without bounds
    or adaptive coefficients, operation for operation, so results are
    bitwise equal wherever a batched row equals a single-row call:
    reflection 1, expansion 2, contraction and shrink 1/2; the simplex
    re-sorted by ``argsort`` after every iteration; the loop ends once every
    vertex is within `xatol` of the best one and every value within `fatol`
    of its value.  As there, `iterations` starts at 1, an iteration cut
    short by the `maxfev` budget keeps the steps it took, and reaching
    either limit means not converged.  Only the scoring is batched: one call
    for the initial simplex, one per iteration for its reflection,
    expansion and both contraction points, and one per shrink for its k new
    vertices; `maxfev` counts the values SciPy asks for, in its order.  The
    simplex is held as Python floats, which take the same IEEE operations in
    the same order as SciPy's arrays.  Tied vertices are ordered as the
    host's ``argsort`` orders them, as in SciPy, and numpy's default sort is
    not stable everywhere: on AVX-512 hosts it may reorder ties of four
    values.  So a 3-parameter ("epr2") refinement whose simplex values tie
    can take other steps, and return other gains, on another host.
    """
    sim = np.array(simplex, dtype=float).tolist()
    k = len(sim[0])
    calls = min(k + 1, maxfev)
    fsim = fun(np.array(sim))[:calls].tolist() + [math.inf] * (k + 1 - calls)

    def spend():
        nonlocal calls
        if calls >= maxfev:
            raise _MaxFev
        calls += 1

    def ordered(sim, fsim):
        ind = np.array(fsim).argsort().tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    # sorted twice, as SciPy does: argsort need not keep tied values in place
    sim, fsim = ordered(*ordered(sim, fsim))
    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            best, worst = sim[0], sim[-1]
            if (all(abs(a - b) <= xatol for row in sim[1:] for a, b in zip(row, best))
                    and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])):
                break
            xbar = [0.0] * k  # numpy's add.reduce: summed in row order from +0.0
            for row in sim[:-1]:
                xbar = [s + a for s, a in zip(xbar, row)]
            xbar = [s / k for s in xbar]
            xr = [2.0 * b - w for b, w in zip(xbar, worst)]
            xe = [3.0 * b - 2.0 * w for b, w in zip(xbar, worst)]
            xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
            xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
            fxr, fxe, fxc, fxcc = fun(np.array([xr, xe, xc, xcc])).tolist()
            spend()
            if fxr < fsim[0]:
                spend()
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                spend()
                if fxr < fsim[-1]:  # outside contraction
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc, fxc = xcc, fxcc
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    shrunk = [[b + 0.5 * (a - b) for a, b in zip(row, best)] for row in sim[1:]]
                    for j, value in enumerate(fun(np.array(shrunk)).tolist(), 1):
                        sim[j] = shrunk[j - 1]
                        spend()
                        fsim[j] = value
            iterations += 1
        except _MaxFev:
            pass
        sim, fsim = ordered(sim, fsim)
    # np.min's value: NaN, which sorts last, if any value is NaN
    least = fsim[0] if fsim[-1] == fsim[-1] else math.nan
    return np.array(sim[0]), least, iterations, calls < maxfev and iterations < maxiter


def analytic_gains_ghz(n: int, r: float):
    """Stationary gains (g, h) of the GHZ-state variance expansion for the
    tied structure h_1 = g_1 = 1, h_i = h, g_i = g (i >= 2).

    With input variances vx1 = exp(2r), vx2 = exp(-2r) (and the p variances
    swapped), h = -(vx1 - vx2) / (vx2 + (N-1) vx1) and g likewise from the
    p variances; at large r these approach g = 1, h = -1/(N-1).  Both are
    computed divided through by exp(2r), in powers of exp(-4r) <= 1, so
    that no large r overflows.
    """
    _check_gain_args(n, r)
    t = math.exp(-4.0 * r)
    h = -(1.0 - t) / (t + n - 1) + 0.0
    g = (1.0 - t) / (1.0 + (n - 1) * t)
    return g, h


def analytic_gains_epr1(n: int, r: float):
    """Stationary gains (g, h) for the asymmetric EPR-type state:
    h = -(vx1 - vx2) / (sqrt(N-1) (vx2 + vx1)) = -tanh(2r)/sqrt(N-1),
    g = +tanh(2r)/sqrt(N-1); at large r these approach +-1/sqrt(N-1)."""
    _check_gain_args(n, r)
    scale = math.tanh(2.0 * r) / math.sqrt(n - 1)
    return scale, -scale + 0.0


def _check_gain_args(n: int, r: float):
    if n < 2:
        raise ValueError(f"need at least 2 modes, got {n}")
    if not 0.0 <= r < math.inf:
        raise ValueError(f"squeeze parameter must be finite and nonnegative, got {r}")


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
        """Gain rows, one per row of a (..., n_params) parameter array."""
        sources, ones = self._sources
        rows = np.asarray(params, dtype=float).take(sources, axis=-1)
        rows[..., ones] = 1.0
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
    :mod:`cvwl.witnesses` at the returned gains.  `iterations` counts
    Nelder-Mead iterations and `converged` reports whether Nelder-Mead met
    its tolerances; an exact solve, or a criterion without free gains,
    reports 0 iterations and converged.
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


def _check_objective(objective: str):
    if objective not in ("entanglement", "steering", "lhs"):
        raise ValueError(
            f"objective must be 'entanglement', 'steering' or 'lhs', got {objective!r}")


def _solve_kind(criterion: str, structure: GainStructure, objective: str):
    """How an objective is minimized: "quadratic" where a quadratic in the
    parameters has the same minimizers (and where there are no parameters),
    "tied" where the tied ratio's stationary candidates hold its minimum
    (cold starts only), and None where only a search finds it."""
    crit = witnesses.lookup(criterion)
    bound = {"entanglement": crit.ent_bound, "steering": crit.steer_bound}.get(objective)
    if structure.n_params and bound == witnesses.BY_GAINS:
        return "tied" if structure.kind == "tied" else None
    return "quadratic"


def _objective(moments: np.ndarray, criterion: str, structure: GainStructure, objective: str):
    """The minimized objective as a function of parameters: on one state's
    second moments (2N, 2N), of a (B, k) array, giving (B,) values; on a
    stack (E, 2N, 2N), of (B, k) points that every state takes or of
    (E, B, k) points of each state's own, giving (E, B).  Its argument
    `which`, an index into the stack, scores the points of those states
    alone.

    Its attribute `kind` is :func:`_solve_kind`'s, and on a stack
    `candidates()` lists each state's points of that exact solve: the
    quadratic's minimizer as one row (one empty row without parameters),
    or the tied candidates of :func:`_tied_stationary`."""
    crit = witnesses.lookup(criterion)
    terms = witnesses.batch_terms(crit, moments)
    n = moments.shape[-1] // 2
    k = structure.n_params
    width = 2 * n if crit.slots is witnesses.VECTOR else len(crit.slots)
    origin = structure.rows(np.zeros((1, k)))
    if origin.shape[1] != width:
        raise ValueError(f"structure {structure.kind!r} does not fit criterion {criterion}")
    if objective != "lhs" and witnesses.batch_bound(crit, origin, n, objective) is None:
        raise ValueError(f"no {objective} bound is defined for {criterion} at {n} modes")

    def at(params: np.ndarray, which=None) -> np.ndarray:
        rows = structure.rows(params)
        lhs = (terms if which is None else witnesses.batch_terms(crit, moments[which]))(rows)[-1]
        if objective == "lhs":
            return lhs
        bound = witnesses.batch_bound(crit, rows, n, objective)
        return np.where(bound > 0.0, lhs / np.maximum(bound, 1e-300), np.inf)

    if crit.combine == "sum":
        quadratic = at
    elif crit.slots is witnesses.VECTOR:
        # c6: h moves Var u and g Var v; at three modes no structure ties an h to a g
        quadratic = lambda params: np.add(*terms(structure.rows(params))[:2])[..., 0]
    else:
        # s1-s3, c2: every Var u is fixed, and each gain moves the Var v of one form
        quadratic = lambda params: terms(structure.rows(params))[1].sum(axis=-1)

    def candidates() -> list:
        if at.kind == "tied":
            return _tied_stationary(terms, structure, crit.combine == "product", objective)
        if k == 0:
            return [np.zeros((1, 0))] * len(moments)
        return list(_quadratic_minimizer(quadratic, k)[:, None])

    at.kind, at.candidates = _solve_kind(criterion, structure, objective), candidates
    return at


def _tied_pieces(n: int, objective: str):
    """The affine functions alpha + beta q of q = gh that make up the sum
    bound of the tied gains, as arrays alpha and beta, and the q at which a
    ratio minimum may sit on a kink of the bound.

    Products (1, q, ..., q) give the entanglement bound
    2 max(1 + (n-1) q, 1 + (n-3) q, -1 - (n-1) q): 2 (1 + (n-1) q) for
    q >= 0, and for q < 0 the larger of the other two, which cross at
    q = -1/(n-2).  The bound is convex, so the ratio lhs / bound is the
    least of the ratios to its positive pieces, and its minimum is a
    stationary point of one of them: no kink is a candidate.  The steering
    bound 2 min(1, |q|) is concave, so its kinks at |q| = 1 are.
    """
    if objective == "steering":
        return np.array([2.0, 0.0, 0.0]), np.array([0.0, 2.0, -2.0]), np.array([-1.0, 1.0])
    return (np.array([2.0, 2.0, -2.0]), 2.0 * np.array([n - 1.0, n - 3.0, 1.0 - n]),
            np.empty(0))


def _real_roots(coeffs) -> np.ndarray:
    """The real roots of a polynomial (highest power first), counting roots
    whose imaginary part is at rounding level, as a double root gives."""
    roots = np.roots(coeffs)
    return roots.real[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots))]


def _cholesky(stack: np.ndarray):
    """The Cholesky factors of the matrices of a stack that have one, and
    the mask of those.  A stacked call refuses the whole stack for one
    matrix, so on a refusal the matrices are factored one by one, each bit
    for bit as in the stacked call."""
    try:
        return np.linalg.cholesky(stack), np.ones(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        factors, ok = np.zeros_like(stack), np.ones(len(stack), dtype=bool)
        for e, matrix in enumerate(stack):
            try:
                factors[e] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                ok[e] = False
        return factors[ok], ok


def _on_kinks(coeffs, kinks, product: bool) -> list:
    """The points (g, h) where one state's lhs is stationary on each curve
    gh = q0 of a kink, from its scaled coefficients
    ((a0, a1, a2), (b0, b1, b2)) (see :func:`_tied_stationary`)."""
    (a0, a1, a2), (b0, b1, b2) = coeffs
    points = []
    for q0 in kinks:  # d lhs(q0 / h, h) / dh = 0, times a power of h
        if product:
            quartic = [a2 * b0, a1 * b0 + a2 * b1 * q0, 0.0, -q0 * (a0 * b1 + a1 * b2 * q0),
                       -a0 * b2 * q0 * q0]
        else:
            quartic = [a2, a1, 0.0, -b1 * q0, -b2 * q0 * q0]
        points.extend((q0 / h, h) for h in _real_roots(quartic) if h != 0.0)
    return points


def _tied_stationary(terms, structure: GainStructure, product: bool, objective: str) -> list:
    """Candidate minimizers (g, h) of the tied ratio lhs / b(gh) on each
    state of a stack, each state's sorted, as a list of (C, 2) arrays.

    lhs is A(h) + B(g) or sqrt(A(h) B(g)), with A(h) = a0 + 2 a1 h + a2 h^2
    and B(g) = b0 + 2 b1 g + b2 g^2 read off the probes (g, h) = 0, 1, -1,
    one call for the stack.  With mode 0's gains free, z = (g_1, g, h_1, h),
    A + B is a quadratic form z'Lz and a piece alpha + beta q of the bound
    is alpha g_1 h_1 + beta g h = z'Bz, both homogeneous of degree 2.  A sum
    ties g_1 = h_1.  A product leaves them free: scaling h by c and g by
    1/c keeps the bound, and min_c (c^2 A + B / c^2) = 2 sqrt(AB).  Either
    way the stationary points of the ratio are the eigenvectors of the
    symmetric-definite pencil L z = R B z (Golub & Van Loan, Matrix
    Computations, 8.7), one stacked Cholesky factor of the L and one
    ``eigh`` over every state's pieces, read back as g = z_g / z_g1 and
    h = z_h / z_h1.  The candidates are these, the unconstrained minimum of
    lhs, and the minima of lhs on every curve gh = q0 of a kink that
    :func:`_tied_pieces` lists (steering only; one quartic per state).
    Where the minimum is attained, it is at one of them.  An eigenvector
    with a zero first gain has its infimum at infinity: its candidate is its
    direction (z_g, z_h) scaled to length RATIO_TOL^(-1/2), where the ratio
    is within a few RATIO_TOL of that limit.
    """
    var_u, var_v = terms(structure.rows(np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])))[:2]
    v = np.concatenate((var_u, var_v), axis=-1).swapaxes(-1, -2)  # (E, 2, probe)
    coeffs = np.stack((v[..., 0], (v[..., 1] - v[..., 2]) / 4.0,
                       (v[..., 1] + v[..., 2]) / 2.0 - v[..., 0]), axis=-1)
    # the candidates do not change when lhs is scaled; scaling keeps the
    # products of coefficients below from overflowing at large r
    coeffs /= np.max(np.abs(coeffs), axis=(1, 2), keepdims=True)
    (a0, a1, a2), (b0, b1, b2) = coeffs.transpose(1, 2, 0)
    alpha, beta, kinks = _tied_pieces(structure.n_modes, objective)
    blocks = coeffs[:, :, [[0, 1], [1, 2]]]  # [[a0, a1], [a1, a2]] and B's
    lhs = np.zeros((len(coeffs), 4, 4))
    lhs[:, :2, :2], lhs[:, 2:, 2:] = blocks[:, 1], blocks[:, 0]
    pieces = np.zeros((len(alpha), 4, 4))
    pieces[:, 0, 2] = pieces[:, 2, 0] = alpha / 2.0
    pieces[:, 1, 3] = pieces[:, 3, 1] = beta / 2.0
    tie = np.eye(4) if product else np.eye(3)[[0, 1, 0, 2]]  # a sum ties g_1 = h_1
    # a candidate a state lacks stays NaN and is dropped with the non-finite ones
    pencil = np.full((len(coeffs), len(alpha) * tie.shape[1], 2), np.nan)
    # from a squeeze of r ~ 9 up, L is positive definite only to rounding,
    # and Cholesky may refuse it; the objective itself is at rounding there
    factors, ok = _cholesky(tie.T @ lhs @ tie)
    if ok.any():
        # with tie' L tie = C C', w = tie C^-T turns the pencil into w' B w y = y / R
        w = np.linalg.solve(factors, tie.T).swapaxes(-1, -2)[:, None]
        z = w @ np.linalg.eigh(w.swapaxes(-1, -2) @ pieces @ w)[1]
        rest, mode0 = z[..., 1::2, :], z[..., ::2, :]  # (z_g, z_h), (z_g1, z_h1) per eigenvector
        ratios = rest / mode0
        # a zero mode-0 gain puts the infimum at infinity: go far along (z_g, z_h)
        far = rest * (RATIO_TOL ** -0.5 / np.sqrt(np.sum(rest * rest, axis=-2, keepdims=True)))
        ratios = np.where(np.isfinite(ratios).all(axis=-2, keepdims=True), ratios, far)
        pencil[ok] = ratios.swapaxes(-1, -2).reshape(len(ratios), -1, 2)
    on_kinks = np.full((len(coeffs), 4 * len(kinks), 2), np.nan)
    for e, state in enumerate(coeffs if len(kinks) else ()):
        found = _on_kinks(state, kinks, product)
        if found:
            on_kinks[e, :len(found)] = found
    first = np.stack((-b1 / b2, -a1 / a2), axis=-1)[:, None]
    points = np.concatenate((first, pencil, on_kinks), axis=1) + 0.0  # no -0.0 gains
    finite = np.all(np.isfinite(points), axis=-1)
    # by g, then h; lexsort keeps ties in place, and the non-finite go last
    order = np.lexsort((points[..., 1], points[..., 0], ~finite), axis=-1)
    points = np.take_along_axis(points, order[..., None], axis=1)
    return [state[:count] for state, count in zip(points, finite.sum(axis=1).tolist())]


def _least(points: np.ndarray, ratios: np.ndarray):
    """The point of least ratio, a NaN ratio counting as inf.  Flat
    objectives (e.g. every separable state at ratio 1) are tie-broken toward
    the smallest gains, then the first point."""
    ratios = np.where(np.isnan(ratios), np.inf, ratios)
    floor = float(np.min(ratios))
    tied = np.flatnonzero(ratios <= floor + 1e-9)
    idx = int(tied[np.argmin(np.einsum("bi,bi->b", points[tied], points[tied]))])
    return points[idx], float(ratios[idx])


def _quadratic_minimizer(quadratic, k: int) -> np.ndarray:
    """The minimum-norm minimizer of each state's quadratic
    q(p) = c + b.p + p.A.p / 2 over R^k, as an (E, k) array, from q at 0,
    +-e_i and e_i + e_j (i < j), one call for the stack, which give c, b
    and A exactly: the least-squares solution of A p = -b, one per state, as
    the free parameters can differ between states.  A parameter whose row
    of A and entry of b are at rounding level (one that no form reads)
    stays exactly 0."""
    eye = np.eye(k)
    i, j = np.triu_indices(k, 1)
    q = quadratic(np.concatenate((np.zeros((1, k)), eye, -eye, eye[i] + eye[j])))
    c, plus, minus, mixed = q[:, :1], q[:, 1:k + 1], q[:, k + 1:2 * k + 1], q[:, 2 * k + 1:]
    hessian = np.zeros((len(q), k, k))
    hessian[:, range(k), range(k)] = plus + minus - 2.0 * c
    hessian[:, i, j] = hessian[:, j, i] = mixed - plus[:, i] - plus[:, j] + c
    grad = (plus - minus) / 2.0
    rounding = 64.0 * np.finfo(float).eps * np.max(np.abs(q), axis=1, keepdims=True)
    free = np.maximum(np.abs(hessian).max(axis=2), np.abs(grad)) > rounding
    params = np.zeros((len(q), k))
    for e, f in enumerate(free):
        f = np.flatnonzero(f)
        params[e, f] = np.linalg.lstsq(hessian[e][np.ix_(f, f)], -grad[e, f], rcond=None)[0]
    return params


def solve_exact(moments: np.ndarray, criterion: str,
                structure: Optional[GainStructure] = None,
                objective: str = "entanglement") -> list:
    """Exact gain solves of a stack of states, one :class:`OptimizationResult`
    per matrix of `moments` (E, 2N, 2N), each bit for bit the cold
    :func:`optimize_gains` of its state alone.

    The objective must have an exact solve (see the module docstring); one
    that needs a search raises ValueError.  The block probes every state in
    one :func:`witnesses.batch_terms` call; it then forms the (E, k, k)
    Hessians of a quadratic, or takes the tied pencils through one stacked
    Cholesky factor and one ``eigh``.  It scores the candidates of all states
    with equally many in one call of the objective, keeps each state's least
    point, and forms every report in one :func:`witnesses.batch_reports`
    call.  A point that :func:`optimize_gains` refuses makes the block raise
    the same error; where several points fail, the first at the earliest
    stage raises.
    """
    _check_objective(objective)
    cid = str(criterion).strip().lower()
    structure = structure or default_structure(cid, moments.shape[-1] // 2)
    # as in optimize_gains: overflowing and singular points score NaN or
    # inf, and a result the criterion refuses is rejected by the reports
    with np.errstate(all="ignore"):
        batch = _objective(moments, cid, structure, objective)
        if batch.kind is None:
            raise ValueError(f"the {objective} objective of {cid} with structure "
                             f"{structure.kind!r} has no exact solve")
        points = batch.candidates()
        best = [None] * len(points)
        counts = [len(p) for p in points]
        # a matrix product may round by how many rows it takes, so each
        # state is scored among states with as many candidates as it has
        for count in set(counts):
            which = [e for e, c in enumerate(counts) if c == count]
            ratios = batch(np.stack([points[e] for e in which]),
                           None if len(which) == len(points) else which)
            for e, values in zip(which, ratios):
                best[e] = _least(points[e], values)
    params = [tuple(float(v) for v in np.atleast_1d(p)) for p, _ in best]
    gains = [structure.expand(p) for p in params]
    reports = witnesses.batch_reports(cid, gains, moments)
    return [OptimizationResult(cid, objective, p, g, ratio, report.ent_ratio, report, 0, True)
            for p, g, (_, ratio), report in zip(params, gains, best, reports)]


def optimize_gains(state: State, criterion: str,
                   structure: Optional[GainStructure] = None,
                   init: Optional[Sequence[float]] = None,
                   objective: str = "entanglement") -> OptimizationResult:
    """Minimize the normalized witness ratio over a tied gain structure.

    Where the objective has a quadratic with the same minimizers (see the
    module docstring), the result is its exact minimum and `init` is only
    checked; so is a cold start (no `init`) of a tied ratio objective, from
    its stationary candidates.  Both are :func:`solve_exact` on a block of
    one.  A search first chooses its points, then scores them all in one
    batched call and keeps the least: a cold start of the "epr2" structure
    takes a grid over [-2, 2]^3 and refines the best cell by Nelder-Mead,
    and a warm start takes `init` alone and refines from it.  Deterministic
    either way.  A non-finite `init`, a warm start at which the objective is
    not finite, or a result at which the criterion is not finite raises
    ValueError, and no numpy warning leaks.
    """
    _check_objective(objective)
    cid = str(criterion).strip().lower()
    structure = structure or default_structure(cid, state.n_modes)
    k = structure.n_params
    if init is not None and (np.shape(init) != (k,) or not np.all(np.isfinite(init))):
        raise ValueError(f"init must supply {k} finite values for {structure.param_names}")
    kind = _solve_kind(cid, structure, objective)
    if kind == "quadratic" or (kind == "tied" and init is None):
        return solve_exact(second_moments(state)[None], cid, structure, objective)[0]
    # huge gains and far-off points may overflow, and from a squeeze of
    # r ~ 9.5 a product's Var u Var v may round negative; such a point
    # scores NaN or inf, and a non-finite result, or one with a variance
    # below zero, is rejected by `evaluate` below
    with np.errstate(all="ignore"):
        batch = _objective(second_moments(state), cid, structure, objective)
        # the start of the search: a warm `init`, or the grid
        if init is not None:
            points = np.array([init], dtype=float)
        else:
            axis = np.arange(GRID_RANGE[0], GRID_RANGE[1] + GRID_STEP / 2.0, GRID_STEP)
            points = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)
        best, best_ratio = _least(points, np.concatenate(
            [batch(points[lo:lo + GRID_CHUNK]) for lo in range(0, len(points), GRID_CHUNK)]))
        if init is not None and not math.isfinite(best_ratio):
            raise ValueError(f"the {objective} objective is not finite at init {tuple(init)}")
        # absolute-scale initial simplex: the default one is relative to the
        # start point and degenerates when warm-starting from gains near zero
        simplex = np.tile(best, (k + 1, 1))
        for axis_idx in range(k):
            simplex[axis_idx + 1, axis_idx] += 0.1
        x, fun, iterations, converged = _nelder_mead(
            batch, simplex, xatol=1e-7, fatol=RATIO_TOL, maxiter=2000, maxfev=4000)
        if np.isfinite(fun) and fun <= best_ratio:
            best, best_ratio = x, fun

    best = tuple(float(v) for v in np.atleast_1d(best))
    gains = structure.expand(best)
    report = witnesses.evaluate(state, cid, gains)
    return OptimizationResult(
        criterion_id=cid,
        objective=objective,
        params=best,
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


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One grid point of a parameter sweep."""

    param: float
    gains: object
    report: witnesses.WitnessReport


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

    Exactly one of `r_values` (state squeezing sweep, which builds the
    preset at each value and takes no `r` or `loss_modes`) or `eta_values`
    (loss sweep at fixed `r`, applying efficiency eta once to each mode in
    `loss_modes`, 0-based and distinct) must be given.  The points are
    taken in blocks of BLOCK_SUMS // (2N)^2, which keeps a block's matrices
    within BLOCK_SUMS entries.  An eta sweep builds its lossless state once
    and forms each block's covariances in one pass
    (:func:`states.lossy_covariances`, which checks every efficiency of the
    block first).  Where a block is evaluated or solved at once, its stack
    is validated in one pass too (:func:`states.checked_covariances`), and
    a warm point gets a state of its own; either way each matrix is bit for
    bit the state :func:`states.apply_loss` gives, and the first point that
    fails raises its error.  Without `optimize`, the criterion is bound to
    `gains` once (:func:`witnesses.evaluator`), so the
    gain row and the bounds are computed before the first point, and each
    block's left-hand sides are formed in one batched call; gains at which
    the bound is not finite raise ValueError there, before the first point.
    With `optimize`, a block whose points need no seed is solved in one
    :func:`solve_exact` call, bit for bit each point's cold
    :func:`optimize_gains`: a quadratic objective (c1, c10, "lhs", ...),
    which ignores the seed, a criterion without free gains, and a tied
    ratio without `warm_start`.  Otherwise each point is gain-optimized on
    its own; `warm_start` seeds each point with the previous optimum (the
    first point is solved cold: exactly for the tied structure, by grid and
    refinement for "epr2").
    """
    if (r_values is None) == (eta_values is None):
        raise ValueError("provide exactly one of r_values or eta_values")
    if r_values is not None:
        if r is not None or loss_modes:
            raise ValueError("r sweeps build the state at each value; they take no r or loss_modes")

        def block_states(block):
            return (build_state(builder, n, value) for value in block)

        def block_moments(block):
            # one state of the block is held at a time
            moments = np.empty((len(block), 2 * n, 2 * n))
            for k, state in enumerate(block_states(block)):
                moments[k] = second_moments(state)
            return moments
    else:
        if r is None:
            raise ValueError("eta sweeps need the base squeeze parameter r")
        if not loss_modes:
            raise ValueError("eta sweeps need at least one loss mode")
        base = build_state(builder, n, r)

        def block_states(block):
            return (GaussianState(cov) for cov in lossy_covariances(base, loss_modes, block))

        def block_moments(block):
            return checked_covariances(lossy_covariances(base, loss_modes, block))

    values = list(eta_values if r_values is None else r_values)
    report_at = None if optimize else witnesses.evaluator(criterion, gains, n)
    structure = structure or default_structure(criterion, n)
    kind = _solve_kind(criterion, structure, objective)
    # a block is solved at once where no point needs a seed: a quadratic's
    # minimum ignores it, and a tied ratio takes it only when warm
    solved = optimize and (kind == "quadratic" or (kind == "tied" and not warm_start))
    step = max(1, BLOCK_SUMS // (2 * n) ** 2)
    rows, prev = [], None
    for lo in range(0, len(values), step):
        block = values[lo:lo + step]
        # a block's matrices are freed before the next block's are made
        if report_at is not None:
            rows.extend(SweepRow(value, gains, report)
                        for value, report in zip(block, report_at(block_moments(block))))
        elif solved:
            results = solve_exact(block_moments(block), criterion, structure, objective)
            rows.extend(SweepRow(value, result.gains, result.report)
                        for value, result in zip(block, results))
        else:
            for value, state in zip(block, block_states(block)):
                result = optimize_gains(state, criterion, structure=structure, init=prev,
                                        objective=objective)
                rows.append(SweepRow(value, result.gains, result.report))
                if warm_start:
                    prev = result.params or None
    return rows
