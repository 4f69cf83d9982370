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
parameter no form uses comes out as 0.  This covers every objective of b1-b3, s1-s3, c1, c2, c9
and c10, and "lhs" on c5, c6 and c8.

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
roots of a quartic, join the candidates.  Every candidate is scored with
the batched objective and the least kept.

Search: the ratio objectives of the 3-parameter "epr2" structure run a
vectorized coarse grid over [-2, 2] per free parameter (step 0.05)
followed by Nelder-Mead refinement; the grid does not bracket every
optimum.  Passing an explicit ``init`` to a c5/c6/c8 ratio objective
skips the grid or the tied solve (warm start) and refines from there.
The refinement is :func:`_nelder_mead`, a numpy transcription of SciPy's
Nelder-Mead that gives bitwise the same steps, so no command loads SciPy.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import networks, witnesses
from .networks import build_counterexample, build_epr_type_i, build_epr_type_ii, build_ghz
from .states import GainVector, State, apply_loss, second_moments, vacuum_state

GRID_RANGE = (-2.0, 2.0)
GRID_STEP = 0.05
# grid rows evaluated at once; keeps the objective's temporaries in cache
GRID_CHUNK = 1 << 14
RATIO_TOL = 1e-8


class _MaxFev(Exception):
    """The evaluation budget of :func:`_nelder_mead` is spent."""


def _nelder_mead(fun, simplex, xatol: float, fatol: float, maxiter: int, maxfev: int):
    """Minimize `fun` by Nelder-Mead (Comput. J. 7, 308, 1965) from an
    initial (k + 1, k) simplex; returns (x, fun, iterations, converged).

    This is SciPy's ``minimize(method="Nelder-Mead")`` without bounds or
    adaptive coefficients, operation for operation, so results are bitwise
    equal: reflection 1, expansion 2, contraction and shrink 1/2; the
    simplex re-sorted by ``argsort`` after every iteration; the loop ends
    once every vertex is within `xatol` of the best one and every value
    within `fatol` of its value.  As there, `iterations` starts at 1, an
    iteration cut short by the `maxfev` budget keeps the steps it took, and
    reaching either limit means not converged.
    """
    sim = np.array(simplex, dtype=float)
    k = sim.shape[1]
    fsim = np.full(k + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _MaxFev
        calls += 1
        return fun(x)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for j in range(k + 1):
            fsim[j] = f(sim[j])
    except _MaxFev:
        pass
    # sorted twice, as SciPy does: argsort need not keep tied values in place
    sim, fsim = ordered(sim, fsim)
    sim, fsim = ordered(sim, fsim)
    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / k
            xr = 2.0 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, k + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _MaxFev:
            pass
        sim, fsim = ordered(sim, fsim)
    return sim[0], float(np.min(fsim)), iterations, calls < maxfev and iterations < maxiter


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


def _objective(state: State, criterion: str, structure: GainStructure, objective: str):
    """The minimized objective as a function of a (B, k) parameter array.

    Its attribute `quadratic` is a quadratic in the parameters with the same
    minimizers, or None where the objective has none (a bound that moves
    with the gains, c7's best pair).  Its attribute `stationary` lists the
    candidate minimizers of a tied ratio objective (see
    :func:`_tied_stationary`), or is None for every other objective."""
    crit = witnesses.lookup(criterion)
    terms = witnesses.batch_terms(crit, second_moments(state))
    n = state.n_modes
    width = 2 * n if crit.slots is witnesses.VECTOR else len(crit.slots)
    origin = structure.rows(np.zeros((1, structure.n_params)))
    if origin.shape[1] != width:
        raise ValueError(f"structure {structure.kind!r} does not fit criterion {criterion}")
    if objective != "lhs" and witnesses.batch_bound(crit, origin, n, objective) is None:
        raise ValueError(f"no {objective} bound is defined for {criterion} at {n} modes")

    def at(params: np.ndarray) -> np.ndarray:
        rows = structure.rows(params)
        lhs = terms(rows)[-1]
        if objective == "lhs":
            return lhs
        bound = witnesses.batch_bound(crit, rows, n, objective)
        return np.where(bound > 0.0, lhs / np.maximum(bound, 1e-300), np.inf)

    at.quadratic = at.stationary = None
    bound = {"entanglement": crit.ent_bound, "steering": crit.steer_bound}.get(objective)
    if bound == witnesses.BY_GAINS:
        if structure.kind == "tied":
            at.stationary = lambda: _tied_stationary(
                terms, structure, crit.combine == "product", objective)
        return at
    if crit.combine == "sum":
        at.quadratic = at
    elif crit.slots is witnesses.VECTOR:
        # c6: h moves Var u and g Var v; at three modes no structure ties an h to a g
        at.quadratic = lambda params: np.add(*terms(structure.rows(params))[:2])[:, 0]
    elif crit.combine == "product":
        # s1-s3, c2: every Var u is fixed, and each gain moves the Var v of one form
        at.quadratic = lambda params: terms(structure.rows(params))[1].sum(axis=1)
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


def _tied_stationary(terms, structure: GainStructure, product: bool, objective: str):
    """Candidate minimizers (g, h) of the tied ratio lhs / b(gh), sorted.

    lhs is A(h) + B(g) or sqrt(A(h) B(g)), with A(h) = a0 + 2 a1 h + a2 h^2
    and B(g) = b0 + 2 b1 g + b2 g^2 read off the probes (g, h) = 0, 1, -1.
    With mode 0's gains free, z = (g_1, g, h_1, h), A + B is a quadratic
    form z'Lz and a piece alpha + beta q of the bound is
    alpha g_1 h_1 + beta g h = z'Bz, both homogeneous of degree 2.  A sum
    ties g_1 = h_1.  A product leaves them free: scaling h by c and g by
    1/c keeps the bound, and min_c (c^2 A + B / c^2) = 2 sqrt(AB).  Either
    way the stationary points of the ratio are the eigenvectors of the
    symmetric-definite pencil L z = R B z (Golub & Van Loan, Matrix
    Computations, 8.7), one Cholesky factor of L and one batched ``eigh``
    over the pieces, read back as g = z_g / z_g1 and h = z_h / z_h1.  The
    candidates are these, the unconstrained minimum of lhs, and the minima
    of lhs on every curve gh = q0 of a kink that :func:`_tied_pieces` lists
    (steering only).  Where the minimum is attained, it is at one of them;
    an eigenvector with a zero first gain gives a non-finite candidate,
    which is dropped.
    """
    var_u, var_v = terms(structure.rows(np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])))[:2]
    coeffs = np.array([[v[0], (v[1] - v[2]) / 4.0, (v[1] + v[2]) / 2.0 - v[0]]
                       for v in (var_u[:, 0], var_v[:, 0])])
    # the candidates do not change when lhs is scaled; scaling keeps the
    # products of coefficients below from overflowing at large r
    (a0, a1, a2), (b0, b1, b2) = coeffs / np.max(np.abs(coeffs))
    alpha, beta, kinks = _tied_pieces(structure.n_modes, objective)
    lhs = np.zeros((4, 4))
    lhs[:2, :2], lhs[2:, 2:] = [[b0, b1], [b1, b2]], [[a0, a1], [a1, a2]]
    pieces = np.zeros((len(alpha), 4, 4))
    pieces[:, 0, 2] = pieces[:, 2, 0] = alpha / 2.0
    pieces[:, 1, 3] = pieces[:, 3, 1] = beta / 2.0
    tie = np.eye(4) if product else np.eye(3)[[0, 1, 0, 2]]  # a sum ties g_1 = h_1
    points = [(-b1 / b2, -a1 / a2)]
    # from a squeeze of r ~ 9 up, L is positive definite only to rounding,
    # and Cholesky may refuse it; the objective itself is at rounding there
    with contextlib.suppress(np.linalg.LinAlgError):
        # with tie' L tie = C C', w = tie C^-T turns the pencil into w' B w y = y / R
        w = np.linalg.solve(np.linalg.cholesky(tie.T @ lhs @ tie), tie.T).T
        z = w @ np.linalg.eigh(w.T @ pieces @ w)[1]
        points.extend(zip((z[:, 1] / z[:, 0]).ravel(), (z[:, 3] / z[:, 2]).ravel()))
    for q0 in kinks:  # d lhs(q0 / h, h) / dh = 0, times a power of h
        if product:
            quartic = [a2 * b0, a1 * b0 + a2 * b1 * q0, 0.0, -q0 * (a0 * b1 + a1 * b2 * q0),
                       -a0 * b2 * q0 * q0]
        else:
            quartic = [a2, a1, 0.0, -b1 * q0, -b2 * q0 * q0]
        points.extend((q0 / h, h) for h in _real_roots(quartic) if h != 0.0)
    points = np.array(points, dtype=float) + 0.0  # no -0.0 gains
    points = points[np.all(np.isfinite(points), axis=1)]
    return points[np.lexsort(points.T[::-1])]


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
    """The minimum-norm minimizer of a quadratic q(p) = c + b.p + p.A.p / 2
    over R^k, from q at 0, +-e_i and e_i + e_j (i < j), which give c, b and
    A exactly: the least-squares solution of A p = -b.  A parameter whose
    row of A and entry of b are at rounding level (one that no form reads)
    stays exactly 0."""
    eye = np.eye(k)
    i, j = np.triu_indices(k, 1)
    q = quadratic(np.concatenate((np.zeros((1, k)), eye, -eye, eye[i] + eye[j])))
    c, plus, minus, mixed = q[0], q[1:k + 1], q[k + 1:2 * k + 1], q[2 * k + 1:]
    hessian = np.diag(plus + minus - 2.0 * c)
    hessian[i, j] = hessian[j, i] = mixed - plus[i] - plus[j] + c
    grad = (plus - minus) / 2.0
    rounding = 64.0 * np.finfo(float).eps * np.max(np.abs(q))
    free = np.flatnonzero(np.maximum(np.abs(hessian).max(axis=1), np.abs(grad)) > rounding)
    params = np.zeros(k)
    params[free] = np.linalg.lstsq(hessian[np.ix_(free, free)], -grad[free], rcond=None)[0]
    return params


def optimize_gains(state: State, criterion: str,
                   structure: Optional[GainStructure] = None,
                   init: Optional[Sequence[float]] = None,
                   objective: str = "entanglement") -> OptimizationResult:
    """Minimize the normalized witness ratio over a tied gain structure.

    Where the objective has a quadratic with the same minimizers (see the
    module docstring) its minimum is solved for exactly, and `init` is only
    checked.  A cold start (no `init`) of a tied ratio objective scores its
    stationary candidates and keeps the least, with no refinement; one of
    the "epr2" structure runs a vectorized grid over [-2, 2]^3 followed by
    Nelder-Mead refinement from the best cell.  A warm start refines from
    `init` only.  Deterministic either way.  A non-finite `init`, a warm
    start at which the objective is not finite, or a result at which the
    criterion is not finite raises ValueError, and no numpy warning leaks.
    """
    if objective not in ("entanglement", "steering", "lhs"):
        raise ValueError(
            f"objective must be 'entanglement', 'steering' or 'lhs', got {objective!r}")
    cid = str(criterion).strip().lower()
    structure = structure or default_structure(cid, state.n_modes)
    k = structure.n_params
    if init is not None and (np.shape(init) != (k,) or not np.all(np.isfinite(init))):
        raise ValueError(f"init must supply {k} finite values for {structure.param_names}")
    # huge gains, singular solves and far-off candidates may overflow, and
    # from a squeeze of r ~ 9.5 a product's Var u Var v may round negative;
    # such a point scores NaN or inf, and a non-finite result is rejected
    # by `evaluate` below
    with np.errstate(all="ignore"):
        batch = _objective(state, cid, structure, objective)

        def ratio_at(params) -> float:
            return float(batch(np.atleast_2d(params))[0])

        if k == 0 or batch.quadratic is not None:
            best = _quadratic_minimizer(batch.quadratic, k) if k else np.zeros(0)
            best_ratio = ratio_at(best)
            iterations, converged = 0, True
        elif init is None and batch.stationary is not None:
            points = batch.stationary()
            best, best_ratio = _least(points, batch(points))
            iterations, converged = 0, True
        else:
            if init is not None:
                best = np.asarray(init, dtype=float)
                best_ratio = ratio_at(best)
                if not math.isfinite(best_ratio):
                    raise ValueError(
                        f"the {objective} objective is not finite at init {tuple(init)}")
            else:
                axis = np.arange(GRID_RANGE[0], GRID_RANGE[1] + GRID_STEP / 2.0, GRID_STEP)
                pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * k), indexing="ij")],
                               axis=1)
                best, best_ratio = _least(pts, np.concatenate(
                    [batch(pts[lo:lo + GRID_CHUNK]) for lo in range(0, len(pts), GRID_CHUNK)]))
            # absolute-scale initial simplex: the default one is relative to the
            # start point and degenerates when warm-starting from gains near zero
            simplex = np.tile(np.asarray(best, dtype=float), (k + 1, 1))
            for axis_idx in range(k):
                simplex[axis_idx + 1, axis_idx] += 0.1
            x, fun, iterations, converged = _nelder_mead(
                ratio_at, simplex, xatol=1e-7, fatol=RATIO_TOL, maxiter=2000, maxfev=4000)
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

    Exactly one of `r_values` (state squeezing sweep, which builds the
    preset at each value and takes no `r` or `loss_modes`) or `eta_values`
    (loss sweep at fixed `r`, applying efficiency eta once to each mode in
    `loss_modes`, 0-based and distinct) must be given.  An eta sweep builds
    its lossless state once and makes one :func:`apply_loss` call per point.
    Without `optimize`, the criterion is bound to `gains` once
    (:func:`witnesses.evaluator`), so the gain row and the bounds are
    computed before the first point and each point forms only its left-hand
    side; gains at which the bound is not finite raise ValueError there,
    before the first point.  With `optimize`, each point is gain-optimized;
    `warm_start` seeds each point with the previous optimum (the first point
    is solved cold: exactly for the tied structure, by grid and refinement
    for "epr2"; an exact quadratic solve ignores the seed).
    """
    if (r_values is None) == (eta_values is None):
        raise ValueError("provide exactly one of r_values or eta_values")
    if r_values is not None:
        if r is not None or loss_modes:
            raise ValueError("r sweeps build the state at each value; they take no r or loss_modes")
        values, state_at = r_values, lambda value: build_state(builder, n, value)
    else:
        if r is None:
            raise ValueError("eta sweeps need the base squeeze parameter r")
        if not loss_modes:
            raise ValueError("eta sweeps need at least one loss mode")
        base = build_state(builder, n, r)
        values, state_at = eta_values, lambda eta: apply_loss(base, loss_modes, eta)

    report_at = None if optimize else witnesses.evaluator(criterion, gains, n)
    rows, prev = [], None
    for value in values:
        state = state_at(value)
        if report_at is not None:
            rows.append(SweepRow(value, gains, report_at(state)))
            continue
        result = optimize_gains(state, criterion, structure=structure, init=prev,
                                objective=objective)
        rows.append(SweepRow(value, result.gains, result.report))
        if warm_start:
            prev = result.params or None
    return rows
