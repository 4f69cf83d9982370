"""The per-point reference for the exact solves of ``cvwl.optimizer.solve``.

``solve`` solves a stack of states at once: one probe call, stacked
Hessians or pencils, one scoring call per candidate count and one batched
report.  This module solves one state at a time, as ``optimize_gains`` did
before the stacked solve: the quadratic's minimum-norm minimizer, or the
tied ratio's stationary candidates, scored in one call of the objective on
that state alone, and the report from ``evaluate``.  The tests hold the two
to the same bits.
"""

import contextlib

import numpy as np

from cvwl import witnesses
from cvwl.optimizer import RATIO_TOL, _least, _real_roots, _tied_pieces, default_structure
from cvwl.states import second_moments


def state_objective(state, criterion, structure, objective):
    """The minimized objective on one state as a function of a (B, k)
    parameter array, with attributes `quadratic` (a quadratic with the same
    minimizers, or None) and `stationary` (the tied ratio's candidates, or
    None)."""
    crit = witnesses.lookup(criterion)
    terms = witnesses.batch_terms(crit, second_moments(state))
    n = state.n_modes
    width = 2 * n if crit.slots is witnesses.VECTOR else len(crit.slots)
    origin = structure.rows(np.zeros((1, structure.n_params)))
    if origin.shape[1] != width:
        raise ValueError(f"structure {structure.kind!r} does not fit criterion {criterion}")
    if objective != "lhs" and witnesses.batch_bound(crit, origin, n, objective) is None:
        raise ValueError(f"no {objective} bound is defined for {criterion} at {n} modes")

    def at(params):
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
            at.stationary = lambda: tied_stationary(
                terms, structure, crit.combine == "product", objective)
        return at
    if crit.combine == "sum":
        at.quadratic = at
    elif crit.slots is witnesses.VECTOR:
        at.quadratic = lambda params: np.add(*terms(structure.rows(params))[:2])[:, 0]
    elif crit.combine == "product":
        at.quadratic = lambda params: terms(structure.rows(params))[1].sum(axis=1)
    return at


def tied_stationary(terms, structure, product, objective):
    """Candidate minimizers (g, h) of the tied ratio on one state, sorted:
    the unconstrained minimum of lhs, the eigenvectors of the pencil
    L z = R B z of every affine piece of the bound (from one Cholesky factor,
    skipped where Cholesky refuses L), and the minima on the kink curves of
    the steering bound."""
    var_u, var_v = terms(structure.rows(np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])))[:2]
    coeffs = np.array([[v[0], (v[1] - v[2]) / 4.0, (v[1] + v[2]) / 2.0 - v[0]]
                       for v in (var_u[:, 0], var_v[:, 0])])
    (a0, a1, a2), (b0, b1, b2) = coeffs / np.max(np.abs(coeffs))
    alpha, beta, kinks = _tied_pieces(structure.n_modes, objective)
    lhs = np.zeros((4, 4))
    lhs[:2, :2], lhs[2:, 2:] = [[b0, b1], [b1, b2]], [[a0, a1], [a1, a2]]
    pieces = np.zeros((len(alpha), 4, 4))
    pieces[:, 0, 2] = pieces[:, 2, 0] = alpha / 2.0
    pieces[:, 1, 3] = pieces[:, 3, 1] = beta / 2.0
    tie = np.eye(4) if product else np.eye(3)[[0, 1, 0, 2]]
    points = [(-b1 / b2, -a1 / a2)]
    with contextlib.suppress(np.linalg.LinAlgError):
        w = np.linalg.solve(np.linalg.cholesky(tie.T @ lhs @ tie), tie.T).T
        z = w @ np.linalg.eigh(w.T @ pieces @ w)[1]
        rest, mode0 = z[:, [1, 3]], z[:, [0, 2]]
        pencil = rest / mode0
        far = rest * (RATIO_TOL ** -0.5 / np.sqrt(np.sum(rest * rest, axis=1, keepdims=True)))
        pencil = np.where(np.isfinite(pencil).all(axis=1, keepdims=True), pencil, far)
        points.extend(pencil.transpose(0, 2, 1).reshape(-1, 2).tolist())
    for q0 in kinks:
        if product:
            quartic = [a2 * b0, a1 * b0 + a2 * b1 * q0, 0.0, -q0 * (a0 * b1 + a1 * b2 * q0),
                       -a0 * b2 * q0 * q0]
        else:
            quartic = [a2, a1, 0.0, -b1 * q0, -b2 * q0 * q0]
        points.extend((q0 / h, h) for h in _real_roots(quartic) if h != 0.0)
    points = np.array(points, dtype=float) + 0.0
    points = points[np.all(np.isfinite(points), axis=1)]
    return points[np.lexsort(points.T[::-1])]


def quadratic_minimizer(quadratic, k):
    """The minimum-norm minimizer of a quadratic over R^k, from its values
    at 0, +-e_i and e_i + e_j; a parameter at rounding level stays 0."""
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


def exact_solve(state, criterion, structure=None, objective="entanglement"):
    """One state's exact solve: (params, ratio, gains, report), or None
    where the objective has neither a quadratic nor tied candidates."""
    structure = structure or default_structure(criterion, state.n_modes)
    k = structure.n_params
    with np.errstate(all="ignore"):
        batch = state_objective(state, criterion, structure, objective)
        if k and batch.quadratic is None and batch.stationary is None:
            return None
        if k == 0 or batch.quadratic is not None:
            points = (quadratic_minimizer(batch.quadratic, k) if k else np.zeros(0))[None]
        else:
            points = batch.stationary()
        best, ratio = _least(points, batch(points))
    params = tuple(float(v) for v in np.atleast_1d(best))
    gains = structure.expand(params)
    return params, ratio, gains, witnesses.evaluate(state, criterion, gains)
