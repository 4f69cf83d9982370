"""The sequential reference for ``cvwl.optimizer._nelder_mead``.

This is SciPy's ``minimize(method="Nelder-Mead")`` without bounds or
adaptive coefficients, transcribed operation for operation on numpy arrays,
with a scalar objective called once per point in SciPy's order.  The
package's version scores the same points in batches; the tests hold the two
to the same steps.
"""

import numpy as np


class MaxFev(Exception):
    """The evaluation budget of :func:`nelder_mead` is spent."""


def nelder_mead(fun, simplex, xatol: float, fatol: float, maxiter: int, maxfev: int):
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
            raise MaxFev
        calls += 1
        return fun(x)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for j in range(k + 1):
            fsim[j] = f(sim[j])
    except MaxFev:
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
        except MaxFev:
            pass
        sim, fsim = ordered(sim, fsim)
    return sim[0], float(np.min(fsim)), iterations, calls < maxfev and iterations < maxiter
