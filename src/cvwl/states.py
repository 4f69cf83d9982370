"""Covariance-matrix algebra for zero-mean multimode Gaussian states.

Conventions used throughout the package: the quadratures are x = a + a^dag
and p = (a - a^dag)/i, so every vacuum quadrature has unit variance and the
Heisenberg bound reads Var(x_j) * Var(p_j) >= 1.  Covariance matrices are
stored in block ordering (x_1..x_N, p_1..p_N).

All states are zero-mean.  A convex mixture of zero-mean Gaussians is
represented by :class:`MixedState`; because the means vanish, its second
moments are exactly the weight-averaged component covariances, and every
variance computed here reduces to a quadratic form in that averaged matrix.

A note on squeeze parameters: ``SqueezeSpec(r, "x")`` squeezes the x
quadrature to variance exp(-2r) and antisqueezes p to exp(+2r).  The
parameter r scales a standard deviation (Delta x = exp(-r)), not a
variance; some texts write the same convention as "Delta x = e^{-r}".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9

SQUEEZE_X = "x"
SQUEEZE_P = "p"
# r at which exp(2r) rounds past half the largest float, the most that a
# GaussianState entry may hold; every squeeze parameter lies below it
_R_LIMIT = float(np.log(np.finfo(float).max / 2.0) / 2.0)


class PhysicalityError(ValueError):
    """A covariance matrix failed a physicality check (symmetry, positivity,
    or the per-mode uncertainty bound)."""


class OpError(ValueError):
    """An argument that breaks its rule.  `arg` is the argument's position:
    among an op's arguments, its mode indices in order, then its
    reflectivity or efficiency; among a :class:`SqueezeSpec`'s, 0 for r and
    1 for the orientation."""

    def __init__(self, message: str, arg: int):
        super().__init__(message)
        self.arg = arg


@dataclass(frozen=True)
class SqueezeSpec:
    """Single-mode squeezed vacuum; `orientation` names the squeezed quadrature.
    A bad argument raises :class:`OpError` naming it, the orientation first."""

    r: float
    orientation: str = SQUEEZE_X

    def __post_init__(self):
        if self.orientation not in (SQUEEZE_X, SQUEEZE_P):
            raise OpError(f"orientation, the squeezed axis, must be {SQUEEZE_X!r} or "
                          f"{SQUEEZE_P!r}, got {self.orientation!r}", 1)
        if not 0.0 <= self.r < _R_LIMIT:
            raise OpError(f"squeeze parameter must be finite, nonnegative and below "
                          f"{_R_LIMIT!r}, got {self.r}", 0)


@dataclass(frozen=True, slots=True)
class GainVector:
    """Coefficients of the tested combinations u = sum h_i x_i, v = sum g_i p_i."""

    h: tuple
    g: tuple

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(float(v) for v in self.h))
        object.__setattr__(self, "g", tuple(float(v) for v in self.g))
        if len(self.h) != len(self.g):
            raise ValueError(
                f"h and g must have equal length, got {len(self.h)} and {len(self.g)}"
            )
        if not self.h:
            raise ValueError("gain vectors must be nonempty")
        if not np.all(np.isfinite(self.h + self.g)):
            raise ValueError(f"gains must be finite, got h={self.h}, g={self.g}")

    @property
    def n_modes(self) -> int:
        return len(self.h)

    def products(self) -> np.ndarray:
        """Elementwise products h_i * g_i (the only combination the
        separability bounds depend on)."""
        return np.asarray(self.h) * np.asarray(self.g)


class GaussianState:
    """N-mode zero-mean Gaussian state held as a 2N x 2N covariance matrix.

    The matrix is validated on construction (symmetry, positive
    semidefiniteness, and Var(x_j) Var(p_j) - Cov(x_j, p_j)^2 >= 1 for every
    mode) and frozen; all operations on states are pure functions returning
    new instances, so states are safe to share across threads.
    """

    __slots__ = ("_cov",)

    def __init__(self, cov):
        cov = np.array(cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be a square matrix, got shape {cov.shape}")
        if cov.shape[0] == 0 or cov.shape[0] % 2 != 0:
            raise ValueError(f"covariance must be 2N x 2N with N >= 1, got shape {cov.shape}")
        largest = float(np.abs(cov).max())
        # NaN and inf fail here, and so does an entry whose sum with its
        # mirror image below would overflow
        if not largest <= np.finfo(float).max / 2.0:
            raise PhysicalityError("covariance matrix has non-finite or overflowing entries")
        scale = max(1.0, largest)
        if float(np.abs(cov - cov.T).max()) > SYMMETRY_TOL * scale:
            raise PhysicalityError("covariance matrix is not symmetric")
        cov = (cov + cov.T) / 2.0
        n = cov.shape[0] // 2
        # eigvalsh rounds at about eps times the largest entry
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] < -PHYSICALITY_TOL * scale:
            raise PhysicalityError(
                f"covariance matrix is not positive semidefinite (min eigenvalue {eigs[0]:.3e})"
            )
        # a product that overflows is inf, which passes; inf - inf is NaN,
        # which fails
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n):
                vx, vp, cxp = cov[j, j], cov[n + j, n + j], cov[j, n + j]
                if not vx * vp - cxp * cxp >= 1.0 - PHYSICALITY_TOL:
                    raise PhysicalityError(
                        f"mode {j} violates the uncertainty bound: "
                        f"Var(x)Var(p) - Cov(x,p)^2 = {vx * vp - cxp * cxp:.12g} < 1"
                    )
        cov.setflags(write=False)
        self._cov = cov

    @property
    def n_modes(self) -> int:
        return self._cov.shape[0] // 2

    @property
    def cov(self) -> np.ndarray:
        """The full (read-only) 2N x 2N covariance matrix."""
        return self._cov

    def __repr__(self):
        return f"GaussianState(n_modes={self.n_modes})"


class MixedState:
    """Convex combination of equal-size zero-mean Gaussian states.

    Weights must be positive and sum to one within 1e-9; they are stored
    divided by their sum.  A single-component "mixture" behaves identically
    to its Gaussian state in every variance computation.
    """

    __slots__ = ("_components",)

    def __init__(self, components):
        components = tuple((float(w), s) for w, s in components)
        if not components:
            raise ValueError("a mixture needs at least one component")
        for w, s in components:
            if not isinstance(s, GaussianState):
                raise TypeError(f"mixture components must be GaussianState, got {type(s)}")
            if not w > 0.0:
                raise ValueError(f"mixture weights must be positive, got {w}")
        total = sum(w for w, _ in components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1 within 1e-9, got {total!r}")
        n = components[0][1].n_modes
        if any(s.n_modes != n for _, s in components):
            raise ValueError("all mixture components must have the same mode count")
        self._components = tuple((w / total, s) for w, s in components)

    @property
    def components(self):
        return self._components

    @property
    def n_modes(self) -> int:
        return self._components[0][1].n_modes

    def __repr__(self):
        return f"MixedState(n_modes={self.n_modes}, n_components={len(self._components)})"


State = Union[GaussianState, MixedState]


def vacuum_state(n: int) -> GaussianState:
    """N-mode vacuum: the 2N x 2N identity covariance."""
    return GaussianState(np.eye(2 * n))


def squeezed_vacuum(spec: SqueezeSpec) -> GaussianState:
    """Single-mode squeezed vacuum with variances exp(-2r) / exp(+2r)."""
    lo, hi = np.exp(-2.0 * spec.r), np.exp(2.0 * spec.r)
    if spec.orientation == SQUEEZE_X:
        return GaussianState(np.diag([lo, hi]))
    return GaussianState(np.diag([hi, lo]))


def tensor(states: Sequence[GaussianState]) -> GaussianState:
    """Product state of independent blocks; modes are numbered in list order."""
    n = sum(s.n_modes for s in states)
    cov = np.zeros((2 * n, 2 * n))
    off = 0
    for s in states:
        m = s.n_modes
        sx = slice(off, off + m)
        sp = slice(n + off, n + off + m)
        cov[sx, sx] = s.cov[:m, :m]
        cov[sp, sp] = s.cov[m:, m:]
        cov[sx, sp] = s.cov[:m, m:]
        cov[sp, sx] = s.cov[m:, :m]
        off += m
    return GaussianState(cov)


def check_modes(modes: Sequence[int], n: Optional[int] = None, first: int = 0) -> None:
    """The rule of an op's modes: they are distinct and, when `n` is given,
    each names one of n modes counted from `first` (0 in the library, 1 on
    the command line and in network files, so that a message repeats the
    index as it was written)."""
    for k, m in enumerate(modes):
        if n is not None and not first <= m < n + first:
            raise OpError(f"mode {m} out of range {first}..{n + first - 1}", k)
        if m in modes[:k]:
            raise OpError(f"an op's modes must be distinct, got {tuple(modes)}", k)


def _check_fraction(name: str, value: float, arg: int) -> None:
    if not 0.0 <= value <= 1.0:
        raise OpError(f"{name} must lie in [0, 1], got {value}", arg)


def check_beam_splitter(i: int, j: int, reflectivity: float,
                        n: Optional[int] = None, first: int = 0) -> None:
    """The rules of a beam splitter: two distinct modes (see
    :func:`check_modes`) and a reflectivity in [0, 1]."""
    check_modes((i, j), n, first)
    _check_fraction("reflectivity", reflectivity, 2)


def check_loss(modes: Sequence[int], eta: float,
               n: Optional[int] = None, first: int = 0) -> None:
    """The rules of a loss channel: distinct modes (see :func:`check_modes`)
    and an efficiency in [0, 1]."""
    check_modes(modes, n, first)
    _check_fraction("efficiency", eta, len(modes))


def _op_modes(state) -> int:
    """The mode count of the state an op acts on, which must be a
    GaussianState: on a mixture, the op would act on each component."""
    if not isinstance(state, GaussianState):
        raise ValueError(f"ops act only on a GaussianState (mixtures are not supported), "
                         f"got {type(state).__name__}")
    return state.n_modes


def apply_beam_splitter(state: GaussianState, i: int, j: int, reflectivity: float) -> GaussianState:
    """Mix modes i and j on a beam splitter of reflectivity R.

    The mode operators transform as a_i -> sqrt(R) a_i + sqrt(1-R) a_j and
    a_j -> sqrt(1-R) a_i - sqrt(R) a_j; the same 2x2 orthogonal map acts on
    the (x_i, x_j) and (p_i, p_j) blocks of the covariance matrix.
    """
    n = _op_modes(state)
    check_beam_splitter(i, j, reflectivity, n)
    t = np.sqrt(reflectivity)
    u = np.sqrt(1.0 - reflectivity)
    s = np.eye(2 * n)
    for off in (0, n):
        s[i + off, i + off] = t
        s[i + off, j + off] = u
        s[j + off, i + off] = u
        s[j + off, j + off] = -t
    return GaussianState(s @ state.cov @ s.T)


def lossy_covariances(state: GaussianState, modes: Union[int, Sequence[int]],
                      etas: Sequence[float]) -> np.ndarray:
    """The covariance of the attenuation channel at each efficiency of
    `etas`, in one broadcast pass: an (E, 2N, 2N) stack, not validated.

    `modes` is one 0-based mode index or a sequence of distinct ones; every
    efficiency is checked, in order, before any matrix is formed.  Cross
    covariances with other modes scale by sqrt(eta) per lossy mode, and each
    lossy mode's own 2x2 block becomes eta * block + (1 - eta) * I.  The
    matrix is scaled by one vector per efficiency, sqrt(eta) on the lossy
    quadratures and 1 elsewhere, first by rows and then by columns, and the
    noise is added to each lossy block ``cov[..., m::n, m::n]``.  Each entry
    takes the same multiplications, in the same order, whatever the other
    efficiencies of the pass and as in the chain of single-mode calls, and
    a factor of 1 is exact, so all agree bit for bit, signed zeros included.
    """
    n = _op_modes(state)
    modes = (modes,) if np.ndim(modes) == 0 else tuple(modes)
    for eta in etas:
        check_loss(modes, eta, n)
    etas = np.asarray(etas, dtype=float)
    scale, root = np.ones((len(etas), 2 * n)), np.sqrt(etas)[:, None]
    for mode in modes:
        scale[:, mode::n] = root
    covs = state.cov * scale[:, :, None]
    covs *= scale[:, None, :]
    noise = (1.0 - etas)[:, None, None] * np.eye(2)
    for mode in modes:
        covs[:, mode::n, mode::n] += noise
    return covs


def apply_loss(state: GaussianState, modes: Union[int, Sequence[int]], eta: float) -> GaussianState:
    """Attenuation channel a -> sqrt(eta) a + sqrt(1-eta) a_vac on each of
    `modes` (one 0-based mode index or a sequence of distinct ones): the
    pass of :func:`lossy_covariances` at the one efficiency, validated once."""
    return GaussianState(lossy_covariances(state, modes, (eta,))[0])


def second_moments(state: State) -> np.ndarray:
    """Second-moment matrix of a state or mixture.

    For zero-mean mixtures this is the weighted average of the component
    covariances, so quadrature variances of mixtures are plain quadratic
    forms in this matrix.
    """
    if isinstance(state, GaussianState):
        return state.cov
    if isinstance(state, MixedState):
        acc = np.zeros_like(state.components[0][1].cov)
        for w, s in state.components:
            acc += w * s.cov
        return acc
    raise TypeError(f"expected GaussianState or MixedState, got {type(state)}")


def quadrature_variances(state: State, gains: GainVector):
    """Variances (Var u, Var v) of u = sum h_i x_i and v = sum g_i p_i.

    For a MixedState the result equals the weighted sum of the component
    variances (all components are zero-mean, so no mean-spread term enters).
    """
    n = state.n_modes
    if gains.n_modes != n:
        raise ValueError(f"gain length {gains.n_modes} does not match {n} modes")
    moments = second_moments(state)
    h = np.asarray(gains.h)
    g = np.asarray(gains.g)
    var_u = float(h @ moments[:n, :n] @ h)
    var_v = float(g @ moments[n:, n:] @ g)
    return var_u, var_v
