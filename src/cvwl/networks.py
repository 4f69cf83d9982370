"""Builders for the named multimode states used by the witness suite.

Each builder is expressed as a :class:`NetworkSpec` — squeezed/vacuum
inputs followed by an ordered list of beam splitters and loss channels —
executed on the covariance algebra in :mod:`cvwl.states`.  Executing a
spec is deterministic: identical specs give bit-identical covariances.

Mode indices are 0-based throughout the library (the CLI's network file
format is 1-based and converts at the boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .states import (
    SQUEEZE_P,
    SQUEEZE_X,
    GaussianState,
    MixedState,
    SqueezeSpec,
    apply_beam_splitter,
    apply_loss,
    check_beam_splitter,
    check_loss,
    check_modes,
    squeezed_vacuum,
    tensor,
    vacuum_state,
)


@dataclass(frozen=True)
class BeamSplitter:
    """Beam splitter of reflectivity R acting on modes (i, j), under the
    rules of :func:`cvwl.states.check_beam_splitter`."""

    i: int
    j: int
    reflectivity: float

    def __post_init__(self):
        check_beam_splitter(self.i, self.j, self.reflectivity)


@dataclass(frozen=True)
class LossChannel:
    """Attenuation channel of efficiency eta on one mode, under the rules of
    :func:`cvwl.states.check_loss`."""

    mode: int
    eta: float

    def __post_init__(self):
        check_loss((self.mode,), self.eta)


NetworkOp = Union[BeamSplitter, LossChannel]


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative state recipe: inputs (None marks a vacuum port) + ops,
    whose modes each name one of the inputs."""

    inputs: Tuple[Optional[SqueezeSpec], ...]
    ops: Tuple[NetworkOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.inputs:
            raise ValueError("a network needs at least one input")
        for op in self.ops:
            check_modes((op.i, op.j) if isinstance(op, BeamSplitter) else (op.mode,), self.n_modes)

    @property
    def n_modes(self) -> int:
        return len(self.inputs)


def execute(spec: NetworkSpec) -> GaussianState:
    """Run a network spec and return the output state."""
    state = tensor(
        [squeezed_vacuum(s) if s is not None else vacuum_state(1) for s in spec.inputs]
    )
    for op in spec.ops:
        if isinstance(op, BeamSplitter):
            state = apply_beam_splitter(state, op.i, op.j, op.reflectivity)
        else:
            state = apply_loss(state, op.mode, op.eta)
    return state


def _fan_out(path, trunk_second: bool = False) -> list:
    """Equal-weight cascade that spreads the trunk on path[0] over the m
    modes of `path`: splitter k (1-based) mixes the trunk, on path[k - 1],
    with path[k] at reflectivity R_k = 1/(m + 1 - k), and the trunk goes on
    from path[k], so that each mode keeps 1/m of the trunk's power.  With
    `trunk_second` the trunk enters each splitter's second port instead of
    its first, which flips the sign of the share it leaves behind."""
    m = len(path)
    splits = []
    for k in range(1, m):
        ports = (path[k], path[k - 1]) if trunk_second else (path[k - 1], path[k])
        splits.append(BeamSplitter(*ports, 1.0 / (m + 1 - k)))
    return splits


def ghz_network(n: int, r: float) -> NetworkSpec:
    """Cascade producing the N-mode GHZ-type state.

    Input 0 is squeezed in p (antisqueezed in x); inputs 1..N-1 are
    squeezed in x.  Beam splitter k (1-based) mixes the running trunk with
    fresh input k at reflectivity R_k = 1/(N+1-k): 1/3 then 1/2 for N=3,
    1/4, 1/3, 1/2 for N=4, and so on.  The output satisfies
    Var(p_1 + ... + p_N) = N exp(-2r) and Var(x_i - x_j) = 2 exp(-2r).
    """
    if n < 2:
        raise ValueError(f"GHZ network needs at least 2 modes, got {n}")
    inputs = [SqueezeSpec(r, SQUEEZE_P)] + [SqueezeSpec(r, SQUEEZE_X)] * (n - 1)
    return NetworkSpec(tuple(inputs), tuple(_fan_out(range(n))))


def build_ghz(n: int, r: float) -> GaussianState:
    return execute(ghz_network(n, r))


def epr_type_i_network(n: int, r: float) -> NetworkSpec:
    """Asymmetric EPR-type state: one arm of a two-mode squeezed pair is
    fanned out over modes 1..N-1 with equal weights.

    A 50:50 splitter combines a p-squeezed and an x-squeezed input into
    mode 0 and a trunk; the trunk then meets vacuum ports at reflectivities
    1/(N-1), 1/(N-2), ..., 1/2 so that the trunk quadratures reappear as
    (1/sqrt(N-1)) * sum over modes 1..N-1.
    """
    if n < 3:
        raise ValueError(f"EPR-type-I network needs at least 3 modes, got {n}")
    inputs = [SqueezeSpec(r, SQUEEZE_P), SqueezeSpec(r, SQUEEZE_X)] + [None] * (n - 2)
    ops = [BeamSplitter(0, 1, 0.5)] + _fan_out(range(1, n))
    return NetworkSpec(tuple(inputs), tuple(ops))


def build_epr_type_i(n: int, r: float) -> GaussianState:
    return execute(epr_type_i_network(n, r))


def right_left_groups(n: int):
    """Mode groups of the symmetric EPR-type state (0-based).

    The right arm carries modes {1, 2} plus every later odd-indexed mode
    {4, 6, ...}; the left arm carries mode 0 plus {3, 5, ...}.  In 1-based
    labels: right = 2, 3, 5, 7, ...; left = 1, 4, 6, 8, ...
    """
    right = [1, 2] + [k for k in range(4, n, 2)]
    left = [0] + [k for k in range(3, n, 2)]
    right = [k for k in right if k < n]
    return tuple(right), tuple(left)


def epr_type_ii_network(n: int, r: float) -> NetworkSpec:
    """Symmetric EPR-type state: both arms of the squeezed pair are split.

    After the first 50:50 splitter, vacuum ports are added alternately to
    the right arm (modes 2, 4, ... 0-based) and the left arm (modes 3, 5,
    ...), each arm using an equal-weight reflectivity cascade.  The sign
    convention makes the left-arm quadrature reappear as
    (x_0 - x_3 - x_5 - ...)/sqrt(m_L): for N=4,
    Var((x_1' - x_4') - (x_2' + x_3')) = 4 exp(-2r) in 1-based labels.
    N=3 has a single extra splitter and coincides with the EPR-type-I state.
    """
    if n < 3:
        raise ValueError(f"EPR-type-II network needs at least 3 modes, got {n}")
    if n == 3:
        return epr_type_i_network(3, r)
    right, left = right_left_groups(n)
    inputs: list = [None] * n
    inputs[3] = SqueezeSpec(r, SQUEEZE_P)
    inputs[1] = SqueezeSpec(r, SQUEEZE_X)
    # arm 1' (p-squeezed + x-squeezed)/sqrt(2) lands on slot 3, arm 2' on slot 1
    ops = [BeamSplitter(3, 1, 0.5)]
    right_splits = _fan_out(right)
    left_splits = _fan_out(left[1:] + left[:1], trunk_second=True)
    # interleave right/left splits in output-mode order
    for idx in range(max(len(right_splits), len(left_splits))):
        if idx < len(right_splits):
            ops.append(right_splits[idx])
        if idx < len(left_splits):
            ops.append(left_splits[idx])
    return NetworkSpec(tuple(inputs), tuple(ops))


def build_epr_type_ii(n: int, r: float) -> GaussianState:
    return execute(epr_type_ii_network(n, r))


def build_counterexample(r: float, lone_orientation: str = SQUEEZE_P) -> MixedState:
    """Equal mixture of two biseparable three-mode components, as a
    :class:`MixedState` of weights 1/2.

    Component one entangles modes (0, 1) in a two-mode squeezed state and
    leaves mode 2 in a single-mode squeezed vacuum; component two entangles
    (1, 2) and leaves mode 0 squeezed.  The mixture is biseparable by
    construction, yet for moderate r a common gain makes both pair
    correlations visible at once — the standard cautionary case for reading
    full inseparability as genuine tripartite entanglement.

    The lone modes are squeezed at the same r as the pair.  The dual
    violation (min over g of B_I and of B_II below 4) therefore holds only
    for r < r* ~ 0.691: the lone mode's anti-squeezed quadrature, variance
    exp(2r), enters the cross-component terms (Var(x_0 - x_1) in B_I, on
    the component that pairs modes (1, 2)), and for "p" lone modes min_g B_I =
    1/2 [5 e^{-2r} + e^{2r} + 2 cosh 2r] - sinh^2 2r / (2 (e^{-2r} + cosh 2r))
    grows past 4 there (6.108 at r = 1).

    `lone_orientation` selects the squeezing axis of the single-mode
    components ("p" keeps their p-variance at exp(-2r), which preserves the
    dual violation over the widest r range).
    """
    lone = SqueezeSpec(r, lone_orientation)
    pair = (SqueezeSpec(r, SQUEEZE_P), SqueezeSpec(r, SQUEEZE_X))
    comp_12 = execute(NetworkSpec((pair[0], pair[1], lone), (BeamSplitter(0, 1, 0.5),)))
    comp_23 = execute(NetworkSpec((lone, pair[0], pair[1]), (BeamSplitter(1, 2, 0.5),)))
    return MixedState([(0.5, comp_12), (0.5, comp_23)])
