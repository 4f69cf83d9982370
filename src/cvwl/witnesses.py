"""Variance-witness evaluation for genuine multipartite entanglement and steering.

Every criterion produces a :class:`WitnessReport` holding the measured
left-hand side, the entanglement bound it must beat, the (stricter)
steering bound where one exists, and the normalized ratio
``ent_ratio = lhs / ent_bound`` — the quantity plotted as "Ent" in sweep
output, with values below 1 certifying genuine multipartite entanglement.

Criterion identifiers accepted by :func:`evaluate`:

==========  =====================================================  ==========
id          left-hand side                                         ent bound
==========  =====================================================  ==========
b1/b2/b3    three-mode variance-sum forms B_I..B_III               4
s1/s2/s3    their product forms S_I..S_III                         2
c1          B_I + B_II + B_III                                     8
c2          S_I + S_II + S_III                                     4
c3 / c4     fixed gains (1, -1/sqrt2, -1/sqrt2): sum / product     2 / 1
c5 / c6     free gains, bound minimized over bipartitions          varies
c7          best pair B_J + B_K at unit gains                      4
c8          N-mode generalization of c5                            varies
c9          sum of the six four-mode forms                         12
c10         I + B_II where I pairs (x1 - x4) against (x2 + x3)     4
==========  =====================================================  ==========

Steering bounds: 2 for each B form, 1 for each S form, 4 for c1, 2 for c2,
1 for c3, 0.5 for c4, and 2 min_i |h_i g_i| (half that for the product
form) for c5/c6 and for c8 at three modes.

Each criterion is described once, as a row of :data:`TABLE`: its forms as
(h, g) templates with named gain slots, how their terms combine, and its
two bounds.  :func:`batch_terms` and :func:`batch_bound` evaluate a row at
a batch of gain rows, and the gain optimizer calls them on its probes,
candidates, grid and simplex points.  The reports come from one loop over
a stack of second moments: :func:`batch_reports` evaluates a stack of
states each at its own gains, as a gain solve ends, and :func:`evaluate`
is its block of one.  :func:`evaluator` binds a row to one gain row: the
bounds depend only on the gains, so it computes them once and returns a
function of a stack, which a fixed-gain sweep calls once per block of
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .partitions import genuine_bounds, steering_bounds
from .states import GainVector, State, second_moments


@dataclass(frozen=True, slots=True)
class WitnessReport:
    """Outcome of one criterion evaluation on one state: the left-hand
    side and the bounds it is compared with, and nothing else, as a sweep
    keeps one per point.  The per-form terms are :func:`batch_terms`'s."""

    criterion_id: str
    lhs: float
    ent_bound: float
    steer_bound: float | None = None

    def __post_init__(self):
        if self.steer_bound is not None and self.steer_bound > self.ent_bound + 1e-12:
            raise ValueError(
                f"steering bound {self.steer_bound} exceeds entanglement bound "
                f"{self.ent_bound}"
            )

    @property
    def ent_ratio(self) -> float:
        """lhs / ent_bound; infinite when the bound vanishes (no constraint)."""
        if self.ent_bound <= 0.0:
            return math.inf
        return self.lhs / self.ent_bound

    @property
    def verdict_entanglement(self) -> bool:
        return self.ent_ratio < 1.0

    @property
    def steer_ratio(self):
        if self.steer_bound is None:
            return None
        if self.steer_bound <= 0.0:
            return math.inf
        return self.lhs / self.steer_bound

    @property
    def verdict_steering(self):
        ratio = self.steer_ratio
        return None if ratio is None else ratio < 1.0


def equal_split_gains(n: int) -> GainVector:
    """Gains (1, -c, ..., -c), (1, c, ..., c) with c = 1/sqrt(N-1): unit gain
    on mode 0 against an equal split over the rest."""
    if n < 2:
        raise ValueError(f"need at least 2 modes, got {n}")
    c = 1.0 / math.sqrt(n - 1)
    return GainVector((1.0,) + (-c,) * (n - 1), (1.0,) + (c,) * (n - 1))


# The forms of van Loock & Furusawa (PRA 67, 052315): form k differences one
# mode pair in x against the total momentum, with a free gain on every mode
# outside the pair.  A string in a g template names the scalar gain it takes.
_B3 = (
    ("B_I", (1, -1, 0), (1, 1, "g3")),
    ("B_II", (0, 1, -1), ("g1", 1, 1)),
    ("B_III", (1, 0, -1), (1, "g2", 1)),
)
_S3 = tuple(("S" + name[1:], h, g) for name, h, g in _B3)
_B4 = (
    ("B_I", (1, -1, 0, 0), (1, 1, "g3", "g4")),
    ("B_II", (0, 1, -1, 0), ("g1", 1, 1, "g4")),
    ("B_III", (1, 0, -1, 0), (1, "g2", 1, "g4")),
    ("B_IV", (0, 0, 1, -1), ("g1", "g2", 1, 1)),
    ("B_V", (0, 1, 0, -1), ("g1", 1, "g3", 1)),
    ("B_VI", (1, 0, 0, -1), (1, "g2", "g3", 1)),
)
_UNIT3 = tuple((name, h, tuple(1 if isinstance(v, str) else v for v in g)) for name, h, g in _B3)
_SPLIT3 = equal_split_gains(3)
_G3 = ("g1", "g2", "g3")

# `slots` value of the criteria whose gains are a whole GainVector (h, g)
VECTOR = None
# a bound set by the gains: the minimum over bipartitions (entanglement) or
# 2 min_i |h_i g_i| at three modes (steering), halved for a product
BY_GAINS = "gains"


@dataclass(frozen=True)
class Criterion:
    """One row of :data:`TABLE`.

    `forms` are (name, h, g) templates of the combinations u = sum h_i x_i
    and v = sum g_i p_i; the h are fixed and a g entry may name one of the
    scalar gains in `slots`.  A criterion with `slots` VECTOR has a single
    form whose (h, g) is the gain vector itself.  `combine` adds each
    form's Var u + Var v ("sum") or Delta u Delta v ("product"), or takes
    the least sum of two of three forms ("pair").  `structure` names the
    optimizer's default gain structure.
    """

    report_id: str
    n_modes: int | None
    slots: tuple | None
    forms: tuple
    combine: str
    ent_bound: float | str
    steer_bound: float | str | None
    structure: str
    h: np.ndarray = field(init=False, repr=False, compare=False)
    g: np.ndarray = field(init=False, repr=False, compare=False)
    slot_entries: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Arrays of the templates: h and g as (F, N), and the (form, mode,
        slot) indices of every g entry that takes a scalar gain."""
        g = [[0.0 if isinstance(v, str) else v for v in form[2]] for form in self.forms]
        entries = [(k, mode, self.slots.index(v)) for k, form in enumerate(self.forms)
                   for mode, v in enumerate(form[2]) if isinstance(v, str)]
        object.__setattr__(self, "h", np.array([form[1] for form in self.forms], dtype=float))
        object.__setattr__(self, "g", np.array(g, dtype=float))
        object.__setattr__(self, "slot_entries",
                           tuple(np.array(entries, dtype=int).reshape(-1, 3).T))

    def gain_row(self, gains, n: int) -> np.ndarray:
        """The evaluator's gain row for `evaluate`'s `gains` argument:
        h_1..h_N, g_1..g_N for VECTOR criteria (default
        :func:`equal_split_gains`), else the scalar gains (default zero;
        ignored when the criterion has none)."""
        if self.slots is VECTOR:
            gains = equal_split_gains(n) if gains is None else gains
            if gains.n_modes != n:
                raise ValueError(f"gain length {gains.n_modes} does not match {n} modes")
            return np.array(gains.h + gains.g)
        if gains is None or not self.slots:
            return np.zeros(len(self.slots))
        values = np.array([float(v) for v in gains])
        if len(values) != len(self.slots):
            raise ValueError(f"{self.report_id} takes {len(self.slots)} gain values "
                             f"({', '.join(self.slots)}), got {len(values)}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"gains must be finite, got {tuple(values)}")
        return values


TABLE = {
    # id: report, modes, gain slots, forms, combine, ent bound, steer bound, structure
    "b1": Criterion("B_I", 3, _G3, _B3[0:1], "sum", 4.0, 2.0, "free_g3"),
    "b2": Criterion("B_II", 3, _G3, _B3[1:2], "sum", 4.0, 2.0, "free_g3"),
    "b3": Criterion("B_III", 3, _G3, _B3[2:3], "sum", 4.0, 2.0, "free_g3"),
    "s1": Criterion("S_I", 3, _G3, _S3[0:1], "product", 2.0, 1.0, "free_g3"),
    "s2": Criterion("S_II", 3, _G3, _S3[1:2], "product", 2.0, 1.0, "free_g3"),
    "s3": Criterion("S_III", 3, _G3, _S3[2:3], "product", 2.0, 1.0, "free_g3"),
    "c1": Criterion("C1", 3, _G3, _B3, "sum", 8.0, 4.0, "free_g3"),
    "c2": Criterion("C2", 3, _G3, _S3, "product", 4.0, 2.0, "free_g3"),
    "c3": Criterion("C3", 3, (), (("C", _SPLIT3.h, _SPLIT3.g),), "sum", 2.0, 1.0, "fixed"),
    "c4": Criterion("C4", 3, (), (("C", _SPLIT3.h, _SPLIT3.g),), "product", 1.0, 0.5, "fixed"),
    "c5": Criterion("C5", 3, VECTOR, (), "sum", BY_GAINS, BY_GAINS, "tied"),
    "c6": Criterion("C6", 3, VECTOR, (), "product", BY_GAINS, BY_GAINS, "tied"),
    "c7": Criterion("C7", 3, (), _UNIT3, "pair", 4.0, None, "fixed"),
    "c8": Criterion("C8", None, VECTOR, (), "sum", BY_GAINS, BY_GAINS, "tied"),
    "c9": Criterion("C9", 4, ("g1", "g2", "g3", "g4"), _B4, "sum", 12.0, None, "tied_g"),
    "c10": Criterion("C10", 4, ("g1", "g4"),
                     (("I", (1, -1, -1, -1), (1, 1, 1, -1)), _B4[1]), "sum", 4.0, None, "free_g14"),
}
CRITERIA = tuple(TABLE)


def lookup(cid: str) -> Criterion:
    """The table row of a criterion id (case and surrounding space ignored)."""
    try:
        return TABLE[str(cid).strip().lower()]
    except KeyError:
        raise ValueError(f"unknown criterion {cid!r}; known ids: {', '.join(CRITERIA)}") from None


def _quad(coeffs: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The quadratic form of each matrix of `block` (..., n, n) at each row
    of a coefficient array, (B, n) for every matrix or (..., B, n) of each
    matrix's own rows, as a (..., B) array."""
    return np.einsum("...bi,...bi->...b", coeffs @ block, coeffs)


def batch_terms(crit: Criterion, moments: np.ndarray):
    """A criterion on one state, or on a stack of states, as a function of
    gain rows.

    `moments` is the state's second-moment matrix, or a stack (..., 2N, 2N)
    of them, one per state.  The rows are a (B, m) array, every state's, or
    (..., B, m), B rows of each matrix's own.  The function returns Var u
    and Var v of every form (... x B x F, or ... x 1 x F where the form is
    fixed), every form's term (... x B x F) and the left-hand side
    (... x B); each matrix of a stack gets, bit for bit, the values it gets
    alone at its B rows.  (Only at the same B: a matrix product's rounding
    may depend on how many rows it takes.)
    """
    n = moments.shape[-1] // 2
    if crit.n_modes not in (None, n):
        raise ValueError(f"{crit.report_id} needs a {crit.n_modes}-mode state, got {n} modes")
    cxx, cpp = moments[..., :n, :n], moments[..., n:, n:]
    form, mode, slot = crit.slot_entries
    fixed_u = None if crit.slots is VECTOR else _quad(crit.h, cxx)[..., None, :]

    def at(rows: np.ndarray):
        if crit.slots is VECTOR:
            var_u = _quad(rows[..., :n], cxx)[..., None]
            var_v = _quad(rows[..., n:], cpp)[..., None]
        else:
            g = np.empty(rows.shape[:-1] + crit.g.shape)
            g[...] = crit.g
            g[..., form, mode] = rows[..., slot]
            var_u = fixed_u
            var_v = _quad(g.reshape(rows.shape[:-2] + (-1, n)), cpp)
            var_v = var_v.reshape(var_v.shape[:-1] + (rows.shape[-2], -1))
        terms = np.sqrt(var_u * var_v) if crit.combine == "product" else var_u + var_v
        if crit.combine == "pair":
            return var_u, var_v, terms, np.min(terms[..., [0, 0, 1]] + terms[..., [1, 2, 2]],
                                               axis=-1)
        return var_u, var_v, terms, terms.sum(axis=-1)

    return at


def batch_bound(crit: Criterion, rows: np.ndarray, n: int, objective: str = "entanglement"):
    """The entanglement or steering bound at each gain row of a (..., m)
    array, or None where the criterion defines none."""
    value = crit.ent_bound if objective == "entanglement" else crit.steer_bound
    if value != BY_GAINS:
        return None if value is None else np.full(rows.shape[:-1], value)
    if objective != "entanglement" and n != 3:
        return None
    products = (rows[..., :n] * rows[..., n:]).reshape(-1, n)
    bound = genuine_bounds(products) if objective == "entanglement" else steering_bounds(products)
    bound = bound.reshape(rows.shape[:-1])
    return bound / 2.0 if crit.combine == "product" else bound


def _refuse(crit: Criterion, bound: float, lhs: float, least: float) -> None:
    """Raise ValueError for a point that :func:`evaluate` refuses, checked
    in this order: a bound that is not finite, a left-hand side that is not
    finite, and a least Var u or Var v below zero."""
    if not math.isfinite(bound):
        raise ValueError(f"{crit.report_id} bound is not finite at these gains ({bound})")
    if not math.isfinite(lhs):
        raise ValueError(f"{crit.report_id} is not finite at these gains (lhs {lhs})")
    if least < 0.0:
        raise ValueError(f"{crit.report_id}: a variance rounds below zero ({least:g}); "
                         "the squeezing is past what double precision resolves")


def _reports(crit: Criterion, rows: np.ndarray, bounds, steers, moments: np.ndarray) -> list:
    """The reports of a stack of second moments (E, 2N, 2N) at gain rows,
    (1, m) for every matrix or (E, 1, m) of each matrix's own, with a bound
    and a steering bound per matrix: the left-hand sides are formed in one
    batched call, and :func:`_refuse` raises at the first point it refuses.
    Callers ignore overflow and invalid values: huge gains overflow, and
    what is not finite is refused here."""
    var_u, var_v, _, lhs = batch_terms(crit, moments)(rows)
    reports = []
    # each matrix's one row of lhs, Var u and Var v
    for bound, steer, (value,), (u,), (v,) in zip(bounds, steers, lhs.tolist(),
                                               var_u.tolist(), var_v.tolist()):
        least = min(u + v)
        # tested inline, so that a report that passes makes no call of _refuse
        if not (math.isfinite(bound) and math.isfinite(value) and least >= 0.0):
            _refuse(crit, bound, value, least)
        reports.append(WitnessReport(crit.report_id, value, bound, steer))
    return reports


def evaluator(criterion: str, gains, n: int):
    """One criterion at fixed gains on n-mode states, as a function of a
    stack of second moments (E, 2N, 2N) that returns the list of their
    reports, each bit for bit the report of its state alone.

    `gains` is what :func:`evaluate` takes.  The gain row and both bounds
    depend only on the gains, so they are computed here, once; each call
    then checks the mode count and forms the left-hand sides in one batched
    call.  Gains at which the bound is not finite are rejected here, and a
    left-hand side that is not finite by the call, as is a Var u or Var v
    below zero: from a squeeze of r ~ 9 the rounding of a variance, about
    eps e^(2r), can pass its value, and the result is past what double
    precision resolves.  In a stack, the first point that fails raises.
    """
    crit = lookup(criterion)
    rows = crit.gain_row(gains, n)[None]
    with np.errstate(over="ignore", invalid="ignore"):  # huge gains overflow: rejected below
        bound, steer = batch_bound(crit, rows, n), batch_bound(crit, rows, n, "steering")
    bound, steer = float(bound[0]), None if steer is None else float(steer[0])
    if not math.isfinite(bound):
        _refuse(crit, bound, 0.0, 0.0)

    def reports(moments: np.ndarray) -> list:
        if moments.shape[-1] != 2 * n:
            raise ValueError(f"{crit.report_id} was bound to {n} modes, "
                             f"got {moments.shape[-1] // 2}")
        with np.errstate(over="ignore", invalid="ignore"):
            return _reports(crit, rows, [bound] * len(moments), [steer] * len(moments), moments)

    return reports


def batch_reports(criterion: str, gains, moments: np.ndarray) -> list:
    """The reports of a stack of states, each at its own gains: `gains`
    holds what :func:`evaluate` takes, one entry per matrix of `moments`
    (E, 2N, 2N).  The stack's left-hand sides are formed in one batched
    call and its bounds in one call per bound.

    Each report is bit for bit the one its state gets alone wherever the
    block's gain products group into the same classes of equal columns as
    each row's alone (see :func:`partitions.genuine_bounds`): every
    constant bound, and the tied and "epr2" gain layouts of the optimizer.
    Gains that :func:`evaluate` refuses are refused here, and so is a bound,
    left-hand side or variance that it refuses, at the first point that
    fails.
    """
    crit = lookup(criterion)
    n = moments.shape[-1] // 2
    rows = np.array([crit.gain_row(g, n) for g in gains])
    with np.errstate(over="ignore", invalid="ignore"):  # huge gains overflow: rejected below
        bounds, steers = batch_bound(crit, rows, n), batch_bound(crit, rows, n, "steering")
        steers = [None] * len(rows) if steers is None else steers.tolist()
        return _reports(crit, rows[:, None], bounds.tolist(), steers, moments)


def evaluate(state: State, criterion: str, gains=None) -> WitnessReport:
    """Evaluate one criterion by id (see module docstring for the table).

    `gains` is criterion-specific: a GainVector for c5/c6/c8 (defaulting to
    :func:`equal_split_gains`), (g1, g2, g3) for the three-mode forms and
    c1/c2, (g1..g4) for c9, (g1, g4) for c10, and ignored for c3/c4/c7.
    Unsupplied scalar gains default to zero.  Gains so large that the
    left-hand side or the bound is not finite are rejected, and so is a
    variance that rounds below zero.  This is :func:`batch_reports` on a
    block of one state.
    """
    return batch_reports(criterion, [gains], second_moments(state)[None])[0]
