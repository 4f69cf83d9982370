"""Batch front end: build states, evaluate witnesses, optimize gains, run
sweeps, and emit the canned reference grids — all as CSV on stdout or a file.

Each command reads argparse's namespace directly; flag values are converted
by the parser's `type=` functions, except the `--loss MODE ETA` pairs, which
`_load_state` converts where it applies them.  `build`, `witness` and
`optimize` take a state from `--state` or `--network`; `sweep` takes a
`--state` preset, built at each r of an r sweep and once for an eta sweep.
`--n` and a network file's inputs give at most MAX_MODES = 20 modes.
`--gains` gives the gains to evaluate at: on `witness` a list or `auto`
(search them first), on `sweep` a list that fixes them for every point;
`optimize` searches the gains and takes no `--gains`.  `--structure` and
`--objective` shape a gain search and are refused where none runs.
The reproduce targets (the paper's Tables I-IV and Figs. 4, 5, 10-12) are
rows of `REPRODUCE`: each target is a list of column groups.
`cmd_reproduce` goes column group by column group: it builds each
(preset, modes) state once per r of `R_GRID`, and solves or evaluates a
group's seven states in one batched call (an exact gain solve of the
block, or a fixed- or per-point-gain evaluation of the stack).

Exit codes: 0 success, 2 configuration/parse error (among them a squeeze
parameter that is not finite, is negative, or reaches ln(DBL_MAX/2)/2 ~
354.545, past which exp(2r) passes half the largest float, and a mode count
past MAX_MODES, refused before any state is built), 3 numerical failure
(non-physical state).  Mode indices are 1-based on the command line and in
network files, and so are the indices in their error messages.

Network file format (one directive per line, '#' starts a comment):

    input squeeze p 1.0     # p-squeezed vacuum, r = 1.0
    input squeeze x 1.0
    input vacuum
    bs 1 2 0.3333333        # beam splitter: modes 1,2, reflectivity
    bs 2 3 0.5
    loss 1 0.8              # attenuation: mode 1, efficiency 0.8

All `input` lines must precede `bs`/`loss` lines; mode count equals the
number of inputs.  The parser reads the syntax; the rules of the values are
those of :mod:`cvwl.states` (squeeze parameters and op arguments).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import optimizer, states, witnesses
from .networks import BeamSplitter, LossChannel, NetworkSpec, execute
from .optimizer import GainStructure, build_state, default_structure, optimize_gains, sweep
from .partitions import MAX_MODES
from .states import GainVector, PhysicalityError, SqueezeSpec, apply_loss, second_moments

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

R_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
MAX_POINTS = 10**6  # the most values a --values range may hold


class ConfigError(ValueError):
    """Bad command-line configuration."""


class NetworkParseError(ConfigError):
    """Malformed network file; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_network(text: str) -> NetworkSpec:
    """Parse the line-oriented network format into a NetworkSpec.

    The parser reads the syntax and makes the 1-based mode indices 0-based.
    The values keep the rules of their owners: an input's r those of
    SqueezeSpec, a `bs` or `loss` line the op rules of :mod:`cvwl.states`,
    the input count MAX_MODES.  Each error is placed at the token it
    names."""
    inputs: list = []
    ops: list = []

    def fail(msg, lineno, col):
        raise NetworkParseError(msg, lineno, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens, cols = zip(*((m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)))

        def token(idx, kind, what):
            """Token idx converted by `kind` (int or float); `what` is the
            error's message when it does not convert."""
            try:
                return kind(tokens[idx])
            except ValueError:
                fail(f"{what}, got {tokens[idx]!r}", lineno, cols[idx])

        def ruled(check, *args, at=None):
            """check(*args), a rule of the library's.  An error that names
            its argument (:class:`states.OpError`) is placed at that
            argument's token: token at[arg] when `at` is a tuple, else token
            1 + arg, where an op writes it.  Any other error is placed at
            token `at`."""
            try:
                return check(*args)
            except ValueError as exc:
                arg = getattr(exc, "arg", None)
                if arg is not None:
                    at = at[arg] if isinstance(at, tuple) else 1 + arg
                fail(str(exc), lineno, cols[at])

        word = tokens[0].lower()
        if word == "input":
            if ops:
                fail("input lines must precede bs/loss lines", lineno, cols[0])
            ruled(_mode_count, len(inputs) + 1, at=0)
            if len(tokens) >= 2 and tokens[1].lower() == "vacuum":
                if len(tokens) != 2:
                    fail("input vacuum takes no further arguments", lineno, cols[2])
                inputs.append(None)
            elif len(tokens) >= 2 and tokens[1].lower() == "squeeze":
                if len(tokens) != 4:
                    fail("expected: input squeeze x|p R", lineno, cols[min(len(tokens) - 1, 3)])
                r = token(3, float, "squeeze parameter must be a number")
                # SqueezeSpec names r (token 3) or the axis (token 2)
                inputs.append(ruled(SqueezeSpec, r, tokens[2].lower(), at=(3, 2)))
            else:
                fail("expected: input vacuum | input squeeze x|p R", lineno,
                     cols[1] if len(tokens) > 1 else cols[0])
        elif word == "bs":
            if len(tokens) != 4:
                fail("expected: bs I J R", lineno, cols[min(len(tokens) - 1, 3)])
            i, j = (token(k, int, "mode index must be an integer") for k in (1, 2))
            reflectivity = token(3, float, "reflectivity must be a number")
            # the op rules count the file's modes from 1, as the file does
            ruled(states.check_beam_splitter, i, j, reflectivity, len(inputs), 1)
            ops.append(BeamSplitter(i - 1, j - 1, reflectivity))
        elif word == "loss":
            if len(tokens) != 3:
                fail("expected: loss MODE ETA", lineno, cols[min(len(tokens) - 1, 2)])
            mode = token(1, int, "mode index must be an integer")
            eta = token(2, float, "efficiency must be a number")
            ruled(states.check_loss, (mode,), eta, len(inputs), 1)
            ops.append(LossChannel(mode - 1, eta))
        else:
            fail(f"unknown directive {tokens[0]!r}", lineno, cols[0])
    if not inputs:
        raise NetworkParseError("no inputs", 1, 1)
    return NetworkSpec(tuple(inputs), tuple(ops))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


def _load_state(args):
    """The state named by --state or --network, after the --loss channels."""
    if (args.network is None) == (args.state is None):
        raise ConfigError("provide exactly one state source: --state or --network")
    if args.network is not None:
        try:
            with open(args.network) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read network file: {exc}") from exc
        state = execute(parse_network(text))
    else:
        state = build_state(args.state, _mode_count(args.n), args.r)
    for mode, eta in args.loss:
        try:
            mode, eta = int(mode), float(eta)
        except ValueError as exc:
            raise ConfigError(f"bad --loss {mode} {eta}: {exc}") from exc
        states.check_modes((mode,), state.n_modes, first=1)
        state = apply_loss(state, mode - 1, eta)
    return state


def _mode_count(n: int) -> int:
    """A mode count, from --n or a network file's inputs, checked against
    MAX_MODES, the most that the bipartition bound takes, before any state
    is built."""
    if not 1 <= n <= MAX_MODES:
        raise ConfigError(f"mode count must lie in 1..{MAX_MODES}, got {n}")
    return n


def _gains_for(args, n: int):
    """The fixed gains an explicit --gains list gives on `n` modes; None when
    --gains is absent or 'auto'.  The list is criterion-specific; for
    c5/c6/c8 it is either a tied pair 'g,h' or the full 2N values
    h_1..h_N,g_1..g_N.  Criteria without gain slots (c3, c4, c7) take no
    --gains."""
    if args.gains and witnesses.lookup(args.criterion).slots == ():
        raise ConfigError(f"{args.criterion} takes no gains; drop --gains")
    if not args.gains or args.gains.strip().lower() == "auto":
        return None
    cid = args.criterion
    try:
        values = tuple(float(v) for v in args.gains.replace(";", ",").split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad gains list {args.gains!r}: {exc}") from exc
    if witnesses.lookup(cid).slots is witnesses.VECTOR:
        if len(values) == 2:
            return GainStructure("tied", n).expand(values)
        if len(values) == 2 * n:
            return GainVector(values[:n], values[n:])
        raise ConfigError(
            f"{cid} takes 2 tied gains (g,h) or {2 * n} values h_1..h_{n},g_1..g_{n}")
    return values


def _gain_cells(criterion, gains, n):
    """Column names and values of the gain row that one report row was
    evaluated at, g_1..g_N before h_1..h_N for c5/c6/c8."""
    crit = witnesses.lookup(criterion)
    row = tuple(crit.gain_row(gains, n).tolist())
    if crit.slots is witnesses.VECTOR:
        names = tuple(f"g{k + 1}" for k in range(n)) + tuple(f"h{k + 1}" for k in range(n))
        return names, row[n:] + row[:n]
    return crit.slots, row


def _write_rows(header, rows, output: Optional[str]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_row(param, criterion, gains, report, n):
    names, cells = _gain_cells(criterion, gains, n)
    header = ("param",) + names + ("lhs", "bound", "ent", "steer_verdict")
    row = (param,) + cells + (
        report.lhs, report.ent_bound, report.ent_ratio, report.verdict_steering,
    )
    return header, row


def cmd_build(args) -> int:
    state = _load_state(args)
    moments = second_moments(state)
    n = state.n_modes
    header = [""] + [f"x{k + 1}" for k in range(n)] + [f"p{k + 1}" for k in range(n)]
    labels = header[1:]
    rows = [[labels[i]] + [moments[i, j] for j in range(2 * n)] for i in range(2 * n)]
    _write_rows(header, rows, args.output)
    return EXIT_OK


def _search_args(args, n: int, search: bool = True):
    """The gain structure and objective of a gain search on `n` modes.
    Where no search runs, --structure and --objective would change
    nothing, and are refused."""
    if not search and (args.structure or args.objective):
        raise ConfigError("--structure and --objective apply only to a gain search, "
                          "and none runs here (fixed or default gains)")
    return default_structure(args.criterion, n, args.structure), args.objective or "entanglement"


def cmd_witness(args) -> int:
    state = _load_state(args)
    gains = _gains_for(args, state.n_modes)
    search = bool(args.gains) and gains is None  # --gains auto: the search evaluates its gains
    structure, objective = _search_args(args, state.n_modes, search)
    if search:
        result = optimize_gains(state, args.criterion, structure=structure, objective=objective)
        gains, report = result.gains, result.report
    else:
        report = witnesses.evaluate(state, args.criterion, gains)
    header, row = _report_row(args.r, args.criterion, gains, report, state.n_modes)
    _write_rows(("criterion",) + header, [(report.criterion_id,) + row], args.output)
    return EXIT_OK


def cmd_optimize(args) -> int:
    state = _load_state(args)
    structure, objective = _search_args(args, state.n_modes)
    result = optimize_gains(state, args.criterion, structure=structure, objective=objective)
    header = ("criterion", "objective") + structure.param_names + (
        "ratio", "ent", "iterations", "converged")
    row = (result.criterion_id, result.objective) + result.params + (
        result.ratio, result.ent_ratio, result.iterations, result.converged)
    _write_rows(header, [row], args.output)
    return EXIT_OK


def _parse_values(text: str):
    """--values: a comma list, or lo:hi:step with both ends included.  A
    range's last value may round past hi; it is clamped to hi.  A step
    below the rounding of hi can leave a range empty, which is rejected,
    and so is a range of more than MAX_POINTS values, before any is made."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise argparse.ArgumentTypeError(f"range must be lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(v) for v in fields)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc
        if not (step > 0 and hi >= lo):  # NaN fails both
            raise argparse.ArgumentTypeError(
                f"range must have hi >= lo and step > 0, got {text!r}")
        stop = hi + step / 2.0
        if not (stop - lo) / step <= MAX_POINTS:  # np.arange makes the ceiling of this many
            raise argparse.ArgumentTypeError(
                f"range must have at most {MAX_POINTS} points, got {text!r}")
        values = tuple(np.minimum(np.arange(lo, stop, step), hi).tolist())
    else:
        try:
            values = tuple(float(v) for v in text.split(",") if v.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad values list {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _parse_modes(text: str):
    """--loss-modes: a comma list of 1-based mode indices."""
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad mode list {text!r}: {exc}") from exc


def cmd_sweep(args) -> int:
    n = _mode_count(args.n)
    gains = _gains_for(args, n)
    search = gains is None and not args.no_optimize
    structure, objective = _search_args(args, n, search)
    kwargs = dict(criterion=args.criterion, optimize=search, gains=gains, structure=structure,
                  objective=objective)
    if args.param == "r":
        kwargs.update(r_values=args.values, r=args.r)
    else:
        kwargs.update(eta_values=args.values, r=0.0 if args.r is None else args.r)
    states.check_modes(args.loss_modes, n, first=1)
    rows = sweep(args.state, n, loss_modes=tuple(m - 1 for m in args.loss_modes), **kwargs)
    out = [_report_row(row.param, args.criterion, row.gains, row.report, n)
           for row in rows]
    _write_rows(out[0][0], [cells for _, cells in out], args.output)
    return EXIT_OK


# Cell makers of the reproduce table: each returns `cells(states, rs)`, the
# values of one column group at every r, one tuple per r, from one batched
# call over the stack of the states' second moments.  They look up the
# solver and the evaluators when they run, so that wrappers installed on
# those module attributes after import see every call.

def _stack(states) -> np.ndarray:
    return np.stack([second_moments(state) for state in states])


def _search(criterion, params=False, structure=None, objective="entanglement"):
    """Cold gain searches, every one an exact solve: the parameters (with
    `params`) and the ent ratio."""
    def cells(states, rs):
        layout = default_structure(criterion, states[0].n_modes, structure)
        results = optimizer.solve(_stack(states), criterion, layout, objective)
        return [(result.params if params else ()) + (result.ent_ratio,) for result in results]
    return cells


def _fixed(criterion, gains=lambda n: None):
    """The ent ratio at fixed gains, given as a function of the mode count."""
    def cells(states, rs):
        n = states[0].n_modes
        return [(report.ent_ratio,)
                for report in witnesses.evaluator(criterion, gains(n), n)(_stack(states))]
    return cells


def _stationary(analytic, gains=False):
    """c8 at the closed-form stationary gains analytic(n, r) of the tied
    structure: (g, h) (with `gains`) and the ent ratio."""
    def cells(states, rs):
        n = states[0].n_modes
        points = [analytic(n, r) for r in rs]
        tied = [GainStructure("tied", n).expand(point) for point in points]
        reports = witnesses.batch_reports("c8", tied, _stack(states))
        return [(point if gains else ()) + (report.ent_ratio,)
                for point, report in zip(points, reports)]
    return cells


def _ghz_epr(suffixes, cells):
    """Column groups ghz_* and epr_* of the same cells on the three-mode GHZ
    and EPR-type (epr1) states."""
    return tuple((tuple(f"{prefix}_{s}" for s in suffixes), preset, 3, cells)
                 for prefix, preset in (("ghz", "ghz"), ("epr", "epr1")))


def _sizes(preset, sizes, suffixes, cells):
    """Column groups n<N>_* of the same cells on one preset at each size N."""
    return tuple((tuple(f"n{n}_{s}" for s in suffixes), preset, n, cells) for n in sizes)


# target -> column groups (column names, state preset, modes, cells(state, r));
# table3/table4 and fig10/fig11 use the closed-form stationary gains, the
# epr2-structure c8 columns of fig12 the "lhs" objective, as the reference
# grids were produced
REPRODUCE = {
    "table1": _ghz_epr(("g", "h", "ent"), _search("c5", params=True)),
    "table2": _ghz_epr(("g1", "g2", "g3", "ent"), _search("c1", params=True)),
    "table3": _sizes("epr1", (4, 5, 6), ("g", "h", "ent"),
                     _stationary(optimizer.analytic_gains_epr1, gains=True)),
    "table4": _sizes("ghz", (4, 5, 6), ("g", "h", "ent"),
                     _stationary(optimizer.analytic_gains_ghz, gains=True)),
    "fig4": (_ghz_epr(("simple",), _fixed("c3")) + _ghz_epr(("gen",), _search("c5"))
             + _ghz_epr(("gen_prod",), _search("c6"))),
    "fig5": (_ghz_epr(("c1",), _search("c1")) + _ghz_epr(("c2",), _search("c2"))
             + ((("ghz_c7",), "ghz", 3, _fixed("c7")),
                (("ghz4_c9",), "ghz", 4, _fixed("c9", lambda n: (1.0,) * n)))),
    "fig10": (_sizes("epr1", range(3, 8), ("ent",), _stationary(optimizer.analytic_gains_epr1))
              + _sizes("epr1", range(3, 8), ("ent_fixed",),
                       _fixed("c8", witnesses.equal_split_gains))),
    "fig11": _sizes("ghz", (4, 5, 6), ("ent",), _stationary(optimizer.analytic_gains_ghz)),
    "fig12": ((("c10_ent",), "epr2", 4, _search("c10")),) + _sizes(
        "epr2", (4, 5, 6), ("c8_ent",), _search("c8", structure="epr2", objective="lhs")),
}


def cmd_reproduce(args) -> int:
    groups = REPRODUCE[args.target]
    header = ("target", "r") + tuple(name for names, _, _, _ in groups for name in names)
    rows = [[args.target, r] for r in R_GRID]
    built = {}
    for _, preset, n, cells in groups:  # column group by column group
        if (preset, n) not in built:
            built[preset, n] = [build_state(preset, n, r) for r in R_GRID]
        for row, values in zip(rows, cells(built[preset, n], R_GRID)):
            row.extend(values)
    _write_rows(header, rows, args.output)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvwl",
        description="Gaussian multimode entanglement/steering witness toolkit (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p, sweep=False):
        # a sweep builds its preset itself (at each r, or once for an eta
        # sweep), so it takes no network file and no --loss
        p.add_argument("--state", choices=sorted(optimizer.BUILDERS), required=sweep,
                       help="state preset (vacuum, ghz, epr1, epr2, counterexample)")
        p.add_argument("--n", type=int, default=3,
                       help=f"mode count, 1..{MAX_MODES} (default 3)")
        # a sweep hands a given --r to sweep(), which takes none on r sweeps
        p.add_argument("--r", type=float, default=None if sweep else 0.0,
                       help="squeeze parameter (default 0" + ("; eta sweeps only)" if sweep else ")"))
        if not sweep:
            p.add_argument("--network", help="path to a network file instead of --state")
            p.add_argument("--loss", nargs=2, action="append", default=[],
                           metavar=("MODE", "ETA"),
                           help="apply a loss channel (1-based mode, efficiency)")
        p.add_argument("-o", "--output", help="write CSV here instead of stdout")

    def add_criterion_args(p, gains_help=None):
        # optimize searches its gains and takes none
        p.add_argument("--criterion", required=True, help="criterion id (b1..b3, s1..s3, c1..c10)")
        if gains_help:
            p.add_argument("--gains", help=gains_help)
        # both choose a gain search, and are refused where none runs
        p.add_argument("--structure", help=f"gain structure ({', '.join(optimizer.KINDS)})")
        p.add_argument("--objective", choices=("entanglement", "steering", "lhs"),
                       help="objective of the gain search (default entanglement)")

    p = sub.add_parser("build", help="emit the second-moment matrix of a state")
    add_state_args(p)
    p.set_defaults(run=cmd_build)

    p = sub.add_parser("witness", help="evaluate one criterion on a state")
    add_state_args(p)
    add_criterion_args(p, "'auto', tied pair g,h, or explicit list")
    p.set_defaults(run=cmd_witness)

    p = sub.add_parser("optimize", help="optimize gains for a criterion on a state")
    add_state_args(p)
    add_criterion_args(p)
    p.set_defaults(run=cmd_optimize)

    p = sub.add_parser("sweep", help="evaluate a criterion over an r or eta grid")
    add_state_args(p, sweep=True)
    add_criterion_args(p, "fixed gains (disables optimization)")
    p.add_argument("--param", choices=("r", "eta"), default="r")
    p.add_argument("--values", required=True, type=_parse_values,
                   help="comma list or lo:hi:step")
    p.add_argument("--loss-modes", type=_parse_modes, default=(),
                   help="1-based comma list of lossy modes (eta sweeps)")
    p.add_argument("--no-optimize", action="store_true",
                   help="evaluate at default gains instead of optimizing")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("reproduce", help="emit a canned reference grid")
    p.add_argument("target", choices=REPRODUCE)
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    p.set_defaults(run=cmd_reproduce)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except PhysicalityError as exc:
        print(f"cvwl: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"cvwl: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
