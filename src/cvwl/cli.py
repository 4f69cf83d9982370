"""Batch front end: build states, evaluate witnesses, optimize gains, run
sweeps, and emit the canned reference grids — all as CSV on stdout or a file.

Each command reads argparse's namespace directly; flag values are converted
by the parser's `type=` functions, except the `--loss MODE ETA` pairs, which
`_load_state` converts where it applies them.  `build`, `witness` and
`optimize` take a state from `--state` or `--network`; `sweep` takes a
`--state` preset, built at each r of an r sweep and once for an eta sweep.
The reproduce targets (the paper's Tables I-IV and Figs. 4, 5, 10-12) are
rows of `REPRODUCE`: each target is a list of column groups, and one driver
evaluates every group at each r of `R_GRID`, building each (preset, modes)
state once per r.

Exit codes: 0 success, 2 configuration/parse error (among them a squeeze
parameter that is not finite, is negative, or reaches ln(DBL_MAX/2)/2 ~
354.545, past which exp(2r) passes half the largest float), 3 numerical
failure (non-physical state).  Mode indices are 1-based on the command
line and in network files.

Network file format (one directive per line, '#' starts a comment):

    input squeeze p 1.0     # p-squeezed vacuum, r = 1.0
    input squeeze x 1.0
    input vacuum
    bs 1 2 0.3333333        # beam splitter: modes 1,2, reflectivity
    bs 2 3 0.5
    loss 1 0.8              # attenuation: mode 1, efficiency 0.8

All `input` lines must precede `bs`/`loss` lines; mode count equals the
number of inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import optimizer, witnesses
from .networks import BeamSplitter, LossChannel, NetworkSpec, execute
from .optimizer import GainStructure, build_state, default_structure, optimize_gains, sweep
from .states import (
    SQUEEZE_P,
    SQUEEZE_X,
    GainVector,
    PhysicalityError,
    SqueezeSpec,
    apply_loss,
    second_moments,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

R_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


class ConfigError(ValueError):
    """Bad command-line configuration."""


class NetworkParseError(ConfigError):
    """Malformed network file; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_network(text: str) -> NetworkSpec:
    """Parse the line-oriented network format into a NetworkSpec."""
    inputs: list = []
    ops: list = []

    def fail(msg, lineno, col):
        raise NetworkParseError(msg, lineno, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = line.split()
        cols = []
        pos = 0
        for tok in tokens:
            pos = line.index(tok, pos)
            cols.append(pos + 1)
            pos += len(tok)

        def number(idx, what, lo=None, hi=None):
            try:
                value = float(tokens[idx])
            except ValueError:
                fail(f"{what} must be a number, got {tokens[idx]!r}", lineno, cols[idx])
            if lo is not None and not (lo <= value <= hi):
                fail(f"{what} must lie in [{lo}, {hi}], got {value}", lineno, cols[idx])
            return value

        def mode(idx, what):
            try:
                value = int(tokens[idx])
            except ValueError:
                fail(f"{what} must be an integer, got {tokens[idx]!r}", lineno, cols[idx])
            if not 1 <= value <= len(inputs):
                fail(f"{what} {value} out of range 1..{len(inputs)}", lineno, cols[idx])
            return value - 1

        word = tokens[0].lower()
        if word == "input":
            if ops:
                fail("input lines must precede bs/loss lines", lineno, cols[0])
            if len(tokens) >= 2 and tokens[1].lower() == "vacuum":
                if len(tokens) != 2:
                    fail("input vacuum takes no further arguments", lineno, cols[2])
                inputs.append(None)
            elif len(tokens) >= 2 and tokens[1].lower() == "squeeze":
                if len(tokens) != 4:
                    fail("expected: input squeeze x|p R", lineno, cols[min(len(tokens) - 1, 3)])
                axis = tokens[2].lower()
                if axis not in (SQUEEZE_X, SQUEEZE_P):
                    fail(f"squeeze axis must be 'x' or 'p', got {tokens[2]!r}", lineno, cols[2])
                r = number(3, "squeeze parameter")
                try:
                    inputs.append(SqueezeSpec(r, axis))
                except ValueError as exc:  # r outside the range SqueezeSpec allows
                    fail(str(exc), lineno, cols[3])
            else:
                fail("expected: input vacuum | input squeeze x|p R", lineno,
                     cols[1] if len(tokens) > 1 else cols[0])
        elif word == "bs":
            if len(tokens) != 4:
                fail("expected: bs I J R", lineno, cols[min(len(tokens) - 1, 3)])
            i = mode(1, "mode index")
            j = mode(2, "mode index")
            if i == j:
                fail("beam splitter needs two distinct modes", lineno, cols[2])
            ops.append(BeamSplitter(i, j, number(3, "reflectivity", 0.0, 1.0)))
        elif word == "loss":
            if len(tokens) != 3:
                fail("expected: loss MODE ETA", lineno, cols[min(len(tokens) - 1, 2)])
            ops.append(LossChannel(mode(1, "mode index"), number(2, "efficiency", 0.0, 1.0)))
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
        state = build_state(args.state, args.n, args.r)
    for mode, eta in args.loss:
        try:
            mode, eta = int(mode), float(eta)
        except ValueError as exc:
            raise ConfigError(f"bad --loss {mode} {eta}: {exc}") from exc
        state = apply_loss(state, _loss_mode(mode, state.n_modes), eta)
    return state


def _loss_mode(mode: int, n: int) -> int:
    """A 1-based --loss or --loss-modes index, checked and made 0-based."""
    if not 1 <= mode <= n:
        raise ConfigError(f"loss mode {mode} out of range 1..{n}")
    return mode - 1


def _parse_gain_list(text: str):
    try:
        return tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad gains list {text!r}: {exc}") from exc


def _check_gains_flag(args):
    """Criteria without gain slots (c3, c4, c7) take no --gains."""
    if args.gains and witnesses.lookup(args.criterion).slots == ():
        raise ConfigError(f"{args.criterion} takes no gains; drop --gains")


def _gains_for(args, n: int):
    """The fixed gains an explicit --gains list gives on `n` modes; None when
    --gains is absent or 'auto'.  The list is criterion-specific; for
    c5/c6/c8 it is either a tied pair 'g,h' or the full 2N values
    h_1..h_N,g_1..g_N."""
    _check_gains_flag(args)
    if not args.gains or args.gains.strip().lower() == "auto":
        return None
    cid = args.criterion
    values = _parse_gain_list(args.gains)
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


def cmd_witness(args) -> int:
    state = _load_state(args)
    gains = _gains_for(args, state.n_modes)
    if args.gains and gains is None:  # --gains auto
        structure = default_structure(args.criterion, state.n_modes, args.structure)
        gains = optimize_gains(state, args.criterion, structure=structure,
                               objective=args.objective).gains
    report = witnesses.evaluate(state, args.criterion, gains)
    header, row = _report_row(args.r, args.criterion, gains, report, state.n_modes)
    _write_rows(("criterion",) + header, [(report.criterion_id,) + row], args.output)
    return EXIT_OK


def cmd_optimize(args) -> int:
    _check_gains_flag(args)
    state = _load_state(args)
    structure = default_structure(args.criterion, state.n_modes, args.structure)
    init = _parse_gain_list(args.gains) if args.gains and args.gains.lower() != "auto" else None
    result = optimize_gains(state, args.criterion, structure=structure, init=init,
                            objective=args.objective)
    header = ("criterion", "objective") + structure.param_names + (
        "ratio", "ent", "iterations", "converged")
    row = (result.criterion_id, result.objective) + result.params + (
        result.ratio, result.ent_ratio, result.iterations, result.converged)
    _write_rows(header, [row], args.output)
    return EXIT_OK


def _parse_values(text: str):
    """--values: a comma list, or lo:hi:step with both ends included.  A
    range's last value may round past hi; it is clamped to hi.  A step
    below the rounding of hi can leave a range empty, which is rejected."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise argparse.ArgumentTypeError(f"range must be lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(v) for v in fields)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc
        if step <= 0 or hi < lo:
            raise argparse.ArgumentTypeError(
                f"range must have hi >= lo and step > 0, got {text!r}")
        values = tuple(np.minimum(np.arange(lo, hi + step / 2.0, step), hi))
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
        modes = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad mode list {text!r}: {exc}") from exc
    if len(set(modes)) != len(modes):
        raise argparse.ArgumentTypeError(f"loss modes must not repeat a mode, got {text!r}")
    return modes


def cmd_sweep(args) -> int:
    gains = _gains_for(args, args.n)
    kwargs = dict(
        criterion=args.criterion, optimize=gains is None and not args.no_optimize,
        gains=gains, structure=default_structure(args.criterion, args.n, args.structure),
        objective=args.objective,
    )
    if args.param == "r":
        kwargs.update(r_values=args.values, r=args.r)
    else:
        kwargs.update(eta_values=args.values, r=0.0 if args.r is None else args.r)
    rows = sweep(args.state, args.n,
                 loss_modes=tuple(_loss_mode(m, args.n) for m in args.loss_modes), **kwargs)
    out = [_report_row(row.param, args.criterion, row.gains, row.report, args.n)
           for row in rows]
    _write_rows(out[0][0], [cells for _, cells in out], args.output)
    return EXIT_OK


# Cell makers of the reproduce table: each returns `cells(state, r)`, the
# values of one column group.  They look up optimize_gains, build_state and
# witnesses.evaluate when they run, so that wrappers installed on those
# module attributes after import (bench/tracer.py) see every call.

def _search(criterion, params=False, structure=None, objective="entanglement"):
    """A cold gain search: its parameters (with `params`) and ent ratio."""
    def cells(state, r):
        result = optimize_gains(state, criterion, objective=objective,
                                structure=default_structure(criterion, state.n_modes, structure))
        return (result.params if params else ()) + (result.ent_ratio,)
    return cells


def _fixed(criterion, gains=lambda n: None):
    """The ent ratio at fixed gains, given as a function of the mode count."""
    return lambda state, r: (witnesses.evaluate(state, criterion, gains(state.n_modes)).ent_ratio,)


def _stationary(analytic, gains=False):
    """c8 at the closed-form stationary gains analytic(n, r) of the tied
    structure: (g, h) (with `gains`) and the ent ratio."""
    def cells(state, r):
        g, h = analytic(state.n_modes, r)
        tied = GainStructure("tied", state.n_modes).expand((g, h))
        return ((g, h) if gains else ()) + (witnesses.evaluate(state, "c8", tied).ent_ratio,)
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
    rows = []
    for r in R_GRID:
        states, row = {}, [args.target, r]
        for _, preset, n, cells in groups:
            if (preset, n) not in states:
                states[preset, n] = build_state(preset, n, r)
            row.extend(cells(states[preset, n], r))
        rows.append(row)
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
        p.add_argument("--n", type=int, default=3, help="mode count (default 3)")
        # a sweep hands a given --r to sweep(), which takes none on r sweeps
        p.add_argument("--r", type=float, default=None if sweep else 0.0,
                       help="squeeze parameter (default 0" + ("; eta sweeps only)" if sweep else ")"))
        if not sweep:
            p.add_argument("--network", help="path to a network file instead of --state")
            p.add_argument("--loss", nargs=2, action="append", default=[],
                           metavar=("MODE", "ETA"),
                           help="apply a loss channel (1-based mode, efficiency)")
        p.add_argument("-o", "--output", help="write CSV here instead of stdout")

    def add_criterion_args(p, gains_help):
        p.add_argument("--criterion", required=True, help="criterion id (b1..b3, s1..s3, c1..c10)")
        p.add_argument("--gains", help=gains_help)
        p.add_argument("--structure", help="gain structure (tied, free_g3, tied_g, free_g14, epr2)")
        p.add_argument("--objective", default="entanglement",
                       choices=("entanglement", "steering", "lhs"))

    p = sub.add_parser("build", help="emit the second-moment matrix of a state")
    add_state_args(p)
    p.set_defaults(run=cmd_build)

    p = sub.add_parser("witness", help="evaluate one criterion on a state")
    add_state_args(p)
    add_criterion_args(p, "'auto', tied pair g,h, or explicit list")
    p.set_defaults(run=cmd_witness)

    p = sub.add_parser("optimize", help="optimize gains for a criterion on a state")
    add_state_args(p)
    add_criterion_args(p, "warm-start parameter list")
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
