"""Batch front end: build states, evaluate witnesses, optimize gains, run
sweeps, and emit the canned reference grids — all as CSV on stdout or a file.

Exit codes: 0 success, 2 configuration/parse error, 3 numerical failure
(non-physical state).  Mode indices are 1-based on the command line and in
network files.

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import optimizer, witnesses
from .networks import BeamSplitter, LossChannel, NetworkSpec, execute
from .optimizer import GainStructure, build_state, default_structure, optimize_gains, sweep
from .states import (
    SQUEEZE_P,
    SQUEEZE_X,
    GainVector,
    MixedState,
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
                if r < 0:
                    fail(f"squeeze parameter must be nonnegative, got {r}", lineno, cols[3])
                inputs.append(SqueezeSpec(r, axis))
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


def format_network(spec: NetworkSpec) -> str:
    """Serialize a NetworkSpec back to the line-oriented format (round-trips
    through :func:`parse_network`)."""
    lines = []
    for inp in spec.inputs:
        if inp is None:
            lines.append("input vacuum")
        else:
            lines.append(f"input squeeze {inp.orientation} {inp.r!r}")
    for op in spec.ops:
        if isinstance(op, BeamSplitter):
            lines.append(f"bs {op.i + 1} {op.j + 1} {op.reflectivity!r}")
        else:
            lines.append(f"loss {op.mode + 1} {op.eta!r}")
    return "\n".join(lines) + "\n"


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


@dataclass
class RunConfig:
    """Parsed invocation: one state source, optional loss, criterion, gains."""

    command: str
    state: Optional[str] = None
    n: int = 3
    r: float = 0.0
    network: Optional[str] = None
    criterion: Optional[str] = None
    gains: Optional[str] = None
    structure: Optional[str] = None
    objective: str = "entanglement"
    loss: tuple = ()
    param: Optional[str] = None
    values: Optional[str] = None
    loss_modes: tuple = ()
    no_optimize: bool = False
    target: Optional[str] = None
    output: Optional[str] = None


def _load_state(cfg: RunConfig):
    if (cfg.network is None) == (cfg.state is None):
        raise ConfigError("provide exactly one state source: --state or --network")
    if cfg.network is not None:
        try:
            with open(cfg.network) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read network file: {exc}") from exc
        state = execute(parse_network(text))
    else:
        state = build_state(cfg.state, cfg.n, cfg.r)
    for mode, eta in cfg.loss:
        if isinstance(state, MixedState):
            raise ConfigError("loss channels on mixtures are not supported from the CLI")
        if not 1 <= mode <= state.n_modes:
            raise ConfigError(f"loss mode {mode} out of range 1..{state.n_modes}")
        state = apply_loss(state, mode - 1, eta)
    return state


def _parse_gain_list(text: str):
    try:
        return tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad gains list {text!r}: {exc}") from exc


def _gains_for(cfg: RunConfig, state):
    """Resolve --gains: None/empty -> criterion default, 'auto' -> optimize,
    otherwise an explicit list (criterion-specific; for c5/c6/c8 either a
    tied pair 'g,h' or the full 2N values h_1..h_N,g_1..g_N)."""
    cid = cfg.criterion
    if cfg.gains is None or cfg.gains == "":
        return None, None
    if cfg.gains.strip().lower() == "auto":
        structure = None
        if cfg.structure:
            structure = GainStructure(cfg.structure, state.n_modes)
        result = optimize_gains(state, cid, structure=structure, objective=cfg.objective)
        return result.gains, result
    values = _parse_gain_list(cfg.gains)
    if witnesses.lookup(cid).slots is witnesses.VECTOR:
        n = state.n_modes
        if len(values) == 2:
            structure = GainStructure("tied", n)
            return structure.expand(values), None
        if len(values) == 2 * n:
            return GainVector(values[:n], values[n:]), None
        raise ConfigError(
            f"{cid} takes 2 tied gains (g,h) or {2 * n} values h_1..h_{n},g_1..g_{n}")
    return values, None


def _gain_cells(criterion, gains, n):
    """Column names and values describing the gains of one report row."""
    slots = witnesses.lookup(criterion).slots
    if slots is witnesses.VECTOR:
        names = tuple(f"g{k + 1}" for k in range(n)) + tuple(f"h{k + 1}" for k in range(n))
        if gains is None:
            gains = witnesses.equal_split_gains(n)
        return names, tuple(gains.g) + tuple(gains.h)
    if gains is None or not slots:
        gains = (0.0,) * len(slots)
    return slots, tuple(gains)


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


def cmd_build(cfg: RunConfig) -> int:
    state = _load_state(cfg)
    moments = second_moments(state)
    n = state.n_modes
    header = [""] + [f"x{k + 1}" for k in range(n)] + [f"p{k + 1}" for k in range(n)]
    labels = header[1:]
    rows = [[labels[i]] + [moments[i, j] for j in range(2 * n)] for i in range(2 * n)]
    _write_rows(header, rows, cfg.output)
    return EXIT_OK


def cmd_witness(cfg: RunConfig) -> int:
    if not cfg.criterion:
        raise ConfigError("witness needs --criterion")
    state = _load_state(cfg)
    gains, _ = _gains_for(cfg, state)
    report = witnesses.evaluate(state, cfg.criterion, gains)
    header, row = _report_row(cfg.r, cfg.criterion, gains, report, state.n_modes)
    _write_rows(("criterion",) + header, [(report.criterion_id,) + row], cfg.output)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    if not cfg.criterion:
        raise ConfigError("optimize needs --criterion")
    state = _load_state(cfg)
    structure = GainStructure(cfg.structure, state.n_modes) if cfg.structure else None
    init = _parse_gain_list(cfg.gains) if cfg.gains and cfg.gains.lower() != "auto" else None
    result = optimize_gains(state, cfg.criterion, structure=structure, init=init,
                            objective=cfg.objective)
    structure = structure or default_structure(cfg.criterion, state.n_modes)
    header = ("criterion", "objective") + structure.param_names + (
        "ratio", "ent", "iterations", "converged")
    row = (result.criterion_id, result.objective) + result.params + (
        result.ratio, result.ent_ratio, result.iterations, result.converged)
    _write_rows(header, [row], cfg.output)
    return EXIT_OK


def _parse_values(text: str):
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise ConfigError(f"range must be lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(v) for v in fields)
        except ValueError as exc:
            raise ConfigError(f"bad range {text!r}: {exc}") from exc
        if step <= 0 or hi < lo:
            raise ConfigError(f"range must have hi >= lo and step > 0, got {text!r}")
        return tuple(np.arange(lo, hi + step / 2.0, step))
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad values list {text!r}: {exc}") from exc


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.criterion:
        raise ConfigError("sweep needs --criterion")
    if cfg.state is None:
        raise ConfigError("sweep needs a --state preset")
    if not cfg.values:
        raise ConfigError("sweep needs --values")
    values = _parse_values(cfg.values)
    param = cfg.param or "r"
    if param not in ("r", "eta"):
        raise ConfigError(f"--param must be r or eta, got {param!r}")
    structure = GainStructure(cfg.structure, cfg.n) if cfg.structure else None
    fixed_gains = None
    optimize = not cfg.no_optimize
    if cfg.gains and cfg.gains.lower() != "auto":
        optimize = False
        probe = build_state(cfg.state, cfg.n, cfg.r)
        fixed_gains, _ = _gains_for(cfg, probe)
    kwargs = dict(
        criterion=cfg.criterion, optimize=optimize, gains=fixed_gains,
        structure=structure, objective=cfg.objective,
    )
    if param == "r":
        rows = sweep(cfg.state, cfg.n, r_values=values, **kwargs)
    else:
        if not cfg.loss_modes:
            raise ConfigError("eta sweeps need --loss-modes")
        rows = sweep(cfg.state, cfg.n, eta_values=values, r=cfg.r,
                     loss_modes=tuple(m - 1 for m in cfg.loss_modes), **kwargs)
    header = None
    out = []
    for row in rows:
        hdr, cells = _report_row(row.param, cfg.criterion, row.gains, row.report, cfg.n)
        header = hdr
        out.append(cells)
    _write_rows(header, out, cfg.output)
    return EXIT_OK


def _reproduce_table1():
    rows = []
    for r in R_GRID:
        cells = {"r": r}
        for name, builder in (("ghz", "ghz"), ("epr", "epr1")):
            state = build_state(builder, 3, r)
            res = optimize_gains(state, "c5")
            cells[f"{name}_g"], cells[f"{name}_h"] = res.params
            cells[f"{name}_ent"] = res.ent_ratio
        rows.append(cells)
    header = ("target", "r", "ghz_g", "ghz_h", "ghz_ent", "epr_g", "epr_h", "epr_ent")
    return header, [("table1", c["r"], c["ghz_g"], c["ghz_h"], c["ghz_ent"],
                     c["epr_g"], c["epr_h"], c["epr_ent"]) for c in rows]


def _reproduce_table2():
    header = ("target", "r", "ghz_g1", "ghz_g2", "ghz_g3", "ghz_ent",
              "epr_g1", "epr_g2", "epr_g3", "epr_ent")
    out = []
    for r in R_GRID:
        row = ["table2", r]
        for builder in ("ghz", "epr1"):
            res = optimize_gains(build_state(builder, 3, r), "c1")
            row.extend(res.params)
            row.append(res.ent_ratio)
        out.append(tuple(row))
    return header, out


def _reproduce_table_c8(target: str):
    analytic = optimizer.analytic_gains_epr1 if target == "table3" else optimizer.analytic_gains_ghz
    builder = "epr1" if target == "table3" else "ghz"
    header = ("target", "r") + tuple(
        f"n{n}_{c}" for n in (4, 5, 6) for c in ("g", "h", "ent"))
    out = []
    for r in R_GRID:
        row = [target, r]
        for n in (4, 5, 6):
            g, h = analytic(n, r)
            gains = GainStructure("tied", n).expand((g, h))
            report = witnesses.evaluate(build_state(builder, n, r), "c8", gains)
            row.extend((g, h, report.ent_ratio))
        out.append(tuple(row))
    return header, out


def _reproduce_fig4():
    header = ("target", "r", "ghz_simple", "epr_simple", "ghz_gen", "epr_gen",
              "ghz_gen_prod", "epr_gen_prod")
    out = []
    for r in R_GRID:
        row = ["fig4", r]
        states = {"ghz": build_state("ghz", 3, r), "epr": build_state("epr1", 3, r)}
        for state in states.values():
            row.append(witnesses.evaluate(state, "c3").ent_ratio)
        for state in states.values():
            row.append(optimize_gains(state, "c5").ent_ratio)
        for state in states.values():
            row.append(optimize_gains(state, "c6").ent_ratio)
        out.append(tuple(row))
    return header, out


def _reproduce_fig5():
    header = ("target", "r", "ghz_c1", "epr_c1", "ghz_c2", "epr_c2", "ghz_c7", "ghz4_c9")
    out = []
    for r in R_GRID:
        ghz = build_state("ghz", 3, r)
        epr = build_state("epr1", 3, r)
        row = ("fig5", r,
               optimize_gains(ghz, "c1").ent_ratio,
               optimize_gains(epr, "c1").ent_ratio,
               optimize_gains(ghz, "c2").ent_ratio,
               optimize_gains(epr, "c2").ent_ratio,
               witnesses.evaluate(ghz, "c7").ent_ratio,
               witnesses.evaluate(build_state("ghz", 4, r), "c9", (1.0,) * 4).ent_ratio)
        out.append(row)
    return header, out


def _reproduce_fig_c8(target: str):
    builder = "epr1" if target == "fig10" else "ghz"
    analytic = optimizer.analytic_gains_epr1 if target == "fig10" else optimizer.analytic_gains_ghz
    sizes = (3, 4, 5, 6, 7) if target == "fig10" else (4, 5, 6)
    header = ("target", "r") + tuple(f"n{n}_ent" for n in sizes)
    if target == "fig10":
        header = header + tuple(f"n{n}_ent_fixed" for n in sizes)
    out = []
    for r in R_GRID:
        row = [target, r]
        for n in sizes:
            g, h = analytic(n, r)
            gains = GainStructure("tied", n).expand((g, h))
            row.append(witnesses.evaluate(build_state(builder, n, r), "c8", gains).ent_ratio)
        if target == "fig10":
            for n in sizes:
                report = witnesses.evaluate(build_state(builder, n, r), "c8",
                                            witnesses.equal_split_gains(n))
                row.append(report.ent_ratio)
        out.append(tuple(row))
    return header, out


def _reproduce_fig12():
    header = ("target", "r", "c10_ent", "n4_c8_ent", "n5_c8_ent", "n6_c8_ent")
    out = []
    for r in R_GRID:
        row = ["fig12", r]
        row.append(optimize_gains(build_state("epr2", 4, r), "c10").ent_ratio)
        for n in (4, 5, 6):
            res = optimize_gains(build_state("epr2", n, r), "c8",
                                 structure=GainStructure("epr2", n), objective="lhs")
            row.append(res.ent_ratio)
        out.append(tuple(row))
    return header, out


_REPRODUCE = {
    "table1": _reproduce_table1,
    "table2": _reproduce_table2,
    "table3": lambda: _reproduce_table_c8("table3"),
    "table4": lambda: _reproduce_table_c8("table4"),
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
    "fig10": lambda: _reproduce_fig_c8("fig10"),
    "fig11": lambda: _reproduce_fig_c8("fig11"),
    "fig12": _reproduce_fig12,
}


def cmd_reproduce(cfg: RunConfig) -> int:
    if cfg.target not in _REPRODUCE:
        raise ConfigError(
            f"unknown reproduce target {cfg.target!r}; known: {', '.join(sorted(_REPRODUCE))}")
    header, rows = _REPRODUCE[cfg.target]()
    _write_rows(header, rows, cfg.output)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvwl",
        description="Gaussian multimode entanglement/steering witness toolkit (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p, with_loss=True):
        p.add_argument("--state", choices=sorted(optimizer.BUILDERS),
                       help="state preset (vacuum, ghz, epr1, epr2, counterexample)")
        p.add_argument("--n", type=int, default=3, help="mode count (default 3)")
        p.add_argument("--r", type=float, default=0.0, help="squeeze parameter (default 0)")
        p.add_argument("--network", help="path to a network file instead of --state")
        if with_loss:
            p.add_argument("--loss", nargs=2, action="append", default=[],
                           metavar=("MODE", "ETA"),
                           help="apply a loss channel (1-based mode, efficiency)")
        p.add_argument("-o", "--output", help="write CSV here instead of stdout")

    p = sub.add_parser("build", help="emit the second-moment matrix of a state")
    add_state_args(p)

    p = sub.add_parser("witness", help="evaluate one criterion on a state")
    add_state_args(p)
    p.add_argument("--criterion", required=True, help="criterion id (b1..b3, s1..s3, c1..c10)")
    p.add_argument("--gains", help="'auto', tied pair g,h, or explicit list")
    p.add_argument("--structure", help="gain structure for --gains auto (tied, epr2, ...)")
    p.add_argument("--objective", default="entanglement",
                   choices=("entanglement", "steering", "lhs"))

    p = sub.add_parser("optimize", help="optimize gains for a criterion on a state")
    add_state_args(p)
    p.add_argument("--criterion", required=True)
    p.add_argument("--gains", help="warm-start parameter list")
    p.add_argument("--structure", help="gain structure (tied, free_g3, tied_g, free_g14, epr2)")
    p.add_argument("--objective", default="entanglement",
                   choices=("entanglement", "steering", "lhs"))

    p = sub.add_parser("sweep", help="evaluate a criterion over an r or eta grid")
    add_state_args(p, with_loss=False)
    p.add_argument("--criterion", required=True)
    p.add_argument("--param", choices=("r", "eta"), default="r")
    p.add_argument("--values", required=True, help="comma list or lo:hi:step")
    p.add_argument("--loss-modes", help="1-based comma list of lossy modes (eta sweeps)")
    p.add_argument("--gains", help="fixed gains (disables optimization)")
    p.add_argument("--no-optimize", action="store_true",
                   help="evaluate at default gains instead of optimizing")
    p.add_argument("--structure", help="gain structure for optimization")
    p.add_argument("--objective", default="entanglement",
                   choices=("entanglement", "steering", "lhs"))

    p = sub.add_parser("reproduce", help="emit a canned reference grid")
    p.add_argument("target", help="table1|table2|table3|table4|fig4|fig5|fig10|fig11|fig12")
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("state", "n", "r", "network", "criterion", "gains", "structure",
                 "objective", "output", "target", "values", "param"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "loss", None):
        loss = []
        for mode, eta in args.loss:
            try:
                loss.append((int(mode), float(eta)))
            except ValueError as exc:
                raise ConfigError(f"bad --loss {mode} {eta}: {exc}") from exc
        cfg.loss = tuple(loss)
    if getattr(args, "loss_modes", None):
        try:
            cfg.loss_modes = tuple(int(v) for v in args.loss_modes.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad --loss-modes: {exc}") from exc
    cfg.no_optimize = bool(getattr(args, "no_optimize", False))
    return cfg


_COMMANDS = {
    "build": cmd_build,
    "witness": cmd_witness,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "reproduce": cmd_reproduce,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
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
