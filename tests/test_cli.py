import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cvwl.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    R_GRID,
    REPRODUCE,
    NetworkParseError,
    _parse_values,
    _write_rows,
    main,
    parse_network,
)
import cvwl.cli
import cvwl.networks
import cvwl.optimizer
from cvwl.networks import BeamSplitter, LossChannel, ghz_network
from cvwl.optimizer import BUILDERS, build_state
from cvwl.partitions import MAX_MODES
from cvwl import GainVector, PhysicalityError, build_ghz, execute, quadrature_variances

GHZ_FILE = """\
# three-mode cascade
input squeeze p 1.0
input squeeze x 1.0
input squeeze x 1.0
bs 1 2 0.333333333333333
bs 2 3 0.5
"""


def format_network(spec):
    """Serialize a NetworkSpec to the network file format, which
    :func:`parse_network` reads back."""
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


def row_major_reproduce(target):
    """A reproduce CSV built row by row, point by point: at each r of R_GRID
    each (preset, modes) state is built once, and every column group takes
    its cells from that one state, a block of one."""
    groups = REPRODUCE[target]
    header = ("target", "r") + tuple(name for names, _, _, _ in groups for name in names)
    rows = []
    for r in R_GRID:
        built, row = {}, [target, r]
        for _, preset, n, cells in groups:
            if (preset, n) not in built:
                built[preset, n] = build_state(preset, n, r)
            (values,) = cells([built[preset, n]], (r,))
            row.extend(values)
        rows.append(row)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_rows(header, rows, None)
    return out.getvalue()


class TestParseNetwork:
    def test_ghz_file(self):
        spec = parse_network(GHZ_FILE)
        assert spec.n_modes == 3
        assert [op.reflectivity for op in spec.ops] == pytest.approx([1 / 3, 0.5])
        state = execute(spec)
        _, var_v = quadrature_variances(state, GainVector((0, 0, 0), (1, 1, 1)))
        assert var_v == pytest.approx(3 * math.exp(-2), rel=1e-9)

    def test_empty_file(self):
        with pytest.raises(NetworkParseError, match="no inputs"):
            parse_network("# nothing here\n")

    def test_loss_line(self):
        spec = parse_network("input vacuum\nloss 1 0.8\n")
        assert spec.ops == (LossChannel(0, 0.8),)

    @pytest.mark.parametrize("text,fragment,where", [
        ("input vacuum\nbs 1 3 0.5\n", "out of range", (2, 6)),
        ("input vacuum\ninput vacuum\nbs 1 1 0.5\n", "distinct", (3, 6)),
        ("input vacuum\ninput vacuum\nbs 1 2 1.5\n", "[0, 1]", (3, 8)),
        ("input squeeze y 1.0\n", "axis", (1, 15)),
        ("warp 1\n", "unknown directive", (1, 1)),
        ("input vacuum\nloss 1 0.5\ninput vacuum\n", "precede", (3, 1)),
        ("input squeeze x minusone\n", "number", (1, 17)),
        ("input squeeze x -1\n", "nonnegative", (1, 17)),
        ("input squeeze x nan\n", "finite", (1, 17)),
        ("input squeeze p inf\n", "finite", (1, 17)),
        ("input vacuum 3\n", "no further arguments", (1, 14)),
        ("input squeeze x\n", "expected: input squeeze", (1, 15)),
        ("input\n", "expected: input vacuum", (1, 1)),
        ("input vacuum\ninput vacuum\nbs 1 2\n", "expected: bs", (3, 6)),
        ("input vacuum\nloss 1\n", "expected: loss", (2, 6)),
        ("input vacuum\ninput vacuum\nbs 1 x 0.5\n", "must be an integer", (3, 6)),
        # exp(2r) would pass half the largest float
        ("input squeeze x 400\n", "below 354.54478", (1, 17)),
        pytest.param("input vacuum\n" * MAX_MODES + "input squeeze x 1.0\n",
                     f"mode count must lie in 1..{MAX_MODES}, got {MAX_MODES + 1}",
                     (MAX_MODES + 1, 1), id="past-the-mode-ceiling"),
    ])
    def test_errors_carry_location(self, text, fragment, where):
        with pytest.raises(NetworkParseError) as err:
            parse_network(text)
        assert fragment in str(err.value)
        assert (err.value.line, err.value.column) == where

    def test_error_location_is_precise(self):
        with pytest.raises(NetworkParseError) as err:
            parse_network("input vacuum\ninput vacuum\nbs 1 2 9.9\n")
        assert err.value.line == 3
        assert err.value.column == 8

    @pytest.mark.parametrize("text,fragment,column", [
        ("input squeeze z 1\n", "axis", 15),
        ("input  squeeze  Z  1\n", "axis", 17),
        ("input squeeze z -1\n", "axis", 15),  # the axis is checked before r
        ("input squeeze x -1\n", "nonnegative", 17),
    ])
    def test_squeeze_errors_name_their_token(self, text, fragment, column):
        # SqueezeSpec alone states the squeeze rules; its error names the
        # argument, and the parser places it at that argument's token
        with pytest.raises(NetworkParseError, match=fragment) as err:
            parse_network(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_round_trip(self):
        spec = ghz_network(4, 0.75)
        again = parse_network(format_network(spec))
        assert again == spec

    def test_round_trip_with_loss_and_vacuum(self):
        text = "input vacuum\ninput squeeze p 0.3\nbs 1 2 0.25\nloss 2 0.9\n"
        spec = parse_network(text)
        assert parse_network(format_network(spec)) == spec


class TestCommands:
    def test_witness_vacuum_simple(self, capsys):
        assert main(["witness", "--state", "vacuum", "--n", "3", "--criterion", "c3"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "criterion,param,lhs,bound,ent,steer_verdict"
        cells = out[1].split(",")
        assert cells[0] == "C3"
        assert float(cells[4]) == pytest.approx(2.0)
        assert cells[5] == "false"

    def test_witness_auto_gains_match_printed_row(self, capsys):
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1",
                     "--criterion", "c5", "--gains", "auto"]) == EXIT_OK
        header, row = capsys.readouterr().out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["g2"]) == pytest.approx(0.95, abs=0.01)
        assert float(cells["h2"]) == pytest.approx(-0.49, abs=0.01)
        assert float(cells["ent"]) < 1

    def test_witness_explicit_tied_gains(self, capsys):
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1",
                     "--criterion", "c5", "--gains", "1,-0.5"]) == EXIT_OK
        header, row = capsys.readouterr().out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["lhs"]) == pytest.approx(4.5 * math.exp(-2), rel=1e-6)

    def test_witness_full_gain_vector_matches_tied_pair(self, capsys):
        # h_1..h_N, g_1..g_N against the tied pair g,h that expands to them
        rows = []
        for gains in ("1,-0.5,-0.5,1,1,1", "1,-0.5"):
            assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1",
                         "--criterion", "c5", "--gains", gains]) == EXIT_OK
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]
        assert rows[0].splitlines()[1].startswith("C5,1,1,1,1,1,-0.5,-0.5,")

    @pytest.mark.parametrize("gains", ["1,2,3", "1", "1,2,3,4,5,6,7"])
    def test_gain_count_neither_2_nor_2n(self, gains, capsys):
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1",
                     "--criterion", "c5", "--gains", gains]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "c5 takes 2 tied gains (g,h) or 6 values h_1..h_3,g_1..g_3" in err

    def test_zero_bound_prints_inf(self, capsys):
        # every product h_i g_i is 0, so the bound is 0 and the ratio infinite
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1",
                     "--criterion", "c5", "--gains", "1,0,0,0,0,0"]) == EXIT_OK
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "criterion,param,g1,g2,g3,h1,h2,h3,lhs,bound,ent,steer_verdict"
        assert row.startswith("C5,1,0,0,0,1,0,0,")
        assert row.endswith(",0,inf,false")

    def test_witness_from_network_file(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_text(GHZ_FILE)
        assert main(["witness", "--network", str(path), "--criterion", "c1",
                     "--gains", "1,1,1"]) == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[5]) == pytest.approx(15 * math.exp(-2), rel=1e-6)

    def test_build_emits_moment_matrix(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["build", "--state", "ghz", "--n", "3", "--r", "0.5",
                     "-o", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",x1,x2,x3,p1,p2,p3"
        matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.allclose(matrix, build_ghz(3, 0.5).cov, atol=1e-6)

    def test_build_with_loss_flag(self, capsys):
        assert main(["build", "--state", "vacuum", "--n", "1",
                     "--loss", "1", "0.5"]) == EXIT_OK
        assert "1,1" in capsys.readouterr().out

    def test_optimize_command(self, capsys):
        assert main(["optimize", "--state", "epr1", "--n", "3", "--r", "1",
                     "--criterion", "c5"]) == EXIT_OK
        header, row = capsys.readouterr().out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["g"]) == pytest.approx(0.68, abs=0.01)
        assert float(cells["h"]) == pytest.approx(-0.68, abs=0.01)
        assert cells["converged"] == "true"

    @pytest.mark.parametrize("command", ["witness", "optimize", "sweep"])
    def test_structure_help_lists_every_kind(self, command, capsys):
        assert main([command, "--help"]) == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        assert f"gain structure ({', '.join(cvwl.optimizer.KINDS)})" in text

    def test_sweep_r_grid(self, capsys):
        assert main(["sweep", "--state", "epr1", "--n", "3", "--criterion", "c3",
                     "--values", "0.5,1.0", "--no-optimize"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "param,lhs,bound,ent,steer_verdict"
        assert float(lines[1].split(",")[0]) == 0.5
        assert float(lines[1].split(",")[3]) == pytest.approx(2 * math.exp(-1), rel=1e-6)

    def test_sweep_without_optimizing_prints_the_equal_split(self, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "4", "--criterion", "c8",
                     "--values", "0.5,1", "--no-optimize"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "param,g1,g2,g3,g4,h1,h2,h3,h4,lhs,bound,ent,steer_verdict"
        c = f"{1 / math.sqrt(3):.6g}"
        for line, r in zip(lines[1:], ("0.5", "1")):
            assert line.startswith(f"{r},1,{c},{c},{c},1,-{c},-{c},-{c},")
        assert len(lines) == 3

    def test_sweep_eta_grid(self, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "2",
                     "--criterion", "c5", "--param", "eta", "--values", "0.2:0.5:0.15",
                     "--loss-modes", "2,3", "--objective", "steering"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("param,g1")
        assert all(line.split(",")[-1] == "false" for line in lines[1:])

    def test_reproduce_unknown_target(self, capsys):
        assert main(["reproduce", "nope"]) == EXIT_CONFIG

    def test_reproduce_table1_matches_printed_values(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["reproduce", "table1", "-o", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "target,r,ghz_g,ghz_h,ghz_ent,epr_g,epr_h,epr_ent"
        rows = {float(l.split(",")[1]): [float(v) for v in l.split(",")[2:]]
                for l in lines[1:]}
        assert rows[1.0][0] == pytest.approx(0.95, abs=0.01)
        assert rows[1.0][1] == pytest.approx(-0.49, abs=0.01)
        assert rows[2.0][3] == pytest.approx(0.70, abs=0.01)
        assert all(l.split(",")[0] == "table1" for l in lines[1:])

    @pytest.mark.parametrize("target", sorted(REPRODUCE))
    def test_reproduce_equals_a_row_by_row_point_by_point_build(self, target, capsys):
        assert main(["reproduce", target]) == EXIT_OK
        assert capsys.readouterr().out == row_major_reproduce(target)

    def test_csv_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1.2",
                         "--criterion", "c5", "--gains", "auto", "-o", str(target)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_missing_state_source(self, capsys):
        assert main(["witness", "--criterion", "c3"]) == EXIT_CONFIG
        assert "state source" in capsys.readouterr().err

    def test_both_state_sources(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("input vacuum\n")
        assert main(["witness", "--state", "vacuum", "--network", str(path),
                     "--criterion", "c3"]) == EXIT_CONFIG

    def test_bad_gain_list(self, capsys):
        assert main(["witness", "--state", "vacuum", "--n", "3",
                     "--criterion", "c1", "--gains", "a,b,c"]) == EXIT_CONFIG

    def test_parse_error_reports_location(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_text("input vacuum\nbs 1 2 0.5\n")
        assert main(["witness", "--network", str(path), "--criterion", "c3"]) == EXIT_CONFIG
        assert "line 2" in capsys.readouterr().err

    @pytest.fixture
    def refuse_states(self, monkeypatch):
        """Make every way to build a state fail, so that a command that
        builds one before it exits shows it."""
        def refuse(*args, **kwargs):
            raise AssertionError("a state was built")

        for module, name in ((cvwl.networks, "execute"), (cvwl.networks, "tensor"),
                             (cvwl.cli, "execute"), (cvwl.optimizer, "vacuum_state")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("n", ["0", "21", "2000", "100000"])
    @pytest.mark.parametrize("argv", [
        "build --state vacuum", "build --state ghz --r 1", "witness --state ghz --criterion c3",
        "optimize --state epr1 --r 1 --criterion c8",
        "sweep --state ghz --criterion c3 --values 0.5 --no-optimize",
    ])
    def test_mode_count_past_the_ceiling_exits_2_before_building(self, argv, n, refuse_states,
                                                                 capsys):
        # at --n 100000 the vacuum's covariance alone would take 320 GB
        assert main(argv.split() + ["--n", n]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"mode count must lie in 1..{MAX_MODES}, got {n}" in captured.err

    def test_network_past_the_ceiling_exits_2_before_building(self, tmp_path, refuse_states,
                                                             capsys):
        path = tmp_path / "net.txt"
        path.write_text("input squeeze x 1.0\n" * (MAX_MODES + 1) + "bs 1 2 0.5\n")
        assert main(["build", "--network", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {MAX_MODES + 1}, column 1: mode count" in captured.err

    def test_mode_ceiling_itself_builds(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_text("input vacuum\n" * MAX_MODES)
        for argv in (["--network", str(path)], ["--state", "ghz", "--n", str(MAX_MODES)]):
            assert main(["build"] + argv) == EXIT_OK
            assert len(capsys.readouterr().out.splitlines()) == 2 * MAX_MODES + 1

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        # exp(2r) would pass half the largest float: a configuration error
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "400",
                     "--criterion", "c3"]) == EXIT_CONFIG
        assert "below 354.54478" in capsys.readouterr().err
        # no preset overflows below that, so a builder fails on purpose
        def unphysical(n, r):
            raise PhysicalityError("covariance matrix is not positive semidefinite")

        monkeypatch.setitem(BUILDERS, "ghz", unphysical)
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1",
                     "--criterion", "c3"]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("criterion,objective", [
        ("c4", "entanglement"), ("c4", "lhs"), ("c6", "lhs")])
    def test_product_past_rounding_exits_2_without_warning(self, criterion, objective, capsys):
        # from r ~ 9.5 a product's Var u Var v rounds negative; warnings are
        # errors in this suite
        assert main(["optimize", "--state", "epr1", "--n", "3", "--r", "9.5",
                     "--criterion", criterion, "--objective", objective]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "is not finite at these gains" in err and "Warning" not in err

    @pytest.mark.parametrize("command", [
        "witness --state ghz --n 3 --r 50 --criterion c5 --gains 1,-0.5",
        "optimize --state ghz --n 3 --r 15 --criterion c5",
        "optimize --state ghz --n 3 --r 15 --criterion c6",
    ])
    def test_variance_rounded_below_zero_exits_2(self, command, capsys):
        # these printed a negative lhs or ratio, or a product of two negative
        # variances, with exit 0
        assert main(command.split()) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "past what double precision resolves" in err and "Warning" not in err

    def test_large_r_leaks_no_warning(self, capsys):
        # Var(x) Var(p) overflows at r = 200; warnings are errors in this suite
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "200",
                     "--criterion", "c3"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("criterion,")

    @pytest.mark.parametrize("criterion,gains", [("c5", "1,nan"), ("c1", "0,nan,0")])
    def test_non_finite_gains_are_configuration_errors(self, criterion, gains, capsys):
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1",
                     "--criterion", criterion, "--gains", gains]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command,criterion,gains", [
        ("witness", "c5", "1e300,1e300"),
        ("sweep", "c5", "1e300,1e300"),
    ])
    def test_non_finite_or_overflowing_gains_exit_2(self, command, criterion, gains, capsys):
        extra = ["--param", "eta", "--values", "1,0.5", "--loss-modes", "2"] * (
            command == "sweep")
        assert main([command, "--state", "ghz", "--n", "3", "--r", "1",
                     "--criterion", criterion, "--gains", gains] + extra) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "finite" in err and "Warning" not in err

    def test_non_finite_r_is_a_configuration_error(self, capsys):
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "nan",
                     "--criterion", "c3"]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("loss", [("1", "abc"), ("1.5", "0.5"), ("9", "0.5")])
    def test_bad_loss_flag(self, loss, capsys):
        assert main(["build", "--state", "vacuum", "--n", "3", "--loss", *loss]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_bad_loss_modes(self, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "1", "--criterion", "c5",
                     "--param", "eta", "--values", "0.5", "--loss-modes", "2,x"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_eta_sweep_needs_loss_modes(self, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "1", "--criterion", "c5",
                     "--param", "eta", "--values", "0.5"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["witness", "sweep"])
    @pytest.mark.parametrize("criterion", ["c3", "c4", "c7"])
    def test_gains_for_criteria_without_gain_slots(self, command, criterion, capsys):
        argv = [command, "--state", "ghz", "--n", "3", "--r", "1",
                "--criterion", criterion, "--gains", "5,5"]
        if command == "sweep":
            argv += ["--values", "0.5"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "takes no gains" in captured.err

    @pytest.mark.parametrize("criterion,gains", [
        ("c1", "5,5,5"), ("c1", "1,nan,0"), ("c3", "5,5"), ("c4", "5,5"), ("c5", "1,inf"),
        ("c7", "5,5"), ("c8", "-1.409,-1.131"), ("c8", "auto"),
    ])
    def test_optimize_takes_no_gains(self, criterion, gains, capsys):
        # optimize searches the gains, and `witness --gains` evaluates at
        # given ones; a warm start is the library's, optimize_gains(init=)
        assert main(["optimize", "--state", "ghz", "--n", "4", "--r", "1",
                     "--criterion", criterion, f"--gains={gains}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --gains" in captured.err

    def test_repeated_loss_modes(self, capsys):
        # a repeated mode would apply its loss twice (efficiency 0.25 here)
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "1", "--criterion", "c3",
                     "--param", "eta", "--values", "0.5", "--loss-modes", "2,2",
                     "--no-optimize"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "distinct" in captured.err

    def test_repeated_loss_modes_are_one_based(self, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "1", "--criterion", "c3",
                     "--param", "eta", "--values", "0.5", "--loss-modes", "3,1,3",
                     "--no-optimize"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(3, 1, 3)" in captured.err
        assert "0-based" not in captured.err

    def test_r_sweep_rejects_r(self, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "1.5", "--criterion", "c3",
                     "--param", "r", "--values", "0.5", "--no-optimize"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "take no r" in captured.err

    def test_eta_sweep_without_r_is_lossy_vacuum(self, capsys):
        # without --r the preset is built at r = 0, the vacuum, which loss leaves
        # as it is: c3's left-hand side is 4 against a bound of 2
        assert main(["sweep", "--state", "ghz", "--n", "3", "--criterion", "c3",
                     "--param", "eta", "--values", "0.5", "--loss-modes", "2",
                     "--no-optimize"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[:4] == ["0.5", "4", "2", "2"]

    def test_r_sweep_rejects_loss_modes(self, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--criterion", "c3", "--param", "r",
                     "--values", "0.5", "--loss-modes", "2", "--no-optimize"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "loss_modes" in captured.err

    def test_loss_modes_out_of_range_are_one_based(self, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "1", "--criterion", "c3",
                     "--param", "eta", "--values", "0.5", "--loss-modes", "7",
                     "--no-optimize"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mode 7 out of range 1..3" in captured.err

    @pytest.mark.parametrize("argv", [
        ["build", "--loss", "1", "0.5"],
        ["sweep", "--criterion", "c3", "--param", "eta", "--values", "0.5", "--loss-modes", "1",
         "--no-optimize"],
    ])
    def test_loss_on_a_mixture(self, argv, capsys):
        assert main(argv + ["--state", "counterexample", "--n", "3", "--r", "0.5"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mixtures are not supported" in captured.err

    def test_sweep_takes_no_network(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_text("input vacuum\n")
        assert main(["sweep", "--state", "ghz", "--network", str(path), "--n", "3",
                     "--criterion", "c3", "--values", "0.5", "--no-optimize"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_range_ending_at_one_keeps_its_last_value(self, tmp_path):
        # 0.5 + 10 * 0.05 rounds to 1.0000000000000004, past the top efficiency
        values = _parse_values("0.5:1:0.05")
        assert len(values) == 11 and values[-1] == 1.0 and max(values) <= 1.0
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--state", "ghz", "--n", "6", "--r", "1", "--criterion", "c8",
                     "--gains", "0.7,-0.3", "--param", "eta", "--values", "0.5:1:0.05",
                     "--loss-modes", "2,4", "-o", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 12 and lines[-1].startswith("1,")

    def test_range_inside_its_ends_unchanged(self):
        values = _parse_values("0:1:0.3")
        assert values == tuple(np.arange(0.0, 1.15, 0.3))
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("values", ["0:1:1e-12", "0:1:1e-6", "0:inf:1", "-1e308:1e308:1"])
    def test_ranges_of_too_many_points_exit_2_before_allocating(self, values, monkeypatch,
                                                                 capsys):
        # 0:1:1e-12 would be 10^12 values (7.28 TiB); 0:1:1e-6 is one past the limit
        def refuse(*args, **kwargs):
            raise AssertionError("np.arange called")

        monkeypatch.setattr(np, "arange", refuse)
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "1", "--criterion", "c3",
                     "--param", "eta", f"--values={values}", "--loss-modes", "2",
                     "--no-optimize"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "at most 1000000 points" in captured.err

    @pytest.mark.parametrize("values", ["1:0:0.1", "0:1:0", "0:1:-0.5", "0:1", "0:1:0.1:2",
                                        "a:1:0.1", "1:1:1e-17", "0:nan:0.1", "0:1:nan"])
    def test_bad_ranges_exit_2(self, values, capsys):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "1", "--criterion", "c3",
                     "--param", "eta", "--values", values, "--loss-modes", "2",
                     "--no-optimize"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_missing_values_for_sweep(self):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--criterion", "c5",
                     "--values", ""]) == EXIT_CONFIG

    def test_unparsable_arguments(self, capsys):
        assert main(["witness", "--state", "nosuch", "--criterion", "c3"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", [
        "witness --state ghz --n 3 --r 1 --criterion c1 --structure tied",
        "witness --state ghz --n 3 --r 1 --criterion c5 --gains 0.5,-0.3 --structure epr2",
        "witness --state ghz --n 3 --r 1 --criterion c5 --objective steering",
        "sweep --state ghz --n 3 --criterion c5 --values 0.5,1 --no-optimize --objective steering",
        "sweep --state ghz --n 3 --criterion c5 --values 0.5,1 --gains 0.5,-0.3 --structure tied",
    ])
    def test_search_flags_where_no_search_runs_exit_2(self, command, capsys):
        # these printed rows the flags did not change, with exit 0
        assert main(command.split()) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "apply only to a gain search" in err

    @pytest.mark.parametrize("command", [
        "witness --state ghz --n 3 --r 1 --criterion c5 --gains auto --objective steering",
        "sweep --state ghz --n 3 --criterion c5 --values 0.5,1 --structure tied",
    ])
    def test_search_flags_where_a_search_runs(self, command, capsys):
        assert main(command.split()) == EXIT_OK
        assert capsys.readouterr().out.count("\n") >= 2


def test_readme_cli_block_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) >= 5
    for k, argv in enumerate(commands):
        assert argv[0] == "cvwl"
        argv = argv[1:]
        out = str(tmp_path / f"out{k}.csv")
        if "-o" in argv:
            argv[argv.index("-o") + 1] = out
        else:
            argv += ["-o", out]
        assert main(argv) == EXIT_OK, argv
        assert Path(out).read_text().count("\n") >= 2, argv


def test_stalled_warm_c6_sweep_matches_its_record(tmp_path):
    # the warm ghz c6 eta sweep whose points stall: its rows move with any
    # rounding-level change to the refinement, so they must stay as recorded
    etas = ",".join(repr(float(v)) for v in np.linspace(1.0, 0.05, 50))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--state", "ghz", "--n", "3", "--r", "0.817946", "--criterion", "c6",
                 "--param", "eta", "--values", etas, "--loss-modes", "2",
                 "-o", str(out)]) == EXIT_OK
    record = Path(__file__).resolve().parent / "ref" / "ghz_c6_eta_sweep.csv"
    assert out.read_text() == record.read_text()


@pytest.mark.parametrize("record,argv", [
    ("epr2_c8_eta_sweep.csv", ["sweep", "--state", "epr2", "--n", "4", "--r", "1",
                               "--criterion", "c8", "--structure", "epr2", "--param", "eta",
                               "--values", "0.5:1:0.05", "--loss-modes", "2"]),
    ("ghz_c6_r_sweep.csv", ["sweep", "--state", "ghz", "--n", "3", "--criterion", "c6",
                            "--param", "r", "--values", "0.1:2:0.1"]),
    ("epr2_c8_optimize.csv", ["optimize", "--state", "epr2", "--n", "4", "--r", "1",
                              "--criterion", "c8", "--structure", "epr2"]),
])
def test_searches_match_their_records(record, argv, tmp_path):
    # a warm epr2-structure eta sweep, a warm tied r sweep and a cold
    # epr2-structure search (grid plus Nelder-Mead): the solver's search
    # paths, which must keep every bit of their rows
    out = tmp_path / record
    assert main(argv + ["-o", str(out)]) == EXIT_OK
    assert out.read_text() == (Path(__file__).resolve().parent / "ref" / record).read_text()
