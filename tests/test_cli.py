import math

import numpy as np
import pytest

from cvwl.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    NetworkParseError,
    format_network,
    main,
    parse_network,
)
from cvwl.networks import LossChannel, ghz_network
from cvwl import GainVector, build_ghz, execute, quadrature_variances

GHZ_FILE = """\
# three-mode cascade
input squeeze p 1.0
input squeeze x 1.0
input squeeze x 1.0
bs 1 2 0.333333333333333
bs 2 3 0.5
"""


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

    @pytest.mark.parametrize("text,fragment", [
        ("input vacuum\nbs 1 3 0.5\n", "out of range"),
        ("input vacuum\ninput vacuum\nbs 1 1 0.5\n", "distinct"),
        ("input vacuum\ninput vacuum\nbs 1 2 1.5\n", "[0.0, 1.0]"),
        ("input squeeze y 1.0\n", "axis"),
        ("warp 1\n", "unknown directive"),
        ("input vacuum\nloss 1 0.5\ninput vacuum\n", "precede"),
        ("input squeeze x minusone\n", "number"),
    ])
    def test_errors_carry_location(self, text, fragment):
        with pytest.raises(NetworkParseError) as err:
            parse_network(text)
        assert fragment in str(err.value)
        assert err.value.line >= 1 and err.value.column >= 1

    def test_error_location_is_precise(self):
        with pytest.raises(NetworkParseError) as err:
            parse_network("input vacuum\ninput vacuum\nbs 1 2 9.9\n")
        assert err.value.line == 3
        assert err.value.column == 8

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

    def test_sweep_r_grid(self, capsys):
        assert main(["sweep", "--state", "epr1", "--n", "3", "--criterion", "c3",
                     "--values", "0.5,1.0", "--no-optimize"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "param,lhs,bound,ent,steer_verdict"
        assert float(lines[1].split(",")[0]) == 0.5
        assert float(lines[1].split(",")[3]) == pytest.approx(2 * math.exp(-1), rel=1e-6)

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

    def test_numerical_failure_exit_code(self, capsys):
        # exp(2r) overflows to inf for r = 400
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "400",
                     "--criterion", "c3"]) == EXIT_NUMERICAL
        assert "numerical" in capsys.readouterr().err

    @pytest.mark.parametrize("criterion,gains", [("c5", "1,nan"), ("c1", "0,nan,0")])
    def test_non_finite_gains_are_configuration_errors(self, criterion, gains, capsys):
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "1",
                     "--criterion", criterion, "--gains", gains]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_non_finite_r_is_a_configuration_error(self, capsys):
        assert main(["witness", "--state", "ghz", "--n", "3", "--r", "nan",
                     "--criterion", "c3"]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    def test_missing_values_for_sweep(self):
        assert main(["sweep", "--state", "ghz", "--n", "3", "--criterion", "c5",
                     "--values", ""]) == EXIT_CONFIG

    def test_unparsable_arguments(self, capsys):
        assert main(["witness", "--state", "nosuch", "--criterion", "c3"]) == EXIT_CONFIG
