"""Golden outputs: every `cvwl reproduce` target against the reference CSVs
under bench/ref/reproduce, compared by the benchmark's own checker
(headers exact, ratios to 1e-6 relative, gains to 1e-4)."""

import sys
from pathlib import Path

import pytest

from cvwl.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from checks import csv_mismatches  # noqa: E402

TARGETS = ("table1", "table2", "table3", "table4", "fig4", "fig5", "fig10", "fig11", "fig12")


@pytest.mark.parametrize("target", TARGETS)
def test_reproduce_matches_reference(target, capsys):
    assert main(["reproduce", target]) == EXIT_OK
    reference = (BENCH / "ref" / "reproduce" / f"{target}.csv").read_text()
    assert csv_mismatches(capsys.readouterr().out, reference) == []
