"""The three benchmark workloads.

Each workload draws its inputs from a seeded generator, runs in rounds of a
fixed shape, and keeps every output for a check made after the timed loop.
A round starts with an empty bipartition cache, as a fresh ``cvwl`` process
does, so every round costs the same whichever round it is; new rounds draw
new values (gains, squeezing, loss modes) with the same sizes.

- ``reproduce``: the nine ``cvwl reproduce`` targets through
  ``cvwl.cli.main``.  Item: one CSV row; call: one target.  Dominated by
  cold gain optimization (grid plus Nelder-Mead); every state has N <= 7.
- ``loss_sweep``: 50-point ``sweep()`` calls with seeded r and loss modes.
  Item: one sweep point; call: one sweep.  Every point rebuilds and
  validates the state; warm starts refine from the previous optimum.
- ``large_n``: C8 witnesses at N = 12..17 plus cold c8 gain searches at
  N = 6..7.  Item and call: one public call.  Dominated by the
  bipartition bound, which also sets the peak memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

import cvwl
import cvwl.cli

import checks

REF_DIR = Path(__file__).resolve().parent / "ref"
DEFAULT_SEED = 1
PERTURB = 1.0 + 1e-4  # scale applied to one output by --perturb


def percentile(values, q: int) -> float:
    """The q-th percentile (q = 50 or 90) by statistics.quantiles; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def clear_bipartition_cache():
    """Empty the enumeration's lru_cache, looking through a tracing wrapper."""
    fn = cvwl.partitions.enumerate_bipartitions
    while fn is not None and not hasattr(fn, "cache_clear"):
        fn = getattr(fn, "__wrapped__", None)
    if fn is not None:
        fn.cache_clear()


@dataclasses.dataclass
class Call:
    """One timed public call: its input, output (or exception) and size."""

    spec: dict
    seconds: float
    items: int
    output: object = None
    error: str | None = None
    state: object = None  # the input state, where the check needs it


def timed(spec, items, fn, *args, **kwargs) -> Call:
    start = time.perf_counter()
    try:
        output = fn(*args, **kwargs)
    except Exception as exc:  # a failed call counts in fail_frac
        return Call(spec, time.perf_counter() - start, 0, error=repr(exc))
    return Call(spec, time.perf_counter() - start, items, output)


class Reproduce:
    TARGETS = ("table1", "table2", "table3", "table4", "fig4", "fig5", "fig10", "fig11", "fig12")

    def __init__(self, seed: int):
        self.references = {t: (REF_DIR / "reproduce" / f"{t}.csv").read_text()
                            for t in self.TARGETS}

    def run_round(self, calls: list):
        clear_bipartition_cache()
        for target in self.TARGETS:
            calls.append(timed({"target": target}, 0, self._reproduce, target))
            if calls[-1].error is None:
                calls[-1].items = calls[-1].output.count("\n") - 1

    @staticmethod
    def _reproduce(target):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cvwl.cli.main(["reproduce", target])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return buf.getvalue()

    def perturb(self, call: Call):
        lines = call.output.splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[-1] = f"{float(cells[-1]) * PERTURB:.6g}\n"
        lines[1] = ",".join(cells)
        call.output = "".join(lines)

    def check(self, call: Call, position) -> list:
        return checks.csv_mismatches(call.output, self.references[call.spec["target"]])


ETA_GRID = tuple(float(v) for v in np.linspace(1.0, 0.05, 50))


class LossSweep:
    """Per round: warm eta sweeps of c5 (entanglement and steering), c6, c1
    and c10, one warm r sweep, cold eta sweeps of c5 (once) and c10
    (twice), and eleven fixed-gain c8 eta sweeps at N = 6: 20 calls.

    Each sweep belongs to a fixed stratum (state, criterion, squeezing,
    lossy-mode pattern); the seed jitters r by up to R_JITTER and picks the
    lossy modes among modes the tied gains treat alike, so that every seed
    asks for about the same work.  The group sizes place the percentiles
    inside groups of like calls whatever the number of rounds: the median
    among the eleven fixed-gain sweeps, the 90th percentile among the two
    cold c10 sweeps (slower than every warm sweep, faster than the cold c5).
    """

    REFERENCE = REF_DIR / f"loss_sweep_seed{DEFAULT_SEED}.json"
    R_JITTER = 0.02
    # builder, n, criterion, extra sweep() arguments, r, lossy modes always,
    # interchangeable modes, how many of those are lossy
    STRATA = (
        ("ghz", 3, "c5", {}, 1.2, (0,), (1, 2), 1),
        ("epr1", 3, "c5", {"objective": "steering"}, 1.0, (), (1, 2), 1),
        ("ghz", 3, "c6", {}, 0.8, (), (1, 2), 1),
        ("epr1", 3, "c1", {}, 1.0, (0,), (), 0),
        ("epr2", 4, "c10", {}, 1.0, (0,), (1, 2), 1),
        ("epr1", 3, "c5", {"warm_start": False}, 1.0, (), (1, 2), 1),
        ("epr2", 4, "c10", {"warm_start": False}, 1.0, (0,), (1, 2), 1),
        ("epr2", 4, "c10", {"warm_start": False}, 1.0, (0,), (1, 2), 1),
    )
    FIXED_GAIN_SWEEPS = 11

    def __init__(self, seed: int, use_reference: bool = True):
        self.rng = np.random.default_rng(seed)
        self.next_round = self._draw_round()
        self.reference = None
        if use_reference and seed == DEFAULT_SEED:
            self.reference = json.loads(self.REFERENCE.read_text())

    def _r(self, center):
        return round(center + float(self.rng.uniform(-self.R_JITTER, self.R_JITTER)), 6)

    def _modes(self, always, pool, k):
        picked = self.rng.choice(pool, size=k, replace=False) if k else ()
        return tuple(sorted(always + tuple(int(m) for m in picked)))

    def _draw_round(self):
        specs = [dict(builder=b, n=n, criterion=c, r=self._r(r), eta_values=ETA_GRID,
                      loss_modes=self._modes(always, pool, k), **extra)
                 for b, n, c, extra, r, always, pool, k in self.STRATA]
        specs.append(dict(builder="ghz", n=3, criterion="c5", r_values=tuple(
            float(v) for v in np.linspace(self._r(0.1), self._r(2.0), 50))))
        for i in range(self.FIXED_GAIN_SWEEPS):
            specs.append(dict(builder=("ghz", "epr1", "epr2")[i % 3], n=6, criterion="c8",
                              r=self._r(1.0), eta_values=ETA_GRID,
                              loss_modes=self._modes((), (1, 2, 3, 4, 5), 2), optimize=False,
                              tied_gains=(round(float(self.rng.uniform(0.5, 1.0)), 6),
                                          round(float(self.rng.uniform(-0.6, -0.1)), 6))))
        return specs

    def run_round(self, calls: list):
        clear_bipartition_cache()
        specs, self.next_round = self.next_round, None
        for spec in specs:
            kwargs = {k: v for k, v in spec.items() if k != "tied_gains"}
            if "tied_gains" in spec:
                kwargs["gains"] = cvwl.GainStructure("tied", spec["n"]).expand(spec["tied_gains"])
            points = len(spec.get("eta_values") or spec["r_values"])
            calls.append(timed(spec, points, cvwl.optimizer.sweep, **kwargs))
        self.next_round = self._draw_round()

    def perturb(self, call: Call):
        row = call.output[0]
        report = dataclasses.replace(row.report, ent_bound=row.report.ent_bound * PERTURB)
        call.output[0] = dataclasses.replace(row, report=report)

    def _state(self, spec, value):
        if "r_values" in spec:
            return cvwl.build_state(spec["builder"], spec["n"], value)
        state = cvwl.build_state(spec["builder"], spec["n"], spec["r"])
        for mode in spec["loss_modes"]:
            state = cvwl.apply_loss(state, mode, value)
        return state

    @staticmethod
    def objective(spec, report):
        """The value a row is compared on: the minimized ratio, or the raw
        lhs and bound when the gains were fixed inputs."""
        if spec.get("optimize", True) is False:
            return [report.lhs, report.ent_bound]
        if spec.get("objective") == "steering":
            return [report.steer_ratio]
        return [report.ent_ratio]

    def check(self, call: Call, position) -> list:
        spec, rows = call.spec, call.output
        values = spec.get("eta_values") or spec["r_values"]
        if [row.param for row in rows] != list(values):
            return ["sweep returned other parameter values"]
        bad = []
        for i, row in enumerate(rows):
            cov = cvwl.second_moments(self._state(spec, row.param))
            if not checks.report_matches(row.report, checks.expected_report(
                    cov, spec["criterion"], row.gains)):
                bad.append(f"point {i}: lhs/bound differ from the gains' values")
        round_index, index = position
        if self.reference is not None and round_index == 0:
            want = self.reference[index]
            if json.loads(json.dumps(spec)) != want["spec"]:
                return bad + ["inputs differ from the reference's"]
            for i, (row, ref) in enumerate(zip(rows, want["rows"])):
                got = self.objective(spec, row.report)
                if not all(checks.close(a, b, checks.RATIO_REL) for a, b in zip(got, ref)):
                    bad.append(f"point {i}: {got} != reference {ref}")
        return bad


class LargeN:
    """Per round: 103 calls, each first call per N paying the cold
    bipartition enumeration.

    The call sizes and their order are fixed, since the order decides which
    cached enumerations are alive when a grid search peaks in memory; the
    seed draws the state family, r and the gains.  The counts put the
    median call among the N = 13 witnesses and the 90th percentile among
    the N = 15 ones.
    """

    EVALUATE = {12: 44, 13: 34, 14: 12, 15: 6, 16: 3, 17: 1}
    OPTIMIZE = {6: 2, 7: 1}
    COARSE_STEP = 0.1  # a subset of the optimizer's 0.01 grid

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        plan = [("evaluate", n) for n, k in self.EVALUATE.items() for _ in range(k)]
        plan += [("optimize", n) for n, k in self.OPTIMIZE.items() for _ in range(k)]
        self.plan = [plan[i] for i in np.random.default_rng(0).permutation(len(plan))]
        self.next_round = self._draw_round()

    def _draw_round(self):
        rng = self.rng
        specs = []
        for kind, n in self.plan:
            spec = dict(kind=kind, n=n, builder=str(rng.choice(["ghz", "epr1", "epr2"])),
                        r=round(float(rng.uniform(0.3, 1.5)), 6))
            if kind == "evaluate":
                spec["tied_gains"] = (round(float(rng.uniform(-1.5, 1.5)), 6),
                                      round(float(rng.uniform(-1.5, 1.5)), 6))
            specs.append(spec)
        return specs

    def run_round(self, calls: list):
        clear_bipartition_cache()
        specs, self.next_round = self.next_round, None
        for spec in specs:
            state = cvwl.build_state(spec["builder"], spec["n"], spec["r"])
            if spec["kind"] == "evaluate":
                gains = cvwl.GainStructure("tied", spec["n"]).expand(spec["tied_gains"])
                call = timed(spec, 1, cvwl.witnesses.evaluate, state, "c8", gains)
            else:
                call = timed(spec, 1, cvwl.optimizer.optimize_gains, state, "c8")
            call.state = state
            calls.append(call)
        self.next_round = self._draw_round()

    def perturb(self, call: Call):
        report = call.output if call.spec["kind"] == "evaluate" else call.output.report
        report = dataclasses.replace(report, ent_bound=report.ent_bound * PERTURB)
        if call.spec["kind"] == "evaluate":
            call.output = report
        else:
            call.output = dataclasses.replace(call.output, report=report)

    def check(self, call: Call, position) -> list:
        cov = call.state.cov
        if call.spec["kind"] == "evaluate":
            gains = cvwl.GainStructure("tied", call.spec["n"]).expand(call.spec["tied_gains"])
            report = call.output
        else:
            gains, report = call.output.gains, call.output.report
        expected = checks.expected_report(cov, "c8", gains)
        if not checks.report_matches(report, expected):
            return [f"report {report.lhs}, {report.ent_bound} != expected {expected[:2]}"]
        if call.spec["kind"] == "optimize":
            ratio = call.output.ratio
            if not checks.close(ratio, report.ent_ratio, 1e-9):
                return [f"ratio {ratio} != report's {report.ent_ratio}"]
            floor = self._coarse_minimum(cov)
            if ratio > floor * (1.0 + 1e-9):
                return [f"ratio {ratio} above the coarse-grid minimum {floor}"]
        return []

    def _coarse_minimum(self, cov):
        """Smallest c8 ratio over tied gains (g, h) on a 0.1 grid in [-2, 2]^2."""
        n = cov.shape[0] // 2
        axis = np.linspace(-2.0, 2.0, int(round(4.0 / self.COARSE_STEP)) + 1)
        g, h = (v.ravel() for v in np.meshgrid(axis, axis, indexing="ij"))
        hv = np.ones((g.size, n))
        gv = np.ones((g.size, n))
        hv[:, 1:] = h[:, None]
        gv[:, 1:] = g[:, None]
        lhs = (np.einsum("bi,ij,bj->b", hv, cov[:n, :n], hv)
               + np.einsum("bi,ij,bj->b", gv, cov[n:, n:], gv))
        return float(np.min(lhs / checks.subset_sum_bounds(hv * gv)))


WORKLOADS = {"reproduce": Reproduce, "loss_sweep": LossSweep, "large_n": LargeN}


def measure(workload, seconds: float):
    """Run whole rounds until `seconds` have passed.

    Returns (calls, rounds, elapsed_s); rounds holds each round's slice of
    `calls`.
    """
    calls, rounds = [], []
    start = time.perf_counter()
    while True:
        first = len(calls)
        workload.run_round(calls)
        rounds.append((first, len(calls)))
        if time.perf_counter() - start >= seconds:
            break
    return calls, rounds, time.perf_counter() - start


def check(workload, calls, rounds, perturb: bool = False):
    """Check every output; returns (spec, problems) for each call that
    raised or failed its check.  With `perturb`, one output is first
    scaled by PERTURB, which the check must catch."""
    if perturb:
        workload.perturb(next(c for c in calls if c.error is None))
    failures = []
    for round_index, (lo, hi) in enumerate(rounds):
        for index, call in enumerate(calls[lo:hi]):
            problems = [call.error] if call.error else workload.check(call, (round_index, index))
            if problems:
                failures.append((call.spec, problems[:3]))
    return failures
