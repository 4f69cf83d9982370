"""Benchmark for cvwl: three seeded workloads, each in its own
single-threaded child process, driven through the public API and
``cvwl.cli.main`` of the checkout's ``src/`` tree.

    python3 bench/run.py --workload reproduce|loss_sweep|large_n|all \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh interpreter
until ``import cvwl.cli`` is done and the inputs are generated; median of
several fresh processes), ``items_per_s``, ``call_p50_ms``, ``call_p90_ms``
(with their sample counts in the provenance line), ``peak_rss_mb`` of the
workload's process and ``pass_frac`` (1 - calls that raised or failed the
output check / calls attempted).  ``--trace 1`` runs the workload once
untraced and once with spans around every public function, and prints the
per-layer metrics, the import times from ``python -X importtime`` and the
tracing overhead.  Spans and full results go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``bench/selftest.py``
checks that a perturbed output is caught; ``bench/record_refs.py`` rewrites
the reference outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("reproduce", "loss_sweep", "large_n")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("CVWL_THREADS", None)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, timeout=CHILD_TIMEOUT_S):
    cmd = [sys.executable, str(HERE / "child.py")] + [str(a) for a in args]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload, seed):
    """Fresh interpreter until the child reports that cvwl.cli is imported
    and the inputs are generated."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe failed ({proc.returncode}):\n{err[-2000:]}")
    return seconds


def import_seconds():
    """Cumulative import time of numpy, scipy and cvwl (outermost imports
    only) from ``python -X importtime -c 'import cvwl.cli'``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cvwl.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import of cvwl.cli failed:\n{proc.stderr[-2000:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, int(cumulative), name.strip()))
    totals = {"numpy": 0, "scipy": 0, "cvwl": 0}
    ancestors = []  # names of the enclosing imports; children print before parents
    for level, cumulative, name in reversed(rows):
        del ancestors[level:]
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for a in ancestors):
            totals[top] += cumulative
        ancestors.append(name)
    return {k: v / 1e6 for k, v in totals.items()}


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace, perturb):
    base = ["--workload", workload, "--seed", seed, "--seconds", seconds]
    extra = ["--perturb"] if perturb else []
    untraced = run_child(base + extra)
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_sha": git_sha(), **untraced["versions"],
        "rounds": untraced["rounds"], "round_items_per_s": untraced["round_items_per_s"],
        "items": untraced["items"],
        "elapsed_s": untraced["elapsed_s"],
        "samples": {"call_p50_ms": untraced["attempted"], "call_p90_ms": untraced["attempted"]},
        "calls_beyond_p90": untraced["calls_beyond_p90"],
        "failures": untraced["failures"],
    }
    result = untraced
    if not trace:
        setups = [setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES)]
        provenance["samples"]["setup_s"] = len(setups)
        provenance["setup_samples_s"] = setups
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (untraced["items"] / untraced["elapsed_s"], "1/s"),
            "call_p50_ms": (untraced["call_p50_ms"], "ms"),
            "call_p90_ms": (untraced["call_p90_ms"], "ms"),
            "peak_rss_mb": (untraced["peak_rss_mb"], "MB"),
            "pass_frac": (1.0 - untraced["failed"] / untraced["attempted"], "ratio"),
        }
    else:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.txt"
        traced = run_child(base + extra + ["--trace", 1, "--spans", spans])
        result = traced
        metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
        imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
        for key in ("numpy", "scipy", "cvwl"):
            metrics[f"cli.import_{key}_s"] = (statistics.median(i[key] for i in imports), "s")
        base_ips = untraced["items"] / untraced["elapsed_s"]
        traced_ips = traced["items"] / traced["elapsed_s"]
        metrics["trace.overhead_frac"] = (1.0 - traced_ips / base_ips, "ratio")
        provenance.update(samples={**provenance["samples"], **traced["layer_samples"],
                                   "cli.import_s": IMPORT_SAMPLES},
                          spans_file=str(spans.relative_to(ROOT)),
                          untraced_items_per_s=base_ips, traced_items_per_s=traced_ips,
                          spans=traced["spans"], breakdown=traced["breakdown"],
                          failures=untraced["failures"] + traced["failures"])
    return result, metrics, provenance


def report(workload, seed, seconds, trace, perturb):
    result, metrics, provenance = measure(workload, seed, seconds, trace, perturb)
    width = max(len(k) for k in metrics)
    print(f"== {workload} (seed {seed}, {seconds} s, trace {trace})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    if trace == 0:
        fail_frac = result["failed"] / result["attempted"]
        print(f"  {'fail_frac':<{width}}  {fail_frac:>14.6g}  ratio")
    print("provenance " + json.dumps(provenance, default=str))
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({**final, "provenance": provenance}, indent=1, default=str))
    return final


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="scale one output by 1 + 1e-4 before checking (check self-test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "cvwl" / "__init__.py").is_file():
        print(f"bench: no cvwl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        finals = {w: report(w, args.seed, args.seconds, args.trace, args.perturb) for w in names}
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(finals[args.workload] if args.workload != "all" else finals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
