"""One workload in one process; started by run.py, not meant to be run by hand.

Prints ``ready`` after import and input generation when given
``--setup-only``; otherwise measures, checks, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path

import cvwl.cli  # noqa: F401  (the import every CLI call pays)
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    calls, rounds, elapsed = workloads.measure(workload, args.seconds)
    if tracer is not None:
        tracer.uninstall()
    failures = workloads.check(workload, calls, rounds, args.perturb)

    import numpy
    import scipy

    latencies = [c.seconds * 1e3 for c in calls]
    p90 = workloads.percentile(latencies, 90)
    out = {
        "attempted": len(calls),
        "failed": len(failures),
        "items": sum(c.items for c in calls),
        "elapsed_s": elapsed,
        "rounds": len(rounds),
        "round_items_per_s": [sum(c.items for c in calls[lo:hi]) / sum(c.seconds for c in calls[lo:hi])
                              for lo, hi in rounds],
        "call_p50_ms": workloads.percentile(latencies, 50),
        "call_p90_ms": p90,
        "calls_beyond_p90": sum(v > p90 for v in latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": [{"input": spec, "problems": problems} for spec, problems in failures[:5]],
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        import tracer as tracing

        metrics, samples, by_tag = tracing.layer_metrics(tracer, elapsed)
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        out["layer_samples"] = samples
        out["breakdown"] = by_tag
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(Path(args.spans))
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
