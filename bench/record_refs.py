"""Rewrite the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/record_refs.py

Records the nine ``cvwl reproduce`` CSVs and, for the default seed, the
first round of ``loss_sweep``: each sweep's inputs and, per point, the
value the check compares (see ``LossSweep.objective``).  Run it only on a
commit whose outputs are known to be right.
"""

from __future__ import annotations

import json

import workloads


def main():
    out = workloads.REF_DIR / "reproduce"
    out.mkdir(parents=True, exist_ok=True)
    for target in workloads.Reproduce.TARGETS:
        (out / f"{target}.csv").write_text(workloads.Reproduce._reproduce(target))

    sweep = workloads.LossSweep(workloads.DEFAULT_SEED, use_reference=False)
    calls = []
    sweep.run_round(calls)
    records = []
    for call in calls:
        if call.error is not None:
            raise SystemExit(f"sweep {call.spec} failed: {call.error}")
        records.append({"spec": json.loads(json.dumps(call.spec)),
                        "rows": [sweep.objective(call.spec, row.report) for row in call.output]})
    sweep.REFERENCE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    main()
