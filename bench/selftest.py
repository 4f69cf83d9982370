"""Self-test of the output checks: scale one output of a one-round run of
each workload by 1 + 1e-4 and confirm that the check counts a failure.

    python3 bench/selftest.py

Exits 0 when every workload reports pass_frac < 1 under the perturbation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reproduce", "loss_sweep", "large_n")


def main() -> int:
    caught = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "1",
             "--perturb"], cwd=HERE.parent, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"{workload}: benchmark exited {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        fail_frac = result["failed"] / result["attempted"]
        ok = fail_frac > 0 and not result["correct"]
        caught &= ok
        print(f"{workload}: fail_frac {fail_frac:.4g} with one perturbed output "
              f"({'caught' if ok else 'NOT caught'})")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
