"""Run every workload for one seed: first untraced (end-to-end metrics), then
traced (per-layer metrics), one process per run, one run after another.

Usage (from the repository root):  python3 perfbench/all.py --seed 1 [--seconds 32]

Prints each run's metrics by name with their units and exits non-zero if
any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32)
    args = parser.parse_args()
    status = 0
    for trace in (0, 1):
        for workload in WORKLOAD_NAMES:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith("{")))
            if len(lines) >= 2:
                report = json.loads(lines[-2])
                print(f"{workload} properties {json.dumps(report['properties'], sort_keys=True)}")
            if proc.returncode:
                print(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
