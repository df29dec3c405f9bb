"""Print every metric of every workload, untraced and traced.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Runs ``run.py`` for each workload with ``--trace 0`` (end-to-end metrics,
plus the op-level figures of the run record: solve, stats and ingest
medians and tails, time to optimum, fail share) and ``--trace 1``
(per-layer metrics and the tracing overhead), and prints each metric by
name with its unit.  Exits nonzero if a run fails or an op fails its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(proc.stderr, file=sys.stderr)
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
