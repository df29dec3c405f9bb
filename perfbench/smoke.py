"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at a small input scale and asserts
that each run passes its output checks and emits exactly the end-to-end or
per-layer metrics that ``BENCHMARK.json`` names, with their units.  Then
asserts that a deliberately corrupted reduced file fails the
optimum-preservation check while the real one passes.  Exits nonzero on
the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

SCALE = "0.1"
SECONDS = "2"


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run_workload(workload: str, trace: int, expected: dict[str, str]) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace} failed ops:\n{proc.stderr[-2000:]}")
    expect(result["attempted"] >= 1, "no op attempted")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(units == expected, f"{workload} trace={trace} metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(expected) - set(units))}, extra {sorted(set(units) - set(expected))}, "
                              f"units {[(n, units[n], expected[n]) for n in units if n in expected and units[n] != expected[n]]}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{name} is not a number")
    print(f"ok {workload} trace={trace}: {result['attempted']} ops, {len(units)} metrics")


def corrupted_kernel_is_caught(directory: Path) -> None:
    from checks import CheckError, check_optimum, milp_optimum
    from mhskernel import Hypergraph, cli, generate_random, parse_instance, serialize_instance

    raw_path, kernel_path, report_path = (directory / name for name in ("raw.mhs", "kernel.mhs", "report.json"))
    raw_path.write_text(serialize_instance(generate_random(40, 40, 0.08, 2, 3)))
    rc = cli.main(["reduce", "-i", str(raw_path), "-o", str(kernel_path), "--rules", "fe,dp,md",
                   "--loop", "--report", str(report_path)])
    expect(rc == 0, f"reduce exited {rc}")
    delta = json.loads(report_path.read_text())["budget_delta"]
    opt_raw = milp_optimum(parse_instance(raw_path.read_text()))
    kernel = parse_instance(kernel_path.read_text())
    check_optimum(opt_raw, milp_optimum(kernel), delta)
    # One more vertex with a singleton edge of its own raises the optimum by one.
    corrupted = Hypergraph(kernel.n + 1, kernel.edges + ((kernel.n + 1,),), kernel.demand + (1,))
    kernel_path.write_text(serialize_instance(corrupted))
    try:
        check_optimum(opt_raw, milp_optimum(parse_instance(kernel_path.read_text())), delta)
    except CheckError:
        print("ok corrupted reduced file fails the optimum check")
        return
    raise SmokeFailure("corrupted reduced file passed the optimum check")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    directory = ROOT / ".perfbench" / "smoke"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            run_workload(workload, 0, end_to_end)
            run_workload(workload, 1, per_layer)
        corrupted_kernel_is_caught(directory)
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
