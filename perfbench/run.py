"""Benchmark of the mhskernel CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload dpmd --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``.
With ``--trace 0`` a fresh process runs the workload's ops in a closed
loop (one caller; each op starts when the previous one returns) for
``--seconds``, and the end-to-end metrics are printed.  With ``--trace 1``
the same seeded inputs run twice, each for half the time: untraced, then
traced from outside the program (``tracing.py``); the per-layer metrics come
from the traced half, and ``trace.overhead_share`` compares the two halves
on the inputs both finished.  Every op's output is checked afterwards
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name each metric with its unit, and the full run record (inputs, op times,
failures, machine) is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, make_input  # noqa: E402

SETUP_PROBES = 5
WORKER_GRACE_S = 60.0  # beyond --seconds: the last op, writing results
# Fixed tail percentile per workload: at the seed code's speed each run has
# at least ten reduce ops beyond it.
TAIL_Q = {"dpmd": 0.8, "lp-loop": 0.9, "screen": 0.85}
END_TO_END = {
    "setup_s": "s",
    "reduce_p50_s": "s",
    "reduce_tail_s": "s",
    "reduce_size_per_s": "size/s",
    "per_input_p50_s": "s",
    "kernel_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def highest_tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value) of the highest nearest-rank percentile with at
    least ten samples beyond it; (None, None) below eleven samples."""
    if len(values) < 11:
        return None, None
    ordered = sorted(values)
    k = len(ordered) - 11
    return (k + 1) / len(ordered), ordered[k]


def _worker(args, directory: Path, seconds: float, trace: int, setup_only: bool = False) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", str(args.scale), "--dir", str(directory)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=seconds + WORKER_GRACE_S)


def measure_setup(args, work: Path) -> list[float]:
    """Wall time from spawning a fresh process to its first op being ready:
    interpreter start, ``import mhskernel`` and writing the first inputs."""
    samples = []
    for k in range(SETUP_PROBES):
        directory = work / f"probe{k}"
        started = time.perf_counter()
        proc = _worker(args, directory, 0.0, 0, setup_only=True)
        samples.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
        shutil.rmtree(directory)
    return samples


def run_workload(args, directory: Path, seconds: float, trace: int) -> dict:
    proc = _worker(args, directory, seconds, trace)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr[-2000:]}")
    return json.loads((directory / "result.json").read_text(encoding="utf-8"))


def check_run(args, directory: Path, result: dict) -> tuple[list[dict], list[dict]]:
    """Attach a failure reason to every op record; return (ops, inputs)."""
    from checks import Checker

    checker = Checker(directory, args.workload)
    by_input: dict[int, dict] = {}
    for record in result["ops"]:
        by_input.setdefault(record["input"], {})[record["op"]] = record
    inputs = []
    for index, records in sorted(by_input.items()):
        inp = make_input(args.workload, args.seed, index, args.scale)
        reasons, meta = checker.check_input(inp, records)
        for name, record in records.items():
            record["failure"] = reasons.get(name, "not checked")
        inputs.append(meta)
    return result["ops"], inputs


def end_to_end(workload: str, ops: list[dict], setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics and the extra figures of the run record."""
    kinds: dict[str, list[float]] = {}
    per_input: dict[int, float] = {}
    for r in ops:
        kinds.setdefault(r["kind"], []).append(r["seconds"])
        per_input[r["input"]] = per_input.get(r["input"], 0.0) + r["seconds"]
    reduces = [r for r in ops if r["kind"] == "reduce"]
    reports = [r["report"] for r in reduces if "report" in r]
    reduce_s = kinds["reduce"]
    q = TAIL_Q[workload]
    metrics = {
        "setup_s": statistics.median(setup),
        "reduce_p50_s": statistics.median(reduce_s),
        "reduce_tail_s": quantile(reduce_s, q),
        "reduce_size_per_s": sum(rep["size_before"] for rep in reports) / sum(r["seconds"] for r in reduces if "report" in r),
        "per_input_p50_s": statistics.median(per_input.values()),
        "kernel_ratio": sum(rep["size_after"] for rep in reports) / sum(rep["size_before"] for rep in reports),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "reduce_tail": {"percentile": q, "samples": len(reduce_s),
                        "beyond": sum(1 for s in reduce_s if s > metrics["reduce_tail_s"])},
        "setup_samples_s": setup,
        "fail_share": sum(1 for r in ops if r["failure"]) / len(ops),
    }
    for kind, values in sorted(kinds.items()):
        if kind == "reduce":
            continue  # the metrics above
        pct, value = highest_tail(values)
        extra[f"{kind}_p50_s"] = statistics.median(values)
        if value is not None:
            extra[f"{kind}_tail_s"] = value
        extra[f"{kind}_tail"] = {"percentile": pct, "samples": len(values)}
    # Time to optimum: the ops taking a raw input file to its solved kernel.
    to_opt: dict[int, float] = {}
    solved = {r["input"] for r in ops if r["kind"] == "solve"}
    for r in ops:
        if r["input"] in solved and r["op"] in ("ingest", "reduce-seq", "reduce-fe", "solve"):
            to_opt[r["input"]] = to_opt.get(r["input"], 0.0) + r["seconds"]
    if to_opt:
        extra["time_to_opt_p50_s"] = statistics.median(to_opt.values())
    return metrics, extra


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # the benchmark may run from an exported tree
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": _commit()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (the smoke test uses a small one)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mhskernel" / "__init__.py").is_file():
        print(f"error: no mhskernel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = STATE / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            half = args.seconds / 2
            plain = run_workload(args, work / "untraced", half, 0)
            traced = run_workload(args, work / "traced", half, 1)
            ops = check_run(args, work / "untraced", plain)[0]
            traced_ops, inputs = check_run(args, work / "traced", traced)
            common = min(plain["inputs"], traced["inputs"])
            base = sum(r["seconds"] for r in ops if r["input"] < common)
            with_trace = sum(r["seconds"] for r in traced_ops if r["input"] < common)
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead_share"] = with_trace / base - 1.0
            ops = ops + traced_ops
            extra = {"spans": traced["spans"], "overhead_inputs": common,
                     "fail_share": sum(1 for r in ops if r["failure"]) / len(ops)}
            shutil.copy(work / "traced" / "spans.jsonl", results / f"{args.workload}-spans.jsonl")
            from tracing import per_layer_units

            units = per_layer_units()
        else:
            setup = measure_setup(args, work)
            result = run_workload(args, work / "run", args.seconds, 0)
            ops, inputs = check_run(args, work / "run", result)
            metrics, extra = end_to_end(args.workload, ops, setup, result["peak_rss_mb"])
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in ops if r["failure"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "machine": machine(), "metrics": metrics, "extra": extra, "inputs": inputs,
        "failures": [{k: r[k] for k in ("input", "op", "failure")} for r in failed],
        "ops": [{k: r[k] for k in ("input", "op", "kind", "seconds", "rc")} for r in ops],
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            unit = "share" if name.endswith("share") else "s" if name.endswith("_s") else "count"
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        else:
            print(f"{args.workload} {name}: {json.dumps(value)}")
    for r in failed:
        print(f"FAILED input {r['input']} {r['op']}: {r['failure']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
