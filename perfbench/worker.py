"""One workload process: write seeded inputs, then run ops in a closed loop.

Run by ``run.py``; not meant to be started by hand.  The process imports
mhskernel from the checkout's ``src``, writes the first inputs (the set-up
that ``run.py`` times), then calls ``mhskernel.cli.main(argv)`` for each op
of each input, one op at a time, until ``--seconds`` have passed.  Inputs
not yet written are generated between ops, outside the timed calls.  Each
op has a wall-clock timeout.  With ``--trace 1`` the tracer is installed
before anything else runs.  Results go to ``<dir>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import chain_text, make_input, response_csv  # noqa: E402

SETUP_INPUTS = 3  # inputs written before the first op
OP_TIMEOUT_S = 30.0
HARD_EXTRA_S = 30.0  # the loop never runs longer than --seconds plus this


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _call(cli, argv, timeout):
    """Run one CLI call; returns (seconds, exit code, error, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                rc = cli.main(list(argv))
            finally:
                seconds = time.perf_counter() - started
    except OpTimeout:
        error = f"timeout after {timeout:.1f} s"
    except SystemExit as exc:
        error = f"SystemExit {exc.code}"
    except Exception as exc:  # a crash of the program is a failed op
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if rc not in (0, None) and error is None:
        error = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
    return seconds, rc, error, out.getvalue()


def write_input(cli, inp, directory: Path) -> None:
    """Write the seeded input file of ``inp`` (the program sees only files)."""
    p = inp.params
    target = directory / inp.source
    if inp.family == "chain":
        target.write_text(chain_text(p["length"]), encoding="utf-8")
    elif inp.family == "csv":
        target.write_text(response_csv(p), encoding="utf-8")
    else:
        argv = ["gen", "--n", str(p["n"]), "--m", str(p["n"]), "--p", repr(p["pn"] / p["n"]),
                "--alpha", str(p["alpha"]), "--seed", str(p["gen_seed"]), "-o", str(target)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"gen failed for input {inp.index}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from mhskernel import cli

    def traced(op_id, root="cli.main"):
        return tracer.op(op_id, root) if tracer else contextlib.nullcontext()

    inputs = [make_input(args.workload, args.seed, i, args.scale) for i in range(SETUP_INPUTS)]
    for inp in inputs:
        with traced(f"setup:{inp.index}", "setup"):
            write_input(cli, inp, directory)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    os.chdir(directory)
    records = []
    started = time.perf_counter()
    deadline = started + args.seconds
    hard_deadline = deadline + HARD_EXTRA_S
    index = 0
    while time.perf_counter() < deadline:
        if index >= len(inputs):
            inp = make_input(args.workload, args.seed, index, args.scale)
            with traced(f"setup:{index}", "setup"):
                write_input(cli, inp, Path("."))
            inputs.append(inp)
        inp = inputs[index]
        gc.collect()
        for op in inp.ops:
            timeout = min(OP_TIMEOUT_S, hard_deadline - time.perf_counter())
            with traced(f"{index}:{op.name}"):
                seconds, rc, error, stdout = _call(cli, op.argv, timeout)
            records.append({"input": index, "op": op.name, "kind": op.kind, "seconds": seconds,
                            "rc": rc, "error": error, "stdout": stdout if op.kind in ("solve", "stats") else ""})
        index += 1
    elapsed = time.perf_counter() - started

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "inputs": index,
        "elapsed_s": elapsed,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["per_layer"] = tracer.per_layer(index)
        result["spans"] = len(tracer.spans)
        tracer.write_spans(str(directory / "spans.jsonl"))
    (directory / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
