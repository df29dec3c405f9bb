"""Output checks of a finished workload process, run after the timed loop.

An op fails when it timed out, raised, exited nonzero, or its output is
wrong.  The reference optimum comes from ``scipy.optimize.milp`` (HiGHS),
which shares no code with the solver under test:

* every reduced file re-parses, and its n, m and size match the report;
* every reduce op keeps the optimum: ``opt(raw) = opt(kernel) + budget_delta``;
* on dpmd, the seq and par engines write byte-identical reduced files;
* every solve op is optimal, passes ``verify_solution`` and matches milp;
* every stats op reports the true size and maximum matching (the matching
  from ``scipy.sparse.csgraph``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from mhskernel import instance_size, parse_instance, verify_solution

MILP_TIME_LIMIT_S = 30.0


class CheckError(Exception):
    pass


def _incidence(h) -> csr_array:
    rows = [i for i, members in enumerate(h.edges) for _ in members]
    cols = [v - 1 for members in h.edges for v in members]
    return csr_array((np.ones(len(rows)), (rows, cols)), shape=(h.m, h.n))


def milp_optimum(h) -> int:
    """Minimum multiple hitting set size of ``h`` by integer programming."""
    if h.m == 0:
        return 0
    result = milp(
        np.ones(h.n),
        constraints=LinearConstraint(_incidence(h), lb=np.array(h.demand, dtype=float), ub=np.inf),
        integrality=np.ones(h.n),
        bounds=Bounds(0, 1),
        options={"time_limit": MILP_TIME_LIMIT_S},
    )
    if result.status != 0:
        raise CheckError(f"milp reference did not prove an optimum: {result.message}")
    return int(round(result.fun))


def check_optimum(opt_raw: int, opt_kernel: int, budget_delta: int) -> None:
    """Raise unless the kernel keeps the optimum of the raw instance."""
    if opt_kernel + budget_delta != opt_raw:
        raise CheckError(f"optimum not preserved: opt(raw)={opt_raw}, opt(kernel)={opt_kernel}, "
                         f"budget_delta={budget_delta}")


def _matching(h) -> int:
    if h.m == 0 or h.n == 0:
        return 0
    match = maximum_bipartite_matching(_incidence(h), perm_type="column")
    return int((match >= 0).sum())


class Checker:
    """Checks the ops of one run directory; caches parses and optima."""

    def __init__(self, directory: Path, workload: str):
        self.dir = directory
        self.workload = workload
        self._parsed: dict[str, object] = {}
        self._opt: dict[str, int] = {}

    def _instance(self, name: str):
        if name not in self._parsed:
            path = self.dir / name
            if not path.is_file():
                raise CheckError(f"missing output file {name}")
            self._parsed[name] = parse_instance(path.read_text(encoding="utf-8"))
        return self._parsed[name]

    def _optimum(self, name: str) -> int:
        if name not in self._opt:
            self._opt[name] = milp_optimum(self._instance(name))
        return self._opt[name]

    def check_input(self, inp, records: dict) -> tuple[dict, dict]:
        """Failure reason per op name (``None`` when it passed) and the
        input's metadata."""
        reasons = {}
        for op in inp.ops:
            record = records.get(op.name)
            if record is None:
                continue
            try:
                if record["error"]:
                    raise CheckError(record["error"])
                getattr(self, f"_check_{op.kind}")(inp, op, record)
                reasons[op.name] = None
            except CheckError as exc:
                reasons[op.name] = str(exc)
            except (ValueError, OSError, KeyError) as exc:  # unparsable output
                reasons[op.name] = f"{type(exc).__name__}: {exc}"
        if self.workload == "dpmd" and reasons.get("reduce-seq") is None and reasons.get("reduce-par") is None:
            seq = (self.dir / inp.reports["reduce-seq"]["kernel"]).read_bytes()
            par = (self.dir / inp.reports["reduce-par"]["kernel"]).read_bytes()
            if seq != par:
                reasons["reduce-par"] = "seq and par engines wrote different reduced files"
        return reasons, self._metadata(inp)

    def _metadata(self, inp) -> dict:
        meta = {"index": inp.index, "family": inp.family}
        if inp.raw in self._parsed:
            h = self._parsed[inp.raw]
            meta.update(n=h.n, m=h.m, alpha=h.alpha, size=instance_size(h))
        kernels = [self._parsed[f["kernel"]] for f in inp.reports.values() if f["kernel"] in self._parsed]
        if kernels:
            meta["kernel_size"] = instance_size(kernels[0])
        return meta

    def _check_ingest(self, inp, op, record) -> None:
        self._instance(inp.raw)

    def _check_reduce(self, inp, op, record) -> None:
        files = inp.reports[op.name]
        report = json.loads((self.dir / files["report"]).read_text(encoding="utf-8"))
        record["report"] = report
        raw = self._instance(inp.raw)
        kernel = self._instance(files["kernel"])
        if (report["n_before"], report["m_before"], report["size_before"]) != (raw.n, raw.m, instance_size(raw)):
            raise CheckError("report's before-sizes do not match the input")
        if (report["n_after"], report["m_after"], report["size_after"]) != (kernel.n, kernel.m, instance_size(kernel)):
            raise CheckError("report's after-sizes do not match the reduced file")
        if report["infeasible"]:
            raise CheckError("feasible input reported infeasible")
        check_optimum(self._optimum(inp.raw), self._optimum(files["kernel"]), report["budget_delta"])

    def _check_solve(self, inp, op, record) -> None:
        kernel_name = op.argv[op.argv.index("-i") + 1]
        kernel = self._instance(kernel_name)
        out = json.loads(record["stdout"])
        if out["status"] != "optimal":
            raise CheckError(f"solve ended with status {out['status']}")
        if not verify_solution(kernel, out["chosen"]) or out["cardinality"] != len(out["chosen"]):
            raise CheckError("solution does not meet every demand")
        expected = self._optimum(kernel_name)
        if out["cardinality"] != expected:
            raise CheckError(f"solve found {out['cardinality']}, milp optimum is {expected}")

    def _check_stats(self, inp, op, record) -> None:
        h = self._instance(inp.raw)
        out = json.loads(record["stdout"])
        if set(out) != {"dilworth", "diversity", "matching", "size"}:
            raise CheckError(f"stats printed keys {sorted(out)}")
        if out["size"] != instance_size(h):
            raise CheckError("stats size is wrong")
        if out["matching"] != _matching(h):
            raise CheckError(f"stats matching {out['matching']}, scipy finds {_matching(h)}")
