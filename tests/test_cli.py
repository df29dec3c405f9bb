import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mhskernel
from mhskernel import parse_instance
from mhskernel.cli import main

from conftest import CE_TEXT


def run_python(*args):
    """Run the interpreter in a child process that imports the package under test."""
    src = str(Path(mhskernel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture
def ce_file(tmp_path):
    path = tmp_path / "ce.mhs"
    path.write_text(CE_TEXT)
    return str(path)


def test_gen_reduce_solve_roundtrip(tmp_path, capsys):
    instance = tmp_path / "random.mhs"
    assert main(["gen", "--n", "12", "--m", "9", "--p", "0.4", "--alpha", "2",
                 "--seed", "7", "-o", str(instance)]) == 0
    reduced = tmp_path / "reduced.mhs"
    report = tmp_path / "report.json"
    code = main(["reduce", "-i", str(instance), "-o", str(reduced),
                 "--rules", "dp,md", "--engine", "par", "--loop", "--workers", "4",
                 "--report", str(report), "--bounds"])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["n_after"] + payload["m_after"] <= payload["bound_2_alpha_nabla"]
    assert payload["rounds"] <= payload["matching_bound"] + 1
    parse_instance(reduced.read_text())  # output is well-formed

    assert main(["solve", "-i", str(instance)]) == 0
    before = json.loads(capsys.readouterr().out)
    assert main(["solve", "-i", str(reduced)]) == 0
    after = json.loads(capsys.readouterr().out)
    assert before["cardinality"] == after["cardinality"] + payload["budget_delta"]


def test_reduce_report_to_stdout(ce_file, capsys):
    assert main(["reduce", "-i", ce_file, "--rules", "fe,dp,md", "--loop"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget_delta"] == 3
    assert payload["n_after"] == 0


def test_solve_ce(ce_file, capsys):
    assert main(["solve", "-i", ce_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "status": "optimal",
        "cardinality": 3,
        "chosen": [1, 2, 3],
        "within_budget": None,
    }


def test_solve_node_limit_exit_code(tmp_path, capsys):
    instance = tmp_path / "big.mhs"
    assert main(["gen", "--n", "14", "--m", "12", "--p", "0.5", "--alpha", "3",
                 "--seed", "3", "-o", str(instance)]) == 0
    capsys.readouterr()
    assert main(["solve", "-i", str(instance), "--node-limit", "1"]) == 3
    capsys.readouterr()
    assert main(["solve", "-i", str(instance), "--node-limit", "-5"]) == 2
    assert "node limit" in capsys.readouterr().err


def test_solve_deeper_than_recursion_limit(tmp_path, capsys):
    # A path {i, i+1}: the search's first dive alone takes about length / 2
    # vertices, one per level, far deeper than the interpreter's recursion limit.
    length = 2 * sys.getrecursionlimit() + 100
    lines = [f"p mhs {length} {length - 1}"]
    lines += [f"e 1 {i} {i + 1}" for i in range(1, length)]
    path = tmp_path / "chain.mhs"
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", "-i", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    assert payload["cardinality"] == length // 2


def test_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.mhs"
    path.write_text("p mhs 1 1\ne 2 1\n")
    assert main(["solve", "-i", str(path)]) == 1
    capsys.readouterr()
    assert main(["reduce", "-i", str(path), "--rules", "dp,md"]) == 1


def test_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.mhs"
    path.write_text("p mhs 2 1\ne 0 1\n")
    assert main(["solve", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert main(["solve", "-i", str(tmp_path / "missing.mhs")]) == 2


@pytest.mark.parametrize("command", ["reduce", "solve"])
def test_vertex_count_beyond_any_index_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "huge.mhs"
    path.write_text("p mhs 18446744073709551616 0\n")
    assert main([command, "-i", str(path)]) == 2
    assert f"line 1: vertex count must be at most {sys.maxsize}" in capsys.readouterr().err


def test_stats_command(ce_file, capsys):
    assert main(["stats", "-i", ce_file, "--matching", "--size"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"matching": 3, "size": 13}
    assert main(["stats", "-i", ce_file]) == 0  # default: everything
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"dilworth", "diversity", "matching", "size"}


def test_ingest_command(tmp_path, capsys):
    csv = tmp_path / "responses.csv"
    csv.write_text("0,0,0,0,0,0,0,0,0,100\n1,1,1,1\n")
    out = tmp_path / "ingested.mhs"
    code = main(["ingest", "--csv", str(csv), "--sigmas", "2", "--alpha", "2", "-o", str(out)])
    assert code == 2  # ragged rows are an input error
    csv.write_text("0,0,0,0,0,0,0,0,0,100\n")
    assert main(["ingest", "--csv", str(csv), "--sigmas", "2", "--alpha", "2", "-o", str(out)]) == 0
    h = parse_instance(out.read_text())
    assert h.edges == ((10,),)


def test_ingest_rejects_non_finite_cells(tmp_path, capsys):
    csv = tmp_path / "responses.csv"
    csv.write_text("1,2,3,4,50\n1,nan,3,4,50\n")
    out = tmp_path / "ingested.mhs"
    assert main(["ingest", "--csv", str(csv), "-o", str(out)]) == 2
    assert "row 2, column 2" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_rejects_overflowing_cells(tmp_path, capsys):
    csv = tmp_path / "responses.csv"
    csv.write_text("1e200,0,1\n1,2,3\n")
    out = tmp_path / "ingested.mhs"
    assert main(["ingest", "--csv", str(csv), "-o", str(out)]) == 2
    assert "row 1: the spread of its cells overflows a float" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigmas", ["nan", "inf", "-inf"])
def test_ingest_rejects_non_finite_sigmas(tmp_path, capsys, sigmas):
    csv = tmp_path / "responses.csv"
    csv.write_text("1,2,3,4,50\n")
    out = tmp_path / "ingested.mhs"
    assert main(["ingest", "--csv", str(csv), f"--sigmas={sigmas}", "-o", str(out)]) == 2
    assert f"sigmas must be finite, got {float(sigmas)}" in capsys.readouterr().err
    assert not out.exists()


def test_reduce_rejects_non_positive_workers(ce_file, capsys):
    assert main(["reduce", "-i", ce_file, "--workers", "0"]) == 2
    assert "worker count must be positive" in capsys.readouterr().err


def test_parser_keeps_no_state_between_calls(ce_file, capsys):
    # main reuses one parser; a flag given in one call must not leak into the next.
    assert main(["stats", "-i", ce_file, "--dilworth"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["dilworth"]
    assert main(["stats", "-i", ce_file]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    assert main(["reduce", "-i", ce_file, "--bounds"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["bound_2_alpha_nabla"] is not None and first["matching_bound"] is not None
    assert main(["reduce", "-i", ce_file]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["bound_2_alpha_nabla"] is None and second["matching_bound"] is None


def test_module_entry_point(ce_file):
    result = run_python("-m", "mhskernel", "solve", "-i", ce_file)
    assert result.returncode == 0
    assert json.loads(result.stdout)["cardinality"] == 3


def test_import_stays_numpy_only():
    # scipy roughly doubles import time and peak memory of every CLI run.
    result = run_python("-c", "import mhskernel, sys; assert 'scipy' not in sys.modules")
    assert result.returncode == 0, result.stderr


def test_parameters_stay_numpy_only(ce_file, tmp_path):
    # stats and reduce --bounds compute every graph parameter, the reduce
    # runs apply every rule on both engines, solve runs the exact search and
    # ingest reads its CSV with numpy; none may pull in scipy.
    csv = tmp_path / "responses.csv"
    csv.write_text("0,0,0,0,0,0,0,0,0,100\n1,2,3,4,5,6,7,8,9,10\n")
    out = str(tmp_path / "ingested.mhs")
    code = (
        "import sys\n"
        "from mhskernel.cli import main\n"
        f"assert main(['ingest', '--csv', {str(csv)!r}, '-o', {out!r}]) == 0\n"
        f"assert main(['solve', '-i', {ce_file!r}]) == 0\n"
        f"assert main(['stats', '-i', {ce_file!r}, '--dilworth', '--diversity', '--matching', '--size']) == 0\n"
        f"assert main(['reduce', '-i', {ce_file!r}, '--bounds']) == 0\n"
        f"for engine in ('seq', 'par'):\n"
        f"    assert main(['reduce', '-i', {ce_file!r}, '--rules', 'fe,dp,se,md,lp', '--loop', '--engine', engine]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert '"dilworth": 4' in result.stdout and '"bound_2_alpha_nabla": 16' in result.stdout


def test_matching_on_long_augmenting_path(tmp_path, capsys):
    # The incidence graph is a path on 2n nodes, labelled so that the first
    # layered phase matches the wrong way and the last augmenting path runs
    # through the whole graph, far deeper than the recursion limit.
    n = 1500
    lines = [f"p mhs {n} {n}", f"e 1 1 {n}"]
    lines += [f"e 1 {i} {i + 1}" for i in range(1, n - 1)]
    lines.append(f"e 1 {n - 1}")
    path = tmp_path / "path.mhs"
    path.write_text("\n".join(lines) + "\n")
    assert main(["stats", "-i", str(path), "--matching"]) == 0
    assert json.loads(capsys.readouterr().out) == {"matching": n}
