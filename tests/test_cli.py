import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from crkron import cli, kronecker
from crkron.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_g_default(capsys):
    code, out, _ = run_cli(capsys, "g", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1")
    assert code == 0 and out == "1\n"


def test_g_all_methods_agree(capsys):
    for method in ("jt", "faces", "oracle"):
        code, out, _ = run_cli(
            capsys, "g", "--lambda", "2,2", "--mu", "2,1,1", "--nu", "3,1", "--method", method
        )
        assert code == 0 and out == "1\n"


def test_g_json_faces_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "g", "--lambda", "2,2", "--mu", "2,1,1", "--nu", "3,1",
        "--method", "faces", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    for term in payload["terms"]:
        assert set(term) == {"sign", "tau", "tauBar", "countPlus", "countMinus"}


def test_g_json_faces_terms_pinned(capsys):
    code, out, _ = run_cli(
        capsys,
        "g", "--lambda", "4,3,2,1", "--mu", "4,3,2,1", "--nu", "4,3,2,1",
        "--method", "faces", "--json",
    )
    assert code == 0
    assert out == (
        '{"method": "faces", "terms": ['
        '{"countMinus": 92, "countPlus": 1504, "sign": 1, "tau": [2, 1, 4, 3], "tauBar": [3, 0, 4, 3]}, '
        '{"countMinus": 68, "countPlus": 928, "sign": -1, "tau": [4, 1, 4, 1], "tauBar": [5, 0, 4, 1]}, '
        '{"countMinus": 58, "countPlus": 940, "sign": -1, "tau": [2, 1, 5, 2], "tauBar": [3, 0, 5, 2]}, '
        '{"countMinus": 20, "countPlus": 422, "sign": 1, "tau": [6, 1, 2, 1], "tauBar": [7, 0, 2, 1]}, '
        '{"countMinus": 14, "countPlus": 194, "sign": 1, "tau": [4, 1, 5], "tauBar": [5, 0, 5]}, '
        '{"countMinus": 7, "countPlus": 142, "sign": -1, "tau": [6, 1, 3], "tauBar": [7, 0, 3]}'
        '], "value": 117}\n'
    )


def test_g_json_jt_terms_pinned(capsys):
    code, out, err = run_cli(
        capsys, "g", "--lambda", "3,2,1", "--mu", "3,2,1", "--nu", "3,2,1", "--json"
    )
    assert (code, err) == (0, "")
    assert out == (
        '{"method": "jt", "terms": ['
        '{"count": 22, "gamma": [3, 2, 1], "sign": 1}, '
        '{"count": 8, "gamma": [3, 3], "sign": -1}, '
        '{"count": 12, "gamma": [4, 1, 1], "sign": -1}, '
        '{"count": 3, "gamma": [5, 1], "sign": 1}'
        '], "value": 5}\n'
    )


def test_g_json_jt_shortcut_has_no_terms(capsys):
    code, out, err = run_cli(capsys, "g", "--lambda", "3", "--mu", "1,1,1", "--nu", "2,1", "--json")
    assert (code, out, err) == (0, '{"method": "jt", "terms": [], "value": 0}\n', "")


def test_g_faces_json_on_empty_triple(capsys):
    code, out, err = run_cli(
        capsys, "g", "--lambda", "0", "--mu", "0", "--nu", "0", "--method", "faces", "--json"
    )
    assert (code, out, err) == (0, '{"method": "faces", "terms": [], "value": 1}\n', "")


def test_readme_cli_examples(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        lines = [line for line in handle if line.startswith("crkron ")]
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, line
        if comment.strip().startswith("->"):
            assert out == comment.strip()[2:].strip() + "\n", line


def test_broken_invariant_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(kronecker, "cr_count", lambda lam, mu, tau: 0 if len(tau) > 1 else 1)
    code, out, err = run_cli(capsys, "g", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1")
    assert code == 1 and out == ""
    assert err.startswith("internal error: negative coefficient") and err.count("\n") == 1


def test_internal_fault_exits_1_without_traceback(capsys, monkeypatch):
    def fault(args):
        return {}[(1, 2)]

    monkeypatch.setitem(cli._COMMANDS, "dim", fault)
    code, out, err = run_cli(capsys, "dim", "--p", "1", "--q", "1", "--r", "1")
    assert code == 1 and out == ""
    assert err.startswith("internal error: KeyError") and err.count("\n") == 1


def test_lr_methods(capsys):
    for method in ("polytope", "tableaux", "characters"):
        code, out, _ = run_cli(
            capsys, "lr", "--lambda", "2,1", "--mu", "2,1", "--tau", "2,1", "--method", method
        )
        assert code == 0 and out == "2\n"


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--lambda", "3,2", "--mu", "3,2", "--tau", "5")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(
        capsys, "count", "--lambda", "2,1", "--mu", "2,1", "--tau", "2,1", "--transport"
    )
    assert code == 0 and int(out) >= 2


def test_count_json_serializes_system(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--lambda", "2,1", "--mu", "2,1", "--tau", "2,1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["system"]["dims"] == [2, 2, 2]
    assert payload["system"]["columnInequalities"]


def test_points_lines(capsys):
    code, out, _ = run_cli(capsys, "points", "--lambda", "2,1", "--mu", "2,1", "--tau", "2,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        payload = json.loads(line)
        assert payload["dims"] == [2, 2, 2]
        assert "image" not in payload


def test_points_decorated(capsys):
    code, out, _ = run_cli(
        capsys, "points", "--lambda", "2,1", "--mu", "2,1", "--tau", "2,1", "--decorate"
    )
    assert code == 0
    for line in out.strip().splitlines():
        payload = json.loads(line)
        image = payload["image"]
        assert image["P"] == {"shape": [2, 1], "inner": [], "rows": [[1, 1], [2]]}
        assert image["Q"] == {"shape": [2, 1], "inner": [], "rows": [[1, 1], [2]]}
        assert len(image["T"]) == 2 and len(image["S"]) == 2


def test_expand(capsys):
    code, out, _ = run_cli(capsys, "expand", "--nu", "2,1")
    assert code == 0
    assert json.loads(out) == [{"sign": 1, "gamma": [2, 1]}, {"sign": -1, "gamma": [3]}]
    code, out, _ = run_cli(capsys, "expand", "--nu", "2,1", "--pairs")
    assert json.loads(out) == [
        {"sign": 1, "a": 2, "b": 1, "rho": [], "tau": [2, 1], "tauBar": [3, 0]}
    ]


def test_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "--p", "3", "--q", "6", "--r", "3", "--polytope")
    assert code == 0 and out == "26\n"
    code, out, _ = run_cli(capsys, "dim", "--p", "3", "--q", "6", "--r", "2")
    assert code == 0 and out == "18\n"
    code, _, _ = run_cli(capsys, "dim", "--p", "3", "--q", "7", "--r", "2")
    assert code == 2


@pytest.mark.parametrize(
    "command, third, bad_third",
    [
        ("g", "--nu", "1,2"),
        ("lr", "--tau", "2,0,1"),
        ("count", "--tau", "2,0,1"),
        ("points", "--tau", "2,0,1"),
    ],
    ids=["g", "lr", "count", "points"],
)
def test_invalid_input_exits_2(capsys, command, third, bad_third):
    code, out, err = run_cli(capsys, command, "--lambda", "2,x", "--mu", "2,1", third, "2,1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run_cli(capsys, command, "--lambda", "1,2", "--mu", "2,1", third, "2,1")
    assert code == 2 and "decreasing" in err
    # lambda, mu, then the third input: the first bad one in that order is reported
    code, _, err = run_cli(capsys, command, "--lambda", "2,1", "--mu", "2,y", third, "x")
    assert code == 2 and "'2,y'" in err and "'x'" not in err
    code, _, err = run_cli(capsys, command, "--lambda", "2,1", "--mu", "2,1", third, bad_third)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["g", "--lambda", "2,1", "--nu", "2,1"],
        ["g", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1", "--ell", "x"],
        ["bogus"],
        [],
    ],
)
def test_usage_error_is_one_line_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_deep_input_exits_2_without_traceback():
    # (2^20) for all three partitions recurses deeper than the interpreter allows
    deep = ",".join(["2"] * 20)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "crkron.cli", "count", "--lambda", deep, "--mu", deep, "--tau", deep],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["g", "--lambda", "50,50", "--mu", "50,50", "--nu", "50,50", "--method", "oracle"],
        ["lr", "--lambda", "2000", "--mu", "2000", "--tau", "2000", "--method", "characters"],
    ],
)
def test_character_routes_over_class_budget_exit_2(capsys, argv):
    # p(100) and p(2000) classes: refused before any class is listed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "MAX_CLASSES" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_g_oracle_n40_subprocess():
    twenty = "20,20"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "crkron.cli", "g", "--method", "oracle",
         "--lambda", twenty, "--mu", twenty, "--nu", twenty],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_selfcheck_deterministic_across_threads(capsys):
    outputs = []
    for threads in ("1", "2", "8"):
        code, out, _ = run_cli(capsys, "--threads", threads, "selfcheck", "--n", "3")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert "selfcheck OK" in outputs[0]


def test_selfcheck_reports_a_mismatch(capsys, monkeypatch):
    faces = cli.kron_via_faces

    def off_by_one(lam, mu, nu, ell):
        return faces(lam, mu, nu, ell) + ((lam, mu, nu) == ((2, 1), (2, 1), (2, 1)))

    monkeypatch.setattr(cli, "kron_via_faces", off_by_one)
    code, out, err = run_cli(capsys, "selfcheck", "--n", "3")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "n=2: 8 triples checked, 0 mismatches"
    assert lines[1] == "MISMATCH g((2, 1), (2, 1), (2, 1)): polytopes=1 faces=2 oracle=1"
    assert lines[2:] == ["n=3: 27 triples checked, 1 mismatches", "selfcheck FAILED: 35 triples"]


def test_selfcheck_needs_n_at_least_2(capsys):
    assert run_cli(capsys, "selfcheck", "--n", "1") == (2, "", "error: selfcheck needs --n >= 2\n")


def test_closed_stdout_exits_0_quietly():
    # About 560 KB of points, read through a pipe that is closed after one line.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    shape = "4,3,2,1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "crkron.cli", "points", "--lambda", shape, "--mu", shape, "--tau", shape],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0 and err == b""
    assert json.loads(first)["dims"] == [4, 4, 4]


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "g", "--lambda", "3,2,1", "--mu", "3,2,1", "--nu", "3,2,1", "--json")
    second = run_cli(capsys, "g", "--lambda", "3,2,1", "--mu", "3,2,1", "--nu", "3,2,1", "--json")
    assert first == second
