"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_perfbench.py
(about two minutes; every case starts real passes).
"""

import json
import os
import subprocess
import sys

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REPEATED = (
    "polytope.points",
    "polytope.face_hits",
    "kronecker.terms",
    "kronecker.cr_distinct",
    "characters.classes",
    "tableaux.map_calls",
)


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", tuple(workloads.BUILDERS))
def test_traced_counters_repeat_for_a_seed(workload):
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    for name in spans.COUNTERS + spans.RATIOS:
        assert first[name] == second[name], name
    for name in REPEATED:
        assert first[name]["value"] > 0, name


def test_trace_decomposition_reproduces_each_method():
    triples = list(workloads.REFERENCE) + [
        ((3, 2, 1), (3, 2, 1), (3, 2, 1)),
        ((4, 2), (3, 2, 1), (2, 2, 1, 1)),
        ((6, 6), (6, 6), (6, 6)),
        ((4,), (4,), (4,)),  # shortcut: no expansion, nothing to rebuild
    ]
    spec = {
        "kind": "triples",
        "label": "test",
        "trace": True,
        "triples": [list(map(list, t)) for t in triples],
        "lrcheck": [],
    }
    result = run.spawn_pass(spec, SRC)
    found = result["spans"]
    rebuilt = spans.decompose(found)
    # jt and faces of every triple but the shortcut one
    assert len(rebuilt) == 2 * (len(triples) - 1)
    for sid, value in rebuilt.items():
        assert value == found[sid][5], found[sid]
    for row, triple in zip(result["triples"], triples):
        expected = workloads.REFERENCE.get(triple, row["oracle"][0])
        assert row["jt"][0] == row["faces"][0] == expected
