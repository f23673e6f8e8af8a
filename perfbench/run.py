"""Benchmark runner for crkron.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Builds the workload's pass spec from the seed, then runs serial rounds of
set-up samples and one pass, each pass in a fresh interpreter
(runpass.py), until the next round would end after ``--seconds``.  Every
pass's outputs are verified.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it are plain data rows (the jt/faces/oracle
crossover, failure counts, raw seconds, the deep-input probe).
See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calib
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
PASS_TIMEOUT = 120
SETUP_SAMPLES = 3  # per round

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jt_s": "s",
    "faces_s": "s",
    "oracle_s": "s",
    "start_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    """A pass process died or printed no result: the benchmark cannot go on."""


def spawn_pass(spec: dict, src: str) -> dict:
    """Run one pass process to completion and return its parsed result."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "runpass.py"), src],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{spec['label']} pass exceeded {PASS_TIMEOUT} s")
    if proc.returncode != 0 or not out.strip():
        raise PassError(f"{spec['label']} pass exited {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(out)
    result["setup_s"] = result["import_done"] - spawned
    return result


# --- verification ----------------------------------------------------------


def verify_triples(spec: dict, result: dict) -> list[str]:
    """Descriptions of failed operations (empty when every output is right)."""
    failed = []
    for triple, row in zip(spec["triples"], result["triples"]):
        key = tuple(tuple(part) for part in triple)
        expected = workloads.REFERENCE.get(key, row["oracle"][0])
        for method in ("jt", "faces", "oracle"):
            value, _seconds, error = row[method]
            if error is not None or value != expected:
                failed.append(f"{method}{key}={value} want {expected} {error or ''}".strip())
    for system, (value, _seconds, error) in zip(spec["lrcheck"], result["lrcheck"]):
        if error is not None or len(set(value.values())) != 1:
            failed.append(f"lrcheck{system}: {value or error}")
    return failed


def verify_startup(result: dict) -> list[str]:
    return [f"dim: exit {d['code']} {d['stdout']!r}" for d in result["startup"] if not dim_ok(d)]


def dim_ok(out: dict) -> bool:
    return out["code"] == 0 and out["stdout"] == workloads.DIM_OUT


def probe_ok(out: dict) -> bool:
    """Exit 0 with a count, or exit 2 with a one-line diagnostic."""
    if out["code"] == 0:
        return out["stdout"].strip().isdigit()
    err = out["stderr"].strip()
    return out["code"] == 2 and bool(err) and "\n" not in err


def verify_decomposition(result: dict) -> list[str]:
    """Traced passes only: the spans must add up to each method's value."""
    found = result["spans"]
    return [
        f"trace decomposition of op {found[sid][4]}: {value} != {found[sid][5]}"
        for sid, value in spans.decompose(found).items()
        if value != found[sid][5]
    ]


# --- metrics -----------------------------------------------------------------


def op_seconds(result: dict) -> list[tuple[str, float]]:
    """(method, seconds) of every timed operation of a pass, in order."""
    ops = [(method, row[method][1]) for row in result["triples"] for method in ("jt", "faces", "oracle")]
    return ops + [("lrcheck", seconds) for _value, seconds, _error in result["lrcheck"]]


def compute_seconds(passes: list[dict], scaled: bool) -> dict:
    """wall_s and per-method seconds: the sum over operations of each
    operation's median over passes, which keeps a spike in one pass from
    moving the total.

    With ``scaled``, each pass is scaled by the median of its cpu probes:
    single probes are too short to follow the host's fast fluctuations,
    which average out over the pass anyway, but their median follows the
    slow drift."""
    columns = []
    for result in passes:
        factor = calib.CPU_REF_S / statistics.median(result["probes"]) if scaled else 1.0
        columns.append([(method, seconds * factor) for method, seconds in op_seconds(result)])
    totals = dict.fromkeys(("wall_s", "jt_s", "faces_s", "oracle_s"), 0.0)
    for samples in zip(*columns):
        seconds = statistics.median(s for _, s in samples)
        method = samples[0][0]
        totals["wall_s"] += seconds
        if f"{method}_s" in totals:
            totals[f"{method}_s"] += seconds
    return totals


def end_to_end(passes: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Reported metrics (scaled to the reference host, see calib.py) and the
    raw medians they come from."""
    median = statistics.median
    dims = [(d["seconds"], d["bare_s"]) for p in passes for d in p["startup"]]
    values = {
        "setup_s": calib.SPAWN_REF_S * median(s / bare for s, bare in setups),
        "start_ms": 1000 * calib.SPAWN_REF_S * median(s / bare for s, bare in dims),
        "peak_rss_mb": median(p["peak_rss_kb"] / 1024 for p in passes),
    }
    raw = {
        "setup_s": median(s for s, _ in setups),
        "start_ms": 1000 * median(s for s, _ in dims),
        "cpu_probe_s": median(x for p in passes for x in p["probes"]),
        "spawn_probe_s": median(bare for _, bare in setups),
    }
    raw.update(compute_seconds(passes, scaled=False))
    values.update(compute_seconds(passes, scaled=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, raw


def per_layer(passes: list[dict]) -> dict:
    """Counts and ratios from the first pass (every pass repeats them);
    raw seconds as the median over passes."""
    summaries = [spans.summarize(p["spans"]) for p in passes]
    metrics = {}
    for name in spans.COUNTERS:
        metrics[name] = {"value": summaries[0][name], "unit": "count"}
    for name in spans.RATIOS:
        metrics[name] = {"value": summaries[0][name], "unit": "ratio"}
    for name in spans.SECONDS:
        metrics[name] = {"value": statistics.median(s[name] for s in summaries), "unit": "s"}
    return metrics


def crossover_rows(spec: dict, passes: list[dict]) -> list[dict]:
    """Per-triple median raw seconds of each method, as plain data."""
    rows = []
    for index, triple in enumerate(spec["triples"]):
        row = {"row": "crossover", "workload": spec["label"], "triple": triple}
        row["n"] = sum(triple[0])
        row["rows"] = max(len(part) for part in triple)
        row["g"] = passes[0]["triples"][index]["oracle"][0]
        for method in ("jt", "faces", "oracle"):
            row[f"{method}_s"] = statistics.median(p["triples"][index][method][1] for p in passes)
        row["fastest"] = min(("jt", "faces", "oracle"), key=lambda m: row[f"{m}_s"])
        rows.append(row)
    return rows


def probe_row(src: str) -> dict:
    """Run the deep-input probe once, apart from every timed pass."""
    probe = spawn_pass(workloads.probe(), src)
    out = probe["commands"][0]
    return {
        "row": "probe",
        "args": "count --lambda 2^20 --mu 2^20 --tau 2^20",
        "passed": probe_ok(out),
        "code": out["code"],
        "seconds": out["seconds"],
        "peak_rss_mb": probe["peak_rss_kb"] / 1024,
        "diagnostic": (out["stderr"].strip().splitlines() or [""])[-1][:200],
    }


# --- run ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    src = os.path.join(os.getcwd(), "src")
    os.makedirs(RESULTS, exist_ok=True)
    deadline = time.monotonic() + seconds
    spec = workloads.BUILDERS[workload](seed)
    spec["trace"] = trace
    setup_spec = {"kind": "setup", "label": "setup"}

    spawn_pass(setup_spec, src)  # untimed: byte-compiles the package once
    rows = [probe_row(src)] if workload == "large" and trace else []

    # Each round: set-up samples, each next to a bare interpreter start, then
    # one pass.  Rounds stop when the next would end after the deadline.
    setups: list[tuple[float, float]] = []
    passes: list[dict] = []
    longest = 0.0
    while not passes or time.monotonic() + longest <= deadline:
        began = time.monotonic()
        for _ in range(SETUP_SAMPLES):
            bare = calib.spawn_probe()
            setups.append((spawn_pass(setup_spec, src)["setup_s"], bare))
        passes.append(spawn_pass(spec, src))
        longest = max(longest, time.monotonic() - began)

    per_pass = 3 * len(spec["triples"]) + len(spec["lrcheck"])
    attempted = 0
    failures = []
    for result in passes:
        attempted += per_pass + len(result["startup"])
        failures += verify_triples(spec, result) + verify_startup(result)
        if trace:
            failures += verify_decomposition(result)
    for text in failures[:20]:
        print(f"FAILED {text}", file=sys.stderr)

    if workload in ("large", "fewrow") and not trace:
        rows += crossover_rows(spec, passes)
    rows.append(
        {
            "row": "failures",
            "workload": workload,
            "passes": len(passes),
            "attempted": attempted,
            "failed": len(failures),
            "fail_ratio": len(failures) / attempted,
        }
    )
    if trace:
        rows.append(
            {
                "row": "trace",
                "workload": workload,
                "wall_s": compute_seconds(passes, scaled=False)["wall_s"],
                "scaled_wall_s": compute_seconds(passes, scaled=True)["wall_s"],
            }
        )
        with open(os.path.join(RESULTS, f"trace-{workload}-{seed}.json"), "w") as handle:
            json.dump({"workload": workload, "seed": seed, "spans": passes[0]["spans"]}, handle)
        metrics = per_layer(passes)
    else:
        metrics, raw = end_to_end(passes, setups)
        rows.append({"row": "raw", "workload": workload, **raw})
    for row in rows:
        print(json.dumps(row))
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "crkron", "__init__.py")):
        print("error: run from the root of a crkron checkout (src/crkron not found)", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
