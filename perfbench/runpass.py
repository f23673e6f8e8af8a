"""One benchmark pass, in a fresh interpreter.

Usage: python3 perfbench/runpass.py SRC_DIR < spec.json

run.py writes a pass spec on stdin; the pass prints one JSON
object on stdout.  ``import_done`` is the CLOCK_MONOTONIC time at which
``import crkron`` finished, which run.py turns into set-up time.
Nothing is cached between passes: each one starts with empty memo tables.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import crkron  # noqa: E402  (the import is the set-up being timed)

IMPORT_DONE = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

from crkron import characters, kronecker, polytope, tableaux  # noqa: E402
from calib import cpu_probe, spawn_probe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DIM_ARGS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT = 60
PROBE_EVERY = 0.25  # seconds of pass time between cpu probes
PROBE_LOOPS = 2


def crkron_command(args, src: str, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, os.path.join(HERE, "tracecli.py"), src, *args]
    return [sys.executable, "-m", "crkron.cli", *args]


def run_command(args, src: str, tracer) -> dict:
    """Run one crkron process; returns its output, exit code and wall time."""
    env = dict(os.environ, PYTHONPATH=src)
    trace_path = None
    if tracer is not None:
        trace_path = os.path.join(HERE, "results", f"cli-{os.getpid()}.json")
        env["PERFBENCH_TRACE_OUT"] = trace_path
    start = perf_counter()
    try:
        proc = subprocess.run(
            crkron_command(args, src, tracer is not None),
            env=env,
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT,
        )
        out = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    except subprocess.TimeoutExpired:
        out = {"code": None, "stdout": "", "stderr": "timeout"}
    end = perf_counter()
    out["seconds"] = end - start
    if tracer is not None:
        tracer.add("cli.proc", start, end)
        if os.path.exists(trace_path):
            with open(trace_path) as handle:
                child = json.load(handle)
            os.remove(trace_path)
            # Child spans use the child's own clock; keep their durations
            # and re-parent the roots under the process span.
            base = len(tracer.spans)
            proc_sid = base - 1
            for name, s, e, parent, _op, value in child:
                tracer.spans.append(
                    [name, s, e, proc_sid if parent is None else parent + base, tracer.op, value]
                )
    return out


def run_startup(count: int, src: str, tracer) -> list[dict]:
    """Start-up samples: ``crkron dim``, each right after a bare interpreter."""
    results = []
    for _ in range(count):
        bare = spawn_probe()
        if tracer is not None:
            tracer.op = "dim"
        results.append(dict(run_command(DIM_ARGS, src, tracer), bare_s=bare))
    return results


METHODS = (
    ("jt", lambda t: kronecker.kron_via_cr(*t)),
    ("faces", lambda t: kronecker.kron_via_faces(*t)),
    ("oracle", lambda t: characters.g_oracle(*t)),
)


class Clock:
    """Takes a cpu probe whenever ``every`` seconds have passed since the
    last one, between operations and outside their timed work."""

    def __init__(self, every: float):
        self.every = every
        self.probes = [cpu_probe(PROBE_LOOPS)]
        self.mark = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self.mark >= self.every:
            self.probes.append(cpu_probe(PROBE_LOOPS))
            self.mark = perf_counter()


def _call(tracer, clock: Clock, op, name, fn) -> list:
    """Time one operation; returns [value, seconds, error text]."""
    if tracer is not None:
        tracer.op = op
        sid = tracer.begin(name)
    start = perf_counter()
    try:
        value, error = fn(), None
    except Exception as exc:  # an operation failure is data for fail counts
        value, error = None, f"{type(exc).__name__}: {exc}"
    took = perf_counter() - start
    if tracer is not None:
        tracer.end(sid, value)
    clock.tick()
    return [value, took, error]


def lrcheck(lam, mu, tau) -> dict:
    """#CR = #LR = character count, and the RSK image of every point is distinct."""
    points = polytope.enumerate_points(polytope.CRSystem(lam, mu, tau))
    images = {json.dumps([t.to_json_dict() for t in tableaux.theorem41_map(p)]) for p in points}
    return {
        "points": len(points),
        "images": len(images),
        "tableaux": tableaux.count_lr_pairs(lam, mu, tau),
        "characters": characters.lr_oracle(lam, mu, tau),
    }


def run_triples(spec: dict, src: str, tracer) -> dict:
    clock = Clock(PROBE_EVERY)
    results = []
    for index, triple in enumerate(spec["triples"]):
        triple = tuple(tuple(part) for part in triple)
        results.append(
            {method: _call(tracer, clock, index, "op." + method, lambda: fn(triple)) for method, fn in METHODS}
        )
    checks = []
    for index, system in enumerate(spec["lrcheck"]):
        system = tuple(tuple(part) for part in system)
        checks.append(_call(tracer, clock, f"lrcheck{index}", "op.lrcheck", lambda: lrcheck(*system)))
    return {
        "probes": clock.probes,
        "triples": results,
        "lrcheck": checks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_commands(spec: dict, src: str, tracer) -> dict:
    """Run crkron processes one at a time; memory is their peak RSS."""
    return {
        "commands": [run_command(args, src, tracer) for args in spec["commands"]],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def main() -> int:
    spec = json.load(sys.stdin)
    src = sys.argv[1]
    out = {"import_done": IMPORT_DONE}
    if spec["kind"] != "setup":
        tracer = None
        if spec.get("trace"):
            tracer = Tracer()
            tracer.install()
        out["startup"] = run_startup(spec.get("startup", 0), src, tracer)
        runner = run_triples if spec["kind"] == "triples" else run_commands
        out.update(runner(spec, src, tracer))
        if tracer is not None:
            out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
