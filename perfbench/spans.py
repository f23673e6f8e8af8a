"""Spans recorded around the calls into each crkron layer.

The tracer replaces public functions in the namespaces of the crkron
modules that call them with wrappers defined here, so the program itself
is unchanged.  A span is ``[name, start, end, parent, op, value]``: the
layer call, its perf_counter interval, the index of the enclosing span
(or None), the operation of the pass that caused it, and a small value
(a count, or the signs of an expansion) that the summary and the
decomposition check read.  Spans stay in memory until the pass ends.

The tracer is single-threaded: no traced operation runs the thread pool.
"""

from __future__ import annotations

import sys
from time import perf_counter

from workloads import partition_count

# traced function name -> span name
LAYERS = {
    "jt_expansion": "kronecker.expand",
    "jt_pair_expansion": "kronecker.expand",
    "cr_count": "kronecker.cr",
    "CRSystem": "polytope.compile",
    "count_points": "polytope.count",
    "enumerate_points": "polytope.enumerate",
    "g_oracle": "characters.oracle",
    "lr_oracle": "characters.lr",
    "theorem41_map": "tableaux.map",
    "count_lr_pairs": "tableaux.lr",
}
MODULES = ("crkron.kronecker", "crkron.polytope", "crkron.characters", "crkron.tableaux")


class Tracer:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, sid: int, value=None) -> None:
        span = self.spans[sid]
        span[2] = perf_counter()
        span[5] = value
        self.stack.pop()

    def add(self, name: str, start: float, end: float, value=None) -> None:
        """Record a finished span measured elsewhere (a child process)."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, end, parent, self.op, value])

    def _wrap(self, attr: str, fn):
        tracer = self

        if attr == "count_points":

            def traced(system, face=None):
                sid = tracer.begin("polytope.count" if face is None else "polytope.count_face")
                try:
                    result = fn(system, face)
                finally:
                    tracer.end(sid)
                if face is None:
                    tracer.spans[sid][5] = result
                else:
                    # Baseline for polytope.face_s: the plain search of the
                    # same system, run after the program's call returns.
                    start = perf_counter()
                    visited = fn(system)
                    tracer.spans[sid][5] = [result, visited, perf_counter() - start]
                return result

            return traced

        def traced(*args, **kwargs):
            sid = tracer.begin(LAYERS[attr])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            tracer.spans[sid][5] = _value(attr, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a crkron module looks it up."""
        for modname in MODULES:
            module = sys.modules[modname]
            for attr in LAYERS:
                if hasattr(module, attr):
                    setattr(module, attr, self._wrap(attr, getattr(module, attr)))


def _value(attr: str, args, result):
    if attr in ("jt_expansion", "jt_pair_expansion"):
        return [term.sign for term in result]
    if attr == "cr_count":
        lam, mu, tau = args
        return [result, [list(lam), list(mu), sorted((t for t in tau if t), reverse=True)]]
    if attr == "g_oracle":
        return partition_count(sum(args[0]))
    if attr == "enumerate_points":
        return len(result)
    return None


COUNTERS = (
    "kronecker.expand_calls",
    "kronecker.terms",
    "kronecker.cr_calls",
    "kronecker.cr_distinct",
    "polytope.compile_calls",
    "polytope.search_calls",
    "polytope.points",
    "polytope.face_hits",
    "polytope.enum_points",
    "characters.oracle_calls",
    "characters.classes",
    "tableaux.map_calls",
)
RATIOS = ("kronecker.memo_hit_ratio", "polytope.face_hit_ratio")
SECONDS = (
    "kronecker.expand_s",
    "polytope.compile_s",
    "polytope.search_s",
    "polytope.face_s",
    "polytope.enum_s",
    "characters.oracle_s",
    "characters.lr_s",
    "tableaux.map_s",
    "tableaux.lr_s",
    "cli.proc_s",
    "cli.main_s",
    "cli.start_s",
)


def summarize(spans: list[list]) -> dict:
    """Per-layer counts, ratios and inclusive seconds of one pass."""
    out = {name: 0 for name in COUNTERS}
    out.update({name: 0.0 for name in SECONDS})
    searched = {span[3] for span in spans if span[0] == "polytope.count"}
    cr_keys = set()
    cr_hits = 0
    face_visited = 0
    for sid, (name, start, end, _parent, _op, value) in enumerate(spans):
        took = end - start
        if name == "kronecker.expand":
            out["kronecker.expand_calls"] += 1
            out["kronecker.expand_s"] += took
            out["kronecker.terms"] += len(value)
        elif name == "kronecker.cr":
            out["kronecker.cr_calls"] += 1
            cr_keys.add(repr(value[1]))
            cr_hits += sid not in searched
        elif name == "polytope.compile":
            out["polytope.compile_calls"] += 1
            out["polytope.compile_s"] += took
        elif name == "polytope.count":
            out["polytope.search_calls"] += 1
            out["polytope.search_s"] += took
            out["polytope.points"] += value
        elif name == "polytope.count_face":
            hits, visited, base = value
            out["polytope.search_calls"] += 1
            out["polytope.search_s"] += base
            out["polytope.face_s"] += took - base
            out["polytope.points"] += visited
            out["polytope.face_hits"] += hits
            face_visited += visited
        elif name == "polytope.enumerate":
            out["polytope.enum_s"] += took
            out["polytope.enum_points"] += value
        elif name == "characters.oracle":
            out["characters.oracle_calls"] += 1
            out["characters.oracle_s"] += took
            out["characters.classes"] += value
        elif name == "characters.lr":
            out["characters.lr_s"] += took
        elif name == "tableaux.map":
            out["tableaux.map_calls"] += 1
            out["tableaux.map_s"] += took
        elif name == "tableaux.lr":
            out["tableaux.lr_s"] += took
        elif name == "cli.proc":
            out["cli.proc_s"] += took
        elif name == "cli.main":
            out["cli.main_s"] += took
    out["cli.start_s"] = out["cli.proc_s"] - out["cli.main_s"]
    out["kronecker.cr_distinct"] = len(cr_keys)
    out["kronecker.memo_hit_ratio"] = cr_hits / out["kronecker.cr_calls"] if out["kronecker.cr_calls"] else 0.0
    out["polytope.face_hit_ratio"] = out["polytope.face_hits"] / face_visited if face_visited else 0.0
    return out


def decompose(spans: list[list]) -> dict:
    """Rebuild each jt and faces operation's value from its child spans.

    jt: sum of sign * count over the cr_count spans of the expansion;
    faces: sum of sign * (plus - minus) over the face-count spans, which
    come in (F_plus, F_minus) pairs in expansion order.  Operations that
    took a shortcut (no expansion span) are left out.
    """
    ops = {}
    for sid, span in enumerate(spans):
        if span[0] in ("op.jt", "op.faces"):
            ops[sid] = {"kind": span[0], "op": span[4], "signs": None, "values": []}
    for span in spans:
        node = ops.get(span[3])
        if node is None:
            continue
        if span[0] == "kronecker.expand":
            node["signs"] = span[5]
        elif span[0] == "kronecker.cr":
            node["values"].append(span[5][0])
        elif span[0] == "polytope.count_face":
            node["values"].append(span[5][0])
    out = {}
    for sid, node in ops.items():
        signs, values = node["signs"], node["values"]
        if signs is None:
            continue
        if node["kind"] == "op.jt":
            out[sid] = sum(s * v for s, v in zip(signs, values)) if len(values) == len(signs) else None
        else:
            pairs = list(zip(values[::2], values[1::2]))
            out[sid] = sum(s * (p - m) for s, (p, m) in zip(signs, pairs)) if len(values) == 2 * len(signs) else None
    return out
