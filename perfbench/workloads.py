"""Seeded inputs for the three benchmark workloads.

Every function here is pure: the same seed gives the same pass spec.  The
program under test never sees the seed, only the generated triples.
Nothing here imports crkron, so the run.py process stays
free of the package's caches.
"""

from __future__ import annotations

import random
from functools import lru_cache

# Reference values from the paper's worked examples (ROADMAP baseline).
REFERENCE = {
    ((8, 6, 4), (6, 6, 6), (9, 6, 3)): 35,
    ((4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1)): 117,
}

# Candidates for the seeded part of `large`: triples with 3-4 rows and
# n = 15, no two sharing the pair of longer partitions that keys the
# cr_count memo.  Each took 0.08-0.16 s cold by jt, 0.16-0.23 s by faces
# and 0.017-0.020 s by the oracle on a 2-core x86 host under CPython 3.11
# (host busy, about 1.6x its quiet speed).  Drawing from a cost band keeps
# the pass length steady across seeds while still varying the polytopes.
LARGE_POOL = (
    ((6, 5, 4), (7, 7, 1), (10, 4, 1)),
    ((7, 5, 2, 1), (7, 5, 3), (11, 2, 2)),
    ((6, 5, 2, 2), (7, 5, 2, 1), (11, 3, 1)),
    ((6, 5, 2, 2), (8, 4, 3), (10, 3, 2)),
    ((6, 4, 4, 1), (6, 5, 2, 2), (10, 4, 1)),
    ((7, 4, 3, 1), (7, 7, 1), (8, 4, 3)),
)

# Small CR systems on which every in-process pass checks the paper's
# second identity, #CR = #LR multitableaux = character count, and the
# injectivity of the level-wise RSK map (Theorem 4.1) on the enumerated
# points.  They keep the enumeration and tableaux layers visible in the
# traced run of every workload at well under 1% of the pass time.
LRCHECK = (
    ((3, 2, 1), (3, 2, 1), (3, 2, 1)),
    ((3, 3), (2, 2, 2), (2, 2, 1, 1)),
)

DIM_ARGS = ("dim", "--p", "3", "--q", "6", "--r", "3", "--polytope")
DIM_OUT = "26\n"
# Start-up samples (``crkron dim`` processes) each pass takes before its
# operation list; they give start_ms and the cli layer on every workload.
STARTUP_SAMPLES = 4

DEEP = ",".join(["2"] * 20)
PROBE_ARGS = ("count", "--lambda", DEEP, "--mu", DEEP, "--tau", DEEP)


@lru_cache(maxsize=None)
def partitions(n: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n with parts at most ``cap``, reverse lexicographic."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partitions(n - first, first)
    )


def partition_count(n: int) -> int:
    return len(partitions(n))


def _triple_pass(triples, label: str) -> dict:
    return {
        "kind": "triples",
        "label": label,
        "startup": STARTUP_SAMPLES,
        "triples": [list(map(list, t)) for t in triples],
        "lrcheck": [list(map(list, t)) for t in LRCHECK],
    }


def sweep(seed: int) -> dict:
    """Every partition triple for n = 2..6, shuffled within each n."""
    rng = random.Random(f"sweep:{seed}")
    triples = []
    for n in range(2, 7):
        parts = partitions(n)
        block = [(a, b, c) for a in parts for b in parts for c in parts]
        rng.shuffle(block)
        triples.extend(block)
    return _triple_pass(triples, "sweep")


LARGE_DRAWS = 3


def large(seed: int) -> dict:
    """The two reference triples plus a seeded draw from the cost band."""
    rng = random.Random(f"large:{seed}")
    drawn = rng.sample(LARGE_POOL, LARGE_DRAWS)
    triples = list(REFERENCE) + drawn
    rng.shuffle(triples)
    return _triple_pass(triples, "large")


FEWROW_DRAW_SIZES = (22, 25, 28)


def _two_row(rng: random.Random, n: int) -> tuple[int, int]:
    small = rng.randint(1, n // 2)
    return (n - small, small)


def fewrow(seed: int) -> dict:
    """(m,m)^3 for m = 4..20, (m,m,m)^3 for m = 2..7, and seeded two-row triples."""
    rng = random.Random(f"fewrow:{seed}")
    triples = [((m, m),) * 3 for m in range(4, 21)]
    triples += [((m, m, m),) * 3 for m in range(2, 8)]
    for n in FEWROW_DRAW_SIZES:
        triples.append(tuple(_two_row(rng, n) for _ in range(3)))
    rng.shuffle(triples)
    return _triple_pass(triples, "fewrow")


def probe() -> dict:
    """The deep-input probe: one command, run apart from the timed passes."""
    return {"kind": "commands", "label": "probe", "commands": [list(PROBE_ARGS)]}


BUILDERS = {"sweep": sweep, "large": large, "fewrow": fewrow}
