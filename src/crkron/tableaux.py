"""Semistandard tableaux, word insertion, RSK, and the tensor-to-tableaux map.

Words follow the bottom-to-top reading conventions throughout: the row word
reads rows from the bottom row up, each left to right; the column word reads
columns left to right, each bottom to top.  A word's direction is part of
each function's contract and never inferred.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from .partitions import (
    Composition,
    InvariantViolation,
    Partition,
    SizeMismatch,
    _Record,
    composition,
    partition,
)
from .polytope import Tensor3, _compile_constraints, _holds

Word = tuple[int, ...]
Matrix = Sequence[Sequence[int]]


class SkewTableau(_Record):
    """Semistandard filling of the skew shape outer/inner.

    ``rows[i]`` holds the entries of row i in the columns inner_i .. outer_i - 1.
    """

    outer: Partition
    inner: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        outer, inner = self.outer, self.inner
        partition(outer)  # both shapes are partitions, trailing zeros allowed
        partition(inner)
        if len(self.rows) != len(outer):
            raise ValueError("one entry row per shape row required")
        pad = inner + (0,) * (len(outer) - len(inner))
        if len(inner) > len(outer) or any(pad[i] > outer[i] for i in range(len(outer))):
            raise ValueError(f"inner shape {inner} not contained in {outer}")
        for i, row in enumerate(self.rows):
            if len(row) != outer[i] - pad[i]:
                raise ValueError(f"row {i} has wrong length")
            if any(x < 1 for x in row):
                raise ValueError("entries must be positive")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {i} not weakly increasing")
        for i in range(1, len(outer)):
            for j in range(pad[i], outer[i]):
                if pad[i - 1] <= j < outer[i - 1]:
                    if self.rows[i - 1][j - pad[i - 1]] >= self.rows[i][j - pad[i]]:
                        raise ValueError(f"column {j} not strictly increasing")

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def content(self) -> Composition:
        counts = Counter(x for row in self.rows for x in row)
        top = max(counts) if counts else 0
        return tuple(counts.get(v, 0) for v in range(1, top + 1))

    def row_word(self) -> Word:
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def col_word(self) -> Word:
        pad = self.inner + (0,) * (len(self.outer) - len(self.inner))
        out: list[int] = []
        width = self.outer[0] if self.outer else 0
        for j in range(width):
            for i in reversed(range(len(self.outer))):
                if pad[i] <= j < self.outer[i]:
                    out.append(self.rows[i][j - pad[i]])
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "shape": list(self.outer),
            "inner": list(self.inner),
            "rows": [list(row) for row in self.rows],
        }


def straight_tableau(rows: Iterable[Iterable[int]]) -> SkewTableau:
    """Build a straight-shape tableau from its entry rows."""
    entry_rows = tuple(tuple(row) for row in rows)
    outer = partition(len(row) for row in entry_rows)
    return SkewTableau(outer, (), entry_rows)


def canonical_tableau(lam: Partition) -> SkewTableau:
    """The unique semistandard tableau of shape and content ``lam``."""
    lam = partition(lam)
    return straight_tableau(tuple((i + 1,) * lam[i] for i in range(len(lam))))


def is_reverse_lattice(word: Iterable[int]) -> bool:
    """True iff every suffix has at least as many i's as (i+1)'s, all i."""
    counts: Counter[int] = Counter()
    for letter in reversed(tuple(word)):
        counts[letter] += 1
        if letter > 1 and counts[letter] > counts[letter - 1]:
            return False
    return True


def _row_insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Schensted row insertion into mutable rows; returns the new box."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            return r, 0
        row = rows[r]
        pos = bisect_right(row, x)
        if pos == len(row):
            row.append(x)
            return r, pos
        x, row[pos] = row[pos], x
        r += 1


def _column_insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Column insertion (bump the topmost entry >= x); returns the new box."""
    c = 0
    while True:
        r = 0
        bumped = None
        while r < len(rows) and len(rows[r]) > c:
            if rows[r][c] >= x:
                bumped = rows[r][c]
                rows[r][c] = x
                break
            r += 1
        if bumped is None:
            if r == len(rows):
                rows.append([])
            if len(rows[r]) != c:
                raise InvariantViolation(f"column insertion of {x} landed off-shape at ({r}, {c})")
            rows[r].append(x)
            return r, c
        x = bumped
        c += 1


def insertion_tableau(word: Iterable[int]) -> SkewTableau:
    """P(word): row-insert the letters left to right.

    Column-inserting the letters right to left produces the same tableau;
    ``tests`` pin that agreement.
    """
    rows: list[list[int]] = []
    for x in word:
        _row_insert(rows, x)
    return straight_tableau(rows)


def column_insertion_tableau(word: Iterable[int]) -> SkewTableau:
    """P(word) computed by column-inserting the letters right to left."""
    rows: list[list[int]] = []
    for x in reversed(tuple(word)):
        _column_insert(rows, x)
    return straight_tableau(rows)


def _matrix_rows(matrix: Matrix) -> list[tuple[int, ...]]:
    """The rows of a nonnegative integer matrix, checked to be one."""
    rows = [tuple(row) for row in matrix]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must have equal length")
    if any(x < 0 for row in rows for x in row):
        raise ValueError("matrix entries must be nonnegative")
    return rows


def _record(rows: list[list[int]], letters: Iterable[tuple[int, int]], insert) -> list[list[int]]:
    """Insert each ``(letter, label)`` into ``rows`` with ``insert`` and append
    the label to the row of the new box; returns the labels by row, one list
    per row of ``rows`` at the end, empty where no box was added."""
    labels: list[list[int]] = [[] for _ in rows]
    for letter, label in letters:
        r = insert(rows, letter)[0]
        if r == len(labels):
            labels.append([])
        labels[r].append(label)
    return labels


def _rsk_rows(matrix: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Entry rows of (P, Q) = RSK(matrix): each entry (i, j), rows in order,
    row-inserts j as many times as it says and records i in the new box."""
    rows = _matrix_rows(matrix)
    letters = ((j, i) for i, row in enumerate(rows, 1) for j, mult in enumerate(row, 1) for _ in range(mult))
    p_rows: list[list[int]] = []
    return p_rows, _record(p_rows, letters, _row_insert)


def rsk(matrix: Matrix) -> tuple[SkewTableau, SkewTableau]:
    """RSK correspondence: (insertion tableau P, recording tableau Q)."""
    p_rows, q_rows = _rsk_rows(matrix)
    return straight_tableau(p_rows), straight_tableau(q_rows)


def main_lemma_conditions(matrix: Matrix) -> tuple[bool, bool]:
    """(P canonical?, Q canonical?) for RSK(matrix), read off linear inequalities.

    Evaluated directly from the column and row canonicity families of the
    one-level column-row cone, never through RSK; the recording side is the
    insertion side of the transpose.  Like ``rsk``, rejects ragged rows and
    negative entries with ``ValueError``.
    """
    rows = _matrix_rows(matrix)
    entries = [x for row in rows for x in row]
    col_family, row_family = _compile_constraints(len(rows), len(rows[0]) if rows else 0, 1)
    return _holds(col_family, entries), _holds(row_family, entries)


# --- the tensor <-> (Q, P, (T, S)) correspondence ---------------------------


class LRMultitableau(_Record):
    """Chain of Littlewood-Richardson skew tableaux filling a nested shape."""

    components: tuple[SkewTableau, ...]

    def __post_init__(self):
        inner: Partition = ()
        for comp in self.components:
            if comp.inner != inner:
                raise ValueError("components do not chain")
            inner = comp.outer
            if not is_reverse_lattice(comp.row_word()):
                raise ValueError("component word is not a reverse lattice word")

    @property
    def shape(self) -> Partition:
        return self.components[-1].outer if self.components else ()

    def type(self) -> Composition:
        return tuple(comp.size for comp in self.components)

    def contents(self) -> tuple[Partition, ...]:
        return tuple(partition(comp.content()) for comp in self.components)

    def to_json_dict(self) -> list:
        return [comp.to_json_dict() for comp in self.components]


def _product_with_recording(levels: Sequence[list[list[int]]]) -> tuple[SkewTableau, LRMultitableau]:
    """Column-insert the column words of straight tableaux in order, recording new boxes.

    ``levels[k]`` holds the entry rows of the k-th tableau.  Step k reads its
    column word from the end (columns right to left, each top down),
    column-inserts each letter and writes the letter's row number into the
    new box: that is the canonical tableau's letter in the same place.  New
    boxes end their rows, so a component row is its letters in insertion order.
    """
    rows: list[list[int]] = []
    components: list[SkewTableau] = []
    inner: Partition = ()
    for level in levels:
        width = len(level[0]) if level else 0
        letters = ((row[j], i) for j in reversed(range(width)) for i, row in enumerate(level, 1) if j < len(row))
        new_rows = _record(rows, letters, _column_insert)
        outer = tuple(map(len, rows))
        components.append(SkewTableau(outer, inner, tuple(map(tuple, new_rows))))
        inner = outer
    return SkewTableau(inner, (), tuple(map(tuple, rows))), LRMultitableau(tuple(components))


def theorem41_map(tensor: Tensor3) -> tuple[SkewTableau, SkewTableau, LRMultitableau, LRMultitableau]:
    """Image (Q, P, T, S) of an integer tensor under the level-RSK bijection.

    Each level matrix maps through RSK to the entry rows of a pair (P_k, Q_k);
    the P_k are multiplied by column insertion with the canonical tableaux's
    letters recorded into the new boxes, giving (P, S), and the Q_k give
    (Q, T) the same way.  The per-level pairs stay entry rows; P, Q and every
    component of S and T are built as validated tableaux.
    """
    _, _, r = tensor.dims
    levels = [_rsk_rows(tensor.level(k)) for k in range(1, r + 1)]
    p_tab, s_multi = _product_with_recording([p_rows for p_rows, _ in levels])
    q_tab, t_multi = _product_with_recording([q_rows for _, q_rows in levels])
    return q_tab, p_tab, t_multi, s_multi


# --- enumeration: LR skew tableaux, multitableaux, Kostka numbers -----------


@lru_cache(maxsize=None)
def _lr_skew_content_counts(outer: Partition, inner: Partition) -> tuple[tuple[Partition, int], ...]:
    """Content -> count over all LR skew tableaux of shape outer/inner.

    Cells are filled in reverse reading order (top row right-to-left, then
    downwards) so the lattice condition can be enforced incrementally.
    """
    pad = inner + (0,) * (len(outer) - len(inner))
    cells = [
        (i, j)
        for i in range(len(outer))
        for j in reversed(range(pad[i], outer[i]))
    ]
    size = len(cells)
    grid: dict[tuple[int, int], int] = {}
    counts: Counter[Partition] = Counter()
    used = [0] * (size + 2)

    def fill(pos: int, top: int) -> None:
        if pos == size:
            counts[tuple(used[1 : top + 1])] += 1
            return
        i, j = cells[pos]
        above = grid.get((i - 1, j))
        lo = 1 if above is None else above + 1
        right = grid.get((i, j + 1))
        hi = top + 1 if right is None else min(right, top + 1)
        for v in range(lo, hi + 1):
            if v == 1 or used[v] < used[v - 1]:
                grid[(i, j)] = v
                used[v] += 1
                fill(pos + 1, max(top, v))
                used[v] -= 1
        grid.pop((i, j), None)

    try:
        fill(0, 0)
    finally:
        del fill  # fill reaches itself through its closure: break that cycle
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def _shapes_between(lower: Partition, upper: Partition, size: int) -> tuple[Partition, ...]:
    """Partitions of ``size`` between ``lower`` and ``upper``, in ``partitions_of`` order.

    Row i keeps a value in [lower_i, min(upper_i, row i - 1)] only if what is
    left lies between the sums of lower_k and of min(upper_k, value) below it.
    """
    out: list[Partition] = []
    pad = lower + (0,) * (len(upper) - len(lower))
    floor = [sum(pad[row:]) for row in range(len(upper) + 1)]

    def go(row: int, left: int, prev: int, built: tuple[int, ...]) -> None:
        if row == len(upper):
            out.append(partition(built))
            return
        for value in range(min(upper[row], prev), pad[row] - 1, -1):
            rest = left - value
            if floor[row + 1] <= rest <= sum(min(u, value) for u in upper[row + 1 :]):
                go(row + 1, rest, value, built + (value,))

    try:
        if floor[0] <= size <= sum(upper):
            go(0, size, size, ())
    finally:
        del go  # go reaches itself through its closure: break that cycle
    return tuple(out)


@lru_cache(maxsize=None)
def _lr_multitableau_contents(lam: Partition, tau: Composition) -> tuple[tuple[tuple[Partition, ...], int], ...]:
    """Content tuple -> number of LR multitableaux of shape lam and type tau.

    The last component fills lam/inner, |inner| = |lam| - tau_last, and the
    others form a multitableau of shape inner and type tau[:-1].
    """
    if not tau:
        return (((), 1),) if not lam else ()
    results: Counter[tuple[Partition, ...]] = Counter()
    for inner in _shapes_between((), lam, sum(lam) - tau[-1]):
        below = _lr_multitableau_contents(inner, tau[:-1])
        for content, cnt in _lr_skew_content_counts(lam, inner):
            for contents, weight in below:
                results[contents + (content,)] += weight * cnt
    return tuple(sorted(results.items()))


def count_lr_pairs(lam: Partition, mu: Partition, tau: Composition) -> int:
    """#LR(lam, mu; tau) by exhaustive enumeration of multitableau pairs."""
    lam, mu, tau = partition(lam), partition(mu), composition(tau)
    if sum(lam) != sum(mu) or sum(lam) != sum(tau):
        raise SizeMismatch(f"sizes of {lam}, {mu}, {tau} differ")
    left = dict(_lr_multitableau_contents(lam, tau))
    right = dict(_lr_multitableau_contents(mu, tau))
    return sum(cnt * right.get(key, 0) for key, cnt in left.items())


def kostka(gamma: Partition, tau: Composition) -> int:
    """Number of semistandard tableaux of shape ``gamma`` and content ``tau``."""
    gamma, tau = partition(gamma), composition(tau)
    if sum(gamma) != sum(tau):
        raise SizeMismatch(f"|{gamma}| != |{tau}|")
    return _kostka(gamma, tau)


@lru_cache(maxsize=None)
def _kostka(gamma: Partition, tau: Composition) -> int:
    """``kostka`` of a validated shape and content.

    The cells holding the last letter form a horizontal strip gamma/inner:
    gamma_{i+1} <= inner_i <= gamma_i for all i, and |inner| = |gamma| - tau_last.
    """
    if not tau:
        return int(not gamma)
    total = 0
    for inner in _shapes_between(gamma[1:], gamma, sum(gamma) - tau[-1]):
        total += _kostka(inner, tau[:-1])
    return total
