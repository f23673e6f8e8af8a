"""Column-row polytopes: constraints, membership, and exact point counting.

A column-row polytope CR(lam, mu; tau) sits inside the 3-way transportation
polytope T(lam, mu, tau).  Its extra constraints live on two flattenings of
the p x q x r array X: the pr x q vertical stack of the level matrices
(highest level on top) and the p x qr horizontal concatenation.  Both carry
a vanishing staircase and a family of column/row prefix-sum inequalities.

Counting is exhaustive: a depth-first assignment of entries in level-major,
row-major order, pruned by marginal residuals and by each inequality as soon
as its last referenced entry has been assigned.  A union of faces is counted
by the same recursion, with each face compiled to a linear form that is 0
exactly on it: each form is decided at its last free cell, a flag ``hit``
marks the branches already on the union, and a branch is cut once every
form is decided nonzero.  No floating point anywhere; rational data uses
``fractions.Fraction``.

The search is exact but does not visit every point when it only counts.
At the first free cell of each level it looks up its state: the position,
the row and column residuals, the residuals of this and later levels, and
the partial sums of the checks (and face forms) with free cells on both
sides of that cut.  Equal states have equal subtrees, so each is counted
once per search.  For the column-row families every straddling check is a
whole row or column of the assigned levels on each side, so the residuals
alone make the key.  The set-up that depends on the shape only (free
cells, unit completions, checks by closing position, cuts) is built once
per (p, q, r) and kept (``_plan``); the memo lives for one search, and
subtrees on the union are counted by the same memo as whole polytopes.
Enumeration runs the same recursion with the memo off.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .partitions import Composition, Partition, SizeMismatch, composition, partition

Number = Union[int, Fraction]


class NotDiagConstant(ValueError):
    """First level of a tensor is not in diagonal-constant triangular form."""


@dataclass(frozen=True)
class Tensor3:
    """p x q x r array stored as a tuple of level matrices, level 1 first."""

    levels: tuple[tuple[tuple[Number, ...], ...], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("tensor needs at least one level")
        p = len(self.levels[0])
        if p == 0:
            raise ValueError("tensor needs at least one row")
        q = len(self.levels[0][0])
        if q == 0:
            raise ValueError("tensor needs at least one column")
        for level in self.levels:
            if len(level) != p or any(len(row) != q for row in level):
                raise ValueError("ragged tensor")

    @staticmethod
    def from_levels(levels: Iterable[Iterable[Iterable[Number]]]) -> "Tensor3":
        return Tensor3(tuple(tuple(tuple(row) for row in level) for level in levels))

    @staticmethod
    def zeros(p: int, q: int, r: int) -> "Tensor3":
        return Tensor3(tuple(tuple((0,) * q for _ in range(p)) for _ in range(r)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return len(self.levels[0]), len(self.levels[0][0]), len(self.levels)

    def level(self, k: int) -> tuple[tuple[Number, ...], ...]:
        """Level matrix X^{(k)}, 1-based."""
        return self.levels[k - 1]

    def entry(self, i: int, j: int, k: int) -> Number:
        """Entry x_{i,j,k}, all indices 1-based."""
        return self.levels[k - 1][i - 1][j - 1]

    def marginals(self) -> tuple[tuple[Number, ...], tuple[Number, ...], tuple[Number, ...]]:
        """The three 1-marginals (row sums, column sums, level sums)."""
        p, q, r = self.dims
        rows = tuple(sum(self.levels[k][i][j] for j in range(q) for k in range(r)) for i in range(p))
        cols = tuple(sum(self.levels[k][i][j] for i in range(p) for k in range(r)) for j in range(q))
        levs = tuple(sum(self.levels[k][i][j] for i in range(p) for j in range(q)) for k in range(r))
        return rows, cols, levs

    def flatten_col(self) -> tuple[tuple[Number, ...], ...]:
        """pr x q stack of the level matrices with the highest level on top."""
        return tuple(row for level in reversed(self.levels) for row in level)

    def flatten_row(self) -> tuple[tuple[Number, ...], ...]:
        """p x qr concatenation of the level matrices, highest level leftmost."""
        p, q, r = self.dims
        return tuple(
            tuple(self.levels[k][i][j] for k in reversed(range(r)) for j in range(q))
            for i in range(p)
        )

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if self.dims != other.dims:
            raise SizeMismatch(f"dims {self.dims} != {other.dims}")
        return Tensor3(
            tuple(
                tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(la, lb))
                for la, lb in zip(self.levels, other.levels)
            )
        )

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        if self.dims != other.dims:
            raise SizeMismatch(f"dims {self.dims} != {other.dims}")
        return Tensor3(
            tuple(
                tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(la, lb))
                for la, lb in zip(self.levels, other.levels)
            )
        )

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for level in self.levels for row in level for x in row)

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "levels": [[list(row) for row in level] for level in self.levels],
        }


# --- face predicates -------------------------------------------------------


@dataclass(frozen=True)
class DiagZero:
    """Face x_i = 0 (i-th diagonal value of the first level)."""

    index: int


@dataclass(frozen=True)
class EntryZero:
    """Face x^{(2)}_{l,l} = 0."""

    index: int


@dataclass(frozen=True)
class ColTight:
    """Face where the column inequality C(j, t) holds with equality."""

    j: int
    t: int


@dataclass(frozen=True)
class RowTight:
    """Face where the row inequality R(i, s) holds with equality."""

    i: int
    s: int


@dataclass(frozen=True)
class FaceUnion:
    """Union of faces; a point belongs if it lies in any member."""

    faces: tuple


FacePredicate = Union[DiagZero, EntryZero, ColTight, RowTight, FaceUnion]


# --- constraint compilation ------------------------------------------------

# A check is a pair (lhs, rhs) of flat-index tuples meaning
# sum(entries[lhs]) >= sum(entries[rhs]).  Flat index of (i, j, k), 1-based,
# is ((k-1)*p + (i-1))*q + (j-1): level-major, row-major, level 1 first.


def _flat(i: int, j: int, k: int, p: int, q: int) -> int:
    return ((k - 1) * p + (i - 1)) * q + (j - 1)


def _col_cell(row: int, col: int, p: int, q: int, r: int) -> tuple[int, int, int]:
    """Tensor coordinates of cell (row, col) of the pr x q stack."""
    k = r - (row - 1) // p
    i = (row - 1) % p + 1
    return i, col, k


def _row_cell(row: int, col: int, p: int, q: int, r: int) -> tuple[int, int, int]:
    """Tensor coordinates of cell (row, col) of the p x qr concatenation."""
    k = r - (col - 1) // q
    j = (col - 1) % q + 1
    return row, j, k


def _canonicity(a: int, b: int):
    """The main lemma's canonicity conditions on an a x b matrix, over cells.

    Returns ``(staircase, checks)``: the cells (i, j) with i + j > a + 1
    vanish, and check ``((j, i), lhs, rhs)`` asks that rows i .. a+1-j of
    column j sum to at least rows i-1 .. a-j of column j+1.
    """
    staircase = tuple((i, j) for i in range(1, a + 1) for j in range(1, b + 1) if i + j > a + 1)
    checks = tuple(
        (
            (j, i),
            tuple((row, j) for row in range(i, a + 2 - j)),
            tuple((row, j + 1) for row in range(i - 1, a + 1 - j)),
        )
        for j in range(1, min(a, b))
        for i in range(2, a + 2 - j)
    )
    return staircase, checks


class _Family(NamedTuple):
    """One canonicity family over flat indices."""

    vanishing: tuple[int, ...]
    labels: tuple[tuple[int, int], ...]
    checks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _family(a: int, b: int, flat: Callable[[int, int], int]) -> _Family:
    """``_canonicity(a, b)`` with each matrix cell mapped through ``flat``."""
    staircase, checks = _canonicity(a, b)
    return _Family(
        tuple(flat(*cell) for cell in staircase),
        tuple(label for label, _, _ in checks),
        tuple(
            (tuple(flat(*cell) for cell in lhs), tuple(flat(*cell) for cell in rhs))
            for _, lhs, rhs in checks
        ),
    )


@lru_cache(maxsize=None)
def _compile_constraints(p: int, q: int, r: int) -> tuple[_Family, _Family]:
    """Column and row families of the (p, q, r) column-row cone: canonicity
    of the pr x q stack and of the transposed p x qr concatenation."""
    return (
        _family(p * r, q, lambda row, j: _flat(*_col_cell(row, j, p, q, r), p, q)),
        _family(q * r, p, lambda col, i: _flat(*_row_cell(i, col, p, q, r), p, q)),
    )


def _holds(family: _Family, entries: Sequence[Number]) -> bool:
    """The family's vanishing cells and checks, evaluated on flat entries."""
    return all(entries[t] == 0 for t in family.vanishing) and all(
        sum(entries[t] for t in lhs) >= sum(entries[t] for t in rhs) for lhs, rhs in family.checks
    )


@lru_cache(maxsize=None)
def _face_forms(face: FacePredicate, p: int, q: int, r: int) -> tuple:
    """A face predicate as checks ``(lhs, rhs)`` over flat indices.

    On the cone sum(lhs) >= sum(rhs); a point lies on the face (on some
    member, for a union) where sum(lhs) == sum(rhs).  The diagonal value
    x_d of the first level is its cell (1, d, 1), which needs p <= q.
    """
    if isinstance(face, FaceUnion):
        return tuple(form for member in face.faces for form in _face_forms(member, p, q, r))
    if isinstance(face, EntryZero):
        if not (r >= 2 and 1 <= face.index <= min(p, q)):
            raise ValueError(f"{face} out of range for dims {(p, q, r)}")
        return (((_flat(face.index, face.index, 2, p, q),), ()),)
    if not isinstance(face, (DiagZero, ColTight, RowTight)):
        raise TypeError(f"not a face predicate: {face!r}")
    if p > q:
        raise NotDiagConstant(f"requires p <= q, got dims {(p, q, r)}")
    if isinstance(face, DiagZero):
        if not 1 <= face.index <= p:
            raise ValueError(f"{face} out of range [1, {p}]")
        lhs, rhs = [(1, face.index, 1)], []
    elif isinstance(face, ColTight):
        _check_col_ineq(face.j, face.t, p, q, r)
        lhs = [(1, face.j, 1)] + _col_prefix_cells(face.j, face.t - 1, p)
        rhs = _col_prefix_cells(face.j + 1, face.t, p)
    else:
        _check_row_ineq(face.i, face.s, p, q, r)
        lhs = [(1, face.i, 1)] + _row_prefix_cells(face.i, face.s - 1, q)
        rhs = _row_prefix_cells(face.i + 1, face.s, q)
    return ((tuple(_flat(*c, p, q) for c in lhs), tuple(_flat(*c, p, q) for c in rhs)),)


class CRSystem:
    """Full constraint description of CR(lam, mu; tau).

    ``tau`` may contain zero parts: the corresponding levels are kept, with
    every entry forced to 0, so that level indices stay aligned with any
    shifted composition derived from ``tau``.  With ``transport_only`` the
    vanishing cells and inequalities are dropped and the system describes
    the plain transportation polytope T(lam, mu, tau).
    """

    def __init__(
        self,
        lam: Partition,
        mu: Partition,
        tau: Composition,
        transport_only: bool = False,
    ):
        self.lam = partition(lam)
        self.mu = partition(mu)
        self.tau = composition(tau)
        if sum(self.lam) != sum(self.mu) or sum(self.lam) != sum(self.tau):
            raise SizeMismatch(f"sizes of {lam}, {mu}, {tau} differ")
        if not self.lam or not self.tau:
            raise ValueError("lam, mu, tau must all be nonempty")
        self.p = len(self.lam)
        self.q = len(self.mu)
        self.r = len(self.tau)
        self.transport_only = bool(transport_only)
        self._families = () if self.transport_only else _compile_constraints(self.p, self.q, self.r)
        self.column_inequalities, self.row_inequalities = (
            tuple(family.labels for family in self._families) or ((), ())
        )

    @property
    def vanishing(self) -> frozenset[tuple[int, int, int]]:
        """Cells (i, j, k) that either staircase forces to 0."""
        p, q = self.p, self.q
        flat = {t for family in self._families for t in family.vanishing}
        return frozenset((t // q % p + 1, t % q + 1, t // (p * q) + 1) for t in flat)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.p, self.q, self.r

    def __repr__(self):
        kind = "T" if self.transport_only else "CR"
        return f"{kind}({self.lam}, {self.mu}; {self.tau})"

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "tau": list(self.tau),
            "dims": [self.p, self.q, self.r],
            "transportOnly": self.transport_only,
            "vanishing": sorted([i, j, k] for (i, j, k) in self.vanishing),
            "columnInequalities": [list(label) for label in self.column_inequalities],
            "rowInequalities": [list(label) for label in self.row_inequalities],
        }


def _flat_entries(tensor: Tensor3) -> list[Number]:
    return [x for level in tensor.levels for row in level for x in row]


def _cone_conditions_hold(tensor: Tensor3) -> bool:
    entries = _flat_entries(tensor)
    return all(_holds(family, entries) for family in _compile_constraints(*tensor.dims))


def in_cone(tensor: Tensor3) -> bool:
    """Membership in the column-row cone: all constraints, no marginal ties."""
    return tensor.is_nonnegative() and _cone_conditions_hold(tensor)


def is_member(tensor: Tensor3, system: CRSystem) -> bool:
    """Membership of a (rational or integer) tensor in the system's polytope."""
    if tensor.dims != system.dims:
        raise SizeMismatch(f"tensor dims {tensor.dims} != system dims {system.dims}")
    if not tensor.is_nonnegative():
        return False
    if tensor.marginals() != (system.lam, system.mu, system.tau):
        return False
    if system.transport_only:
        return True
    return _cone_conditions_hold(tensor)


# --- exhaustive search -----------------------------------------------------


class _Plan(NamedTuple):
    """Search set-up of one (p, q, r) shape: everything but the targets.

    Free cells are searched in flat order.  ``cells`` holds the 0-based
    (row, column, level) of each free position, ``pos_of`` the position of
    each free flat index, ``idle`` the units (axis, index) with no free
    cell, ``finals`` the units whose last free cell each position is,
    ``checks_at`` the checks that close at each position, and ``cuts`` is
    ``(level, parts)`` at the first free cell of every level after the
    first (None elsewhere): ``parts`` are the assigned parts of the checks
    that straddle it (see ``_straddling``).
    """

    free: tuple[int, ...]
    cells: tuple[tuple[int, int, int], ...]
    pos_of: dict[int, int]
    idle: tuple[tuple[int, int], ...]
    finals: tuple[tuple[tuple[int, int], ...], ...]
    checks_at: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]
    cuts: tuple


def _closing(pairs, plan_cells, pos_of: dict[int, int]) -> list:
    """Each ``(lhs, rhs)`` with the first and last positions of its free
    cells (None if it has none) and, per side, the sorted positions of its
    free cells and the lines (0, row) or (1, column) that hold them all."""
    unit_of = [[cell[axis] for cell in plan_cells] for axis in (0, 1)]
    out = []
    for lhs, rhs in pairs:
        sides = []
        for side in (lhs, rhs):
            at = sorted([pos for pos in map(pos_of.get, side) if pos is not None])
            lines = []
            for axis in (0, 1):
                units = set(map(unit_of[axis].__getitem__, at))
                if len(units) == 1:
                    lines.append((axis, *units))
            sides.append((at, lines))
        live = sides[0][0] + sides[1][0]
        span = (min(live), max(live)) if live else (None, None)
        out.append((lhs, rhs, *span, sides))
    return out


def _straddling(closing: list, pos_of: dict[int, int], cut: int, before: Counter) -> tuple:
    """The parts before position ``cut`` of the pairs with free cells on
    both sides of it: their sums are all the search needs of the past.

    Each part is listed once, and left out where the residuals already fix
    it: when each side is empty or a whole row or column of the cells
    assigned before the cut (``before`` counts those per line).
    """
    parts = {}
    for lhs, rhs, first, last, sides in closing:
        if first is None or not first < cut <= last:
            continue
        for at, lines in sides:
            n = bisect_left(at, cut)
            if n and all(before[line] != n for line in lines):
                past = (
                    tuple(t for t in lhs if pos_of.get(t, cut) < cut),
                    tuple(t for t in rhs if pos_of.get(t, cut) < cut),
                )
                parts[past] = None
                break
    return tuple(parts)


def _before(plan_cells, cut: int) -> Counter:
    """Free cells before position ``cut`` on each row (0, i) and column (1, j)."""
    return Counter(line for i, j, _ in plan_cells[:cut] for line in ((0, i), (1, j)))


@lru_cache(maxsize=None)
def _plan(p: int, q: int, r: int, transport_only: bool) -> _Plan:
    families = () if transport_only else _compile_constraints(p, q, r)
    forced = {t for family in families for t in family.vanishing}
    free = tuple(idx for idx in range(p * q * r) if idx not in forced)
    pos_of = {idx: pos for pos, idx in enumerate(free)}
    cells = tuple((idx // q % p, idx % q, idx // (p * q)) for idx in free)

    finals: list[list[tuple[int, int]]] = [[] for _ in free]
    idle = []
    for axis, size in enumerate((p, q, r)):
        last = {cell[axis]: pos for pos, cell in enumerate(cells)}
        for unit in range(size):
            if unit in last:
                finals[last[unit]].append((axis, unit))
            else:
                idle.append((axis, unit))

    closing = _closing([check for family in families for check in family.checks], cells, pos_of)
    checks_at: list[list] = [[] for _ in free]
    for lhs, rhs, _, last, _ in closing:
        if last is not None:
            checks_at[last].append((lhs, rhs))

    cuts: list = [None] * len(free)
    for level in range(1, r):
        first = next((pos for pos, cell in enumerate(cells) if cell[2] >= level), None)
        if first is not None and cuts[first] is None and first > 0:
            cuts[first] = (level, _straddling(closing, pos_of, first, _before(cells, first)))
    return _Plan(
        free,
        cells,
        pos_of,
        tuple(idle),
        tuple(map(tuple, finals)),
        tuple(map(tuple, checks_at)),
        tuple(cuts),
    )


@lru_cache(maxsize=None)
def _form_plan(forms: tuple, p: int, q: int, r: int, transport_only: bool):
    """Face forms on a shape's plan: ``(forms_at, last, parts)``.

    Each form is decided where its last free cell is assigned (``forms_at``;
    ``last`` is the last such position), and ``parts`` holds, at each cut,
    the parts of the undecided forms that straddle it.  None when a form has
    no free cell: it is 0 everywhere, so the whole polytope counts.
    """
    plan = _plan(p, q, r, transport_only)
    closing = _closing(forms, plan.cells, plan.pos_of)
    if any(last is None for _, _, _, last, _ in closing):
        return None
    forms_at: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[] for _ in plan.free]
    for lhs, rhs, _, last, _ in closing:
        forms_at[last].append((lhs, rhs))
    last = max((pos for pos, decided in enumerate(forms_at) if decided), default=-1)
    parts = tuple(
        None if cut is None else _straddling(closing, plan.pos_of, pos, _before(plan.cells, pos))
        for pos, cut in enumerate(plan.cuts)
    )
    return tuple(map(tuple, forms_at)), last, parts


def _search(
    system: CRSystem,
    on_solution: Callable[[list[int]], None] | None = None,
    forms: tuple | None = None,
) -> int:
    """Depth-first assignment of all integer points; returns their number.

    With ``forms`` (see ``_face_forms``) only the points on the union of
    their faces count.  Each form is decided where its last free cell is
    assigned; ``hit`` marks a branch already on the union (from the start
    when there are no forms), and a branch past the last decision with
    every form nonzero is cut.  When counting, each subtree is counted once
    per state at the first free cell of every level (see ``_Plan``): the
    position, the row and column residuals, the residuals of this and later
    levels and the partial sums of the checks (and, off the union, of the
    undecided forms) that straddle the cut decide the rest of the search.
    Subtrees on the union share one memo, the others keep their own.  With
    ``on_solution`` the memo is off and every point reaches it, in
    lexicographic order.
    """
    p, q, r = system.dims
    plan = _plan(p, q, r, system.transport_only)
    targets = (system.lam, system.mu, system.tau)
    if any(targets[axis][unit] for axis, unit in plan.idle):
        return 0
    form_plan = None if forms is None else _form_plan(forms, p, q, r, system.transport_only)
    # Without forms (or with one that is 0 everywhere) every branch is on the union.
    forms_at, last, form_parts = form_plan or ((), 0, ())
    if last < 0:
        return 0
    free_cells, cells, unit_last, checks_at = plan.free, plan.cells, plan.finals, plan.checks_at
    n_free = len(free_cells)
    cuts = plan.cuts if on_solution is None else (None,) * n_free
    plain_memo: dict[tuple, int] = {}
    face_memo: dict[tuple, int] = {}

    entries = [0] * (p * q * r)
    get = entries.__getitem__
    row_rem = list(system.lam)
    col_rem = list(system.mu)
    lev_rem = list(system.tau)
    rems = (row_rem, col_rem, lev_rem)

    def rec(pos: int, hit: bool) -> int:
        if pos == n_free:
            if on_solution is not None:
                on_solution(entries)
            return 1
        cut = cuts[pos]
        if cut is not None:
            level, parts = cut
            key = (
                pos,
                *row_rem,
                *col_rem,
                *lev_rem[level:],
                *[sum(map(get, lhs)) - sum(map(get, rhs)) for lhs, rhs in parts],
            )
            if hit:
                memo = plain_memo
            else:
                memo = face_memo
                key += tuple(sum(map(get, lhs)) - sum(map(get, rhs)) for lhs, rhs in form_parts[pos])
            found = memo.get(key)
            if found is not None:
                return found
        i, j, k = cells[pos]
        ub = min(row_rem[i], col_rem[j], lev_rem[k])
        finals = unit_last[pos]
        if finals:
            need = rems[finals[0][0]][finals[0][1]]
            for axis, unit in finals[1:]:
                if rems[axis][unit] != need:
                    return 0
            if need > ub:
                return 0
            values = (need,)
        else:
            values = range(ub + 1)
        idx = free_cells[pos]
        total = 0
        for v in values:
            entries[idx] = v
            row_rem[i] -= v
            col_rem[j] -= v
            lev_rem[k] -= v
            ok = True
            for lhs, rhs in checks_at[pos]:
                lo = 0
                for t in lhs:
                    lo += entries[t]
                hi = 0
                for t in rhs:
                    hi += entries[t]
                if lo < hi:
                    ok = False
                    break
            if ok:
                if hit or any(sum(map(get, lhs)) == sum(map(get, rhs)) for lhs, rhs in forms_at[pos]):
                    total += rec(pos + 1, True)
                elif pos < last:
                    total += rec(pos + 1, False)
            row_rem[i] += v
            col_rem[j] += v
            lev_rem[k] += v
        entries[idx] = 0
        if cut is not None:
            memo[key] = total
        return total

    return rec(0, form_plan is None)


def _tensor_from_flat(entries: Sequence[Number], p: int, q: int, r: int) -> Tensor3:
    levels = []
    for k in range(r):
        base = k * p * q
        levels.append(
            tuple(tuple(entries[base + i * q + j] for j in range(q)) for i in range(p))
        )
    return Tensor3(tuple(levels))


# Face-union counts by value, (lam, mu, tau, face) -> count.
_face_counts: dict[tuple, int] = {}


def count_points(system: CRSystem, face: FacePredicate | None = None) -> int:
    """Number of integer points of the system (optionally inside a face union).

    A face union is counted inside the search: each face becomes a linear
    form (``_face_forms``), and a subtree is counted whole as soon as one
    form is 0 on it.  Face counts are memoized on (lam, mu, tau, face).
    """
    if face is None:
        return _search(system)
    if system.transport_only:
        raise ValueError(f"face counts need a column-row system, not {system!r}")
    forms = _face_forms(face, *system.dims)
    key = (system.lam, system.mu, system.tau, face)
    count = _face_counts.get(key)
    if count is None:
        count = _face_counts[key] = _search(system, forms=forms)
    return count


def enumerate_points(system: CRSystem) -> tuple[Tensor3, ...]:
    """All integer points, in lexicographic order of the flattened entries."""
    p, q, r = system.dims
    out: list[Tensor3] = []
    _search(system, lambda entries: out.append(_tensor_from_flat(entries, p, q, r)))
    return tuple(out)


def face_hit_counts(system: CRSystem, union: FaceUnion) -> tuple[int, ...]:
    """Diagnostic: per-face point counts over a union (faces may overlap)."""
    return tuple(count_points(system, member) for member in union.faces)


# --- level-1 structure and the named inequalities --------------------------


def diag_values(tensor: Tensor3) -> tuple[Number, ...]:
    """Diagonal values (x_1, ..., x_p) of the first level.

    Requires p <= q and the first level to be constant on diagonals with
    zeros below the antidiagonal, which holds for every member of a
    column-row cone.
    """
    p, q, r = tensor.dims
    if p > q:
        raise NotDiagConstant(f"requires p <= q, got dims {tensor.dims}")
    level1 = tensor.level(1)
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            want = level1[0][i + j - 2] if i + j <= p + 1 else 0
            if level1[i - 1][j - 1] != want:
                raise NotDiagConstant(f"first level breaks diagonal form at ({i}, {j})")
    return tuple(level1[0][d] for d in range(p))


def _col_prefix_cells(j: int, t: int, p: int) -> list[tuple[int, int, int]]:
    """Cells of S^c_{j,t}: first t entries of column j of the reduced stack, bottom up."""
    if t == 0:
        return []
    c, d = divmod(t - 1, p)
    cells = [(i, j, k + 1) for k in range(1, c + 1) for i in range(1, p + 1)]
    return cells + [(i, j, c + 2) for i in range(p - d, p + 1)]


def _row_prefix_cells(i: int, s: int, q: int) -> list[tuple[int, int, int]]:
    """Cells of S^r_{i,s}: first s entries of row i of the reduced concatenation."""
    if s == 0:
        return []
    e, f = divmod(s - 1, q)
    cells = [(i, j, k + 1) for k in range(1, e + 1) for j in range(1, q + 1)]
    return cells + [(i, j, e + 2) for j in range(q - f, q + 1)]


def _check_col_ineq(j: int, t: int, p: int, q: int, r: int) -> None:
    if not 1 <= j <= p:
        raise ValueError(f"j = {j} out of range [1, {p}]")
    if j == p and p >= q:
        raise ValueError("C(p, t) is only defined when p < q")
    if not 1 <= t <= p * (r - 1):
        raise ValueError(f"t = {t} out of range [1, {p * (r - 1)}]")


def _check_row_ineq(i: int, s: int, p: int, q: int, r: int) -> None:
    if not 1 <= i <= p - 1:
        raise ValueError(f"i = {i} out of range [1, {p - 1}]")
    if not 1 <= s <= q * (r - 1):
        raise ValueError(f"s = {s} out of range [1, {q * (r - 1)}]")


def _cells_sum(tensor: Tensor3, cells: Iterable[tuple[int, int, int]]) -> Number:
    return sum(tensor.entry(*cell) for cell in cells)


def col_ineq_slack(tensor: Tensor3, j: int, t: int) -> Number:
    """Slack of the column inequality C(j, t): x_j + S^c_{j,t-1} - S^c_{j+1,t}."""
    p, q, r = tensor.dims
    _check_col_ineq(j, t, p, q, r)
    x = diag_values(tensor)
    return (
        x[j - 1]
        + _cells_sum(tensor, _col_prefix_cells(j, t - 1, p))
        - _cells_sum(tensor, _col_prefix_cells(j + 1, t, p))
    )


def row_ineq_slack(tensor: Tensor3, i: int, s: int) -> Number:
    """Slack of the row inequality R(i, s): x_i + S^r_{i,s-1} - S^r_{i+1,s}."""
    p, q, r = tensor.dims
    _check_row_ineq(i, s, p, q, r)
    x = diag_values(tensor)
    return (
        x[i - 1]
        + _cells_sum(tensor, _row_prefix_cells(i, s - 1, q))
        - _cells_sum(tensor, _row_prefix_cells(i + 1, s, q))
    )


# --- cone dimension, hypercube samples, affine rank ------------------------


def _require_cone_dims(p: int, q: int, r: int) -> None:
    if not (1 <= p <= q <= p * r):
        raise ValueError(f"requires p <= q <= p*r, got ({p}, {q}, {r})")


def cone_dim(p: int, q: int, r: int) -> int:
    """Dimension of the column-row cone: pqr - C(p,2) - C(q,2)."""
    _require_cone_dims(p, q, r)
    return p * q * r - p * (p - 1) // 2 - q * (q - 1) // 2


def polytope_dim_bound(p: int, q: int, r: int) -> int:
    """Upper bound for the dimension of a column-row polytope."""
    if r < 2:
        raise ValueError(f"requires r >= 2, got r = {r}")
    _require_cone_dims(p, q, r)
    return cone_dim(p, q, r) - (p + q + r) + 2


def hypercube_interval(j: int, q: int) -> tuple[Fraction, Fraction]:
    """Open interval I_j, nested so that everything in I_j exceeds I_{j+1}."""
    if not 1 <= j <= q:
        raise ValueError(f"j = {j} out of range [1, {q}]")
    return Fraction(2 * (q - j) + 1, 2 * q + 2), Fraction(2 * (q - j) + 2, 2 * q + 2)


def free_cone_coordinates(p: int, q: int, r: int) -> tuple[tuple, ...]:
    """Free coordinates of the open hypercube inside the (p, q, r) cone.

    ``("diag", d)`` is the d-th diagonal value of level 1; ``(i, j, k)`` is a
    free cell of a higher level.  Every free coordinate ranges over the open
    interval attached to its column (diagonal d uses column d).
    """
    _require_cone_dims(p, q, r)
    coords: list[tuple] = [("diag", d) for d in range(1, p + 1)]
    for k in range(2, r + 1):
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                if i + j - 1 <= k * p:
                    coords.append((i, j, k))
    return tuple(coords)


def build_hypercube_point(p: int, q: int, r: int, picks: dict) -> Tensor3:
    """Assemble a cone point from one value per free hypercube coordinate."""
    levels = [[[Fraction(0)] * q for _ in range(p)] for _ in range(r)]
    for coord in free_cone_coordinates(p, q, r):
        if coord[0] == "diag":
            d = coord[1]
            lo, hi = hypercube_interval(d, q)
            value = Fraction(picks[coord])
            if not lo < value < hi:
                raise ValueError(f"pick for {coord} outside {lo}..{hi}")
            for i in range(1, p + 1):
                j = d + 1 - i
                if 1 <= j <= q:
                    levels[0][i - 1][j - 1] = q * (r - 1) + value
        else:
            i, j, k = coord
            lo, hi = hypercube_interval(j, q)
            value = Fraction(picks[coord])
            if not lo < value < hi:
                raise ValueError(f"pick for {coord} outside {lo}..{hi}")
            levels[k - 1][i - 1][j - 1] = value
    return Tensor3.from_levels(levels)


def hypercube_sample(p: int, q: int, r: int, seed: int) -> Tensor3:
    """Deterministic rational cone point drawn from the open hypercube."""
    rng = random.Random(f"column-row-hypercube:{p}:{q}:{r}:{seed}")
    picks = {}
    for coord in free_cone_coordinates(p, q, r):
        lo, hi = hypercube_interval(coord[1], q)
        picks[coord] = lo + (hi - lo) * Fraction(rng.randrange(1, 256), 256)
    return build_hypercube_point(p, q, r, picks)


def affine_rank(points: Sequence[Tensor3]) -> int:
    """Rank of the difference set of ``points`` under exact elimination."""
    if not points:
        raise ValueError("affine_rank needs at least one point")
    base = _flat_entries(points[0])
    rows = []
    for point in points[1:]:
        if point.dims != points[0].dims:
            raise SizeMismatch("points must share dimensions")
        rows.append([Fraction(x) - Fraction(y) for x, y in zip(_flat_entries(point), base)])
    rank = 0
    cols = len(base)
    pivot_col = 0
    while pivot_col < cols and rank < len(rows):
        pivot = next((ri for ri in range(rank, len(rows)) if rows[ri][pivot_col] != 0), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][pivot_col]
        for ri in range(rank + 1, len(rows)):
            factor = rows[ri][pivot_col] / lead
            if factor:
                rows[ri] = [a - factor * b for a, b in zip(rows[ri], rows[rank])]
        rank += 1
        pivot_col += 1
    return rank
