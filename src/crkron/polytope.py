"""Column-row polytopes: constraints, membership, and exact point counting.

A column-row polytope CR(lam, mu; tau) sits inside the 3-way transportation
polytope T(lam, mu, tau).  Its extra constraints live on two flattenings of
the p x q x r array X: the pr x q vertical stack of the level matrices
(highest level on top) and the p x qr horizontal concatenation.  There is
one index layout: both flattenings as matrices of flat indices, the
concatenation transposed (``_flattenings``).  The main lemma's vanishing
staircase and prefix checks are read off either matrix alike, each side of
a check a slice of one column (``_family``).

Counting is exhaustive: a depth-first assignment of entries, level by
level from level 1 up, and within each level by antidiagonals, from the
last (row p, column q) back to the first, rows ascending within one.
Every constraint at a position is a bound on its cell's value v: the
residuals of its row, column and level cap v, each check that closes there
bounds it from one side, and a unit whose last free cell it is bounds it
below by that unit's residual.  Every canonicity check reads a lower run
of a column (or a right run of a row) of its highest level plus cells of
the levels below, and every row and column meets each antidiagonal in one
cell.  So where a check closes, each side is the assigned part of one
tensor column (or row), known from the residuals, and the closing cell
lies in one side only: the check is a bound v >= d or v <= d on the
closing cell's value.  A node works out its bounds once and tries only the
values between them.  A union of faces is counted by the same recursion,
with each face compiled to a linear form that is 0 exactly on it: a single
cell, or the compiled check whose tightness the face names.  Every form is
a bound at its last free cell, tight exactly where the form is 0: a check's
own bound, or v >= 0 for a cell.  So exactly one value of that cell makes
the form 0, the bound's tight value; a flag ``hit`` marks the branches
already on the union, and a branch off it tries only those values at the
last deciding cell.  No floating point anywhere; rational data uses
``fractions.Fraction``.

The search is exact but does not visit every point when it only counts.  No
bound reads a cell, so at every position the assigned cells reach the rest
of the search only through the residuals, and the search keys its state
at every position: the position and the residuals, packed into one int
that each assignment lowers by one product.  A node looks up each child's
key before it descends, so a state counted before costs a dict lookup,
not a search frame.  The search
treats the three margins alike: row i, column j and level k are the units
i, p + j and p + q + k (0-based) of one residual vector, which starts at
the concatenated targets lam + mu + tau.  Equal states have equal
subtrees, so each is counted once: the transfer-matrix method (Stanley,
Enumerative Combinatorics I, 4.7) run depth first.  The set-up that
depends on the shape only (free cells, the unit each position completes,
the checks' bounds by closing position) is built once per (p, q, r) and kept
(``_plan``), and gathered with each cell's key weight into one tuple per
position once per shape and |lam| (``_steps``).  The search takes one frame
per free cell, so ``_search`` counts the free cells from the two staircases
(``_forced``) and, before anything is planned or any check compiled,
refuses with ``RecursionError`` when the frames already in use plus one
per free cell and the leaf's would reach the recursion limit.  A subtree
on the face union counts all its points, as a plain search does, and lam
and mu fix the rest: the memo of the states on the union
outlives the search.  ``_pair_memo`` keeps it for the last (lam, mu,
transport_only) counted, across every tau and face union of that pair, and
a search of another pair replaces it, so memory stays bounded by one
pair's states.  A state off the union counts only the points on one
search's union, so that memo lives for the search.  The search takes the
face itself and reads its forms' bounds from one cache per face and shape
(``_form_plan``).  Every count, plain or on a face union, goes through one
entry on validated tuples, ``_count``: the search, cached by value.
Enumeration runs the same recursion with the memo off and sorts the points
it finds.
"""

from __future__ import annotations

import random
import sys
from contextlib import suppress
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

from .partitions import Composition, Partition, SizeMismatch, _Record, composition, partition

if TYPE_CHECKING:
    from fractions import Fraction

# ``fractions`` (and the ``decimal`` it imports) is loaded only by the four
# functions that build rational points, not by every ``import crkron``.
Number = Union[int, "Fraction"]


class NotDiagConstant(ValueError):
    """First level of a tensor is not in diagonal-constant triangular form."""


class Tensor3(_Record):
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

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for level in self.levels for row in level for x in row)

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "levels": [[list(row) for row in level] for level in self.levels],
        }


# --- face predicates -------------------------------------------------------


class DiagZero(_Record):
    """Face x_i = 0 (i-th diagonal value of the first level)."""

    index: int


class EntryZero(_Record):
    """Face x^{(2)}_{l,l} = 0."""

    index: int


class ColTight(_Record):
    """Face where the column inequality C(j, t) holds with equality."""

    j: int
    t: int


class RowTight(_Record):
    """Face where the row inequality R(i, s) holds with equality."""

    i: int
    s: int


class FaceUnion(_Record):
    """Union of faces; a point belongs if it lies in any member.  The hash
    is taken once, as ``_count`` and ``_form_plan`` key their caches on the
    union."""

    faces: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.faces))

    def __hash__(self):
        return self._hash


FacePredicate = Union[DiagZero, EntryZero, ColTight, RowTight, FaceUnion]


# --- constraint compilation ------------------------------------------------

# A check is a pair (lhs, rhs) of flat-index tuples meaning
# sum(entries[lhs]) >= sum(entries[rhs]).  Flat index of (i, j, k), 1-based,
# is ((k-1)*p + (i-1))*q + (j-1): level-major, row-major, level 1 first.


def _flat(i: int, j: int, k: int, p: int, q: int) -> int:
    return ((k - 1) * p + (i - 1)) * q + (j - 1)


def _staircase(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """The cells (i, j) of an a x b matrix with i + j > a + 1: the main
    lemma's canonicity conditions make them vanish."""
    return tuple((i, j) for i in range(1, a + 1) for j in range(1, b + 1) if i + j > a + 1)


class _Family(NamedTuple):
    """One canonicity family over flat indices."""

    vanishing: tuple[int, ...]
    labels: tuple[tuple[int, int], ...]
    checks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _flattenings(p: int, q: int, r: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The flat indices laid out as the pr x q stack, highest level on top,
    and as the transposed p x qr concatenation, highest level leftmost: the
    layouts of ``Tensor3.flatten_col`` and of the transposed
    ``Tensor3.flatten_row``."""
    down = range(r - 1, -1, -1)  # 0-based levels, highest first
    stack = tuple(tuple(range((k * p + i) * q, (k * p + i + 1) * q)) for k in down for i in range(p))
    concat = tuple(tuple(range(k * p * q + j, (k + 1) * p * q, q)) for k in down for j in range(q))
    return stack, concat


def _family(matrix: Sequence[Sequence[int]]) -> _Family:
    """The main lemma's staircase cells and prefix checks on an a x b
    matrix of flat indices.

    Check ``(j, i)`` asks that rows i .. a+1-j of column j sum to at least
    rows i-1 .. a-j of column j+1.  Each side is a slice of one column that
    ends at the last cell of its column above the staircase.
    """
    cols = tuple(zip(*matrix))
    a, b = len(matrix), len(cols)
    labels = tuple((j, i) for j in range(1, min(a, b)) for i in range(2, a + 2 - j))
    return _Family(
        tuple(matrix[i - 1][j - 1] for i, j in _staircase(a, b)),
        labels,
        tuple((cols[j - 1][i - 1 : a + 1 - j], cols[j][i - 2 : a - j]) for j, i in labels),
    )


@lru_cache(maxsize=None)
def _compile_constraints(p: int, q: int, r: int) -> tuple[_Family, _Family]:
    """Column and row families of the (p, q, r) column-row cone: canonicity
    of the pr x q stack and of the transposed p x qr concatenation."""
    stack, concat = _flattenings(p, q, r)
    return _family(stack), _family(concat)


@lru_cache(maxsize=None)
def _forced(p: int, q: int, r: int) -> frozenset[int]:
    """Flat indices of both families' vanishing cells, read off the two
    staircases of ``_flattenings`` alone: no check is compiled, so the
    depth guard in ``_search`` counts the free cells from them before
    anything is planned."""
    return frozenset(
        m[i - 1][j - 1] for m in _flattenings(p, q, r) for i, j in _staircase(len(m), len(m[0]))
    )


def _holds(family: _Family, entries: Sequence[Number]) -> bool:
    """The family's vanishing cells and checks, evaluated on flat entries."""
    return all(entries[t] == 0 for t in family.vanishing) and all(
        sum(entries[t] for t in lhs) >= sum(entries[t] for t in rhs) for lhs, rhs in family.checks
    )


def _face_forms(face: FacePredicate, p: int, q: int, r: int) -> tuple:
    """A face predicate as checks ``(lhs, rhs)`` over flat indices; the one
    validator of a named face, its kind, its index range and p <= q.

    On the cone sum(lhs) >= sum(rhs); a point lies on the face (on some
    member, for a union) where sum(lhs) == sum(rhs).  The diagonal value
    x_d of the first level is its cell (1, d, 1), which needs p <= q.
    ``ColTight(j, t)`` is the column family's check labelled
    (j, p(r-1)+2-t) and ``RowTight(i, s)`` the row family's check labelled
    (i, q(r-1)+2-s).  On the cone each equals the slack of its inequality,
    x_j + S_{j,t-1} - S_{j+1,t} for C(j, t): both read the same cells of
    the higher levels, and the check's two level-1 runs, level 1 being
    diagonal-constant, differ by exactly x_j.
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
        return (((_flat(1, face.index, 1, p, q),), ()),)
    col_family, row_family = _compile_constraints(p, q, r)
    if isinstance(face, ColTight):
        if not 1 <= face.j <= p:
            raise ValueError(f"j = {face.j} out of range [1, {p}]")
        if face.j == p == q:
            raise ValueError("C(p, t) is only defined when p < q")
        if not 1 <= face.t <= p * (r - 1):
            raise ValueError(f"t = {face.t} out of range [1, {p * (r - 1)}]")
        family, label = col_family, (face.j, p * (r - 1) + 2 - face.t)
    else:
        if not 1 <= face.i <= p - 1:
            raise ValueError(f"i = {face.i} out of range [1, {p - 1}]")
        if not 1 <= face.s <= q * (r - 1):
            raise ValueError(f"s = {face.s} out of range [1, {q * (r - 1)}]")
        family, label = row_family, (face.i, q * (r - 1) + 2 - face.s)
    return (family.checks[family.labels.index(label)],)


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

    @property
    def column_inequalities(self) -> tuple[tuple[int, int], ...]:
        """Labels (j, i) of the column family's checks.  The families are
        compiled on first use, so a shape too deep to search is refused
        before any check is compiled."""
        return () if self.transport_only else _compile_constraints(self.p, self.q, self.r)[0].labels

    @property
    def row_inequalities(self) -> tuple[tuple[int, int], ...]:
        """Labels (i, s) of the row family's checks."""
        return () if self.transport_only else _compile_constraints(self.p, self.q, self.r)[1].labels

    @property
    def vanishing(self) -> frozenset[tuple[int, int, int]]:
        """Cells (i, j, k) that either staircase forces to 0."""
        p, q = self.p, self.q
        flat = () if self.transport_only else _forced(p, q, self.r)
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

    Free cells are searched level by level, level 1 first, and each level
    by antidiagonals, largest i + j first, rows ascending within one.
    ``units`` holds the three unit ids (row i, column p + j, level
    p + q + k, 0-based) of each free position, ``pos_of`` the position of
    each free flat index, ``idle`` the units with no free cell and
    ``completes`` the unit whose last free cell each position is (-1 for
    none).  A unit's last cell takes its whole residual, so completion is
    the lower bound v >= residual; the residual cap is the upper one.  Only
    the last free position completes more than one unit: level k ends at
    (1, 1, k), row i >= 2 at (i, 1, r), column j >= 2 at (1, j, r), and
    (1, 1, r) ends row 1, column 1 and level r.  There rows, columns and
    levels each sum to n less the assigned total, and every other unit is
    already 0, so its three residuals are equal and one of them stands for
    all.

    Each check is reduced once, at the position where it closes, to a bound
    on that cell's value v.  Its two sides lie in two adjacent units of one
    margin: a column-family side is a bottom run of one stack column, so of
    one tensor column, and a row-family side a right run of one
    concatenation row, so of one tensor row.  Either way a side's free
    cells are the first ones its line meets in search order.  The two runs
    start one row and one column apart, on one antidiagonal (or at a
    level's edge), and a row or column meets each antidiagonal in one
    cell, so at the closing position each side holds every assigned cell
    of its line: its sum is target minus residual.  The closing cell lies
    in exactly one side, whose line is the cell's own unit on that margin;
    with ``d`` the other side's sum less the closing line's assigned part
    before v, the check reads v >= d when the closing side is the left one
    and v <= d when it is the right one.  ``bounds_at`` holds at each
    position the bounds ``(close, other, lower)`` of the checks closing
    there, with ``close`` and ``other`` unit ids, and ``reductions`` maps
    every check to its closing position (-1 if it has no free cell) and
    its bound (None then).  A face's forms are entered as such bounds, once
    per face and shape (see ``_form_plan``).

    No bound reads a cell, so at every position the cells already assigned
    reach the rest of the search only through the residuals, and the
    position and the residuals fix it.  The search reads a position's units,
    flat index, bounds and completed unit as one tuple (see ``_steps``).
    """

    free: tuple[int, ...]
    units: tuple[tuple[int, int, int], ...]
    pos_of: dict[int, int]
    idle: tuple[int, ...]
    completes: tuple[int, ...]
    bounds_at: tuple[tuple[tuple, ...], ...]
    reductions: dict[tuple, tuple[int, tuple | None]]


@lru_cache(maxsize=None)
def _plan(p: int, q: int, r: int, transport_only: bool) -> _Plan:
    """The shape's ``_Plan``.  ``_search`` refuses a shape too deep to
    search before it asks for one, so no plan is built for it."""
    forced = frozenset() if transport_only else _forced(p, q, r)
    # Level by level, each by antidiagonals i + j from the last, rows ascending.
    free = tuple(
        sorted(
            (idx for idx in range(p * q * r) if idx not in forced),
            key=lambda idx: (idx // (p * q), -(idx // q % p + idx % q), idx),
        )
    )
    pos_of = {idx: pos for pos, idx in enumerate(free)}
    units = tuple((idx // q % p, p + idx % q, p + q + idx // (p * q)) for idx in free)

    last_of = {unit: pos for pos, cell in enumerate(units) for unit in cell}
    ends = {pos: unit for unit, pos in last_of.items()}  # one unit per position (see _Plan)

    def last(side) -> int:
        """The last free position of a check's side, -1 if it has none.  A
        side lists its cells against the search order (the top of its stack
        column, or the left end of its concatenation row, first), so that is
        the position of its first free cell."""
        for t in side:
            if t in pos_of:
                return pos_of[t]
        return -1

    bounds_at: list[list] = [[] for _ in free]
    reductions: dict[tuple, tuple[int, tuple | None]] = {}
    families = () if transport_only else _compile_constraints(p, q, r)
    for offset, family in zip((p, 0), families):
        # Check (j, i) compares a side on unit offset + j - 1 with one on offset + j.
        for (j, _), pair in zip(family.labels, family.checks):
            lhs_last, rhs_last = map(last, pair)
            pos = max(lhs_last, rhs_last)
            bound = None
            if pos >= 0:
                lower = lhs_last == pos
                left, right = offset + j - 1, offset + j
                bound = (left, right, lower) if lower else (right, left, lower)
                bounds_at[pos].append(bound)
            reductions[pair] = (pos, bound)
    return _Plan(
        free,
        units,
        pos_of,
        tuple(unit for unit in range(p + q + r) if unit not in last_of),
        tuple(ends.get(pos, -1) for pos in range(len(free))),
        tuple(map(tuple, bounds_at)),
        reductions,
    )


@lru_cache(maxsize=None)
def _steps(p: int, q: int, r: int, transport_only: bool, n: int):
    """The search's data per position and the key's place values: ``(steps,
    digits)``, kept per shape and n = |lam|.

    A state is packed into one int, its key, read as a mixed-radix number.
    Its lowest digit is the position, of base b = pqr + 1.  Above it sit the
    residuals, each a digit of base B = n + 1: unit u (see ``_Plan``) has
    place value ``digits[u]``, and a sentinel 1 sits at ``digits[-1]``,
    above the last level.  ``steps[pos]`` is ``(a, b, c, idx, weight,
    bounds, completes)``: the position's three units, its flat index, its
    weight ``digits[a] + digits[b] + digits[c]``, the checks' bounds closing
    there and the unit it completes (see ``_Plan``).  Assigning v to the
    cell lowers its three units' residuals by v and moves to the next
    position, so the child's key is ``key + 1 - v * weight``.  With
    D = p + q + r the keys of one r lie in [b B^D, 2 b B^D), below those of
    r + 1, so the keys of one (lam, mu) never collide across tau.
    """
    plan = _plan(p, q, r, transport_only)
    base = p * q * r + 1
    digits = tuple(base * (n + 1) ** d for d in range(p + q + r + 1))
    steps = tuple(
        (a, b, c, idx, digits[a] + digits[b] + digits[c], bounds, unit)
        for (a, b, c), idx, bounds, unit in zip(plan.units, plan.free, plan.bounds_at, plan.completes)
    )
    return steps, digits


@lru_cache(maxsize=None)
def _form_plan(face: FacePredicate, p: int, q: int, r: int, transport_only: bool):
    """The face's forms (``_face_forms``) on a shape's plan: ``(forms_at,
    last)``, kept per face and shape.

    Every form is a bound ``(close, other, lower)`` (see ``_Plan``) at the
    position of its last free cell (``forms_at``; ``last`` is the last such
    position), tight exactly where the form is 0, so one value of that cell,
    its hit value, makes it 0.  A compiled check is entered as its own
    bound.  A single cell is the bound v >= 0, written with one unit (row 1)
    on both sides so that d = 0: tight at v = 0.  None when a form has no
    free cell: it is 0 everywhere, so the whole polytope counts.
    """
    plan = _plan(p, q, r, transport_only)
    forms_at: list[list[tuple]] = [[] for _ in plan.free]
    last = -1
    for lhs, rhs in _face_forms(face, p, q, r):
        if rhs:
            pos, bound = plan.reductions[lhs, rhs]
        else:  # a single cell: v >= 0, with one unit (row 1) on both sides, so d = 0
            pos, bound = plan.pos_of.get(lhs[0], -1), (0, 0, True)
        if pos < 0:
            return None
        forms_at[pos].append(bound)
        last = max(last, pos)
    return tuple(map(tuple, forms_at)), last


@lru_cache(maxsize=1)
def _pair_memo(lam: Partition, mu: Partition, transport_only: bool) -> dict[int, int]:
    """The on-union memo of the last (lam, mu, transport_only) that ``_search``
    counted, keyed by packed states (see ``_steps``); a search of another
    pair replaces it."""
    return {}


def _search(
    lam: Partition, mu: Partition, tau: Composition, transport_only: bool, face=None, on_solution=None
) -> int:
    """Depth-first assignment of all integer points; returns their number.

    Cells are visited in the plan's order (see ``_Plan``): levels in turn,
    each by antidiagonals from its last cell back.  ``rem`` is one residual
    vector over the plan's units, rows then columns then levels, starting
    at ``target`` = lam + mu + tau.  Every constraint at a position is a
    bound on its cell's value (see ``_Plan``): its three units' residuals
    cap it, each check closing there bounds it from one side, and the unit
    it completes, if any, bounds it below by that unit's residual.  Each
    node works out ``lb`` and ``ub`` once, returns 0 if they cross, and
    tries ``lb .. ub`` in ascending order, so no value a constraint rejects
    is tried; off the face union the tight values of the form bounds narrow
    them further (below).

    With a ``face`` only the points on it (on some member, for a union)
    count: each face is a linear form, 0 exactly on it (see
    ``_face_forms``).  Every form is a bound at its last free cell (see
    ``_form_plan``), and a node off the union takes the tight values d of
    its form bounds as hit values; ``hit`` marks a branch already on the
    union (from the start when there is no face).  An off-union branch at
    the last deciding cell tries only the hit values, so no branch runs
    past it with every form nonzero.  When counting, each subtree is
    counted once per state at every position: no bound, of a check or of a
    form, reads a cell (see ``_Plan``), so the position and the residuals
    decide the rest of the search.  ``rec(pos, hit, key)`` receives that
    state as one int with the position folded in (see ``_steps``).  For each
    value v it computes the child's key ``key + 1 - v * weight`` and looks
    it up in the child's memo, the one that ``hit or v in hits`` names,
    before it descends: a hit adds the stored count and goes to the next
    value, with no call and no residual update.  A node stores its own
    total under its own key on return; a dead node (``lb > ub``) and a leaf
    store nothing, so each ``rec`` call is a memo miss, a dead node or a
    leaf.  Of the targets, only lam and mu enter the bounds, so the key
    is exact across every tau of one (lam, mu): the level residuals tell
    apart taus of one length, and the sentinel and the position's base
    tell apart r.  A state on the union counts every point below it, as in
    a plain search, so its count goes into ``_pair_memo``, shared by every
    count of the same (lam, mu, transport_only); a state off the union
    counts only the points on this search's union, so its count goes into
    a memo of this search.  A count is stored only once its subtree is
    complete, so an interrupted search leaves the pair's memo exact.  With
    ``on_solution`` the memo is off, so the same loop looks nothing up, and
    every point reaches ``on_solution`` in search order.

    The targets come as validated tuples (see ``CRSystem``); ``_count``
    caches the search on its arguments, and a bad face or a refused shape
    raises there and is never cached, so it raises every time.  ``rec``
    stacks one frame per free cell and the leaf's, and on_solution's when
    enumerating, on the frames already in use, so the search refuses with
    ``RecursionError`` when they would reach the recursion limit.  This is
    the one depth guard, and it runs first: the free cells are pqr less the
    cached ``_forced`` cells, so a refused shape plans nothing, compiles no
    check and reads no face.  The frames counted are Python frames: CPython
    3.11 also counts calls from C code into Python that are still running
    (a test runner makes many), which no frame shows, so from such a stack
    the search can still meet Python's own ``RecursionError``.
    """
    p, q, r = len(lam), len(mu), len(tau)
    n_free = p * q * r - (0 if transport_only else len(_forced(p, q, r)))
    limit = sys.getrecursionlimit()
    with suppress(ValueError):  # _getframe(k) raises unless this frame and k callers are in use
        sys._getframe(max(limit - n_free - 2 - (on_solution is not None), 0))
        # they are: with n_free frames, the leaf's (and on_solution's) on top they reach the limit
        raise RecursionError(f"{n_free} free cells above the frames in use, recursion limit {limit}")
    plan = _plan(p, q, r, transport_only)
    form_plan = None if face is None else _form_plan(face, p, q, r, transport_only)
    target = lam + mu + tau
    if any(target[unit] for unit in plan.idle):
        return 0
    # Without a face (or with a form that is 0 everywhere) every branch is on the union.
    forms_at, last = form_plan or ((), 0)
    if last < 0:
        return 0
    steps, digits = _steps(p, q, r, transport_only, sum(lam))
    memos = () if on_solution is not None else ({}, _pair_memo(lam, mu, transport_only))  # off, on the union

    entries = [0] * (p * q * r)
    rem = list(target)

    def rec(pos: int, hit: bool, key: int) -> int:
        if pos == n_free:
            if on_solution is not None:
                on_solution(entries)
            return 1
        a, b, c, idx, weight, bounds, unit = steps[pos]
        lb = 0
        ub = rem[a]
        if rem[b] < ub:
            ub = rem[b]
        if rem[c] < ub:
            ub = rem[c]
        for close, other, lower in bounds:
            # The other side's sum less the closing line's assigned part.
            d = target[other] - rem[other] - target[close] + rem[close]
            if lower:
                if d > lb:
                    lb = d
            elif d < ub:
                ub = d
        if unit >= 0 and rem[unit] > lb:
            lb = rem[unit]  # the unit's last cell takes its whole residual
        if lb > ub:
            return 0
        values = range(lb, ub + 1)
        hits = ()
        if not hit and forms_at[pos]:
            # Each form is 0 where its bound is tight: v = d.
            hits = {target[other] - rem[other] - target[close] + rem[close] for close, other, _ in forms_at[pos]}
            if pos == last:
                values = [v for v in hits if v in values]
        after = key + 1  # the next position's key before v is assigned
        total = 0
        for v in values:
            # An off-union branch at ``last`` tries only hit values, so none runs past it.
            on = hit or v in hits
            child = after - v * weight
            if memos:
                found = memos[on].get(child)
                if found is not None:
                    total += found
                    continue
            entries[idx] = v
            rem[a] -= v
            rem[b] -= v
            rem[c] -= v
            total += rec(pos + 1, on, child)
            rem[a] += v
            rem[b] += v
            rem[c] += v
        if memos:
            memos[hit][key] = total
        return total

    try:
        return rec(0, form_plan is None, sum(x * digit for x, digit in zip(rem, digits)) + digits[-1])
    finally:
        del rec  # rec reaches itself through its closure: break that cycle


def _tensor_from_flat(entries: Sequence[Number], p: int, q: int, r: int) -> Tensor3:
    """Tensor of flat search output."""
    rows = [tuple(entries[base : base + q]) for base in range(0, p * q * r, q)]
    return Tensor3(tuple(tuple(rows[k * p : (k + 1) * p]) for k in range(r)))


# The one count entry, on validated tuples, plain or on a face.
_count = lru_cache(maxsize=None)(_search)


def count_points(system: CRSystem, face: FacePredicate | None = None) -> int:
    """Number of integer points of the system (optionally inside a face union).

    A face union is counted inside the search: each face becomes a linear
    form (``_face_forms``), and a subtree is counted whole as soon as one
    form is 0 on it.  Plain and face counts alike are cached on (lam, mu,
    tau, transport_only, face) by ``_count``.
    """
    if face is not None and system.transport_only:
        raise ValueError(f"face counts need a column-row system, not {system!r}")
    return _count(system.lam, system.mu, system.tau, system.transport_only, face)


def enumerate_points(system: CRSystem) -> tuple[Tensor3, ...]:
    """All integer points, in lexicographic order of the flattened entries."""
    found: list[tuple[int, ...]] = []
    _search(system.lam, system.mu, system.tau, system.transport_only, on_solution=lambda x: found.append(tuple(x)))
    return tuple(_tensor_from_flat(entries, *system.dims) for entries in sorted(found))


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


def _slack(tensor: Tensor3, face: ColTight | RowTight) -> Number:
    """sum(lhs) - sum(rhs) of the face's compiled check (see ``_face_forms``,
    which validates the face first).  Raises ``NotDiagConstant`` unless
    level 1 has the cone's diagonal form, on which the check equals the
    named inequality's slack."""
    ((lhs, rhs),) = _face_forms(face, *tensor.dims)
    diag_values(tensor)
    entries = _flat_entries(tensor)
    return sum(entries[t] for t in lhs) - sum(entries[t] for t in rhs)


def col_ineq_slack(tensor: Tensor3, j: int, t: int) -> Number:
    """Slack of the column inequality C(j, t): x_j + S^c_{j,t-1} - S^c_{j+1,t}.

    Raises ``NotDiagConstant`` unless level 1 has the cone's diagonal form,
    on which the compiled check equals that slack.
    """
    return _slack(tensor, ColTight(j, t))


def row_ineq_slack(tensor: Tensor3, i: int, s: int) -> Number:
    """Slack of the row inequality R(i, s): x_i + S^r_{i,s-1} - S^r_{i+1,s}.

    Raises ``NotDiagConstant`` as ``col_ineq_slack`` does.
    """
    return _slack(tensor, RowTight(i, s))


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
    from fractions import Fraction

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
    from fractions import Fraction

    levels = [[[Fraction(0)] * q for _ in range(p)] for _ in range(r)]
    for coord in free_cone_coordinates(p, q, r):
        lo, hi = hypercube_interval(coord[1], q)
        value = Fraction(picks[coord])
        if not lo < value < hi:
            raise ValueError(f"pick for {coord} outside {lo}..{hi}")
        if coord[0] == "diag":
            d = coord[1]
            for i in range(1, p + 1):
                j = d + 1 - i
                if 1 <= j <= q:
                    levels[0][i - 1][j - 1] = q * (r - 1) + value
        else:
            i, j, k = coord
            levels[k - 1][i - 1][j - 1] = value
    return Tensor3.from_levels(levels)


def hypercube_sample(p: int, q: int, r: int, seed: int) -> Tensor3:
    """Deterministic rational cone point drawn from the open hypercube."""
    from fractions import Fraction

    rng = random.Random(f"column-row-hypercube:{p}:{q}:{r}:{seed}")
    picks = {}
    for coord in free_cone_coordinates(p, q, r):
        lo, hi = hypercube_interval(coord[1], q)
        picks[coord] = lo + (hi - lo) * Fraction(rng.randrange(1, 256), 256)
    return build_hypercube_point(p, q, r, picks)


def affine_rank(points: Sequence[Tensor3]) -> int:
    """Rank of the difference set of ``points`` under exact elimination."""
    from fractions import Fraction

    if not points:
        raise ValueError("affine_rank needs at least one point")
    base = _flat_entries(points[0])
    rows = []
    for point in points[1:]:
        if point.dims != points[0].dims:
            raise SizeMismatch("points must share dimensions")
        rows.append([Fraction(x) - Fraction(y) for x, y in zip(_flat_entries(point), base)])
    rank = 0
    for col in range(len(base)):
        pivot = next((ri for ri in range(rank, len(rows)) if rows[ri][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for ri in range(rank + 1, len(rows)):
            factor = rows[ri][col] / lead[col]
            if factor:
                rows[ri] = [a - factor * b for a, b in zip(rows[ri], lead)]
        rank += 1
    return rank
