"""Kronecker coefficients as signed sums of column-row lattice-point counts.

Two routes are implemented.  ``kron_via_cr`` expands the target character
over complete homogeneous pieces and counts whole polytopes; ``kron_via_faces``
groups the expansion into two-term differences, shifts one polytope onto the
other with an entry-moving isomorphism, and counts only the faces where the
cancellation fails.  Both must agree with the character oracle everywhere.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import (
    Composition,
    InvariantViolation,
    Partition,
    SizeMismatch,
    _Record,
    partition,
    sort_desc,
)
from .polytope import (
    ColTight,
    CRSystem,
    DiagZero,
    EntryZero,
    FaceUnion,
    RowTight,
    Tensor3,
    count_points,
)


class JTTerm(_Record):
    """One signed complete-homogeneous term of a determinant expansion."""

    sign: int
    gamma: Composition


class JTPairTerm(_Record):
    """A signed h_rho * [h_(a,b) - h_(a+1,b-1)] summand of the pair expansion."""

    sign: int
    a: int
    b: int
    rho: Composition

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("a and b must be nonnegative")

    @property
    def tau(self) -> Composition:
        return (self.a, self.b) + self.rho

    @property
    def tau_bar(self) -> Composition:
        return (self.a + 1, self.b - 1) + self.rho


def _cofactor_paths(nu: Partition, depth: int, by_column: bool):
    """Signed branches of the cofactor expansion of det(h_{nu_i - i + j}).

    Step s = 1 .. depth takes row s and picks one of the remaining columns
    (with ``by_column``: takes column s and picks a remaining row), in
    increasing order; the entry is h of nu_i - i + j, and a branch is cut as
    soon as a subscript is negative.  Yields ``(sign, subscripts, rest)``
    with the indices left unpicked.  At full depth the branches are the
    permutations with no negative subscript, in lexicographic order.

    Row i takes only columns j >= i - nu_i, and these thresholds increase
    with i, so the rows left after a pick can all be served iff the k-th
    smallest column left meets the k-th row's threshold; the row walk cuts
    every other branch at once, so each branch it enters ends in a term.
    """
    need = tuple(i - part for i, part in enumerate(nu, 1))

    def walk(step: int, rest: tuple[int, ...], sign: int, picks: tuple[int, ...]):
        if step > depth:
            yield sign, picks, rest
            return
        for pos, pick in enumerate(rest):
            i, j = (pick, step) if by_column else (step, pick)
            subscript = nu[i - 1] - i + j
            if subscript < 0:
                continue
            left = rest[:pos] + rest[pos + 1 :]
            if not by_column and any(col < t for col, t in zip(left, need[step:])):
                # a later pick leaves smaller columns, so it fails too
                break
            yield from walk(step + 1, left, -sign if pos % 2 else sign, picks + (subscript,))

    try:
        yield from walk(1, tuple(range(1, len(nu) + 1)), 1, ())
    finally:
        del walk  # walk reaches itself through its closure: break that cycle


def jt_expansion(nu: Partition) -> tuple[JTTerm, ...]:
    """Full permutation expansion of det(h_{nu_i - i + j}); zero parts stripped.

    Terms with a negative subscript are dropped and equal compositions are
    not merged; callers sort and memoize.
    """
    nu = partition(nu)
    if not nu:
        raise ValueError("empty partition has no determinant expansion")
    return _jt_expansion_cached(nu)


@lru_cache(maxsize=None)
def _jt_expansion_cached(nu: Partition) -> tuple[JTTerm, ...]:
    return tuple(
        JTTerm(sign, tuple(g for g in gamma if g > 0))
        for sign, gamma, _ in _cofactor_paths(nu, len(nu), by_column=False)
    )


def jt_pair_expansion(nu: Partition) -> tuple[JTPairTerm, ...]:
    """Cofactor expansion along the first r-2 columns, leaving 2x2 minors.

    Each surviving branch contributes sign * h_rho * [h_(a,b) - h_(a+1,b-1)];
    branches through a vanishing entry (negative subscript) are pruned.  The
    collected subscripts rho are reported weakly decreasing with zeros
    stripped, matching the reorder freedom of the counted polytopes.
    """
    nu = partition(nu)
    if len(nu) < 2:
        raise ValueError("pair expansion needs at least two rows")
    return _jt_pair_expansion_cached(nu)


@lru_cache(maxsize=None)
def _jt_pair_expansion_cached(nu: Partition) -> tuple[JTPairTerm, ...]:
    r = len(nu)
    terms: list[JTPairTerm] = []
    for sign, picks, (i1, i2) in _cofactor_paths(nu, r - 2, by_column=True):
        a = nu[i1 - 1] - i1 + (r - 1)
        b = nu[i2 - 1] - i2 + r
        rho = tuple(sorted((x for x in picks if x > 0), reverse=True))
        terms.append(JTPairTerm(sign, a, b, rho))
    return tuple(terms)


def normalize_triple(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[Partition, Partition, Partition, bool]:
    """Reorder a triple so the third partition is shortest and the first two
    have nondecreasing lengths; flags the cases that need no polytope work."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if sum(lam) != sum(mu) or sum(lam) != sum(nu):
        raise SizeMismatch(f"sizes of {lam}, {mu}, {nu} differ")
    by_length = sorted((lam, mu, nu), key=lambda t: (len(t), t))
    nu2, lam2, mu2 = by_length[0], by_length[1], by_length[2]
    shortcut = len(nu2) <= 1 or len(mu2) > len(lam2) * len(nu2)
    return lam2, mu2, nu2, shortcut


def _shortcut_value(lam: Partition, mu: Partition, nu: Partition) -> int:
    if len(nu) <= 1:
        return 1 if lam == mu else 0
    return 0


@lru_cache(maxsize=None)
def _cr_count_cached(lam: Partition, mu: Partition, key: Partition) -> int:
    return count_points(CRSystem(lam, mu, key))


def cr_count(lam: Partition, mu: Partition, tau: Composition) -> int:
    """#CR(lam, mu; tau), memoized on the sorted composition (reorder-invariant)."""
    key = sort_desc(tau)
    return _cr_count_cached(tuple(lam), tuple(mu), key)


def _nonnegative(total: int, lam: Partition, mu: Partition, nu: Partition) -> int:
    """A Kronecker coefficient is a multiplicity, so ``total`` must be >= 0."""
    if total < 0:
        raise InvariantViolation(f"negative coefficient {total} for {lam}, {mu}, {nu}")
    return total


def kron_via_cr(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient as a signed sum of whole-polytope point counts."""
    lam2, mu2, nu2, shortcut = normalize_triple(lam, mu, nu)
    if shortcut:
        return _shortcut_value(lam2, mu2, nu2)
    total = sum(term.sign * cr_count(lam2, mu2, term.gamma) for term in jt_expansion(nu2))
    return _nonnegative(total, lam, mu, nu)


def jt_term_breakdown(lam: Partition, mu: Partition, nu: Partition) -> list[dict]:
    """Per-term audit of the jt formula after normalizing the triple."""
    lam2, mu2, nu2, shortcut = normalize_triple(lam, mu, nu)
    if shortcut:
        return []
    return [
        {"sign": term.sign, "gamma": list(term.gamma), "count": cr_count(lam2, mu2, term.gamma)}
        for term in jt_expansion(nu2)
    ]


def z_matrix(ell: int, p: int, q: int, r: int) -> Tensor3:
    """Entry-moving tensor: +-1 on two adjacent diagonals of level 1 and a +1
    at (ell, ell) of level 2; adding it shifts one unit between level sums
    while preserving all row and column sums."""
    if r < 2:
        raise ValueError(f"requires r >= 2, got r = {r}")
    if not 1 <= ell <= p or ell > q:
        raise ValueError(f"ell = {ell} out of range")
    levels = [[[0] * q for _ in range(p)] for _ in range(r)]
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            if i + j == ell:
                levels[0][i - 1][j - 1] = 1
            elif i + j == ell + 1:
                levels[0][i - 1][j - 1] = -1
    levels[1][ell - 1][ell - 1] = 1
    return Tensor3.from_levels(levels)


def phi_ell(tensor: Tensor3, ell: int) -> Tensor3:
    """X + Z_ell; errors out if the shift drives an entry negative."""
    shifted = tensor + z_matrix(ell, *tensor.dims)
    if not shifted.is_nonnegative():
        raise ValueError("shift produced a negative entry")
    return shifted


@lru_cache(maxsize=None)
def face_unions(p: int, q: int, ell: int) -> tuple[FaceUnion, FaceUnion]:
    """(F+, F-) of every pair term with len(lam) = p and len(mu) = q.

    F+ covers the points of CR(lam, mu; tau) outside the shift's image and
    F- the points of CR(lam, mu; tau_bar) whose shift leaves CR(tau).  The
    faces depend on the shape and ell alone, so each pair is built once and
    shared.  Checks 1 <= ell <= p; the face routes pass p = max(len(lam), 1),
    so the empty triple takes ell = 1."""
    if not 1 <= ell <= p:
        raise ValueError(f"ell = {ell} out of range [1, {p}]")
    plus: list = [DiagZero(ell - 1)] if ell >= 2 else []
    plus.append(EntryZero(ell))
    if ell >= 2:
        plus.extend(ColTight(ell - 1, t) for t in range(1, p - ell + 1))
        plus.extend(RowTight(ell - 1, s) for s in range(1, q - ell + 1))
    minus: list = [DiagZero(p)] if ell == p == q else []
    if ell < p or p < q:
        minus.extend(ColTight(ell, t) for t in range(1, p - ell + 2))
    if ell <= p - 1:
        minus.extend(RowTight(ell, s) for s in range(1, q - ell + 2))
    return FaceUnion(tuple(plus)), FaceUnion(tuple(minus))


def _face_terms(lam: Partition, mu: Partition, nu: Partition, unions: tuple[FaceUnion, FaceUnion]):
    """``(term, countPlus, countMinus)`` for each pair term of a normalized,
    non-shortcut triple, in expansion order."""
    plus, minus = unions
    for term in jt_pair_expansion(nu):
        if term.b < 1:
            raise InvariantViolation(f"pair term {term} has b < 1; a partition never gives one")
        count_plus = count_points(CRSystem(lam, mu, term.tau), plus)
        yield term, count_plus, count_points(CRSystem(lam, mu, term.tau_bar), minus)


def face_term_breakdown(lam: Partition, mu: Partition, nu: Partition, ell: int = 1) -> list[dict]:
    """Per-term audit of the face formula after normalizing the triple."""
    lam2, mu2, nu2, shortcut = normalize_triple(lam, mu, nu)
    unions = face_unions(max(len(lam2), 1), len(mu2), ell)
    if shortcut:
        return []
    return [
        dict(sign=term.sign, tau=list(term.tau), tauBar=list(term.tau_bar), countPlus=plus, countMinus=minus)
        for term, plus, minus in _face_terms(lam2, mu2, nu2, unions)
    ]


def kron_via_faces(lam: Partition, mu: Partition, nu: Partition, ell: int = 1) -> int:
    """Kronecker coefficient from face counts alone (must match kron_via_cr)."""
    lam2, mu2, nu2, shortcut = normalize_triple(lam, mu, nu)
    unions = face_unions(max(len(lam2), 1), len(mu2), ell)
    if shortcut:
        return _shortcut_value(lam2, mu2, nu2)
    total = sum(term.sign * (plus - minus) for term, plus, minus in _face_terms(lam2, mu2, nu2, unions))
    return _nonnegative(total, lam, mu, nu)
