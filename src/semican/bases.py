"""Expansion of intersection-cohomology stalk functions over flag monomials.

The flag-counting monomials attached to words in the two vertex letters span
all conjugation-invariant constructible functions on the representation
space.  Writing the stalk function of each orbit-closure IC sheaf in that
span and transporting the coefficients to the pair variety produces the
values of its lift at the generic point of every conormal component: the
matrix m of the canonical basis against the semicanonical one.  Twisting by
orbit-dimension signs turns m into the characteristic-cycle multiplicities n,
which must be nonnegative integers with unit diagonal.

The monomial values are q = 1 flag counts (integers, from qcount).  The lift
is linear, so on each dimension vector D it is one transfer matrix T_D with
mat_pi = mat_e . T_D on the count rows of the words of content D, held in
ints as (u, s) with T_D = u / s; Fractions are built only for the entries
of m.  The count row of a word (v, 1) + rest is the row of rest times the
transpose of the step matrix S_{v,1}(D) of qcount.step_matrix, so by
induction on word length from T_(0,0) = [[1]] the identity holds for every
single-letter word of every content D <= dim exactly when, for every such
D and each vertex v with d_v > 0,

    T_child . S^Pi_{v,1}(D)^T == S^E_{v,1}(D)^T . T_D:

the lift commutes with peeling a single letter.  A grouped letter v^b is
the divided power e_v^b / b!: peeling it and then a complete flag of the
b-dimensional sub is peeling b single letters, and chi(Fl(b)) = b!, so on
both sides S_{v,1}(D) . S_{v,1}(D - e_v) ... S_{v,1}(D - (b-1) e_v) ==
b! S_{v,b}(D) (Lusztig, Semicanonical bases arising from enveloping
algebras, Adv. Math. 151, 2000).  The row of a grouped word is therefore
1 / prod b! times the row of its single-letter refinement, on both sides,
and the identity holds for it too.  Neither the grouped rule S_{v,b} nor
that grouping relation is library code: both live in tests/oracles.py and
the relation is tested exhaustively in tier 1.  The lift reads and checks
single letters only, two identities per D.

The induction holds whatever T_D the identities are checked with, so T
is solved from the identities themselves.  T_D is given the T of its rank
bound k = min(D), solved at the diagonal (k, k) from T_(k-1) on both its
children: the two single letters there are 2k equations, one per letter
and child orbit, in the k + 1 unknown rows of T_(k,k).  Peeling 1^1 keeps
each rank r < k, with count k - r, and peeling 2^1 takes rank k to k - 1,
with count k, so the system has full rank and one solution when it is
consistent.  Every identity at every D <= dim is then checked, the
diagonal ones too: a T that did not fit some D would break one there.
The E-side sandwich rows of dim itself are checked to reach every orbit
rank, since m expands the stalk functions of dim in them; no pair-side
count row is built.  The lift of a function with E-side values f is the
row vector f . T_D; m_coefficients reads it at the generic columns only.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import ratlin
from .core import ConormalComponent, DimVector, Orbit, orbit_dim
from .qcount import Word, _pi_index, euler_counts, step_matrix


def sandwich_words(dim: DimVector) -> list[Word]:
    """The words 1^a 2^d2 1^c and 2^a 1^d1 2^c of content `dim`, without
    empty letters, sorted; the one word of (0, 0) is empty."""
    words = set()
    for outer, n_outer, inner, n_inner in ((1, dim.d1, 2, dim.d2),
                                           (2, dim.d2, 1, dim.d1)):
        for a in range(n_outer + 1):
            letters = ((outer, a), (inner, n_inner), (outer, n_outer - a))
            words.add(tuple((v, m) for v, m in letters if m))
    return sorted(words)


def _refined(word: Word) -> Word:
    """The single-letter refinement of `word`: each v^b becomes b letters
    v^1."""
    return tuple((v, 1) for v, b in word for _ in range(b))


def sandwich_rows(dim: DimVector) -> list[list[int]]:
    """The E-side count rows of the sandwich words of `dim`, in word order,
    each that of the word's single-letter refinement, so prod b! times the
    word's own: the rows that transfer_matrix checks to reach every orbit
    rank of `dim`."""
    return [euler_counts(_refined(w), dim, "E") for w in sandwich_words(dim)]


class ConstructibleFnE(namedtuple("ConstructibleFnE", "dim values")):
    """Invariant constructible function on the representation space: one exact
    value per orbit rank, `values[r]` on the rank-r orbit."""

    __slots__ = ()

    def __new__(cls, dim: DimVector, values: tuple[Fraction, ...]):
        self = super().__new__(cls, dim, values)
        if len(self.values) != self.dim.rank_bound + 1:
            raise ValueError("one value per orbit required")
        return self

    def value(self, r: int) -> Fraction:
        return self.values[r]


class ExpansionMatrix(namedtuple("ExpansionMatrix", "dim entries")):
    """Square matrix indexed by orbit ranks; entry (r_row, r_col) = coefficient
    of the row orbit's function in the column orbit's expansion.

    `entries[r_row][r_col]`, a tuple of tuples of Fractions.
    """

    __slots__ = ()

    def entry(self, r_row: int, r_col: int) -> Fraction:
        return self.entries[r_row][r_col]

    @property
    def size(self) -> int:
        return len(self.entries)

    def first_bad_entry(self, nonnegative: bool = False
                        ) -> tuple[int, int] | None:
        """First (r_row, r_col), row by row, that breaks integral
        unitriangularity or, with `nonnegative`, is negative; else None."""
        for rp, row in enumerate(self.entries):
            for r, v in enumerate(row):
                if (v.denominator != 1 or (rp == r and v != 1)
                        or (rp > r and v != 0) or (nonnegative and v < 0)):
                    return rp, r
        return None


class SpanningError(ValueError):
    """The supplied words do not reach every orbit direction of `dim`."""

    def __init__(self, dim: DimVector, missing: list[int]):
        super().__init__(
            f"monomial matrix on {dim} is rank-deficient; "
            f"unreachable orbit ranks: {missing}"
        )
        self.dim = dim
        self.missing = missing


class ConjectureViolation(AssertionError):
    """A structural consequence of the multiplicity identity failed."""


def _stalk_values(dim: DimVector, r: int) -> list[int]:
    """The values of canonical_fn(dim, r), as ints."""
    n = dim.rank_bound
    return [math.comb(n - rp, n - r) if rp <= r else 0
            for rp in range(n + 1)]


def canonical_fn(dim: DimVector, r: int) -> ConstructibleFnE:
    """Stalk Euler characteristics of the IC sheaf of the rank-r orbit closure,
    normalized to 1 on the open stratum.

    Computed through the small resolution whose fiber over a rank-r' point is
    a Grassmannian; the value at r' <= r is the binomial C(d1-r', d1-r) (with
    d1, d2 swapped when d2 < d1).  The resolution on the side of the smaller
    dimension is always small: for d1 <= d2 its condition reduces to
    d2 - d1 + r - r' > 0 for every r' < r."""
    return ConstructibleFnE(
        dim, tuple(Fraction(v) for v in _stalk_values(dim, r)))


class TransferMatrix(namedtuple("TransferMatrix", "dim u scale mismatch")):
    """The lift to the pair variety as one matrix: mat_pi = mat_e . T, held
    as T = u / scale.

    Row per orbit rank, column per pair class in pi_classes order.  `u` is
    a tuple of tuples of ints and `scale` the least positive int that makes
    scale * T integral; both are those of T_(k,k), k = min(d1, d2), solved
    from its two single-letter identities.  `mismatch` names the first
    intertwining identity that fails, as `dim (a,c), letter v^1, orbit r',
    class (r,s): <lhs> != <rhs>` with r' an orbit rank of the child
    dimension and (r,s) a pair class of (a,c); None means that every
    single-letter identity holds, so every word of every content up to
    `dim`, single-letter or, through the grouping relation, grouped,
    satisfies mat_pi = mat_e . T there.
    """

    __slots__ = ()

    def section_failures(self) -> list[int]:
        """Ranks r whose (r, 0) column of T is not the unit vector at r."""
        index = _pi_index(self.dim.rank_bound)
        return [r for r in range(self.dim.rank_bound + 1)
                if any(row[index[r, 0]] != (self.scale if rp == r else 0)
                       for rp, row in enumerate(self.u))]


def transfer_matrix(dim: DimVector, rows=None) -> TransferMatrix:
    """Solve T once per rank bound k <= min(d1, d2), at (k, k), from the
    single-letter identities there, give every sub-dimension D <= dim the
    T of rank bound min(D), then check every single-letter identity at
    each D exactly.

    `rows` are the E-side count rows of `dim`, as sandwich_rows builds
    them.  Raises SpanningError at the first (k, k) whose identities do not
    fix T there, and then at `dim` when `rows` do not reach every orbit
    rank.
    """
    # rank bound k -> (integer rows u, scale s) with T_D = u / s; the empty
    # word counts 1 on both sides of (0, 0)
    solved = [([[1]], 1)]
    for k in range(1, dim.rank_bound + 1):
        solved.append(_solve_diagonal(k, *solved[-1]))
    _spanning_basis(dim, sandwich_rows(dim) if rows is None else rows)
    scaled = {DimVector(a, c): solved[min(a, c)]
              for a in range(dim.d1 + 1) for c in range(dim.d2 + 1)}
    u, scale = solved[-1]
    return TransferMatrix(dim, tuple(map(tuple, u)), scale,
                          _first_broken_identity(scaled))


def _spanning_basis(sub: DimVector, rows) -> ratlin.Basis:
    """The echelon basis of `rows` with pivots only in the first
    rank_bound + 1 columns, the orbit columns; raises SpanningError when it
    has fewer rows than that."""
    n_orbits = sub.rank_bound + 1
    basis = ratlin.echelon(rows, n_orbits, width=n_orbits)[1]
    if len(basis) < n_orbits:
        covered = {c for c, _ in basis}
        raise SpanningError(
            sub, [r for r in range(n_orbits) if r not in covered])
    return basis


def _pair_side(u_child, sub: DimVector, v: int, factor: int = 1):
    """factor * (u_child . S^Pi_{v,1}(sub)^T), a row per row of u_child
    and a column per pair class of sub, built one class at a time from the
    columns of u_child that the class peels to."""
    child_cols = list(zip(*u_child))
    cols = []
    for steps in step_matrix(sub, v, "Pi"):
        col = (0,) * len(u_child)
        for j, n in steps:
            n *= factor
            col = [x + n * y for x, y in zip(col, child_cols[j])]
        cols.append(col)
    return list(map(list, zip(*cols)))


def _solve_diagonal(k: int, u_child, child_scale: int):
    """(u, s) with T_(k,k) = u / s, solved from the two single-letter
    identities at (k, k) given T_(k-1) = u_child / child_scale, the T of
    both children.

    Scaled by child_scale, row j of S^E_{v,1}^T . T = T_child . S^Pi_{v,1}^T
    is one equation: the counts with which the orbits of (k, k) peel to
    child orbit j, times child_scale, against row j of
    u_child . S^Pi_{v,1}^T.  One elimination with pivots in the orbit
    columns solves them; SpanningError names (k, k) when an orbit's row is
    left free."""
    sub = DimVector(k, k)
    equations = []
    for v in (1, 2):
        coefficients = [[0] * (k + 1) for _ in u_child]
        for r, steps in enumerate(step_matrix(sub, v, "E")):
            for j, n in steps:
                coefficients[j][r] = n * child_scale
        equations += [c + p for c, p in
                      zip(coefficients, _pair_side(u_child, sub, v))]
    return ratlin.read_off(_spanning_basis(sub, equations), k + 1)


def _first_broken_identity(scaled) -> str | None:
    """Witness of the first (D, letter v^1), in the order of `scaled` and
    then by vertex, whose identity fails; None when all hold.

    Both sides are built scaled by the product of the two scales and
    compared whole; only a failing identity is scanned entry by entry."""
    for sub, (u, scale) in scaled.items():
        width = len(u[0])
        for v, top in ((1, sub.d1), (2, sub.d2)):
            if not top:
                continue
            u_child, child_scale = scaled[
                DimVector(sub.d1 - 1, sub.d2) if v == 1
                else DimVector(sub.d1, sub.d2 - 1)]
            lhs = _pair_side(u_child, sub, v, scale)
            # child_scale * (S_e^T . u), one orbit rank of sub at a time
            rhs = [[0] * width for _ in u_child]
            for u_row, steps in zip(u, step_matrix(sub, v, "E")):
                for j, n in steps:
                    n *= child_scale
                    rhs[j] = [x + n * y for x, y in zip(rhs[j], u_row)]
            if lhs != rhs:
                return _first_entry_witness(sub, v, lhs, rhs,
                                            scale * child_scale)
    return None


def _first_entry_witness(sub, v, lhs, rhs, den) -> str:
    """The witness text of the first unequal entry of lhs and rhs, two
    sides of the identity at (sub, v^1) scaled by den."""
    for rp, (l_row, r_row) in enumerate(zip(lhs, rhs)):
        for (r, s), lv, rv in zip(_pi_index(sub.rank_bound), l_row, r_row):
            if lv != rv:
                return (f"dim ({sub.d1},{sub.d2}), letter {v}^1, "
                        f"orbit {rp}, class ({r},{s}): "
                        f"{Fraction(lv, den)} != {Fraction(rv, den)}")


def m_coefficients(dim: DimVector, *,
                   transfer: TransferMatrix | None = None) -> ExpansionMatrix:
    """m[r', r] = value of the lifted IC stalk function of orbit r at the
    generic pair class (r', min - r') of the r'-component.

    That value is f_r . T at the generic column, so only those columns of
    u are read, in ints, and divided by the scale once per entry."""
    if transfer is None:
        transfer = transfer_matrix(dim)
    bound = dim.rank_bound
    index = _pi_index(bound)
    generic = []
    for rp in range(bound + 1):
        c = ConormalComponent(Orbit(dim, rp)).generic_class
        j = index[c.r, c.s]
        generic.append([row[j] for row in transfer.u])
    stalks = [_stalk_values(dim, r) for r in range(bound + 1)]
    entries = tuple(
        tuple(Fraction(sum([f * t for f, t in zip(f_r, col)]), transfer.scale)
              for f_r in stalks)
        for col in generic)
    return ExpansionMatrix(dim, entries)


def sign_twist(dim: DimVector, m) -> ExpansionMatrix:
    """n[r', r] = (-1)^(dim orbit r' - dim orbit r) * m[r', r]."""
    bound = dim.rank_bound
    dims = [orbit_dim(Orbit(dim, r)) for r in range(bound + 1)]
    entries = tuple(
        tuple(
            m.entry(rp, r) * (1 if (dims[rp] - dims[r]) % 2 == 0 else -1)
            for r in range(bound + 1)
        )
        for rp in range(bound + 1)
    )
    return ExpansionMatrix(dim, entries)


def lift_failures(transfer: TransferMatrix) -> list[str]:
    """`section_identity (r=...)` per rank whose (r, 0) column of T is not a
    unit vector, then `kernel_invariance (<first broken identity>)`."""
    failures = [f"section_identity (r={r})"
                for r in transfer.section_failures()]
    if transfer.mismatch is not None:
        failures.append(f"kernel_invariance ({transfer.mismatch})")
    return failures


def structure_failures(m: ExpansionMatrix, n: ExpansionMatrix) -> list[str]:
    """`<m|n>_structure (entry (r', r): <value>)` at the first entry of m that
    is not integral unitriangular, then of n that is not that and >= 0."""
    checks = (("m_structure", m, m.first_bad_entry()),
              ("n_structure", n, n.first_bad_entry(nonnegative=True)))
    return [f"{name} (entry {bad}: {mat.entry(*bad)})"
            for name, mat, bad in checks if bad is not None]


def cc_multiplicities(dim: DimVector, *,
                      transfer: TransferMatrix | None = None
                      ) -> ExpansionMatrix:
    """n = the sign twist of m, validated as verify validates it: the section
    identity and every single-letter identity of the lift, m integral and
    unitriangular, n also nonnegative.  The first witness of a failure
    (lift_failures, then structure_failures) raises ConjectureViolation.
    """
    if transfer is None:
        transfer = transfer_matrix(dim)
    m = m_coefficients(dim, transfer=transfer)
    n = sign_twist(dim, m)
    failures = lift_failures(transfer) + structure_failures(m, n)
    if failures:
        raise ConjectureViolation(f"on {dim}: {failures[0]}")
    return n
