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
mat_pi = mat_e . T_D on the count rows of the words of content D.  T_D is
solved from the rows of the sandwich words 1^a 2^d2 1^c and 2^a 1^d1 2^c of
D, and held in ints as (u, s) with T_D = u / s; Fractions are built only
for the entries of m.  The count row of a word (v, b) + rest is the row of
rest times the transpose of the step matrix S_{v,b}(D) of
qcount.step_matrix, so by induction on word length from T_(0,0) = [[1]] the
identity holds for every word of every content D <= dim exactly when, for
every such D and every letter v^b peeled off it,

    T_child . S^Pi_{v,b}(D)^T == S^E_{v,b}(D)^T . T_D:

the lift commutes with peeling a letter.  The lift of a function f is
transfer_matrix(dim).apply(f.values).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import ratlin
from .core import ConormalComponent, DimVector, Orbit, orbit_dim, pi_classes
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


def sandwich_rows(dim: DimVector) -> dict:
    """Per sub-dimension D <= dim, in (d1, d2) order: the E-side and the
    pair-side flag counts of the sandwich words of D, one row per word."""
    rows = {}
    for a in range(dim.d1 + 1):
        for c in range(dim.d2 + 1):
            sub = DimVector(a, c)
            words = sandwich_words(sub)
            rows[sub] = ([euler_counts(w, sub, "E") for w in words],
                         [euler_counts(w, sub, "Pi") for w in words])
    return rows


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
    scale * T integral.  `mismatch` names the first intertwining identity
    that fails, as `dim (a,c), letter v^b, orbit r', class (r,s): <lhs> !=
    <rhs>` with r' an orbit rank of the child dimension and (r,s) a pair
    class of (a,c); None means that every identity holds, so every word of
    every content up to `dim` satisfies mat_pi = mat_e . T at its content.
    """

    __slots__ = ()

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """T itself, as a tuple of tuples of Fractions."""
        return tuple(tuple(Fraction(v, self.scale) for v in row)
                     for row in self.u)

    def apply(self, values) -> tuple[Fraction, ...]:
        """f . T: pair-side values of the lift of the E-side values f."""
        values = [Fraction(v) for v in values]
        return tuple(sum((v * x for v, x in zip(values, col)), Fraction(0))
                     / self.scale for col in zip(*self.u))

    def section_failures(self) -> list[int]:
        """Ranks r whose (r, 0) column of T is not the unit vector at r."""
        index = _pi_index(*self.dim)
        return [r for r in range(self.dim.rank_bound + 1)
                if any(row[index[r, 0]] != (self.scale if rp == r else 0)
                       for rp, row in enumerate(self.u))]


def transfer_matrix(dim: DimVector, rows=None) -> TransferMatrix:
    """Solve T_D at every sub-dimension D <= dim, then check every
    intertwining identity exactly.

    `rows` maps each D to its (E-side, pair-side) count rows, as
    sandwich_rows builds them.  At each D the first rank_bound + 1
    independent E-side rows give a square system solved once for all pair
    classes, as (u, s) with T_D = u / s.  Raises SpanningError at the first
    D whose E-side rows do not reach every orbit rank.
    """
    if rows is None:
        rows = sandwich_rows(dim)
    scaled = {}  # D -> (integer rows u, scale s) with T_D = u / s
    for sub, (mat_e, mat_pi) in rows.items():
        n_orbits = sub.rank_bound + 1
        picked, basis = ratlin.echelon(mat_e, n_orbits)
        if len(picked) < n_orbits:
            covered = {c for c, _ in basis}
            raise SpanningError(
                sub, [r for r in range(n_orbits) if r not in covered])
        scaled[sub] = ratlin.solve_square([mat_e[i] for i in picked],
                                          [mat_pi[i] for i in picked])
    u, scale = scaled[dim]
    return TransferMatrix(dim, tuple(map(tuple, u)), scale,
                          _first_broken_identity(scaled))


def _first_broken_identity(scaled) -> str | None:
    """Witness of the first (D, letter), in the order of `scaled` and then
    by letter, whose identity fails; None when all hold."""
    for sub, (u, scale) in scaled.items():
        classes = pi_classes(sub)
        for v, top in ((1, sub.d1), (2, sub.d2)):
            for b in range(1, top + 1):
                u_child, child_scale = scaled[
                    DimVector(sub.d1 - b, sub.d2) if v == 1
                    else DimVector(sub.d1, sub.d2 - b)]
                # child_scale * (T_child . S_pi^T) and scale * (S_e^T . T_D)
                lhs = [[sum(row[j] * n for j, n in steps)
                        for steps in step_matrix(sub, v, b, "Pi")]
                       for row in u_child]
                rhs = [[0] * len(classes) for _ in u_child]
                for u_row, steps in zip(u, step_matrix(sub, v, b, "E")):
                    for j, n in steps:
                        rhs[j] = [x + n * y for x, y in zip(rhs[j], u_row)]
                for rp, (l_row, r_row) in enumerate(zip(lhs, rhs)):
                    for cls, lv, rv in zip(classes, l_row, r_row):
                        if lv * scale != rv * child_scale:
                            return (f"dim ({sub.d1},{sub.d2}), "
                                    f"letter {v}^{b}, orbit {rp}, "
                                    f"class ({cls.r},{cls.s}): "
                                    f"{Fraction(lv, child_scale)} != "
                                    f"{Fraction(rv, scale)}")
    return None


def m_coefficients(dim: DimVector, *,
                   transfer: TransferMatrix | None = None) -> ExpansionMatrix:
    """m[r', r] = value of the lifted IC stalk function of orbit r at the
    generic pair class (r', min - r') of the r'-component.

    That value is f_r . T at the generic column, so only those columns of
    u are read, in ints, and divided by the scale once per entry."""
    if transfer is None:
        transfer = transfer_matrix(dim)
    bound = dim.rank_bound
    index = _pi_index(*dim)
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
    identity and every intertwining identity of the lift, m integral and
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
