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
is linear, so it is one transfer matrix T with mat_pi = mat_e . T on the
monomial value matrices; T is solved once from independent word rows and
checked exactly against every word row, and the lift of a function f is
transfer_matrix(dim, words).apply(f.values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .core import (ConormalComponent, DimVector, Orbit, PiModClass,
                   compositions, orbit_dim, pi_classes)
from .qcount import euler_counts, word_content


@dataclass(frozen=True)
class MonomialWord:
    """Word of grouped letters (vertex, multiplicity), innermost first."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for v, m in self.letters:
            if v not in (1, 2) or m < 1:
                raise ValueError(f"bad letter ({v}, {m})")

    @classmethod
    def from_composition(cls, seq) -> "MonomialWord":
        return cls(tuple((int(v), 1) for v in seq))

    @property
    def content(self) -> DimVector:
        return DimVector(*word_content(self.letters))

    def __str__(self):
        return "*".join(f"{v}^{m}" if m > 1 else str(v) for v, m in self.letters)


def spanning_words(dim: DimVector) -> list[MonomialWord]:
    """Deterministic spanning set: all ungrouped compositions plus the grouped
    sandwiches 1^a 2^d2 1^c and 2^a 1^d1 2^c."""
    words = {MonomialWord.from_composition(c) for c in compositions(dim.d1, dim.d2)}
    for a in range(dim.d1 + 1):
        letters = []
        if a:
            letters.append((1, a))
        if dim.d2:
            letters.append((2, dim.d2))
        if dim.d1 - a:
            letters.append((1, dim.d1 - a))
        if letters:
            words.add(MonomialWord(tuple(letters)))
    for a in range(dim.d2 + 1):
        letters = []
        if a:
            letters.append((2, a))
        if dim.d1:
            letters.append((1, dim.d1))
        if dim.d2 - a:
            letters.append((2, dim.d2 - a))
        if letters:
            words.add(MonomialWord(tuple(letters)))
    return sorted(words, key=lambda w: w.letters)


@dataclass(frozen=True)
class ConstructibleFnE:
    """Invariant constructible function on the representation space: one exact
    value per orbit rank."""

    dim: DimVector
    values: tuple[Fraction, ...]  # index = orbit rank

    def __post_init__(self):
        if len(self.values) != self.dim.rank_bound + 1:
            raise ValueError("one value per orbit required")

    def value(self, r: int) -> Fraction:
        return self.values[r]


@dataclass(frozen=True)
class ExpansionMatrix:
    """Square matrix indexed by orbit ranks; entry (r_row, r_col) = coefficient
    of the row orbit's function in the column orbit's expansion."""

    dim: DimVector
    entries: tuple[tuple[Fraction, ...], ...]  # entries[r_row][r_col]

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
    """The supplied words do not reach every orbit direction."""

    def __init__(self, dim: DimVector, missing: list[int]):
        super().__init__(
            f"monomial matrix on {dim} is rank-deficient; "
            f"unreachable orbit ranks: {missing}"
        )
        self.missing = missing


class ConjectureViolation(AssertionError):
    """A structural consequence of the multiplicity identity failed."""


def monomial_matrix_E(dim: DimVector, words) -> list[list[int]]:
    """Row per word, column per orbit rank; entries are flag counts at q = 1."""
    return [euler_counts(w.letters, dim, "E") for w in words]


def monomial_matrix_Pi(dim: DimVector, words) -> list[list[int]]:
    """Row per word, column per pair class, flag counts at q = 1."""
    return [euler_counts(w.letters, dim, "Pi") for w in words]


def canonical_fn(dim: DimVector, r: int) -> ConstructibleFnE:
    """Stalk Euler characteristics of the IC sheaf of the rank-r orbit closure,
    normalized to 1 on the open stratum.

    Computed through the small resolution whose fiber over a rank-r' point is
    a Grassmannian; the value at r' <= r is the binomial C(d1-r', d1-r) (with
    d1, d2 swapped when d2 < d1).  The resolution on the side of the smaller
    dimension is always small: for d1 <= d2 its condition reduces to
    d2 - d1 + r - r' > 0 for every r' < r."""
    n = dim.d1 if dim.d1 <= dim.d2 else dim.d2
    values = [
        Fraction(math.comb(n - rp, n - r)) if rp <= r else Fraction(0)
        for rp in range(dim.rank_bound + 1)
    ]
    return ConstructibleFnE(dim, tuple(values))


@dataclass(frozen=True)
class RowMismatch:
    """A word whose pair-side row differs from its E-side row times T."""

    word: MonomialWord
    cls: PiModClass
    lhs: Fraction  # pair-side flag count
    rhs: Fraction  # (E-side row . T) at the same class

    def __str__(self):
        return (f"word {self.word}, class ({self.cls.r},{self.cls.s}): "
                f"{self.lhs} != {self.rhs}")


@dataclass(frozen=True)
class TransferMatrix:
    """The lift to the pair variety as one matrix: mat_pi = mat_e . T.

    Row per orbit rank, column per pair class in pi_classes order.
    `mismatch` is the first word row, in word order, where the identity
    fails; None means every word row satisfies it exactly.
    """

    dim: DimVector
    entries: tuple[tuple[Fraction, ...], ...]
    mismatch: RowMismatch | None

    def apply(self, values) -> tuple[Fraction, ...]:
        """f . T: pair-side values of the lift of the E-side values f."""
        return tuple(
            sum((Fraction(v) * t for v, t in zip(values, col)), Fraction(0))
            for col in zip(*self.entries)
        )

    def section_failures(self) -> list[int]:
        """Ranks r whose (r, 0) column of T is not the unit vector at r."""
        classes = pi_classes(self.dim)
        out = []
        for r in range(self.dim.rank_bound + 1):
            j = classes.index(PiModClass(self.dim, r, 0))
            if any(row[j] != (1 if rp == r else 0)
                   for rp, row in enumerate(self.entries)):
                out.append(r)
        return out


def transfer_matrix(dim: DimVector, words=None, mats=None) -> TransferMatrix:
    """Solve for T on independent word rows, then check every word row.

    The first rank_bound + 1 independent E-side rows, in word order, give a
    square system solved once for all pair classes.  Every word row is then
    compared exactly, in integers after clearing the denominators of T.
    Raises SpanningError when the E-side rows do not reach every orbit rank.
    """
    if words is None:
        words = spanning_words(dim)
    if mats is None:
        mats = (monomial_matrix_E(dim, words), monomial_matrix_Pi(dim, words))
    mat_e, mat_pi = mats
    n_orbits = dim.rank_bound + 1
    picked, basis = ratlin.echelon(mat_e, n_orbits)
    if len(picked) < n_orbits:
        covered = {c for c, _ in basis}
        raise SpanningError(
            dim, [r for r in range(n_orbits) if r not in covered])
    t = ratlin.solve_square([mat_e[i] for i in picked],
                            [mat_pi[i] for i in picked])
    mismatch = _first_mismatch(words, mat_e, mat_pi, pi_classes(dim), t)
    return TransferMatrix(dim, tuple(tuple(row) for row in t), mismatch)


def _first_mismatch(words, mat_e, mat_pi, classes, t) -> RowMismatch | None:
    scale = math.lcm(*(v.denominator for row in t for v in row))
    cols = [[int(v * scale) for v in col] for col in zip(*t)]
    for w, row_e, row_pi in zip(words, mat_e, mat_pi):
        for cls, col, lhs in zip(classes, cols, row_pi):
            rhs = sum(e * c for e, c in zip(row_e, col))
            if rhs != lhs * scale:
                return RowMismatch(w, cls, Fraction(lhs), Fraction(rhs, scale))
    return None


def m_coefficients(dim: DimVector, *,
                   transfer: TransferMatrix | None = None) -> ExpansionMatrix:
    """m[r', r] = value of the lifted IC stalk function of orbit r at the
    generic pair class (r', min - r') of the r'-component."""
    if transfer is None:
        transfer = transfer_matrix(dim)
    bound = dim.rank_bound
    classes = pi_classes(dim)
    generic = [classes.index(ConormalComponent(Orbit(dim, rp)).generic_class)
               for rp in range(bound + 1)]
    cols = [transfer.apply(canonical_fn(dim, r).values)
            for r in range(bound + 1)]
    entries = tuple(tuple(cols[r][generic[rp]] for r in range(bound + 1))
                    for rp in range(bound + 1))
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


def check_multiplicities(n: ExpansionMatrix) -> None:
    """Raise ConjectureViolation unless n has unit diagonal, integer
    nonnegative entries, and support r' <= r."""
    bad = n.first_bad_entry(nonnegative=True)
    if bad is not None:
        rp, r = bad
        raise ConjectureViolation(
            f"on {n.dim}: n[{rp},{r}] = {n.entry(rp, r)} breaks the unit "
            f"diagonal, the support r' <= r or nonnegative integrality"
        )


def cc_multiplicities(dim: DimVector, *,
                      transfer: TransferMatrix | None = None
                      ) -> ExpansionMatrix:
    """n = the sign twist of m, validated.

    Checks the lift on every word row, then the structure forced by the
    multiplicity identity: unit diagonal, integrality, nonnegativity, and
    support r' <= r.  Any failure raises ConjectureViolation rather than
    passing silently.
    """
    if transfer is None:
        transfer = transfer_matrix(dim)
    if transfer.mismatch is not None:
        raise ConjectureViolation(
            f"on {dim}: pair-side row is not the E-side row times T at "
            f"{transfer.mismatch}")
    n = sign_twist(dim, m_coefficients(dim, transfer=transfer))
    check_multiplicities(n)
    return n
