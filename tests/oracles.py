"""Independent reference implementations that only the tests use.

They recompute, by a different route, what the library relies on: grouped
words, tuples of (vertex, multiplicity) letters, with their content, their
single-letter refinement into the library's word form, a composition, and
the sandwich words 1^a 2^d2 1^c and 2^a 1^d1 2^c; the
counting polynomials in q of flags of subrepresentations (Gaussian
binomials, one-step and grouped steps, the word evaluator), whose values at
q = 1 the integer counts of semican.qcount must equal, and the grouped step
matrices at q = 1 with the flag counts of grouped words built on them,
which the library does not have; the single-letter subrepresentations of
each class's representative pair over F_p, counted by brute force; pivot
columns, kernels, pivoted and square solutions read off `ratlin.echelon`,
a Gauss-Jordan solve in Fractions that shares no code with it, and the
tangent space of the conormal variety; the expansion of a constructible
function in flag monomials and the smallness test of the resolutions
behind canonical_fn; the transfer matrix as Fractions and the lift of a
function through it; the sandwich count rows of every sub-dimension, both
sides, by word_counts, where semican.bases builds only the E-side rows of
the resolution words of its dimension vector; the lift solved from those
rows by two eliminations per dimension vector, the reference of the T
that semican.bases solves from the single-letter identities at the
diagonal, and the identities checked entry by entry, the reference of its
whole-matrix comparison; the word
sweep that checks the lift row by row, mat_pi = mat_e . T on every
composition and sandwich word; the listed
separation instances, whose order `instances_at` and `matchings` must
reproduce, and the sample drawn from them; the packed encoding of a tuple
monomial; the Borel normal form of
a covector with its certificate, the critical locus of the chart pairing,
formal partial derivatives of polynomials, the bilinear split of a
polynomial by degree counts, and the whole separation of an
instance on tuple monomials (`RefPoly` polynomials and arithmetic, the
trace pieces, the inversion, the X change, the one-pass bilinear split and
back-substitution), whose polynomials the packed kernel of
semican.separation must reproduce once decoded, and the rendering of that
separation's JSON report from its `RefPoly` fields; and the seeded
floating-point probe of the regularity of the rank stratification, the
reference of the exact `geom.w_regularity`, the only code here that needs
numpy.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from semican import ratlin
from semican.bases import ConstructibleFnE, SpanningError, TransferMatrix
from semican.core import (DimVector, Orbit, PiModClass, compositions,
                          enumerate_orbits, pi_classes, representative_pair)
from semican.geom import PairPoint, _conormal_rows
from semican.packed import Slots
from semican.separation import (FlagShape, NormalFormY, PackedSeparation,
                                _coupled_pairs, _separation_error,
                                flag_shape, validate_matching)
from semican.sympoly import (BilinearityError, Mono, VarId, _mono_str,
                             join_terms)

# ---------------------------------------------------------------------------
# grouped words


Word = tuple[tuple[int, int], ...]  # ((vertex, multiplicity), ...)


def word_content(word: Word) -> tuple[int, int]:
    c1 = sum(m for v, m in word if v == 1)
    c2 = sum(m for v, m in word if v == 2)
    return c1, c2


def refined(word: Word) -> tuple[int, ...]:
    """The single-letter refinement of `word` as a composition, the
    library's word form: each v^b becomes b letters v."""
    return tuple(v for v, b in word for _ in range(b))


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


# ---------------------------------------------------------------------------
# point counts over F_q as polynomials in q


class QPoly:
    """Integer-coefficient polynomial in q; coefficient of q^k at index k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def q_power(cls, k: int) -> "QPoly":
        return cls((0,) * k + (1,))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return QPoly([x - y for x, y in zip(a, b)])

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return QPoly(out)

    def __call__(self, q):
        v = 0
        for c in reversed(self.coeffs):
            v = v * q + c
        return v

    def at_one(self) -> int:
        return sum(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "q" if k == 1 else f"q^{k}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts)


def q_int(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1), the number of lines in F_q^n."""
    return QPoly((1,) * n) if n > 0 else QPoly()


def q_factorial(n: int) -> QPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q, the number of complete flags in F_q^n."""
    out = QPoly.one()
    for k in range(1, n + 1):
        out = out * q_int(k)
    return out


@lru_cache(maxsize=None)
def gauss_binom(m: int, k: int) -> QPoly:
    """q-binomial coefficient: subspaces of dimension k in F_q^m."""
    if k < 0 or k > m:
        return QPoly.zero()
    if k == 0 or k == m:
        return QPoly.one()
    # Pascal recurrence stays in integer coefficients throughout.
    return gauss_binom(m - 1, k - 1) + QPoly.q_power(k) * gauss_binom(m - 1, k)


@dataclass(frozen=True)
class StepCount:
    """A quotient class together with the polynomial counting the choices."""

    child: object  # Orbit or PiModClass
    count: QPoly


def _steps(pairs) -> list[StepCount]:
    out = [StepCount(c, p) for c, p in pairs if p]
    out.sort(key=lambda s: (s.child.dim.d1, s.child.dim.d2, s.child.r,
                            getattr(s.child, "s", 0)))
    return out


def sub_simple_E(cls: Orbit, vertex: int) -> list[StepCount]:
    """One-dimensional subrepresentations of a rank-r map, by quotient class.

    Vertex 1 subs are lines killed by x; vertex 2 subs are arbitrary lines in
    V2, splitting by whether they meet the image of x.
    """
    d1, d2, r = cls.dim.d1, cls.dim.d2, cls.r
    if vertex == 1:
        if d1 - r == 0:
            return []
        return _steps([(Orbit(DimVector(d1 - 1, d2), r), q_int(d1 - r))])
    if vertex == 2:
        if d2 == 0:
            return []
        dim = DimVector(d1, d2 - 1)
        pairs = []
        if r > 0:
            pairs.append((Orbit(dim, r - 1), q_int(r)))
        if r <= min(d1, d2 - 1):
            pairs.append((Orbit(dim, r), q_int(d2) - q_int(r)))
        return _steps(pairs)
    raise ValueError(f"vertex must be 1 or 2, got {vertex}")


def sub_simple_Pi(cls: PiModClass, vertex: int) -> list[StepCount]:
    """One-dimensional subrepresentations of a pair (x, y) with xy = yx = 0.

    im y sits inside ker x and im x inside ker y, so lines split by whether
    they lie in the image of the opposite map.
    """
    d1, d2, r, s = cls.dim.d1, cls.dim.d2, cls.r, cls.s
    if vertex == 1:
        if d1 - r == 0:
            return []
        dim = DimVector(d1 - 1, d2)
        pairs = []
        if s > 0:
            pairs.append((PiModClass(dim, r, s - 1), q_int(s)))
        if r + s <= min(d1 - 1, d2):
            pairs.append((PiModClass(dim, r, s), q_int(d1 - r) - q_int(s)))
        return _steps(pairs)
    if vertex == 2:
        if d2 - s == 0:
            return []
        dim = DimVector(d1, d2 - 1)
        pairs = []
        if r > 0:
            pairs.append((PiModClass(dim, r - 1, s), q_int(r)))
        if r + s <= min(d1, d2 - 1):
            pairs.append((PiModClass(dim, r, s), q_int(d2 - s) - q_int(r)))
        return _steps(pairs)
    raise ValueError(f"vertex must be 1 or 2, got {vertex}")


def _grouped_split(ambient: int, special: int, b: int):
    """Count b-subspaces of an ambient space meeting a fixed `special`-dim
    subspace in dimension exactly t, for each feasible t."""
    for t in range(max(0, b - (ambient - special)), min(b, special) + 1):
        count = (gauss_binom(special, t)
                 * gauss_binom(ambient - special, b - t)
                 * QPoly.q_power((special - t) * (b - t)))
        yield t, count


def sub_grouped(cls, vertex: int, b: int, side: str) -> list[StepCount]:
    """Subrepresentations of dimension b concentrated at one vertex.

    Iterating sub_simple b times and dividing by the flag count [b]_q! gives
    the same polynomials; that consistency is covered by the test suite.
    """
    if side == "E":
        return _sub_grouped_E(cls, vertex, b)
    if side == "Pi":
        return _sub_grouped_Pi(cls, vertex, b)
    raise ValueError(f"side must be 'E' or 'Pi', got {side!r}")


def _sub_grouped_E(cls: Orbit, vertex: int, b: int) -> list[StepCount]:
    d1, d2, r = cls.dim.d1, cls.dim.d2, cls.r
    if b == 0:
        return [StepCount(cls, QPoly.one())]
    if vertex == 1:
        # b > d1 - r leaves no room inside ker x; the count is zero exactly then.
        if b > d1 or r > d1 - b:
            return []
        return _steps([(Orbit(DimVector(d1 - b, d2), r), gauss_binom(d1 - r, b))])
    if vertex == 2:
        if b > d2:
            return []
        dim = DimVector(d1, d2 - b)
        pairs = []
        for t, count in _grouped_split(d2, r, b):
            if r - t <= min(d1, d2 - b):
                pairs.append((Orbit(dim, r - t), count))
        return _steps(pairs)
    raise ValueError(f"vertex must be 1 or 2, got {vertex}")


def _sub_grouped_Pi(cls: PiModClass, vertex: int, b: int) -> list[StepCount]:
    d1, d2, r, s = cls.dim.d1, cls.dim.d2, cls.r, cls.s
    if b == 0:
        return [StepCount(cls, QPoly.one())]
    if vertex == 1:
        # U must sit inside ker x (dimension d1 - r), stratified by U \cap im y.
        if b > d1:
            return []
        dim = DimVector(d1 - b, d2)
        pairs = []
        for t, count in _grouped_split(d1 - r, s, b):
            if r + (s - t) <= min(d1 - b, d2):
                pairs.append((PiModClass(dim, r, s - t), count))
        return _steps(pairs)
    if vertex == 2:
        if b > d2:
            return []
        dim = DimVector(d1, d2 - b)
        pairs = []
        for t, count in _grouped_split(d2 - s, r, b):
            if (r - t) + s <= min(d1, d2 - b):
                pairs.append((PiModClass(dim, r - t, s), count))
        return _steps(pairs)
    raise ValueError(f"vertex must be 1 or 2, got {vertex}")


@lru_cache(maxsize=None)
def _eval(word: Word, cls, side: str) -> QPoly:
    if not word:
        return QPoly.one() if cls.dim.total == 0 else QPoly.zero()
    (vertex, mult), rest = word[0], word[1:]
    total = QPoly.zero()
    for step in sub_grouped(cls, vertex, mult, side):
        total = total + step.count * _eval(rest, step.child, side)
    return total


def _checked_word(word, cls, side: str) -> Word:
    word = tuple((int(v), int(m)) for v, m in word)
    if any(v not in (1, 2) or m < 1 for v, m in word):
        raise ValueError(f"malformed word {word}")
    if word_content(word) != (cls.dim.d1, cls.dim.d2):
        raise ValueError(
            f"word content {word_content(word)} does not match {cls.dim}"
        )
    if side == "E" and not isinstance(cls, Orbit):
        raise TypeError("side 'E' expects an Orbit class")
    if side == "Pi" and not isinstance(cls, PiModClass):
        raise TypeError("side 'Pi' expects a PiModClass")
    return word


def eval_word(word: Word, cls, side: str) -> QPoly:
    """Counting polynomial of flags of type `word` on the class `cls`.

    The leftmost letter is the innermost subrepresentation.  The word's
    vertex content must match the dimension vector of `cls`.
    """
    return _eval(_checked_word(word, cls, side), cls, side)


def transitions(word: Word, cls, side: str) -> dict:
    """All classes reachable by peeling `word` off `cls`, with multiplicities."""
    front = {cls: QPoly.one()}
    for vertex, mult in word:
        nxt: dict = {}
        for c, acc in front.items():
            for step in sub_grouped(c, vertex, mult, side):
                prev = nxt.get(step.child, QPoly.zero())
                nxt[step.child] = prev + acc * step.count
        front = nxt
    return front


@lru_cache(maxsize=None)
def grouped_step(dim: DimVector, vertex: int, b: int, side: str):
    """The grouped step matrix S_{vertex,b}(dim) at q = 1: per class of
    `dim` in class order, ((child index, count), ...) from the grouped
    polynomials at 1, children indexed in the class order of their
    dimension and sorted by class.  The library builds S_{v,1} only, as
    closed forms; this is the reference for every b."""
    classes = enumerate_orbits if side == "E" else pi_classes
    child = (DimVector(dim.d1 - b, dim.d2) if vertex == 1
             else DimVector(dim.d1, dim.d2 - b))
    index = {c: i for i, c in enumerate(classes(child))}
    return tuple(tuple((index[s.child], s.count.at_one())
                       for s in sub_grouped(c, vertex, b, side))
                 for c in classes(dim))


def word_counts(word: Word, dim: DimVector, side: str) -> list[int]:
    """Euler characteristics of the flags of type `word`, grouped letters
    too, one per class of `dim` in class order: the grouped steps of its
    letters, the last letter first, applied to the one class of (0, 0)."""
    if word_content(word) != (dim.d1, dim.d2):
        raise ValueError(
            f"word content {word_content(word)} does not match {dim}")
    row, d1, d2 = [1], 0, 0
    for vertex, b in reversed(word):
        d1, d2 = (d1 + b, d2) if vertex == 1 else (d1, d2 + b)
        row = [sum(n * row[j] for j, n in steps)
               for steps in grouped_step(DimVector(d1, d2), vertex, b, side)]
    return row


# ---------------------------------------------------------------------------
# single-letter subrepresentations over F_p, by brute force


def rank_mod(vectors, p: int) -> int:
    """Dimension over F_p of the span of `vectors`."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _lines(d: int, p: int):
    """A spanning vector of each line of F_p^d: first nonzero entry 1."""
    for v in itertools.product(range(p), repeat=d):
        nonzero = [c for c in v if c]
        if nonzero and nonzero[0] == 1:
            yield v


def _apply(m, v, p: int) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in m)


def brute_single_letter(cls, vertex: int, p: int) -> dict:
    """{child class: number of lines} over F_p for peeling one line at
    `vertex` off `core.representative_pair` of `cls`: an Orbit (the pair
    with y = 0, read as x alone) or a PiModClass.

    A line L at vertex 1 is a subrepresentation when x L = 0, one at
    vertex 2 when y L = 0; the child is the class of the quotient by L.  A
    map out of the quotient keeps the rank of the map it comes from, since
    L lies in its kernel; a map into it has rank dim(im + L) - 1, both
    ranks by elimination over F_p."""
    dim = cls.dim
    pair = cls if isinstance(cls, PiModClass) else PiModClass(dim, cls.r, 0)
    x, y = representative_pair(pair)  # x: V1 -> V2 as d2 rows, y the other
    x_cols, y_cols = list(zip(*x)), list(zip(*y))
    rank_x, rank_y = rank_mod(x_cols, p), rank_mod(y_cols, p)
    out: dict = {}
    for v in _lines(dim.d1 if vertex == 1 else dim.d2, p):
        if vertex == 1:
            if any(_apply(x, v, p)):
                continue
            child_dim = DimVector(dim.d1 - 1, dim.d2)
            r, s = rank_x, rank_mod(y_cols + [v], p) - 1
        else:
            if any(_apply(y, v, p)):
                continue
            child_dim = DimVector(dim.d1, dim.d2 - 1)
            r, s = rank_mod(x_cols + [v], p) - 1, rank_y
        child = (PiModClass(child_dim, r, s) if isinstance(cls, PiModClass)
                 else Orbit(child_dim, r))
        out[child] = out.get(child, 0) + 1
    return out


# ---------------------------------------------------------------------------
# linear algebra read off `ratlin.echelon`, and one solve that shares no code
# with it


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def pivot_columns(a) -> list[int]:
    """Columns reached by elimination in the given column order."""
    return [c for c, _ in ratlin.echelon(a)[1]]


def kernel_basis(a) -> list[list[Fraction]]:
    """Basis of the right nullspace {v : a v = 0}."""
    if not a:
        return []
    n_cols = len(a[0])
    basis = ratlin.echelon(a)[1]
    pivots = {c for c, _ in basis}
    out = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for c, b in basis:
            v[c] = Fraction(-b[fc], b[c])
        out.append(v)
    return out


def solve_pivoted(a, b) -> list[Fraction]:
    """One exact solution of a x = b, free variables pinned to zero.

    Pivoting follows the column order of `a`, so for a fixed matrix the
    returned solution is deterministic.  Raises InconsistentSystem when b is
    outside the column span.
    """
    n_cols = len(a[0]) if a else 0
    basis = ratlin.echelon([list(row) + [b[i]] for i, row in enumerate(a)])[1]
    x = [Fraction(0)] * n_cols
    for k, (c, row) in enumerate(basis):
        if c == n_cols:
            raise ratlin.InconsistentSystem(k)
        x[c] = Fraction(row[n_cols], row[c])
    return x


def gauss_jordan_solve(a, b) -> list[list[Fraction]]:
    """The X with a X = b, for square invertible `a` and `b` given by rows,
    by textbook Gauss-Jordan elimination in Fractions: pivot on the first
    nonzero entry of each column, scale the pivot row to 1, clear the
    column everywhere else.  Raises ValueError when `a` is singular."""
    n = len(a)
    rows = [[Fraction(x) for x in ra] + [Fraction(x) for x in rb]
            for ra, rb in zip(a, b)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            raise ValueError("singular matrix")
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def conormal_tangent(p: PairPoint):
    """Basis of the solution space of [u, y] + [x, v] = 0, as (u, v) pairs.

    At a smooth point of one component it has dimension exactly d1*d2.
    """
    d1, d2 = p.dim.d1, p.dim.d2
    nu = d1 * d2
    out = []
    for vec in kernel_basis(_conormal_rows(p)):
        u = tuple(tuple(vec[i * d1 + j] for j in range(d1)) for i in range(d2))
        v = tuple(tuple(vec[nu + i * d2 + j] for j in range(d2)) for i in range(d1))
        out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# the word sweep


def spanning_words(dim: DimVector) -> list[Word]:
    """Every ungrouped composition of `dim` plus its sandwich words, sorted."""
    words = {tuple((v, 1) for v in c) for c in compositions(dim.d1, dim.d2)}
    return sorted(words.union(sandwich_words(dim)))


def monomial_matrix(dim: DimVector, words, side: str) -> list[list[int]]:
    """Row per word, column per class of `dim` on `side` ("E" or "Pi"):
    flag counts at q = 1, grouped letters too."""
    return [word_counts(w, dim, side) for w in words]


def transfer_entries(t: TransferMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """T itself, u / scale, as a tuple of tuples of Fractions."""
    return tuple(tuple(Fraction(v, t.scale) for v in row) for row in t.u)


def lift_values(t: TransferMatrix, values) -> tuple[Fraction, ...]:
    """f . T: pair-side values of the lift of the E-side values f, one per
    pair class in pi_classes order."""
    values = [Fraction(v) for v in values]
    return tuple(sum((v * x for v, x in zip(values, col)), Fraction(0))
                 / t.scale for col in zip(*t.u))


def solve_square(a, b) -> tuple[list[list[int]], int]:
    """(u, s) with X = u / s solving a X = b, for square invertible `a` and
    `b` given by rows, as `ratlin.read_off` gives it.  Raises
    InconsistentSystem when `a` is singular."""
    n = len(a)
    return ratlin.read_off(ratlin.echelon(
        [list(ra) + list(rb) for ra, rb in zip(a, b)], width=n)[1], n)


def every_sandwich_rows(dim: DimVector) -> dict:
    """Per sub-dimension D <= dim, in (d1, d2) order: the E-side and the
    pair-side word_counts rows of the sandwich words of D."""
    return {sub: tuple(monomial_matrix(sub, sandwich_words(sub), side)
                       for side in ("E", "Pi"))
            for sub in (DimVector(a, c) for a in range(dim.d1 + 1)
                        for c in range(dim.d2 + 1))}


def two_pass_transfer(sub: DimVector, mat_e, mat_pi):
    """(u, s) with T_D = u / s on D = sub, by two eliminations: `echelon`
    picks the first rank_bound + 1 independent E-side rows, then
    `solve_square` solves the square system they form.  Raises
    SpanningError when fewer rows are independent."""
    n_orbits = sub.rank_bound + 1
    picked, basis = ratlin.echelon(mat_e, n_orbits)
    if len(picked) < n_orbits:
        covered = {c for c, _ in basis}
        raise SpanningError(
            sub, [r for r in range(n_orbits) if r not in covered])
    return solve_square([mat_e[i] for i in picked],
                        [mat_pi[i] for i in picked])


def first_broken_identity(scaled, steps=grouped_step,
                          single=False) -> str | None:
    """The witness of the first intertwining identity
    T_child . S^Pi^T == S^E^T . T_D that fails, over the (u, s) of each D
    in `scaled`, in the order of `scaled` and then by letter, compared
    entry by entry; None when all hold.  `steps(D, v, b, side)` gives the
    step matrices.  With `single`, only the single letters v^1 are
    checked, as the library does; otherwise every letter v^b with
    b <= d_v."""
    for sub, (u, scale) in scaled.items():
        classes = pi_classes(sub)
        for v, top in ((1, sub.d1), (2, sub.d2)):
            for b in range(1, (min(top, 1) if single else top) + 1):
                u_child, child_scale = scaled[
                    DimVector(sub.d1 - b, sub.d2) if v == 1
                    else DimVector(sub.d1, sub.d2 - b)]
                # child_scale * (T_child . S_pi^T) and scale * (S_e^T . T_D)
                lhs = [[sum(row[j] * n for j, n in cls_steps)
                        for cls_steps in steps(sub, v, b, "Pi")]
                       for row in u_child]
                rhs = [[0] * len(classes) for _ in u_child]
                for u_row, rank_steps in zip(u, steps(sub, v, b, "E")):
                    for j, n in rank_steps:
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


def first_sweep_mismatch(t: TransferMatrix, words):
    """The first (word, class, lhs, rhs), in word then class order, where a
    word's pair-side count lhs differs from its E-side row times T, rhs;
    None when every row agrees.  Compared in ints after scaling T."""
    dim = t.dim
    entries = transfer_entries(t)
    scale = math.lcm(*(v.denominator for row in entries for v in row))
    cols = [[int(v * scale) for v in col] for col in zip(*entries)]
    for w in words:
        row_e = word_counts(w, dim, "E")
        for cls, col, lhs in zip(pi_classes(dim), cols,
                                 word_counts(w, dim, "Pi")):
            rhs = sum(e * c for e, c in zip(row_e, col))
            if rhs != lhs * scale:
                return w, cls, Fraction(lhs), Fraction(rhs, scale)
    return None


# ---------------------------------------------------------------------------
# expansion over flag monomials and small resolutions


def smallness_check(dim: DimVector, r: int, side: str) -> bool:
    """Whether the chosen resolution of the rank <= r closure is small.

    The ker-side resolution has Grassmannian fibers of dimension
    (d1 - r)(r - r') over the rank-r' stratum; smallness asks twice that to be
    less than the stratum codimension for every r' < r.  The coker side swaps
    the roles of d1 and d2.
    """
    d1, d2 = dim.d1, dim.d2
    if side == "coker":
        d1, d2 = d2, d1
    elif side != "ker":
        raise ValueError(f"side must be 'ker' or 'coker', got {side!r}")
    for rp in range(r):
        if not 2 * (d1 - r) * (r - rp) < (r - rp) * (d1 + d2 - r - rp):
            return False
    return True


def express_in_monomials(f: ConstructibleFnE, words) -> list[Fraction]:
    """Exact coefficients c with sum_w c_w * monomial_w = f on every orbit.

    Underdetermined systems get the pivoted minimal solution in the given
    word order.  Raises SpanningError when some orbit direction is missing.
    The pipeline lifts through transfer_matrix; this is the reference the
    transfer matrix is tested against.
    """
    mat_e = monomial_matrix(f.dim, words, "E")
    n_orbits = f.dim.rank_bound + 1
    covered = set(pivot_columns(mat_e))
    if len(covered) < n_orbits:
        missing = [r for r in range(n_orbits) if r not in covered]
        raise SpanningError(f.dim, missing)
    system = transpose(mat_e)  # orbit equations, word unknowns
    return solve_pivoted(system, list(f.values))


# ---------------------------------------------------------------------------
# separation


def enumerate_matchings(shape: FlagShape) -> list[NormalFormY]:
    """All admissible partial matchings, the empty one included, by (size,
    sorted entries): a walk over the columns, then a sort."""
    adm = y_positions(shape)
    by_col: dict[int, list[int]] = {}
    for i, j in adm:
        by_col.setdefault(j, []).append(i)
    cols = sorted(by_col)
    out: list[NormalFormY] = []

    def walk(idx: int, used_rows: frozenset, acc: tuple):
        if idx == len(cols):
            out.append(NormalFormY(frozenset(acc)))
            return
        walk(idx + 1, used_rows, acc)
        j = cols[idx]
        for i in sorted(by_col[j]):
            if i not in used_rows:
                walk(idx + 1, used_rows | {i}, acc + ((i, j),))

    walk(0, frozenset(), ())
    out.sort(key=lambda m: (len(m.entries), sorted(m.entries)))
    return out


def enumerate_instances(dim: DimVector):
    """Every (composition, normal-form y0) pair for this dimension vector,
    in instance order: the reference `count_instances`, `instances_at` and
    `matchings` are tested against."""
    for a in compositions(dim.d1, dim.d2):
        shape = flag_shape(a)
        for m in enumerate_matchings(shape):
            yield a, m




def y_positions(shape: FlagShape) -> list[tuple[int, int]]:
    """The admissible entries (row, column) of y0, row-major."""
    return [(i, j) for i in range(1, shape.d1 + 1)
            for j in range(1, shape.d2 + 1) if shape.adm_y(i, j)]


def x_positions(shape: FlagShape) -> list[tuple[int, int]]:
    """The admissible entries (row, column) of x, row-major."""
    return [(i, j) for i in range(1, shape.d2 + 1)
            for j in range(1, shape.d1 + 1) if shape.adm_x(i, j)]


def encode(slots: Slots, mono: Mono) -> int:
    """The packed monomial of a tuple monomial: the inverse of
    `slots.decode`."""
    return sum(slots.unit[v] * e for v, e in mono)


def sample_by_list(dim: DimVector, seed: int, k: int) -> list:
    """The seeded sample of k instances, drawn from the listed instances.

    The way `verify` drew its separation sample before it drew indices; it
    lists all of `enumerate_instances(dim)`.
    """
    return random.Random(seed).sample(_listed_instances(dim), k)


@lru_cache(maxsize=2)
def _listed_instances(dim: DimVector) -> tuple:
    return tuple(enumerate_instances(dim))


@dataclass(frozen=True)
class BorelCertificate:
    """Factors with normal = g1 . y . g2^{-1}; both upper triangular."""

    g1: tuple[tuple[Fraction, ...], ...]
    g2: tuple[tuple[Fraction, ...], ...]


def normal_form(shape: FlagShape, y) -> tuple[NormalFormY, BorelCertificate]:
    """Column-by-column Borel sweep to a unit partial matching.

    In each nonzero column the bottom-most entry becomes the pivot; row
    operations from above clear the column, column operations to the right
    clear the pivot row, and the pivot is scaled to one.
    """
    d1, d2 = shape.d1, shape.d2
    m = [[Fraction(v) for v in row] for row in y]
    if len(m) != d1 or any(len(row) != d2 for row in m):
        raise ValueError(f"matrix must be {d1} x {d2}")
    for i in range(d1):
        for j in range(d2):
            if m[i][j] != 0 and not shape.adm_y(i + 1, j + 1):
                raise ValueError(f"entry ({i + 1},{j + 1}) violates flag stability")

    g1 = [[Fraction(1 if a == b else 0) for b in range(d1)] for a in range(d1)]
    g2 = [[Fraction(1 if a == b else 0) for b in range(d2)] for a in range(d2)]

    def row_op(i, p, c):
        # row_i += c * row_p with i < p; left factor stays upper triangular
        for j in range(d2):
            m[i][j] += c * m[p][j]
        for j in range(d1):
            g1[i][j] += c * g1[p][j]

    def row_scale(p, c):
        for j in range(d2):
            m[p][j] *= c
        for j in range(d1):
            g1[p][j] *= c

    def col_op(j, s, c):
        # col_j += c * col_s with s < j; accumulated on g2 as the inverse factor
        for i in range(d1):
            m[i][j] += c * m[i][s]
        for i in range(d2):
            g2[s][i] -= c * g2[j][i]

    for s in range(d2):
        rows = [i for i in range(d1) if m[i][s] != 0]
        if not rows:
            continue
        p = rows[-1]
        row_scale(p, 1 / m[p][s])
        for i in rows[:-1]:
            row_op(i, p, -m[i][s])
        for j in range(s + 1, d2):
            if m[p][j] != 0:
                col_op(j, s, -m[p][j])

    entries = frozenset(
        (i + 1, j + 1) for i in range(d1) for j in range(d2) if m[i][j] != 0
    )
    cert = BorelCertificate(
        tuple(tuple(row) for row in g1), tuple(tuple(row) for row in g2)
    )
    return NormalFormY(entries), cert


def critical_locus_check(composition, x0, y) -> bool:
    """Compare the computed differential against the stabilization predicate.

    The differential of (g, x) -> <g x, y> at (1, x0) has a group part that
    vanishes iff x0 y = 0 = y x0 and a chart part that vanishes iff y
    stabilizes the flag; this recomputes both sides independently and
    returns whether they agree.
    """
    shape = flag_shape(composition)
    d1, d2 = shape.d1, shape.d2
    x0 = [[Fraction(v) for v in row] for row in x0]
    y = [[Fraction(v) for v in row] for row in y]
    if len(x0) != d2 or any(len(r) != d1 for r in x0):
        raise ValueError(f"x0 must be {d2} x {d1}")
    if len(y) != d1 or any(len(r) != d2 for r in y):
        raise ValueError(f"y must be {d1} x {d2}")
    for i in range(d2):
        for j in range(d1):
            if x0[i][j] != 0 and not shape.adm_x(i + 1, j + 1):
                raise ValueError(f"x0 entry ({i + 1},{j + 1}) not admissible")

    # chart directions: d/dt <x0 + t E_ij, y> = y[j][i], over admissible (i, j)
    chart_zero = all(
        y[j - 1][i - 1] == 0 for i, j in x_positions(shape)
    )
    # group directions: d/dt <(1 + t u) x0 (1 + t u')^{-1}...> over gl basis
    group_zero = True
    for a in range(d1):
        for b in range(d1):
            # u1 = E_ab acting as -x0 u1: derivative -tr(x0 E_ab y)
            val = -sum(x0[i][a] * y[b][i] for i in range(d2))
            if val != 0:
                group_zero = False
    for a in range(d2):
        for b in range(d2):
            # u2 = E_ab acting as u2 x0: derivative tr(E_ab x0 y)
            val = sum(x0[b][j] * y[j][a] for j in range(d1))
            if val != 0:
                group_zero = False
    computed_critical = chart_zero and group_zero

    adm = all(
        y[i][j] == 0 or shape.adm_y(i + 1, j + 1)
        for i in range(d1) for j in range(d2)
    )
    xy_zero = all(
        sum(x0[i][k] * y[k][j] for k in range(d1)) == 0
        for i in range(d2) for j in range(d2)
    )
    yx_zero = all(
        sum(y[i][k] * x0[k][j] for k in range(d2)) == 0
        for i in range(d1) for j in range(d1)
    )
    predicted_critical = adm and xy_zero and yx_zero
    return computed_critical == predicted_critical


def partial_derivative(p: RefPoly, v: VarId) -> RefPoly:
    """Formal partial derivative, exact over Q."""
    out: dict = {}
    for mono, c in p.terms.items():
        d = dict(mono)
        e = d.pop(v, 0)
        if e == 0:
            continue
        if e > 1:
            d[v] = e - 1
        key = tuple(sorted(d.items()))
        out[key] = out.get(key, 0) + c * e
    return RefPoly(out)


@dataclass(frozen=True)
class BilinearForm:
    """Matrix of a bilinear form on W1 x W2 with coefficient-polynomial entries."""

    rows: tuple[VarId, ...]
    cols: tuple[VarId, ...]
    matrix: tuple[tuple[RefPoly, ...], ...]


def bilinear_decompose_two_pass(p: RefPoly, w1, w2, vc) -> BilinearForm:
    """`bilinear_decompose` by summing each monomial's degree in W1 and W2.

    Accepts exactly the monomials of degree 1 in W1, degree 1 in W2 and all
    other factors (any exponent) in Vc; W1 and W2 take precedence over Vc.
    """
    w1, w2, vc = set(w1), set(w2), set(vc)
    rows, cols = tuple(sorted(w1)), tuple(sorted(w2))
    cells: dict = {}
    for mono, coeff in p.terms.items():
        deg1 = sum(e for v, e in mono if v in w1)
        deg2 = sum(e for v, e in mono if v in w2)
        rest = tuple((v, e) for v, e in mono if v not in w1 and v not in w2)
        if deg1 != 1 or deg2 != 1 or any(v not in vc for v, _ in rest):
            raise BilinearityError(_mono_str(mono))
        u = next(v for v, _ in mono if v in w1)
        w = next(v for v, _ in mono if v in w2)
        cell = cells.setdefault((u, w), {})
        cell[rest] = cell.get(rest, 0) + coeff
    return BilinearForm(rows, cols, tuple(
        tuple(RefPoly(cells.get((u, w))) for w in cols) for u in rows))


# ---------------------------------------------------------------------------
# the separation on tuple monomials: the reference the packed kernel of
# semican.separation is checked against


def _mono_mul(a: Mono, b: Mono) -> Mono:
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mul_terms(a: dict, b: dict) -> dict:
    """Term dict of the product of two term dicts (may hold zero terms)."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


class RefPoly:
    """A polynomial as a dict from sorted monomial to nonzero coefficient.

    Exact arithmetic on sorted tuple monomials; it compares by its terms and
    renders them with `to_str`, in the order and text of the reports.
    Coefficients are kept as given, so a Fraction stays exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, RefPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def to_str(self) -> str:
        return join_terms([(_mono_str(m), self.terms[m])
                           for m in sorted(self.terms)])

    def __repr__(self):
        return f"RefPoly({self.to_str()})"

    @classmethod
    def zero(cls) -> "RefPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "RefPoly":
        return cls({(): c})

    @classmethod
    def var(cls, v: VarId) -> "RefPoly":
        return cls({((v, 1),): 1})

    def __add__(self, other: RefPoly) -> "RefPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return RefPoly(out)

    def __neg__(self) -> "RefPoly":
        return RefPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: RefPoly) -> "RefPoly":
        return self + (-other)

    def __mul__(self, other: RefPoly) -> "RefPoly":
        return RefPoly(_mul_terms(self.terms, other.terms))

    def coefficient_of(self, v: VarId) -> "RefPoly":
        """Coefficient polynomial of v in a polynomial of degree <= 1 in v."""
        out: dict = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.pop(v, 0)
            if e == 0:
                continue
            if e > 1:
                raise ValueError(f"degree {e} > 1 in {v}")
            out[tuple(sorted(d.items()))] = c
        return RefPoly(out)

    def substitute(self, mapping: dict[VarId, RefPoly]) -> "RefPoly":
        """Simultaneously replace every mapped variable; exact."""
        out: dict = {}
        for mono, c in self.terms.items():
            term = {tuple((v, e) for v, e in mono if v not in mapping): c}
            for v, e in mono:
                if v in mapping:
                    for _ in range(e):
                        term = _mul_terms(term, mapping[v].terms)
            for m, tc in term.items():
                out[m] = out.get(m, 0) + tc
        return RefPoly(out)


def _trace_factors(shape: FlagShape, entry: tuple[int, int]) -> list:
    """The factors (kind, row, col) of each trace term of one y0 entry.

    These are the X*N, X*M and X*M*N families tied to the entry, with X
    admissible; no term belongs to two entries.  The reference for the
    pieces `separation` filters from its per-dimension templates.
    """
    ia, ja = entry
    d1, adm_x = shape.d1, shape.adm_x
    factors = []
    for i in range(1, ja):
        if adm_x(i, ia):
            factors.append((("X", i, ia), ("N", ja, i)))
    for j in range(ia + 1, d1 + 1):
        if adm_x(ja, j):
            factors.append((("X", ja, j), ("M", j, ia)))
    for i in range(1, ja):
        for j in range(ia + 1, d1 + 1):
            if adm_x(i, j):
                factors.append((("X", i, j), ("M", j, ia), ("N", ja, i)))
    return factors


class _TracePieces(dict):
    """The trace terms of each y0 entry of one shape, built on first use."""

    def __init__(self, shape: FlagShape):
        super().__init__()
        self.shape = shape

    def __missing__(self, entry: tuple[int, int]) -> dict:
        piece = self[entry] = {
            tuple(sorted((VarId(*f), 1) for f in fs)): 1
            for fs in _trace_factors(self.shape, entry)}
        return piece


@lru_cache(maxsize=None)
def trace_pieces(shape: FlagShape) -> _TracePieces:
    """The trace pieces of a shape, shared by every call on it."""
    return _TracePieces(shape)


def expand_trace(shape, y0) -> RefPoly:
    """tr(x g1^{-1} y0 g2) for unit-entry y0 and unipotent lower factors.

    x ranges over matrices stabilizing the flag of `shape`, so only
    admissible X positions carry variables; M / N are the strictly lower
    entries of the two group factors.  The trace is the
    sum over the entries of y0 of `trace_pieces(shape)[entry]`: the X*N,
    X*M and X*M*N families tied to that entry.  No monomial lies in two
    pieces, so every coefficient is 1.
    """
    entries = sorted(getattr(y0, "entries", y0))
    terms: dict = {}
    for i, j in entries:
        if not shape.adm_y(i, j):
            raise ValueError(f"y0 entry ({i},{j}) does not stabilize the flag")
        terms.update(trace_pieces(shape)[i, j])
    return RefPoly(terms)


def _cells(terms: dict, role: dict) -> dict:
    """The Vc-coefficient of each (row, column) cell, reading terms in order.

    Raises BilinearityError naming the first monomial that is not bilinear.
    """
    cells: dict = {}
    for mono, coeff in terms.items():
        r = c = -1
        rest = []
        for v, e in mono:
            vrow, vcol = role.get(v, (None, None))
            if vrow is None:
                raise BilinearityError(_mono_str(mono))
            if vrow < 0 and vcol < 0:
                rest.append((v, e))
                continue
            if e != 1 or (vrow >= 0 and r >= 0) or (vcol >= 0 and c >= 0):
                raise BilinearityError(_mono_str(mono))
            if vrow >= 0:
                r = vrow
            if vcol >= 0:
                c = vcol
        if r < 0 or c < 0:
            raise BilinearityError(_mono_str(mono))
        cell = cells.setdefault((r, c), {})
        rest = tuple(rest)
        cell[rest] = cell.get(rest, 0) + coeff
    return cells


def bilinear_decompose(p: RefPoly, w1, w2, vc) -> BilinearForm:
    """Split p as sum_{u in W1, v in W2} B[u][v](Vc) * u * v.

    Succeeds iff every monomial has degree exactly 1 in W1, exactly 1 in W2,
    and all remaining factors in Vc, with any exponent; otherwise raises
    BilinearityError naming the first offending monomial in `to_str` order.
    Each monomial is read once, through one map from each variable to its
    (row, column) role; a Vc variable has role (-1, -1).
    """
    rows = tuple(sorted(set(w1)))
    cols = tuple(sorted(set(w2)))
    role = dict.fromkeys(vc, (-1, -1))
    role.update((v, (i, -1)) for i, v in enumerate(rows))
    for j, v in enumerate(cols):
        role[v] = (role.get(v, (-1, -1))[0], j)
    try:
        cells = _cells(p.terms, role)
    except BilinearityError:
        cells = None
    if cells is None:  # read again in to_str order, to name the first offender
        _cells(dict(sorted(p.terms.items())), role)
    zero = RefPoly()  # shared by every zero cell; no cell is mutated
    matrix = [[zero] * len(cols) for _ in rows]
    for (i, j), cell in cells.items():
        matrix[i][j] = RefPoly(cell)
    return BilinearForm(rows, cols, tuple(map(tuple, matrix)))


@dataclass(frozen=True)
class SeparationReport:
    """Everything `separate_reference` produces for one instance.

    `separated` is bilinear in (w1, w2) with coefficients in vc, and
    `bilinear` is that form; `definitions` gives each primed variable in
    the original ones.
    """

    composition: tuple[int, ...]
    y0: tuple[tuple[int, int], ...]
    set_t: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    w1: tuple[VarId, ...]
    w2: tuple[VarId, ...]
    vc: tuple[VarId, ...]
    trace: RefPoly
    separated: RefPoly
    change_of_variables: tuple[tuple[str, str], ...]
    bilinear: BilinearForm
    definitions: dict[VarId, RefPoly]


def _fiber(t_pairs, al):
    """The alpha' coupled to alpha, by decreasing column."""
    return sorted((ap for ap, a2 in t_pairs if a2 == al), key=lambda e: -e[1])


def _inversion(shape: FlagShape, entries):
    """Triangular elimination of the coupled lower-unipotent variables.

    Returns (t_pairs, m_expr, mp_def): the set T, the expression of each
    coupled M variable in the new M' variables, and the definition of each
    M' in the original ones.  Processing each fiber by decreasing second
    matching column makes the system triangular, so the inversion is formal
    and exact.
    """
    t_pairs = _coupled_pairs(shape, entries)
    m_expr: dict[VarId, RefPoly] = {}
    mp_def: dict[VarId, RefPoly] = {}
    for al in entries:
        for ap in _fiber(t_pairs, al):
            ia, ja = al
            ip, jp = ap
            mvar = VarId("M", ia, ip)
            mpvar = VarId("Mp", ia, ip)
            defn = RefPoly.var(mvar) + RefPoly.var(VarId("N", ja, jp))
            expr = RefPoly.var(mpvar) - RefPoly.var(VarId("N", ja, jp))
            for ib, jb in entries:
                if ib < ia and jb > jp:
                    n = RefPoly.var(VarId("N", jb, jp))
                    cross = VarId("M", ia, ib)
                    defn = defn + RefPoly.var(cross) * n
                    expr = expr - m_expr.get(cross, RefPoly.var(cross)) * n
            m_expr[mvar] = expr
            mp_def[mpvar] = defn
    return t_pairs, m_expr, mp_def


def _x_change(shape: FlagShape, entries, j_set, t_pairs, m_expr):
    """Change of the coupled X variables absorbing the mixed X U N terms."""
    x_expr: dict[VarId, RefPoly] = {}
    xp_def: dict[VarId, RefPoly] = {}
    for ap, al in t_pairs:
        ia, ja = al
        ip, jp = ap
        xvar = VarId("X", jp, ia)
        xpvar = VarId("Xp", jp, ia)
        correction = RefPoly.zero()
        for app, a2 in t_pairs:
            if a2 != al or app[1] > jp:
                continue
            if app == ap:
                u = RefPoly.const(1)
            else:
                # coefficient of M'(ia, ip) inside the expansion of M(ia, i'')
                u = m_expr[VarId("M", ia, app[0])].coefficient_of(
                    VarId("Mp", ia, ip))
            if not u:
                continue
            for i in range(1, app[1]):
                if i not in j_set and shape.adm_x(i, ia):
                    correction = correction + (
                        RefPoly.var(VarId("X", i, ia)) * u
                        * RefPoly.var(VarId("N", app[1], i))
                    )
        x_expr[xvar] = RefPoly.var(xpvar) - correction
        xp_def[xpvar] = RefPoly.var(xvar) + correction
    return x_expr, xp_def


def _classify(shape: FlagShape, entries, t_pairs):
    """The quadratic/coefficient split of all chart variables, as VarIds.

    The reference for the unit masks `w1`, `w2` and `vc` of
    `separation.separate_packed`, which come from the split of its
    dimension vector per (I, J), less the X the composition does not
    admit, with the coupled M and X replaced by their primed copies.
    """
    i_set = {i for i, _ in entries}
    j_set = {j for _, j in entries}
    t_m = {VarId("M", al[0], ap[0]) for ap, al in t_pairs}
    t_x = {VarId("X", ap[1], al[0]) for ap, al in t_pairs}

    w1 = {VarId("Mp", al[0], ap[0]) for ap, al in t_pairs}
    w2 = {VarId("Xp", ap[1], al[0]) for ap, al in t_pairs}
    vc = set()

    def lower(d):
        return [(j, i) for j in range(2, d + 1) for i in range(1, j)]

    for j, i in lower(shape.d1):
        v = VarId("M", j, i)
        if v in t_m:
            continue  # replaced by M'
        if j not in i_set and i in i_set:
            w1.add(v)
        else:
            vc.add(v)
    for j, i in lower(shape.d2):
        v = VarId("N", j, i)
        if j in j_set and i not in j_set:
            w2.add(v)
        else:
            vc.add(v)
    for i, j in x_positions(shape):
        v = VarId("X", i, j)
        if v in t_x:
            continue  # replaced by X'
        if i not in j_set and j in i_set:
            w1.add(v)
        elif i in j_set and j not in i_set:
            w2.add(v)
        else:
            vc.add(v)
    return w1, w2, vc


def separate_reference(composition, y0: NormalFormY) -> SeparationReport:
    """The separation of one instance on tuple monomials and RefPoly.

    The reference for `separation.separate_packed` and `report_dicts`.
    Expands the trace, inverts, changes X, substitutes both changes at once
    and splits the bilinear form with `bilinear_decompose`, raising the
    same SeparationError on a form that is not bilinear.
    """
    shape = flag_shape(composition)
    validate_matching(shape, y0)
    entries = y0.sorted_entries()
    j_set = {j for _, j in entries}

    h = expand_trace(shape, y0)
    t_pairs, m_expr, mp_def = _inversion(shape, entries)
    x_expr, xp_def = _x_change(shape, entries, j_set, t_pairs, m_expr)
    separated = h.substitute({**m_expr, **x_expr})

    w1, w2, vc = _classify(shape, entries, t_pairs)
    try:
        form = bilinear_decompose(separated, w1, w2, vc)
    except BilinearityError as exc:
        raise _separation_error(composition, entries, exc) from exc

    change = tuple(
        sorted([(str(k), v.to_str()) for k, v in m_expr.items()]
               + [(str(k), v.to_str()) for k, v in x_expr.items()])
    )
    return SeparationReport(
        composition=shape.composition,
        y0=tuple(entries),
        set_t=tuple(sorted((tuple(ap), tuple(al)) for ap, al in t_pairs)),
        w1=tuple(sorted(w1)),
        w2=tuple(sorted(w2)),
        vc=tuple(sorted(vc)),
        trace=h,
        separated=separated,
        change_of_variables=change,
        bilinear=form,
        definitions={**mp_def, **xp_def},
    )


def back_substitute(report) -> RefPoly:
    """Replace the primed variables by their definitions in the originals.

    `report` is a SeparationReport or a DecodedSeparation.
    """
    return report.separated.substitute(report.definitions)


class DecodedSeparation(NamedTuple):
    """The polynomials of a PackedSeparation as RefPoly fields, and its
    variable groups as VarId sets."""

    trace: RefPoly
    separated: RefPoly
    definitions: dict[VarId, RefPoly]
    w1: set
    w2: set
    vc: set


def decode_separation(sep: PackedSeparation) -> DecodedSeparation:
    """Decode the trace, the separated polynomial, the definitions of the
    primed variables and the unit masks of the variable groups through the
    separation's slot table."""
    slots = sep.chart.layout.slots

    def var(unit: int) -> VarId:
        [(v, _)] = slots.decode(unit)
        return v

    def group(mask: int) -> set:
        # a sum of distinct units: exponent 1 in each of its variables
        factors = slots.decode(mask)
        assert all(e == 1 for _, e in factors), factors
        return {v for v, _ in factors}

    def poly(p: dict[int, int]) -> RefPoly:
        return RefPoly({slots.decode(m): c for m, c in p.items()})

    return DecodedSeparation(
        poly(sep.trace), poly(sep.separated),
        {var(u): poly(p) for u, p in sep.definitions.items()},
        *map(group, (sep.w1, sep.w2, sep.vc)))


def reference_dict(report: SeparationReport) -> dict:
    """The JSON report of an instance, rendered from its RefPoly fields.

    The reference that `separation.report_dicts`, which parses the texts
    `report_texts` writes from the packed kernel, must equal field for
    field.
    """
    return {
        "composition": list(report.composition),
        "y0": [list(e) for e in report.y0],
        "set_t": [[list(a), list(b)] for a, b in report.set_t],
        "w1": [str(v) for v in report.w1],
        "w2": [str(v) for v in report.w2],
        "vc": [str(v) for v in report.vc],
        "trace_poly": report.trace.to_str(),
        "separated_poly": report.separated.to_str(),
        "change_of_variables": [list(p) for p in report.change_of_variables],
        "b_shape": [len(report.bilinear.rows), len(report.bilinear.cols)],
        "b_matrix": [[cell.to_str() for cell in row]
                     for row in report.bilinear.matrix],
    }


# ---------------------------------------------------------------------------
# the floating-point probe of the regularity of the rank stratification
#
# Sampled points on a larger rank orbit approach a point of a smaller one
# along a shrinking distance ladder, and the distance between the two
# tangent spaces is compared with the distance between the points.  The
# exact `geom.w_regularity` is tested against it.


@dataclass(frozen=True)
class WRegReport:
    """Sampled tangent-distance ratios along a shrinking distance ladder."""

    dim: tuple[int, int]
    inner_rank: int
    outer_rank: int
    seed: int
    n_samples: int
    scales: tuple[float, ...]
    max_ratios: tuple[float, ...]
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "dim": list(self.dim),
            "inner_rank": self.inner_rank,
            "outer_rank": self.outer_rank,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "scales": list(self.scales),
            "max_ratios": list(self.max_ratios),
            "threshold": self.threshold,
            "passed": self.passed,
        }


def _orthonormal_rowspace(gens: np.ndarray, expected_rank: int) -> np.ndarray:
    _, svals, vt = np.linalg.svd(gens, full_matrices=False)
    tol = max(gens.shape) * np.finfo(float).eps * (svals[0] if len(svals) else 1.0)
    k = int((svals > tol).sum())
    if expected_rank is not None and k != expected_rank:
        raise ArithmeticError(f"tangent rank {k}, expected {expected_rank}")
    return vt[:k]


def _tangent_basis(z: np.ndarray, expected_rank: int) -> np.ndarray:
    d2, d1 = z.shape
    gens = []
    for a in range(d2):
        for b in range(d2):
            g = np.zeros_like(z)
            g[a, :] = z[b, :]
            gens.append(g.ravel())
    for a in range(d1):
        for b in range(d1):
            g = np.zeros_like(z)
            g[:, b] = z[:, a]
            gens.append(g.ravel())
    return _orthonormal_rowspace(np.array(gens), expected_rank)


def _subspace_distance(qi: np.ndarray, qj: np.ndarray) -> float:
    """Largest distance of a unit vector of rowspace(qi) from rowspace(qj)."""
    if qi.shape[0] == 0:
        return 0.0
    if qj.shape[0] == 0:
        return 1.0
    resid = qi - (qi @ qj.T) @ qj
    return float(np.linalg.svd(resid, compute_uv=False)[0])


def _random_invertible(rng, n: int) -> np.ndarray:
    while True:
        a = rng.normal(size=(n, n))
        if n == 0 or np.linalg.cond(a) < 50.0:
            return a


def w_regularity_sample(
    inner: Orbit,
    outer: Orbit,
    n_samples: int = 8,
    seed: int = 1,
    n_scales: int = 6,
    base_scale: float = 0.5,
    threshold: float = 10.0,
) -> WRegReport:
    """Probe the tangent-distance bound d(T S_in, T S_out) <= C |x'' - x'|.

    Sampled points on the outer orbit approach a random inner point along a
    geometric distance ladder; the per-scale maximum of distance ratios must
    stay within `threshold` of the coarsest scale.  Heuristic by design:
    floating point, finitely many samples.
    """
    if inner.dim != outer.dim:
        raise ValueError("orbits live on different dimension vectors")
    if not inner.r < outer.r:
        raise ValueError("inner rank must be smaller than outer rank")
    d1, d2 = inner.dim.d1, inner.dim.d2
    ri, rj = inner.r, outer.r
    rng = np.random.default_rng(seed)
    base = np.zeros((d2, d1))
    base[:ri, :ri] = np.eye(ri)
    scales = tuple(base_scale * 2.0 ** (-k) for k in range(n_scales))
    dim_in = ri * (d1 + d2 - ri)
    dim_out = rj * (d1 + d2 - rj)

    def nearest_rank(z: np.ndarray, r: int) -> np.ndarray:
        u, svals, vt = np.linalg.svd(z, full_matrices=False)
        return (u[:, :r] * svals[:r]) @ vt[:r]

    max_ratios = [0.0] * n_scales
    for _ in range(n_samples):
        a = _random_invertible(rng, d2)
        b = _random_invertible(rng, d1)
        x_in = a @ base @ b
        ti = _tangent_basis(x_in, dim_in)
        for k, eps in enumerate(scales):
            # approach from a generic direction: perturb, then project back
            # onto the rank-rj stratum
            for attempt in range(50):
                w = rng.normal(size=(d2, d1))
                w /= np.linalg.norm(w)
                x_out = nearest_rank(x_in + eps * w, rj)
                svals = np.linalg.svd(x_out, compute_uv=False)
                gap = float(np.linalg.norm(x_out - x_in))
                if (svals > 1e-12 * max(svals[0], 1.0)).sum() == rj and gap > 0:
                    break
            else:
                raise ArithmeticError("could not draw a nondegenerate sample")
            tj = _tangent_basis(x_out, dim_out)
            dist = _subspace_distance(ti, tj)
            max_ratios[k] = max(max_ratios[k], dist / gap)

    floor = 1e-9
    anchor = max(max_ratios[0], floor)
    passed = max(max_ratios) <= threshold * anchor
    return WRegReport(
        dim=(d1, d2),
        inner_rank=ri,
        outer_rank=rj,
        seed=seed,
        n_samples=n_samples,
        scales=scales,
        max_ratios=tuple(max_ratios),
        threshold=threshold,
        passed=passed,
    )
