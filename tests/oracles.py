"""Independent reference implementations that only the tests use.

They recompute, by a different route, what the library relies on: the
counting polynomials in q of flags of subrepresentations (Gaussian
binomials, one-step and grouped steps, the word evaluator), whose values at
q = 1 the integer counts of semican.qcount must equal; the expansion of a
constructible function in flag monomials and the smallness test of the
resolutions behind canonical_fn; the Borel normal form of a covector with
its certificate, the critical locus of the chart pairing, formal partial
derivatives of polynomials, and the bilinear split of a polynomial by
degree counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from semican import ratlin
from semican.bases import (ConstructibleFnE, SpanningError,
                           monomial_matrix_E)
from semican.core import DimVector, Orbit, PiModClass
from semican.qcount import Word, word_content
from semican.separation import FlagShape, NormalFormY, flag_shape
from semican.sympoly import (BilinearForm, BilinearityError, MultiPoly,
                             VarId, _mono_str)

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
    mat_e = monomial_matrix_E(f.dim, words)
    n_orbits = f.dim.rank_bound + 1
    covered = set(ratlin.pivot_columns(mat_e))
    if len(covered) < n_orbits:
        missing = [r for r in range(n_orbits) if r not in covered]
        raise SpanningError(f.dim, missing)
    system = ratlin.transpose(mat_e)  # orbit equations, word unknowns
    return ratlin.solve_pivoted(system, list(f.values))


# ---------------------------------------------------------------------------
# separation


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
        y[j - 1][i - 1] == 0 for i, j in shape.x_positions()
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


def partial_derivative(p: MultiPoly, v: VarId) -> MultiPoly:
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
    return MultiPoly(out)


def bilinear_decompose_two_pass(p: MultiPoly, w1, w2, vc) -> BilinearForm:
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
        tuple(MultiPoly(cells.get((u, w))) for w in cols) for u in rows))
