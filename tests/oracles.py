"""Independent reference implementations that only the tests use.

They recompute, by a different route, what the library's separation relies
on: the Borel normal form of a covector with its certificate, the critical
locus of the chart pairing, formal partial derivatives of polynomials, and
the bilinear split of a polynomial by degree counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from semican.separation import FlagShape, NormalFormY, flag_shape
from semican.sympoly import (BilinearForm, BilinearityError, MultiPoly,
                             VarId, _mono_str)


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
