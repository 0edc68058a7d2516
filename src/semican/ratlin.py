"""Dense exact linear algebra over the rationals.

Small systems only (a few dozen rows); plain fraction-free-of-surprises
Gaussian elimination on lists of Fraction rows.  Pivot columns are taken in
the given order, so solutions are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]


class InconsistentSystem(ValueError):
    """Right-hand side not in the column span; carries the failing row index."""

    def __init__(self, row: int):
        super().__init__(f"system inconsistent at equation {row}")
        self.row = row


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if ait == 0:
                continue
            brow = b[t]
            orow = out[i]
            for j in range(m):
                orow[j] += ait * brow[j]
    return out


def identity(n: int):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _echelonize(m: list[Row]) -> list[tuple[int, int]]:
    """Reduce `m` in place to row echelon form; returns (row, col) pivots."""
    pivots = []
    piv_r = 0
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    for c in range(n_cols):
        for r in range(piv_r, n_rows):
            if m[r][c] != 0:
                break
        else:
            continue
        m[piv_r], m[r] = m[r], m[piv_r]
        inv = 1 / m[piv_r][c]
        m[piv_r] = [v * inv for v in m[piv_r]]
        for r2 in range(n_rows):
            if r2 != piv_r and m[r2][c] != 0:
                f = m[r2][c]
                m[r2] = [v - f * p for v, p in zip(m[r2], m[piv_r])]
        pivots.append((piv_r, c))
        piv_r += 1
        if piv_r == n_rows:
            break
    return pivots


def rank(a) -> int:
    m = [list(map(Fraction, row)) for row in a]
    return len(_echelonize(m))


def pivot_columns(a) -> list[int]:
    """Columns reached by elimination in the given column order."""
    m = [list(map(Fraction, row)) for row in a]
    return [c for _, c in _echelonize(m)]


def kernel_basis(a) -> list[Row]:
    """Basis of the right nullspace {v : a v = 0}."""
    if not a:
        return []
    n_cols = len(a[0])
    m = [list(map(Fraction, row)) for row in a]
    pivots = _echelonize(m)
    piv_cols = {c: r for r, c in pivots}
    free_cols = [c for c in range(n_cols) if c not in piv_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for c, r in piv_cols.items():
            v[c] = -m[r][fc]
        basis.append(v)
    return basis


def solve_pivoted(a, b) -> Row:
    """One exact solution of a x = b, free variables pinned to zero.

    Pivoting follows the column order of `a`, so for a fixed matrix the
    returned solution is deterministic.  Raises InconsistentSystem when b is
    outside the column span.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    m = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = _echelonize(m)
    piv_of_col = {c: r for r, c in pivots if c < n_cols}
    for r, c in pivots:
        if c == n_cols:
            raise InconsistentSystem(r)
    x = [Fraction(0)] * n_cols
    for c, r in piv_of_col.items():
        x[c] = m[r][n_cols]
    return x


def independent_rows(a, limit: int) -> tuple[list[int], list[int]]:
    """Rows of `a` picked greedily in the given order while each is
    independent of those before it, stopping once `limit` are picked.

    Returns the picked row indices and the pivot columns they reach; with
    fewer than `limit` rows picked, the pivot columns are those of the whole
    row space.  Elimination is fraction-free, so integer rows stay integer.
    """
    basis: list[tuple[int, list]] = []  # (pivot column, reduced row)
    picked = []
    for i, row in enumerate(a):
        v = list(row)
        for c, b in basis:
            f = v[c]
            if f:
                p = b[c]
                v = [p * x - f * y for x, y in zip(v, b)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is None:
            continue
        basis.append((c, v))
        picked.append(i)
        if len(picked) == limit:
            break
    return picked, sorted(c for c, _ in basis)


def solve_square(a, b) -> list[Row]:
    """The X with a X = b, for square invertible `a` and `b` given by rows.

    Raises InconsistentSystem when `a` is singular.
    """
    n = len(a)
    m = [list(map(Fraction, ra)) + list(map(Fraction, rb))
         for ra, rb in zip(a, b)]
    pivots = _echelonize(m)
    for k, (r, c) in enumerate(pivots):
        if c != k:
            raise InconsistentSystem(r)
    if len(pivots) < n:
        raise InconsistentSystem(len(pivots))
    return [row[n:] for row in m]
