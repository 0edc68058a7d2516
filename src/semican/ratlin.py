"""Dense exact linear algebra over the rationals, by one integer elimination.

`echelon` is the only elimination routine.  It scales each row to integers,
takes the rows in the given order and reduces each against the rows kept so
far with the fraction-free step v <- p*v - f*b (Bareiss 1968, Math. Comp. 22),
dividing by the gcd of the entries to keep them small.  The kept rows are the
reduced row echelon form up to one nonzero integer per row.  That form is
unique, so the rank and the solutions read off it do not depend on the
order of the steps.  Pivots may be confined to the first columns of the
rows, so that one reduction of the augmented rows (a | b) both picks
independent rows of a and solves for b; `read_off` takes the solution
from that basis.  Rationals come in as input rows only; every result is in
ints: a solution comes as integer rows over one common denominator.
"""

from __future__ import annotations

import math

Basis = list[tuple[int, list[int]]]  # (pivot column, integer row)


class InconsistentSystem(ValueError):
    """Right-hand side not in the column span; carries the failing row index."""

    def __init__(self, row: int):
        super().__init__(f"system inconsistent at equation {row}")
        self.row = row


def mat_mul(a, b):
    """The product of two matrices of ints or Fractions, exactly."""
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
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


def _primitive(v: list[int]) -> list[int]:
    g = math.gcd(*v)
    return v if g == 1 else [x // g for x in v]


def echelon(a, limit: int | None = None,
            width: int | None = None) -> tuple[list[int], Basis]:
    """Greedy fraction-free row reduction of `a`.

    A row is picked when it is independent of the rows picked before it in
    its first `width` columns (all columns by default), which are the only
    pivot columns; the routine stops after `limit` picks.  Returns the
    picked row indices and the basis as (pivot column, integer row) pairs
    sorted by pivot column.  Each basis row is zero at every other pivot
    column, so dividing it by its pivot entry gives the reduced row echelon
    row.
    """
    picked: list[int] = []
    basis: Basis = []
    for i, row in enumerate(a):
        scale = math.lcm(*(x.denominator for x in row))
        v = [x.numerator * (scale // x.denominator) for x in row]
        for c, b in basis:
            f = v[c]
            if f:
                p = b[c]
                v = [p * x - f * y for x, y in zip(v, b)]
        c = next((c for c, x in enumerate(v[:width]) if x), None)
        if c is None:
            continue
        v = _primitive(v)
        p = v[c]
        for k, (cb, b) in enumerate(basis):
            f = b[c]
            if f:
                b = [p * x - f * y for x, y in zip(b, v)]
                basis[k] = (cb, _primitive(b))
        basis.append((c, v))
        picked.append(i)
        if len(picked) == limit:
            break
    basis.sort(key=lambda cb: cb[0])
    return picked, basis


def rank(a) -> int:
    return len(echelon(a)[1])


def read_off(basis: Basis, n: int) -> tuple[list[list[int]], int]:
    """(u, s) with X = u / s solving a X = b, from the echelon basis of the
    augmented rows (a | b) with pivots in the n columns of a: u integer
    rows, s the least positive integer that makes s X integral.

    Row k of the basis is (pivot * e_k | rhs), so row k of X is rhs / pivot,
    and after dividing both by their gcd, signed like the pivot,
    den_k = pivot / g is the least denominator of that row.  Raises
    InconsistentSystem at the first column of a without a pivot.
    """
    for k, (c, _) in enumerate(basis):
        if c != k:
            raise InconsistentSystem(k)
    if len(basis) < n:
        raise InconsistentSystem(len(basis))
    dens, nums = [], []
    for k, (_, row) in enumerate(basis):
        rhs = row[n:]
        g = math.gcd(row[k], *rhs)
        if row[k] < 0:
            g = -g
        dens.append(row[k] // g)
        nums.append([x // g for x in rhs])
    s = math.lcm(*dens)
    return [[x * (s // den) for x in num] for num, den in zip(nums, dens)], s
