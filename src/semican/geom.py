"""Second-order geometry at pair points, checked in exact arithmetic.

The trace pairing of a point (x, y) with x y = 0 = y x has a Hessian on the
product of two copies of the symmetry Lie algebra whose rank is forced by the
orbit dimensions: rank = dim S + dim S-hat - d1*d2 at points where the pair
is generic in its conormal component.  Because both products vanish, the
Hessian is determined by the pairing form B.  Its only nonzero blocks are
one mixed block M and its transpose, whose entries are single products
x[.][.] y[.][.] in closed form; the check ranks M alone, since
rank B = 2 rank M.
The rank stratification of Hom(V1, V2) is checked to be regular by ranks
too: `w_regularity` checks the premises of the orbit argument for Verdier's
condition (w).  Everything here is exact: the class and orbit
representatives are integer matrices, and every check is an integer rank.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import ratlin
from .core import DimVector, Orbit, PiModClass, orbit_dim, representative_pair


class GenericityError(ValueError):
    """The pair is not a generic point of its conormal component."""


class PairPoint(namedtuple("PairPoint", "x y")):
    """A pair (x, y) of int or Fraction matrices with both products zero.

    `from_class` gives int entries, so the forms and ranks built from it
    stay in integers.
    """

    __slots__ = ()

    def __new__(cls, x: tuple[tuple[int | Fraction, ...], ...],  # d2 x d1
                y: tuple[tuple[int | Fraction, ...], ...]):  # d1 x d2
        self = super().__new__(cls, x, y)
        d2 = len(self.x)
        d1 = len(self.y)
        if any(len(r) != d1 for r in self.x) or any(len(r) != d2 for r in self.y):
            raise ValueError("incompatible matrix shapes")
        xy = ratlin.mat_mul([list(r) for r in self.x], [list(r) for r in self.y])
        yx = ratlin.mat_mul([list(r) for r in self.y], [list(r) for r in self.x])
        if any(v != 0 for row in xy for v in row) or any(
            v != 0 for row in yx for v in row
        ):
            raise ValueError("x y and y x must both vanish")
        return self

    @classmethod
    def from_class(cls, c: PiModClass) -> "PairPoint":
        x, y = representative_pair(c)
        return cls(x, y)

    @property
    def dim(self) -> DimVector:
        return DimVector(len(self.y), len(self.x))

    @property
    def rank_x(self) -> int:
        return ratlin.rank(self.x)

    @property
    def rank_y(self) -> int:
        return ratlin.rank(self.y)


def _mixed_block(p: PairPoint):
    """The d1^2 x d2^2 block of B at (E_ab, E_cd): x[d][a] y[b][c]."""
    d1, d2 = p.dim.d1, p.dim.d2
    x, y = p.x, p.y
    return [[x[d][a] * y[b][c] for c in range(d2) for d in range(d2)]
            for a in range(d1) for b in range(d1)]


def bilinear_form_B(p: PairPoint):
    """Matrix of (h, k) -> <h . x, k . y> on the symmetry Lie algebra.

    Rows and columns run over E_ab in gl(d1) row-major, then E_cd in gl(d2).
    The actions are h . x = h2 x - x h1 and h . y = h1 y - y h2, so the two
    mixed entries of (E_ab, E_cd) are both x[d][a] y[b][c].  A same-side
    entry is an entry of x y or y x, so both diagonal blocks vanish:
    B = [[0, M], [M^T, 0]] with M = `_mixed_block(p)`.
    """
    d1, d2 = p.dim.d1, p.dim.d2
    mixed = _mixed_block(p)
    zeros1, zeros2 = [0] * (d1 * d1), [0] * (d2 * d2)
    return [zeros1 + row for row in mixed] + [
        [row[j] for row in mixed] + zeros2 for j in range(d2 * d2)
    ]


def expected_hessian_rank(p: PairPoint) -> int:
    """dim S + dim S-hat - d1*d2 from the two orbit ranks."""
    return _expected_rank(p.dim, p.rank_x, p.rank_y)


def _expected_rank(dim: DimVector, rank_x: int, rank_y: int) -> int:
    return (orbit_dim(Orbit(dim, rank_x)) + orbit_dim(Orbit(dim, rank_y))
            - dim.d1 * dim.d2)


def hessian_rank_check(p: PairPoint) -> bool:
    """Exact rank of the second-order form at a generic pair point.

    With B = bilinear_form_B(p), the Hessian of (h, k) -> <exp(h) x, exp(k) y>
    at 0 is [[-B, B], [B, -B]]: in h . (k . x) = h2 k2 x - h2 x k1 - k2 x h1
    + x k1 h1 the first and last terms pair to zero against y because
    y x = 0 = x y, which leaves <h . (k . x), y> = -B[h][k], and likewise on
    the y side.  The second block row is minus the first, so the rank is
    rank(B) = 2 rank(M), M the mixed block of B, which must equal
    dim S + dim S-hat - d1*d2.
    """
    dim = p.dim
    rank_x, rank_y = p.rank_x, p.rank_y  # each ranked once
    if rank_y != dim.rank_bound - rank_x:
        raise GenericityError(
            f"rank(y) = {rank_y} but the component needs "
            f"{dim.rank_bound - rank_x}"
        )
    if conormal_dimension(p) != dim.d1 * dim.d2:
        raise GenericityError("pair is not a smooth point of one component")
    return (2 * ratlin.rank(_mixed_block(p))
            == _expected_rank(dim, rank_x, rank_y))


# the points x(t) = rep_ri + t (rep_rj - rep_ri) at which each pair of
# orbits ri < rj is checked
LINE_STEPS = (1, 2, 3)


def action_rank(z) -> int:
    """Rank of L_z: (a, b) -> a z + z b on gl(d2) x gl(d1), for z d2 x d1.

    L_z is the derivative of (g, h) -> g z h^-1 at the identity, up to the
    sign of b, so its image is the tangent space of the orbit of z.  One
    row per entry (i, j) of z: a[i][k] has the coefficient z[k][j], and
    b[k][j] the coefficient z[i][k].
    """
    d2, d1 = len(z), len(z[0]) if z else 0
    rows = []
    for i in range(d2):
        for j in range(d1):
            row = [0] * (d2 * d2 + d1 * d1)
            for k in range(d2):
                row[i * d2 + k] = z[k][j]
            for k in range(d1):
                row[d2 * d2 + k * d1 + j] = z[i][k]
            rows.append(row)
    return ratlin.rank(rows)


def w_regularity(dim: DimVector) -> tuple[list[dict], list[str]]:
    """The exact premises of Verdier's condition (w) for the rank strata.

    Orbit r: rank L_y = orbit_dim(r), the dimension of the stratum S_r
    (one orbit), at its representative y, so T_y S_r = im L_y.  Pair
    ri < rj: x(t) has rank rj (the frontier relation) and rank L_x(t) =
    orbit_dim(rj) at each of LINE_STEPS.  Then (a, b) -> (L_y(a, b), L_x(a, b)) pairs T_y S_ri with
    T_x S_rj, and L_y(a, b) - L_x(a, b) = a (y - x) + (y - x) b bounds
    their distance by 2 |(a, b)| |x - y| (README, "Regularity").

    Returns one report per pair, in (ri, rj) order, holding the ranks that
    were checked, and the failed checks, each naming its orbit or pair.
    """
    n = dim.rank_bound
    # the x of the pair class (r, 0): an identity block of size r top-left
    reps = [representative_pair(PiModClass(dim, r, 0))[0]
            for r in range(n + 1)]
    expected = [orbit_dim(Orbit(dim, r)) for r in range(n + 1)]
    tangent = [action_rank(rep) for rep in reps]
    failed = [f"w_regularity (orbit {r}: tangent rank {tangent[r]}, "
              f"expected {expected[r]})"
              for r in range(n + 1) if tangent[r] != expected[r]]
    reports = []
    for ri in range(n + 1):
        for rj in range(ri + 1, n + 1):
            line = [[[a + t * (b - a) for a, b in zip(row_i, row_j)]
                     for row_i, row_j in zip(reps[ri], reps[rj])]
                    for t in LINE_STEPS]
            ranks = [ratlin.rank(x) for x in line]
            tangents = [action_rank(x) for x in line]
            bad = [(t, k, m) for t, k, m in zip(LINE_STEPS, ranks, tangents)
                   if k != rj or m != expected[rj]]
            if bad:
                t, k, m = bad[0]
                what = (f"rank {k} at t = {t}, expected {rj}" if k != rj
                        else f"tangent rank {m} at t = {t}, "
                             f"expected {expected[rj]}")
                failed.append(f"w_regularity (inner {ri}, outer {rj}: {what})")
            reports.append({
                "inner_rank": ri,
                "outer_rank": rj,
                "inner_tangent_rank": tangent[ri],
                "line_ranks": ranks,
                "outer_tangent_ranks": tangents,
                "passed": tangent[ri] == expected[ri] and not bad,
            })
    return reports, failed


def _conormal_rows(p: PairPoint) -> list[list]:
    """Equations of [u, y] + [x, v] = 0, one row per matrix entry.

    Unknowns are u: V1 -> V2 (d2 x d1, row-major) followed by v: V2 -> V1
    (d1 x d2, row-major); the two matrix equations are y u + v x = 0 (d1 x d1
    rows) and u y + x v = 0 (d2 x d2 rows).  Each unknown occurs at most once
    in an equation, so every nonzero entry is one entry of x or y.
    """
    d1, d2 = p.dim.d1, p.dim.d2
    x, y = p.x, p.y
    nu = d1 * d2
    rows = []
    for i in range(d1):
        for j in range(d1):
            row = [0] * (2 * nu)
            for k in range(d2):
                row[k * d1 + j] = y[i][k]  # u[k][j]
                row[nu + i * d2 + k] = x[k][j]  # v[i][k]
            rows.append(row)
    for i in range(d2):
        for j in range(d2):
            row = [0] * (2 * nu)
            for k in range(d1):
                row[i * d1 + k] = y[k][j]  # u[i][k]
                row[nu + k * d2 + j] = x[i][k]  # v[k][j]
            rows.append(row)
    return rows


def conormal_dimension(p: PairPoint) -> int:
    """Dimension of the solution space of [u, y] + [x, v] = 0, by one rank.

    At a smooth point of one component it is exactly d1*d2.
    """
    return 2 * p.dim.d1 * p.dim.d2 - ratlin.rank(_conormal_rows(p))
