"""Second-order geometry at pair points, checked in exact arithmetic.

The trace pairing of a point (x, y) with x y = 0 = y x has a Hessian on the
product of two copies of the symmetry Lie algebra whose rank is forced by the
orbit dimensions: rank = dim S + dim S-hat - d1*d2 at points where the pair
is generic in its conormal component.  Because both products vanish, the
Hessian is determined by its mixed block, the pairing form B, whose entries
are single products x[.][.] y[.][.] in closed form; the check ranks B alone.
Everything here is rational and exact; the floating-point stratification
probe lives in semican.wreg.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .core import DimVector, Orbit, PiModClass, orbit_dim, representative_pair


class GenericityError(ValueError):
    """The pair is not a generic point of its conormal component."""


@dataclass(frozen=True)
class PairPoint:
    """A rational pair (x, y) with both products zero."""

    x: tuple[tuple[Fraction, ...], ...]  # d2 x d1
    y: tuple[tuple[Fraction, ...], ...]  # d1 x d2

    def __post_init__(self):
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


def bilinear_form_B(p: PairPoint):
    """Matrix of (h, k) -> <h . x, k . y> on the symmetry Lie algebra.

    Rows and columns run over E_ab in gl(d1) row-major, then E_cd in gl(d2).
    The actions are h . x = h2 x - x h1 and h . y = h1 y - y h2, so the two
    mixed entries of (E_ab, E_cd) are both x[d][a] y[b][c].  A same-side
    entry is an entry of x y or y x, so both diagonal blocks vanish.
    """
    d1, d2 = p.dim.d1, p.dim.d2
    x, y = p.x, p.y
    mixed = [[x[d][a] * y[b][c] for c in range(d2) for d in range(d2)]
             for a in range(d1) for b in range(d1)]
    zeros1, zeros2 = [0] * (d1 * d1), [0] * (d2 * d2)
    return [zeros1 + row for row in mixed] + [
        [row[j] for row in mixed] + zeros2 for j in range(d2 * d2)
    ]


def expected_hessian_rank(p: PairPoint) -> int:
    """dim S + dim S-hat - d1*d2 from the two orbit ranks."""
    dim = p.dim
    s_orbit = Orbit(dim, p.rank_x)
    shat = Orbit(dim, p.rank_y)
    return orbit_dim(s_orbit) + orbit_dim(shat) - dim.d1 * dim.d2


def hessian_rank_check(p: PairPoint) -> bool:
    """Exact rank of the second-order form at a generic pair point.

    With B = bilinear_form_B(p), the Hessian of (h, k) -> <exp(h) x, exp(k) y>
    at 0 is [[-B, B], [B, -B]]: in h . (k . x) = h2 k2 x - h2 x k1 - k2 x h1
    + x k1 h1 the first and last terms pair to zero against y because
    y x = 0 = x y, which leaves <h . (k . x), y> = -B[h][k], and likewise on
    the y side.  The second block row is minus the first, so the rank is
    rank(B), which must equal dim S + dim S-hat - d1*d2.
    """
    dim = p.dim
    if p.rank_y != dim.rank_bound - p.rank_x:
        raise GenericityError(
            f"rank(y) = {p.rank_y} but the component needs "
            f"{dim.rank_bound - p.rank_x}"
        )
    if conormal_dimension(p) != dim.d1 * dim.d2:
        raise GenericityError("pair is not a smooth point of one component")
    return ratlin.rank(bilinear_form_B(p)) == expected_hessian_rank(p)


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


def conormal_tangent(p: PairPoint):
    """Basis of the solution space of [u, y] + [x, v] = 0, as (u, v) pairs.

    At a smooth point of one component it has dimension exactly d1*d2.
    """
    d1, d2 = p.dim.d1, p.dim.d2
    nu = d1 * d2
    out = []
    for vec in ratlin.kernel_basis(_conormal_rows(p)):
        u = tuple(tuple(vec[i * d1 + j] for j in range(d1)) for i in range(d2))
        v = tuple(tuple(vec[nu + i * d2 + j] for j in range(d2)) for i in range(d1))
        out.append((u, v))
    return out


def conormal_dimension(p: PairPoint) -> int:
    """Dimension of the solution space of conormal_tangent, by one rank."""
    return 2 * p.dim.d1 * p.dim.d2 - ratlin.rank(_conormal_rows(p))
