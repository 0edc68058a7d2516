"""Second-order geometry at pair points, checked in exact arithmetic.

The trace pairing of a point (x, y) with x y = 0 = y x has a Hessian on the
product of two copies of the symmetry Lie algebra whose rank is forced by the
orbit dimensions: rank = dim S + dim S-hat - d1*d2 at points where the pair
is generic in its conormal component.  Because both products vanish, the
Hessian is determined by its mixed block, the pairing form B, whose entries
are single products x[.][.] y[.][.] in closed form; the check ranks B alone.
Everything here is rational and exact except the stratification sampling
probe, which is a floating-point estimate by nature.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def conormal_tangent(p: PairPoint):
    """Basis of the solution space of [u, y] + [x, v] = 0.

    Unknowns are u: V1 -> V2 and v: V2 -> V1; the two matrix equations are
    y u + v x = 0 and u y + x v = 0.  At a smooth point of one component the
    solution space has dimension exactly d1*d2.
    """
    d1, d2 = p.dim.d1, p.dim.d2
    nu, nv = d1 * d2, d1 * d2
    rows = []
    # y u + v x = 0: one equation per (i, j) in d1 x d1
    for i in range(d1):
        for j in range(d1):
            row = [Fraction(0)] * (nu + nv)
            for k in range(d2):
                row[k * d1 + j] += p.y[i][k]  # u[k][j]
            for k in range(d2):
                row[nu + i * d2 + k] += p.x[k][j]  # v[i][k]
            rows.append(row)
    # u y + x v = 0: one equation per (i, j) in d2 x d2
    for i in range(d2):
        for j in range(d2):
            row = [Fraction(0)] * (nu + nv)
            for k in range(d1):
                row[i * d1 + k] += p.y[k][j]  # u[i][k]
            for k in range(d1):
                row[nu + k * d2 + j] += p.x[i][k]  # v[k][j]
            rows.append(row)
    basis = ratlin.kernel_basis(rows)
    out = []
    for vec in basis:
        u = tuple(tuple(vec[i * d1 + j] for j in range(d1)) for i in range(d2))
        v = tuple(tuple(vec[nu + i * d2 + j] for j in range(d2)) for i in range(d1))
        out.append((u, v))
    return out


def conormal_dimension(p: PairPoint) -> int:
    return len(conormal_tangent(p))


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
