"""Second-order geometry at pair points, checked in exact arithmetic.

The trace pairing of a point (x, y) with x y = 0 = y x has a Hessian on the
product of two copies of the symmetry Lie algebra whose rank is forced by the
orbit dimensions: rank = dim S + dim S-hat - d1*d2 at points where the pair
is generic in its conormal component.  Everything here is rational and exact
except the stratification sampling probe, which is a floating-point estimate
by nature.
"""

from __future__ import annotations

import math
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


def _gl_basis(d1: int, d2: int):
    """Standard basis of gl(d1) + gl(d2) as (side, row, col) triples."""
    return [(1, a, b) for a in range(d1) for b in range(d1)] + [
        (2, a, b) for a in range(d2) for b in range(d2)
    ]


def _act_x(h, z):
    """Action of a Lie algebra basis element on a map V1 -> V2: h2 z - z h1."""
    side, a, b = h
    d2, d1 = len(z), len(z[0]) if z else 0
    out = [[0] * d1 for _ in range(d2)]
    if side == 2:
        for j in range(d1):
            out[a][j] = z[b][j]
    else:
        for i in range(d2):
            out[i][b] = -z[i][a]
    return out


def _act_y(h, z):
    """Action on a map V2 -> V1: h1 z - z h2."""
    side, a, b = h
    d1, d2 = len(z), len(z[0]) if z else 0
    out = [[0] * d2 for _ in range(d1)]
    if side == 1:
        for j in range(d2):
            out[a][j] = z[b][j]
    else:
        for i in range(d1):
            out[i][b] = -z[i][a]
    return out


def _pair(a, b):
    """Trace pairing of a map V1 -> V2 against a map V2 -> V1."""
    return sum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(b)))


def _form_b(ux, vy):
    """Matrix of pairings <u, v> of the x-side against the y-side tangents."""
    return [[_pair(u, v) for v in vy] for u in ux]


def bilinear_form_B(p: PairPoint):
    """Matrix of (h1, h2) -> <h1 . x, h2 . y> on the symmetry Lie algebra."""
    basis = _gl_basis(p.dim.d1, p.dim.d2)
    return _form_b([_act_x(h, p.x) for h in basis],
                   [_act_y(h, p.y) for h in basis])


def _integer_multiple(z):
    """z times the lcm of its denominators, as a matrix of ints."""
    scale = math.lcm(*(v.denominator for row in z for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in z]


def expected_hessian_rank(p: PairPoint) -> int:
    """dim S + dim S-hat - d1*d2 from the two orbit ranks."""
    dim = p.dim
    s_orbit = Orbit(dim, p.rank_x)
    shat = Orbit(dim, p.rank_y)
    return orbit_dim(s_orbit) + orbit_dim(shat) - dim.d1 * dim.d2


def hessian_rank_check(p: PairPoint) -> bool:
    """Exact rank of the full second-order form at a generic pair point.

    The quadratic part of <exp(h1) x, exp(h2) y> has diagonal blocks from the
    second-order exponential terms and the mixed block of bilinear_form_B;
    its rank, and already that of the mixed block alone, must equal
    dim S + dim S-hat - d1*d2.
    """
    dim = p.dim
    if p.rank_y != dim.rank_bound - p.rank_x:
        raise GenericityError(
            f"rank(y) = {p.rank_y} but the component needs "
            f"{dim.rank_bound - p.rank_x}"
        )
    if conormal_dimension(p) != dim.d1 * dim.d2:
        raise GenericityError("pair is not a smooth point of one component")
    # Twice the form at integer multiples of x and y: every block is bilinear
    # in (x, y), so the ranks are those at p and every entry is an int.
    x, y = _integer_multiple(p.x), _integer_multiple(p.y)
    basis = _gl_basis(dim.d1, dim.d2)
    n = len(basis)
    ux = [_act_x(h, x) for h in basis]
    vy = [_act_y(h, y) for h in basis]
    # diagonal blocks: <[u,[v,x]] + [v,[u,x]], y> and the mirror on the y side
    gx = [[_pair(_act_x(h, u), y) for u in ux] for h in basis]
    gy = [[_pair(x, _act_y(h, v)) for v in vy] for h in basis]
    bmat = _form_b(ux, vy)
    hxx = [[gx[a][b] + gx[b][a] for b in range(n)] for a in range(n)]
    hyy = [[gy[a][b] + gy[b][a] for b in range(n)] for a in range(n)]
    full = [hxx[a] + [2 * v for v in bmat[a]] for a in range(n)] + [
        [2 * bmat[b][a] for b in range(n)] + hyy[a] for a in range(n)
    ]
    expected = expected_hessian_rank(p)
    # the mixed block alone must already carry the whole rank
    return ratlin.rank(full) == expected and ratlin.rank(bmat) == expected


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
