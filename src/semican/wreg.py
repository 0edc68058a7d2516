"""Floating-point probe of the regularity of the rank stratification.

Sampled points on a larger rank orbit approach a point of a smaller one
along a shrinking distance ladder, and the distance between the two tangent
spaces is compared with the distance between the points.  This is the only
module that uses floats and the only one that needs numpy; it is imported
only when the probe runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Orbit


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
