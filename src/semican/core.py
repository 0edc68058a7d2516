"""Rank combinatorics for the two-vertex quiver 1 -> 2.

A representation on graded spaces of dimensions (d1, d2) is a single matrix
x: V1 -> V2, and its GL(d1) x GL(d2) orbit is determined by rank(x).  A pair
(x, y) with x y = 0 = y x (a nilpotent module over the doubled quiver) is
likewise determined up to isomorphism by the two ranks.  This module holds
those discrete invariants: orbit dimensions, the dual-rank involution on the
opposite orientation, the even parity defect, and explicit block-matrix
representatives.
"""

from __future__ import annotations

from collections import namedtuple


class DimVector(namedtuple("DimVector", "d1 d2")):
    """Graded dimensions (d1, d2) at the two vertices."""

    __slots__ = ()

    def __new__(cls, d1: int, d2: int):
        self = super().__new__(cls, d1, d2)
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError(f"negative dimension in {(self.d1, self.d2)}")
        return self

    @property
    def total(self) -> int:
        return self.d1 + self.d2

    @property
    def rank_bound(self) -> int:
        return min(self.d1, self.d2)


class Orbit(namedtuple("Orbit", "dim r")):
    """The orbit of rank-r maps V1 -> V2."""

    __slots__ = ()

    def __new__(cls, dim: DimVector, r: int):
        self = super().__new__(cls, dim, r)
        if not 0 <= self.r <= self.dim.rank_bound:
            raise ValueError(f"rank {self.r} out of range for {self.dim}")
        return self


class PiModClass(namedtuple("PiModClass", "dim r s")):
    """Isomorphism class of a pair (x, y) with x y = 0 = y x.

    r = rank(x), s = rank(y); the vanishing of both products forces
    r + s <= min(d1, d2), and conversely every such (r, s) occurs.
    """

    __slots__ = ()

    def __new__(cls, dim: DimVector, r: int, s: int):
        self = super().__new__(cls, dim, r, s)
        if self.r < 0 or self.s < 0 or self.r + self.s > self.dim.rank_bound:
            raise ValueError(
                f"no pair with ranks ({self.r}, {self.s}) exists on {self.dim}"
            )
        return self


class ConormalComponent(namedtuple("ConormalComponent", "orbit")):
    """Closure of the conormal space to an orbit; a component of the pair variety."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return self.orbit.dim.d1 * self.orbit.dim.d2

    @property
    def generic_class(self) -> PiModClass:
        """The open dense pair class inside this component: s maximal given r."""
        o = self.orbit
        return PiModClass(o.dim, o.r, o.dim.rank_bound - o.r)


def compositions(d1: int, d2: int):
    """Every sequence of d1 letters 1 and d2 letters 2, in lexicographic
    order; seeded samples over these sequences depend on that order."""
    if d1 == 0 and d2 == 0:
        yield ()
        return
    if d1 > 0:
        for rest in compositions(d1 - 1, d2):
            yield (1,) + rest
    if d2 > 0:
        for rest in compositions(d1, d2 - 1):
            yield (2,) + rest


def enumerate_orbits(dim: DimVector) -> list[Orbit]:
    """All orbits for `dim`, in increasing closure order (rank 0 first)."""
    return [Orbit(dim, r) for r in range(dim.rank_bound + 1)]


def _pair_ranks(k: int) -> list[tuple[int, int]]:
    """The ranks (r, s) with r + s <= k, in pi_classes order."""
    return [(r, s) for r in range(k + 1) for s in range(k - r + 1)]


def pi_classes(dim: DimVector) -> list[PiModClass]:
    """All pair classes (r, s) with r + s <= min(d1, d2), in a fixed order."""
    return [PiModClass(dim, r, s) for r, s in _pair_ranks(dim.rank_bound)]


def orbit_dim(o: Orbit) -> int:
    """Dimension r(d1 + d2 - r) of the rank-r orbit."""
    return o.r * (o.dim.total - o.r)


def dual_orbit(o: Orbit) -> Orbit:
    """The orbit of maps V2 -> V1 sharing the conormal component: rank min - r."""
    return Orbit(o.dim, o.dim.rank_bound - o.r)


def sign_parity(o: Orbit) -> int:
    """d1*d2 - dim(dual orbit) - dim(orbit); always even.

    For d1 <= d2 this simplifies to 2 r (r - d1).
    """
    return o.dim.d1 * o.dim.d2 - orbit_dim(dual_orbit(o)) - orbit_dim(o)


Matrix = tuple[tuple[int, ...], ...]


def _zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def _freeze(m: list[list[int]]) -> Matrix:
    return tuple(tuple(row) for row in m)


def representative_pair(c: PiModClass) -> tuple[Matrix, Matrix]:
    """Canonical block representative of a pair class.

    x (d2 x d1) carries an identity block in the top-left corner, y (d1 x d2)
    in the bottom-right; r + s <= min(d1, d2) keeps the blocks disjoint, so
    x y = 0 = y x holds exactly.  The entries are the ints 0 and 1.
    """
    d1, d2 = c.dim.d1, c.dim.d2
    x = _zeros(d2, d1)
    for i in range(c.r):
        x[i][i] = 1
    y = _zeros(d1, d2)
    for k in range(c.s):
        y[d1 - 1 - k][d2 - 1 - k] = 1
    return _freeze(x), _freeze(y)
