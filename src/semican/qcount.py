"""Euler characteristics of flag fibres, over Python ints.

Every fibre met while peeling grouped subrepresentations off a
rank-classified representation is an iterated Grassmannian bundle, so its
number of F_q-points is a polynomial in q whose value at q = 1 is its Euler
characteristic.  Only those q = 1 values are used, and at q = 1 a Gaussian
binomial is the binomial math.comb and every power of q is 1, so each step
of the peeling is a product of two binomials.  euler_counts runs the
peeling as a word recursion, memoised per suffix as one row over all
classes.  The q-polynomials themselves are the test suite's reference.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import DimVector, pi_classes

Word = tuple[tuple[int, int], ...]  # ((vertex, multiplicity), ...)


def word_content(word: Word) -> tuple[int, int]:
    c1 = sum(m for v, m in word if v == 1)
    c2 = sum(m for v, m in word if v == 2)
    return c1, c2


def _split(ambient: int, special: int, b: int):
    """(t, count): b-subspaces of an `ambient`-dim space meeting a fixed
    `special`-dim subspace in dimension exactly t, counted at q = 1."""
    for t in range(max(0, b - (ambient - special)), min(b, special) + 1):
        yield t, comb(special, t) * comb(ambient - special, b - t)


def _steps_E(d1: int, d2: int, r: int, vertex: int, b: int):
    """(child rank, count) for a b-dimensional sub at `vertex` of a rank-r
    map.  At vertex 1 the sub lies in ker x; at vertex 2 it meets im x in
    dimension t, which lowers the rank by t."""
    if vertex == 1:
        if r > d1 - b:
            return []
        return [(r, comb(d1 - r, b))]
    return [(r - t, n) for t, n in _split(d2, r, b)
            if r - t <= min(d1, d2 - b)]


def _steps_Pi(d1: int, d2: int, r: int, s: int, vertex: int, b: int):
    """((child r, child s), count) for a b-dimensional sub at `vertex` of a
    pair (x, y) with ranks (r, s) and x y = 0 = y x.  At vertex 1 the sub
    lies in ker x and meets im y in dimension t, which lowers s by t; at
    vertex 2 it lies in ker y and meets im x, which lowers r."""
    if vertex == 1:
        return [((r, s - t), n) for t, n in _split(d1 - r, s, b)
                if r + s - t <= min(d1 - b, d2)]
    return [((r - t, s), n) for t, n in _split(d2 - s, r, b)
            if r - t + s <= min(d1, d2 - b)]


@lru_cache(maxsize=None)
def _pi_index(dim: DimVector) -> dict:
    return {(c.r, c.s): i for i, c in enumerate(pi_classes(dim))}


@lru_cache(maxsize=None)
def _steps_at_one(dim: DimVector, vertex: int, b: int, side: str):
    """Per class of `dim`, in class order, its steps for peeling a
    b-dimensional sub at `vertex`: (child index, count at q = 1), with
    children indexed in the class order of their dimension."""
    d1, d2 = dim.d1, dim.d2
    if side == "E":
        return tuple(tuple(_steps_E(d1, d2, r, vertex, b))
                     for r in range(dim.rank_bound + 1))
    index = _pi_index(DimVector(d1 - b, d2) if vertex == 1
                      else DimVector(d1, d2 - b))
    return tuple(
        tuple((index[c], n) for c, n in _steps_Pi(d1, d2, c.r, c.s, vertex, b))
        for c in pi_classes(dim)
    )


@lru_cache(maxsize=None)
def _count_row(word: Word, side: str) -> tuple[int, ...]:
    """Euler characteristics of flags of type `word` on every class of the
    word's content, in class order."""
    if not word:
        return (1,)  # the single class of dimension (0, 0)
    (vertex, mult), rest = word[0], word[1:]
    below = _count_row(rest, side)
    steps = _steps_at_one(DimVector(*word_content(word)), vertex, mult, side)
    return tuple(sum(n * below[j] for j, n in cls_steps) for cls_steps in steps)


def euler_counts(word: Word, dim: DimVector, side: str) -> list[int]:
    """Euler characteristics of the fibres of flags of type `word`, one per
    class of `dim` in class order: orbit ranks for side "E", pair classes
    in pi_classes order for side "Pi".

    The leftmost letter is the innermost subrepresentation; the word's
    vertex content must be `dim`.
    """
    word = tuple((int(v), int(m)) for v, m in word)
    if any(v not in (1, 2) or m < 1 for v, m in word):
        raise ValueError(f"malformed word {word}")
    if word_content(word) != (dim.d1, dim.d2):
        raise ValueError(
            f"word content {word_content(word)} does not match {dim}")
    if side not in ("E", "Pi"):
        raise ValueError(f"side must be 'E' or 'Pi', got {side!r}")
    return list(_count_row(word, side))
