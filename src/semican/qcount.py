"""Euler characteristics of flag fibres, over Python ints.

Every fibre met while peeling grouped subrepresentations off a
rank-classified representation is an iterated Grassmannian bundle, so its
number of F_q-points is a polynomial in q whose value at q = 1 is its Euler
characteristic.  Only those q = 1 values are used, and at q = 1 a Gaussian
binomial is the binomial math.comb and every power of q is 1, so each step
of the peeling is a product of two binomials; step_matrix holds those
products for one peeled letter, built in one pass per side and vertex.
euler_counts applies the step matrices of a word's letters in one loop.
Nothing of a count outlives its call: only the class index of each rank
bound is memoised.  A word is a tuple of (vertex, multiplicity) letters,
innermost first.  The q-polynomials themselves are the test suite's
reference.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import DimVector

Word = tuple[tuple[int, int], ...]  # ((vertex, multiplicity), ...)


def word_content(word: Word) -> tuple[int, int]:
    c1 = sum(m for v, m in word if v == 1)
    c2 = sum(m for v, m in word if v == 2)
    return c1, c2


@lru_cache(maxsize=None)
def _pi_index(k: int) -> dict:
    """(r, s) -> position of the pair class in pi_classes order, on every
    dimension vector of rank bound k."""
    return {(r, s): i for i, (r, s) in enumerate(
        (r, s) for r in range(k + 1) for s in range(k - r + 1))}


def step_matrix(dim: DimVector, vertex: int, b: int, side: str):
    """The q = 1 step matrix S_{vertex,b}(dim), one sparse row per class of
    `dim` in class order: (child index, count) for peeling a b-dimensional
    sub at `vertex`, children indexed in the class order of their dimension.

    On side "E" the class is a rank r.  At vertex 1 the sub lies in ker x;
    at vertex 2 it meets im x in dimension t, which lowers r by t.  On side
    "Pi" the class is a pair (x, y) with ranks (r, s) and x y = 0 = y x.  At
    vertex 1 the sub lies in ker x and meets im y in dimension t, which
    lowers s by t; at vertex 2 it lies in ker y and meets im x, which lowers
    r.  Each range of t keeps both binomials nonzero and the child class
    within the child's rank bound.

    The count row of a word (vertex, b) + rest is S times the count row of
    rest on the child dimension."""
    d1, d2 = dim
    # the rank bound of the child dimension
    k = min(d1 - b, d2) if vertex == 1 else min(d1, d2 - b)
    if side == "E":
        if vertex == 1:
            return tuple([((r, comb(d1 - r, b)),) if r <= d1 - b else ()
                          for r in range(min(d1, d2) + 1)])
        return tuple([
            tuple([(r - t, comb(r, t) * comb(d2 - r, b - t))
                   for t in range(max(0, b - (d2 - r), r - k),
                                  min(b, r) + 1)])
            for r in range(min(d1, d2) + 1)])
    child, classes = _pi_index(k), _pi_index(min(d1, d2))
    if vertex == 1:
        return tuple([
            tuple([(child[r, s - t], comb(s, t) * comb(d1 - r - s, b - t))
                   for t in range(max(0, b - (d1 - r - s), r + s - k),
                                  min(b, s) + 1)])
            for r, s in classes])
    return tuple([
        tuple([(child[r - t, s], comb(r, t) * comb(d2 - r - s, b - t))
               for t in range(max(0, b - (d2 - r - s), r + s - k),
                              min(b, r) + 1)])
        for r, s in classes])


def euler_counts(word: Word, dim: DimVector, side: str) -> list[int]:
    """Euler characteristics of the fibres of flags of type `word`, one per
    class of `dim` in class order: orbit ranks for side "E", pair classes
    in pi_classes order for side "Pi".

    The leftmost letter is the innermost subrepresentation; the word's
    vertex content must be `dim`.  The row of (vertex, b) + rest is
    S_{vertex,b}(dim) times the row of rest on the child dimension, so the
    loop starts from the one class of (0, 0), with count 1, and applies the
    step matrices from the last letter to the first.
    """
    word = tuple((int(v), int(m)) for v, m in word)
    if any(v not in (1, 2) or m < 1 for v, m in word):
        raise ValueError(f"malformed word {word}")
    if word_content(word) != (dim.d1, dim.d2):
        raise ValueError(
            f"word content {word_content(word)} does not match {dim}")
    if side not in ("E", "Pi"):
        raise ValueError(f"side must be 'E' or 'Pi', got {side!r}")
    row, d1, d2 = [1], 0, 0
    for vertex, mult in reversed(word):
        if vertex == 1:
            d1 += mult
        else:
            d2 += mult
        row = [sum([n * row[j] for j, n in steps])
               for steps in step_matrix((d1, d2), vertex, mult, side)]
    return row
