"""Euler characteristics of flag fibres, over Python ints.

Every fibre met while peeling grouped subrepresentations off a
rank-classified representation is an iterated Grassmannian bundle, so its
number of F_q-points is a polynomial in q whose value at q = 1 is its Euler
characteristic.  Only those q = 1 values are used, and at q = 1 a Gaussian
binomial is the binomial math.comb and every power of q is 1, so each step
of the peeling is a product of two binomials; step_matrix holds those
products for one peeled letter, built in one pass per side and vertex.  The
peeling runs as a word recursion, memoised per suffix as one row over all
classes of the suffix's content, the only memo of rows; step matrices are
cached too, since the lift reads only single letters v^1, four matrices per
dimension vector, each met by several suffix rows and by one identity.
bases.sandwich_rows reads the rows of the single-letter refinements of its
words straight from that memo; euler_counts is the entry that checks a
word against its dimension vector first.  A word is a tuple of (vertex,
multiplicity) letters, innermost first.  The q-polynomials themselves are
the test suite's reference.
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
def _pi_index(d1: int, d2: int) -> dict:
    """(r, s) -> position of the pair class in pi_classes order."""
    k = min(d1, d2)
    return {(r, s): i for i, (r, s) in enumerate(
        (r, s) for r in range(k + 1) for s in range(k - r + 1))}


@lru_cache(maxsize=None)
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
    rest on the child dimension.  Cached: the lift asks only for b = 1, so
    at most 4 (d1 + 1)(d2 + 1) matrices up to (d1, d2)."""
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
    if vertex == 1:
        child = _pi_index(d1 - b, d2)
        return tuple([
            tuple([(child[r, s - t], comb(s, t) * comb(d1 - r - s, b - t))
                   for t in range(max(0, b - (d1 - r - s), r + s - k),
                                  min(b, s) + 1)])
            for r, s in _pi_index(d1, d2)])
    child = _pi_index(d1, d2 - b)
    return tuple([
        tuple([(child[r - t, s], comb(r, t) * comb(d2 - r - s, b - t))
               for t in range(max(0, b - (d2 - r - s), r + s - k),
                              min(b, r) + 1)])
        for r, s in _pi_index(d1, d2)])


@lru_cache(maxsize=None)
def _count_row(word: Word, d1: int, d2: int, side: str) -> tuple[int, ...]:
    """Euler characteristics of flags of type `word` on every class of its
    content (d1, d2), in class order, for a well-formed word of that
    content; euler_counts is the validated entry."""
    if not word:
        return (1,)  # the single class of dimension (0, 0)
    (vertex, mult), rest = word[0], word[1:]
    below = (_count_row(rest, d1 - mult, d2, side) if vertex == 1
             else _count_row(rest, d1, d2 - mult, side))
    return tuple([sum([n * below[j] for j, n in row])
                  for row in step_matrix((d1, d2), vertex, mult, side)])


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
    return list(_count_row(word, dim.d1, dim.d2, side))
