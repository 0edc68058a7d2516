"""Euler characteristics of flag fibres, over Python ints.

Peeling a line off a rank-classified representation at vertex v keeps its
class or lowers one rank by 1.  The lines of each kind form a projective
space, whose Euler characteristic, its number of F_q-points at q = 1, is
affine in d_v.  step_matrix holds those counts for the letter v^1, and
euler_counts applies the step matrices of a word's letters in one loop.  A
word is a composition, a tuple of the vertices 1 and 2 with the innermost
letter first, as core.compositions yields it.  Only the class index of
each rank bound is memoised.  Grouped words, their rule, the grouping
relation and the q-polynomials are the test suite's reference, in
tests/oracles.py.
"""

from __future__ import annotations

from functools import lru_cache

from .core import DimVector, _pair_ranks


@lru_cache(maxsize=None)
def _pi_index(k: int) -> dict:
    """(r, s) -> position of the pair class in pi_classes order, on every
    dimension vector of rank bound k."""
    return {rs: i for i, rs in enumerate(_pair_ranks(k))}


def step_matrix(dim: DimVector, vertex: int, side: str):
    """The q = 1 step matrix S_{v,1}(dim) of the letter v^1, one sparse row
    per class of `dim` in class order: (child index, count) for peeling a
    line at `vertex`, children indexed in the class order of their
    dimension, the kept class first, each exactly when its count is
    nonzero (which keeps it within the child's rank bound).

    On side "E" the class is a rank r: at vertex 1, r -> r with count
    d1 - r (lines in ker x); at vertex 2, r -> r with d2 - r and r -> r - 1
    with r (lines in im x).  On side "Pi" it is a pair (x, y) of ranks
    (r, s) with x y = 0 = y x: at vertex 1, (r, s) -> (r, s) with
    d1 - r - s and (r, s) -> (r, s - 1) with s (lines in im y); at vertex
    2, (r, s) -> (r, s) with d2 - r - s and (r, s) -> (r - 1, s) with r.
    The count row of a word (vertex,) + rest is S times the count row of
    rest on the child dimension."""
    d1, d2 = dim
    n = min(d1, d2)
    if side == "E":
        if vertex == 1:
            return tuple([((r, d1 - r),) if r < d1 else ()
                          for r in range(n + 1)])
        return tuple([((r, d2 - r), (r - 1, r)) if 0 < r < d2
                      else ((r - 1, r),) if r else ((r, d2),)
                      for r in range(n + 1)])
    classes = _pi_index(n)
    if vertex == 1:
        child = _pi_index(min(d1 - 1, d2))
        return tuple([
            ((child[r, s], d1 - r - s), (child[r, s - 1], s))
            if s and r + s < d1
            else ((child[r, s - 1], s),) if s
            else ((child[r, s], d1 - r - s),) if r + s < d1 else ()
            for r, s in classes])
    child = _pi_index(min(d1, d2 - 1))
    return tuple([
        ((child[r, s], d2 - r - s), (child[r - 1, s], r))
        if r and r + s < d2
        else ((child[r - 1, s], r),) if r
        else ((child[r, s], d2 - r - s),) if r + s < d2 else ()
        for r, s in classes])


def euler_counts(word, dim: DimVector, side: str) -> list[int]:
    """Euler characteristics of the fibres of flags of type `word`, one per
    class of `dim` in class order: orbit ranks for side "E", pair classes
    in pi_classes order for side "Pi".

    `word` is a composition: its letters are the vertices 1 and 2, the
    leftmost the innermost subrepresentation, and its content must be
    `dim`.  The loop starts from the one class of (0, 0), with count 1,
    and applies the step matrices from the last letter to the first.
    """
    if any(v not in (1, 2) for v in word):
        raise ValueError(f"malformed word {tuple(word)}")
    content = (word.count(1), word.count(2))
    if content != (dim.d1, dim.d2):
        raise ValueError(f"word content {content} does not match {dim}")
    if side not in ("E", "Pi"):
        raise ValueError(f"side must be 'E' or 'Pi', got {side!r}")
    row, d1, d2 = [1], 0, 0
    for vertex in reversed(word):
        d1, d2 = (d1 + 1, d2) if vertex == 1 else (d1, d2 + 1)
        row = [sum([n * row[j] for j, n in steps])
               for steps in step_matrix((d1, d2), vertex, side)]
    return row
