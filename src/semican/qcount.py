"""Point counts over F_q for flags of subrepresentations.

Every fiber met while peeling one-dimensional (or grouped) subrepresentations
off a rank-classified representation is an iterated Grassmannian bundle, so
its number of F_q-points is a polynomial in q with nonnegative integer
coefficients, and evaluating at q = 1 gives its Euler characteristic.  The
word evaluator below runs that peeling as a memoized dynamic program;
euler_counts runs the same peeling at q = 1 over integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import DimVector, Orbit, PiModClass, enumerate_orbits, pi_classes


class QPoly:
    """Integer-coefficient polynomial in q; coefficient of q^k at index k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def q_power(cls, k: int) -> "QPoly":
        return cls((0,) * k + (1,))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return QPoly([x - y for x, y in zip(a, b)])

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return QPoly(out)

    def __call__(self, q):
        v = 0
        for c in reversed(self.coeffs):
            v = v * q + c
        return v

    def at_one(self) -> int:
        return sum(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "q" if k == 1 else f"q^{k}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts)


def q_int(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1), the number of lines in F_q^n."""
    return QPoly((1,) * n) if n > 0 else QPoly()


def q_factorial(n: int) -> QPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q, the number of complete flags in F_q^n."""
    out = QPoly.one()
    for k in range(1, n + 1):
        out = out * q_int(k)
    return out


@lru_cache(maxsize=None)
def gauss_binom(m: int, k: int) -> QPoly:
    """q-binomial coefficient: subspaces of dimension k in F_q^m."""
    if k < 0 or k > m:
        return QPoly.zero()
    if k == 0 or k == m:
        return QPoly.one()
    # Pascal recurrence stays in integer coefficients throughout.
    return gauss_binom(m - 1, k - 1) + QPoly.q_power(k) * gauss_binom(m - 1, k)


@dataclass(frozen=True)
class StepCount:
    """A quotient class together with the polynomial counting the choices."""

    child: object  # Orbit or PiModClass
    count: QPoly


def _steps(pairs) -> list[StepCount]:
    out = [StepCount(c, p) for c, p in pairs if p]
    out.sort(key=lambda s: (s.child.dim.d1, s.child.dim.d2, s.child.r,
                            getattr(s.child, "s", 0)))
    return out


def sub_simple_E(cls: Orbit, vertex: int) -> list[StepCount]:
    """One-dimensional subrepresentations of a rank-r map, by quotient class.

    Vertex 1 subs are lines killed by x; vertex 2 subs are arbitrary lines in
    V2, splitting by whether they meet the image of x.
    """
    d1, d2, r = cls.dim.d1, cls.dim.d2, cls.r
    if vertex == 1:
        if d1 - r == 0:
            return []
        return _steps([(Orbit(DimVector(d1 - 1, d2), r), q_int(d1 - r))])
    if vertex == 2:
        if d2 == 0:
            return []
        dim = DimVector(d1, d2 - 1)
        pairs = []
        if r > 0:
            pairs.append((Orbit(dim, r - 1), q_int(r)))
        if r <= min(d1, d2 - 1):
            pairs.append((Orbit(dim, r), q_int(d2) - q_int(r)))
        return _steps(pairs)
    raise ValueError(f"vertex must be 1 or 2, got {vertex}")


def sub_simple_Pi(cls: PiModClass, vertex: int) -> list[StepCount]:
    """One-dimensional subrepresentations of a pair (x, y) with xy = yx = 0.

    im y sits inside ker x and im x inside ker y, so lines split by whether
    they lie in the image of the opposite map.
    """
    d1, d2, r, s = cls.dim.d1, cls.dim.d2, cls.r, cls.s
    if vertex == 1:
        if d1 - r == 0:
            return []
        dim = DimVector(d1 - 1, d2)
        pairs = []
        if s > 0:
            pairs.append((PiModClass(dim, r, s - 1), q_int(s)))
        if r + s <= min(d1 - 1, d2):
            pairs.append((PiModClass(dim, r, s), q_int(d1 - r) - q_int(s)))
        return _steps(pairs)
    if vertex == 2:
        if d2 - s == 0:
            return []
        dim = DimVector(d1, d2 - 1)
        pairs = []
        if r > 0:
            pairs.append((PiModClass(dim, r - 1, s), q_int(r)))
        if r + s <= min(d1, d2 - 1):
            pairs.append((PiModClass(dim, r, s), q_int(d2 - s) - q_int(r)))
        return _steps(pairs)
    raise ValueError(f"vertex must be 1 or 2, got {vertex}")


def _grouped_split(ambient: int, special: int, b: int):
    """Count b-subspaces of an ambient space meeting a fixed `special`-dim
    subspace in dimension exactly t, for each feasible t."""
    for t in range(max(0, b - (ambient - special)), min(b, special) + 1):
        count = (gauss_binom(special, t)
                 * gauss_binom(ambient - special, b - t)
                 * QPoly.q_power((special - t) * (b - t)))
        yield t, count


def sub_grouped(cls, vertex: int, b: int, side: str) -> list[StepCount]:
    """Subrepresentations of dimension b concentrated at one vertex.

    Iterating sub_simple b times and dividing by the flag count [b]_q! gives
    the same polynomials; that consistency is covered by the test suite.
    """
    if side == "E":
        return _sub_grouped_E(cls, vertex, b)
    if side == "Pi":
        return _sub_grouped_Pi(cls, vertex, b)
    raise ValueError(f"side must be 'E' or 'Pi', got {side!r}")


def _sub_grouped_E(cls: Orbit, vertex: int, b: int) -> list[StepCount]:
    d1, d2, r = cls.dim.d1, cls.dim.d2, cls.r
    if b == 0:
        return [StepCount(cls, QPoly.one())]
    if vertex == 1:
        # b > d1 - r leaves no room inside ker x; the count is zero exactly then.
        if b > d1 or r > d1 - b:
            return []
        return _steps([(Orbit(DimVector(d1 - b, d2), r), gauss_binom(d1 - r, b))])
    if vertex == 2:
        if b > d2:
            return []
        dim = DimVector(d1, d2 - b)
        pairs = []
        for t, count in _grouped_split(d2, r, b):
            if r - t <= min(d1, d2 - b):
                pairs.append((Orbit(dim, r - t), count))
        return _steps(pairs)
    raise ValueError(f"vertex must be 1 or 2, got {vertex}")


def _sub_grouped_Pi(cls: PiModClass, vertex: int, b: int) -> list[StepCount]:
    d1, d2, r, s = cls.dim.d1, cls.dim.d2, cls.r, cls.s
    if b == 0:
        return [StepCount(cls, QPoly.one())]
    if vertex == 1:
        # U must sit inside ker x (dimension d1 - r), stratified by U \cap im y.
        if b > d1:
            return []
        dim = DimVector(d1 - b, d2)
        pairs = []
        for t, count in _grouped_split(d1 - r, s, b):
            if r + (s - t) <= min(d1 - b, d2):
                pairs.append((PiModClass(dim, r, s - t), count))
        return _steps(pairs)
    if vertex == 2:
        if b > d2:
            return []
        dim = DimVector(d1, d2 - b)
        pairs = []
        for t, count in _grouped_split(d2 - s, r, b):
            if (r - t) + s <= min(d1, d2 - b):
                pairs.append((PiModClass(dim, r - t, s), count))
        return _steps(pairs)
    raise ValueError(f"vertex must be 1 or 2, got {vertex}")


Word = tuple[tuple[int, int], ...]  # ((vertex, multiplicity), ...)


def word_content(word: Word) -> tuple[int, int]:
    c1 = sum(m for v, m in word if v == 1)
    c2 = sum(m for v, m in word if v == 2)
    return c1, c2


@lru_cache(maxsize=None)
def _eval(word: Word, cls, side: str) -> QPoly:
    if not word:
        return QPoly.one() if cls.dim.total == 0 else QPoly.zero()
    (vertex, mult), rest = word[0], word[1:]
    total = QPoly.zero()
    for step in sub_grouped(cls, vertex, mult, side):
        total = total + step.count * _eval(rest, step.child, side)
    return total


def _classes(dim: DimVector, side: str) -> list:
    return enumerate_orbits(dim) if side == "E" else pi_classes(dim)


@lru_cache(maxsize=None)
def _class_index(dim: DimVector, side: str) -> dict:
    return {c: i for i, c in enumerate(_classes(dim, side))}


@lru_cache(maxsize=None)
def _steps_at_one(dim: DimVector, vertex: int, b: int, side: str):
    """Per class of `dim`, its sub_grouped steps as (child index, count at
    q = 1), with children indexed in the class order of their dimension."""
    child_dim = (DimVector(dim.d1 - b, dim.d2) if vertex == 1
                 else DimVector(dim.d1, dim.d2 - b))
    index = _class_index(child_dim, side)
    return tuple(
        tuple((index[s.child], s.count.at_one())
              for s in sub_grouped(c, vertex, b, side))
        for c in _classes(dim, side)
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


def _checked_word(word, cls, side: str) -> Word:
    word = tuple((int(v), int(m)) for v, m in word)
    if any(v not in (1, 2) or m < 1 for v, m in word):
        raise ValueError(f"malformed word {word}")
    if word_content(word) != (cls.dim.d1, cls.dim.d2):
        raise ValueError(
            f"word content {word_content(word)} does not match {cls.dim}"
        )
    if side == "E" and not isinstance(cls, Orbit):
        raise TypeError("side 'E' expects an Orbit class")
    if side == "Pi" and not isinstance(cls, PiModClass):
        raise TypeError("side 'Pi' expects a PiModClass")
    return word


def eval_word(word: Word, cls, side: str) -> QPoly:
    """Counting polynomial of flags of type `word` on the class `cls`.

    The leftmost letter is the innermost subrepresentation.  The word's
    vertex content must match the dimension vector of `cls`.
    """
    return _eval(_checked_word(word, cls, side), cls, side)


def euler_counts(word: Word, classes, side: str) -> list[int]:
    """Euler characteristics, eval_word(word, c, side).at_one(), for each
    class c of one dimension vector, computed over Python ints.

    The same peeling as eval_word, with each step count taken at q = 1 once
    and the word recursion memoised per suffix as one row over all classes.
    """
    classes = list(classes)
    if not classes:
        return []
    first = classes[0]
    if any(c.dim != first.dim or type(c) is not type(first) for c in classes):
        raise ValueError("classes must share one dimension vector and kind")
    row = _count_row(_checked_word(word, first, side), side)
    index = _class_index(first.dim, side)
    return [row[index[c]] for c in classes]


def transitions(word: Word, cls, side: str) -> dict:
    """All classes reachable by peeling `word` off `cls`, with multiplicities."""
    front = {cls: QPoly.one()}
    for vertex, mult in word:
        nxt: dict = {}
        for c, acc in front.items():
            for step in sub_grouped(c, vertex, mult, side):
                prev = nxt.get(step.child, QPoly.zero())
                nxt[step.child] = prev + acc * step.count
        front = nxt
    return front
