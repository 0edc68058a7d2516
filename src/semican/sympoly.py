"""Sparse exact polynomials in matrix-entry variables.

Variables are entries of the five matrices that appear in the trace function
on the flag-stabilizing chart: X (the representation), M (inverse of the
first unipotent group element), N (the second), and their replacements M', X'
introduced by the change of variables.  Coefficients are kept as given:
every polynomial the separation builds has integer coefficients, and a
Fraction coefficient stays exact.  Terms are serialized in a canonical sorted
order so that polynomials are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("M", "Mp", "N", "X", "Xp")  # sorted, so int order is (kind, row, col)
_CODE = {kind: code for code, kind in enumerate(KINDS)}
_DISPLAY = ("M", "M'", "N", "X", "X'")
_NAMES: dict[int, str] = {}  # display name of each variable rendered so far


class VarId(int):
    """One matrix-entry variable, packed as (kind << 16) | (row << 8) | col.

    `kind` is the index of the kind in KINDS.  Hashing, equality and the
    sorting of monomials are plain int operations, and the int order is the
    order of (kind, row, col).
    """

    __slots__ = ()

    def __new__(cls, kind: str, row: int, col: int):
        code = _CODE.get(kind)
        if code is None:
            raise ValueError(f"unknown kind {kind!r}")
        if not (0 <= row <= 255 and 0 <= col <= 255):
            raise ValueError(
                f"{kind}({row},{col}) has an index outside 0..255")
        if kind in ("M", "N") and not row > col:
            raise ValueError(f"{kind}({row},{col}) is not strictly lower")
        return int.__new__(cls, (code << 16) | (row << 8) | col)

    def __getnewargs__(self):
        return self.kind, self.row, self.col

    @property
    def kind(self) -> str:
        return KINDS[self >> 16]

    @property
    def row(self) -> int:
        return (self >> 8) & 255

    @property
    def col(self) -> int:
        return self & 255

    def __str__(self):
        name = _NAMES.get(self)
        if name is None:
            name = _NAMES[self] = \
                f"{_DISPLAY[self >> 16]}({self.row},{self.col})"
        return name

    def __repr__(self):
        return f"VarId({self.kind!r}, {self.row}, {self.col})"


Mono = tuple[tuple[VarId, int], ...]  # sorted, positive exponents


def _mono_mul(a: Mono, b: Mono) -> Mono:
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mul_terms(a: dict, b: dict) -> dict:
    """Term dict of the product of two term dicts (may hold zero terms)."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _mono_str(mono: Mono) -> str:
    if not mono:
        return "1"
    return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in mono)


class MultiPoly:
    """Polynomial over Q with a canonical term order."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({(): c})

    @classmethod
    def var(cls, v: VarId) -> "MultiPoly":
        return cls({((v, 1),): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return MultiPoly(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(_mul_terms(self.terms, other.terms))

    def coefficient_of(self, v: VarId) -> "MultiPoly":
        """Coefficient polynomial of v in a polynomial of degree <= 1 in v."""
        out: dict = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.pop(v, 0)
            if e == 0:
                continue
            if e > 1:
                raise ValueError(f"degree {e} > 1 in {v}")
            out[tuple(sorted(d.items()))] = c
        return MultiPoly(out)

    def substitute(self, mapping: dict[VarId, "MultiPoly"]) -> "MultiPoly":
        """Simultaneously replace every mapped variable; exact."""
        out: dict = {}
        for mono, c in self.terms.items():
            term = {tuple((v, e) for v, e in mono if v not in mapping): c}
            for v, e in mono:
                if v in mapping:
                    for _ in range(e):
                        term = _mul_terms(term, mapping[v].terms)
            for m, tc in term.items():
                out[m] = out.get(m, 0) + tc
        return MultiPoly(out)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(_mono_str(mono))
            else:
                parts.append(f"{c}*{_mono_str(mono)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_str()})"


def expand_trace(dim, shape, y0) -> MultiPoly:
    """tr(x g1^{-1} y0 g2) for unit-entry y0 and unipotent lower factors.

    x ranges over matrices stabilizing the flag of `shape`, so only admissible
    X positions carry variables; M / N are the strictly lower entries of the
    two group factors.  The result is the three-sum expansion: every term is
    X*N, X*M, or X*M*N with indices tied to the nonzero entries of y0.
    """
    d1 = dim.d1
    entries = sorted(getattr(y0, "entries", y0))
    for i, j in entries:
        if not shape.adm_y(i, j):
            raise ValueError(f"y0 entry ({i},{j}) does not stabilize the flag")
    terms: dict = {}

    def add(*factors):
        mono = tuple(sorted((VarId(*f), 1) for f in factors))
        terms[mono] = terms.get(mono, 0) + 1

    for ia, ja in entries:
        for i in range(1, ja):
            if shape.adm_x(i, ia):
                add(("X", i, ia), ("N", ja, i))
        for j in range(ia + 1, d1 + 1):
            if shape.adm_x(ja, j):
                add(("X", ja, j), ("M", j, ia))
    for ib, jb in entries:
        for i in range(1, jb):
            for j in range(ib + 1, d1 + 1):
                if shape.adm_x(i, j):
                    add(("X", i, j), ("M", j, ib), ("N", jb, i))
    return MultiPoly(terms)


class BilinearityError(ValueError):
    """A monomial fails the degree-(1,1) pattern; carries the witness."""

    def __init__(self, witness: str):
        super().__init__(f"monomial {witness} is not bilinear in (W1, W2)")
        self.witness = witness


@dataclass(frozen=True)
class BilinearForm:
    """Matrix of a bilinear form on W1 x W2 with coefficient-polynomial entries."""

    rows: tuple[VarId, ...]
    cols: tuple[VarId, ...]
    matrix: tuple[tuple[MultiPoly, ...], ...]


def bilinear_decompose(p: MultiPoly, w1, w2, vc) -> BilinearForm:
    """Split p as sum_{u in W1, v in W2} B[u][v](Vc) * u * v.

    Succeeds iff every monomial has degree exactly 1 in W1, exactly 1 in W2,
    and all remaining factors in Vc; otherwise raises BilinearityError with
    the offending monomial.
    """
    w1, w2, vc = set(w1), set(w2), set(vc)
    rows = tuple(sorted(w1))
    cols = tuple(sorted(w2))
    ridx = {v: i for i, v in enumerate(rows)}
    cidx = {v: i for i, v in enumerate(cols)}
    cells: dict = {}
    for mono, coeff in p.terms.items():
        deg1 = sum(e for v, e in mono if v in w1)
        deg2 = sum(e for v, e in mono if v in w2)
        rest = tuple((v, e) for v, e in mono if v not in w1 and v not in w2)
        if deg1 != 1 or deg2 != 1 or any(v not in vc for v, _ in rest):
            raise BilinearityError(_mono_str(mono))
        u = next(v for v, _ in mono if v in w1)
        w = next(v for v, _ in mono if v in w2)
        cell = cells.setdefault((ridx[u], cidx[w]), {})
        cell[rest] = cell.get(rest, 0) + coeff
    matrix = tuple(
        tuple(MultiPoly(cells.get((i, j))) for j in range(len(cols)))
        for i in range(len(rows))
    )
    return BilinearForm(rows, cols, matrix)
