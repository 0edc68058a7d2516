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
# every variable built so far, by its (kind, row, col), and its display
# name; at most 5 * 256 * 256 of each
_INTERNED: dict[tuple[str, int, int], VarId] = {}
_NAMES: dict[int, str] = {}


class VarId(int):
    """One matrix-entry variable, packed as (kind << 16) | (row << 8) | col.

    `kind` is the index of the kind in KINDS.  Hashing, equality and the
    sorting of monomials are plain int operations, and the int order is the
    order of (kind, row, col).  Variables are interned: equal arguments give
    the identical object, and only a new key goes through the checks.
    """

    __slots__ = ()

    def __new__(cls, kind: str, row: int, col: int):
        v = _INTERNED.get((kind, row, col))
        if v is not None:
            return v
        code = _CODE.get(kind)
        if code is None:
            raise ValueError(f"unknown kind {kind!r}")
        if not (0 <= row <= 255 and 0 <= col <= 255):
            raise ValueError(
                f"{kind}({row},{col}) has an index outside 0..255")
        if kind in ("M", "N") and not row > col:
            raise ValueError(f"{kind}({row},{col}) is not strictly lower")
        v = _INTERNED[kind, row, col] = \
            int.__new__(cls, (code << 16) | (row << 8) | col)
        _NAMES[v] = f"{_DISPLAY[code]}({v.row},{v.col})"
        return v

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
        return _NAMES[self]

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
    return "*".join([_NAMES[v] if e == 1 else f"{_NAMES[v]}^{e}"
                     for v, e in mono])


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

    x ranges over matrices stabilizing the flag of `shape` (of dimension
    vector `dim`), so only admissible X positions carry variables; M / N are
    the strictly lower entries of the two group factors.  The trace is the
    sum over the entries of y0 of `shape.trace_pieces[entry]`: the X*N,
    X*M and X*M*N families tied to that entry.  No monomial lies in two
    pieces, so every coefficient is 1.
    """
    entries = sorted(getattr(y0, "entries", y0))
    terms: dict = {}
    for i, j in entries:
        if not shape.adm_y(i, j):
            raise ValueError(f"y0 entry ({i},{j}) does not stabilize the flag")
        terms.update(shape.trace_pieces[i, j])
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
    and all remaining factors in Vc, with any exponent; otherwise raises
    BilinearityError with the offending monomial.  Each monomial is read
    once, through one map from each variable to its (row, column) role; a
    Vc variable has role (-1, -1).
    """
    rows = tuple(sorted(set(w1)))
    cols = tuple(sorted(set(w2)))
    role = dict.fromkeys(vc, (-1, -1))
    role.update((v, (i, -1)) for i, v in enumerate(rows))
    for j, v in enumerate(cols):
        role[v] = (role.get(v, (-1, -1))[0], j)
    cells: dict = {}
    for mono, coeff in p.terms.items():
        r = c = -1
        rest = []
        for v, e in mono:
            vrow, vcol = role.get(v, (None, None))
            if vrow is None:
                raise BilinearityError(_mono_str(mono))
            if vrow < 0 and vcol < 0:
                rest.append((v, e))
                continue
            if e != 1 or (vrow >= 0 and r >= 0) or (vcol >= 0 and c >= 0):
                raise BilinearityError(_mono_str(mono))
            if vrow >= 0:
                r = vrow
            if vcol >= 0:
                c = vcol
        if r < 0 or c < 0:
            raise BilinearityError(_mono_str(mono))
        cell = cells.setdefault((r, c), {})
        rest = tuple(rest)
        cell[rest] = cell.get(rest, 0) + coeff
    zero = MultiPoly()  # shared by every zero cell; MultiPoly is never mutated
    matrix = [[zero] * len(cols) for _ in rows]
    for (i, j), cell in cells.items():
        matrix[i][j] = MultiPoly(cell)
    return BilinearForm(rows, cols, tuple(map(tuple, matrix)))
