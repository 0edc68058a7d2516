"""Matrix-entry variables and the rendering of polynomials in them.

Variables are entries of the five matrices that appear in the trace function
on the flag-stabilizing chart: X (the representation), M (inverse of the
first unipotent group element), N (the second), and their replacements M', X'
introduced by the change of variables.  `semican.packed` computes with
these polynomials.  `MultiPoly` is the library's decoded view of one: it
holds sorted tuple monomials and renders them with `to_str`.  The reports
of `semican separate` are rendered straight from the packed kernel by
`separation.report_dicts`, in the same canonical term order and through
the same `join_terms`, so that every report is reproducible byte for byte.
The arithmetic on `MultiPoly` that the tests check the packed kernel
against is in `tests/oracles.py`.
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


def _mono_str(mono: Mono) -> str:
    if not mono:
        return "1"
    return "*".join([_NAMES[v] if e == 1 else f"{_NAMES[v]}^{e}"
                     for v, e in mono])


def join_terms(terms) -> str:
    """The text of a polynomial from its (monomial text, coefficient) terms.

    The terms come in print order with nonzero coefficients; the constant
    monomial's text is "1", as `_mono_str` writes it.  `MultiPoly.to_str`
    and the reports of `separation.report_dicts` both render through here.
    """
    if not terms:
        return "0"
    return " + ".join([str(c) if text == "1" else text if c == 1
                       else f"{c}*{text}" for text, c in terms])


class MultiPoly:
    """A polynomial as a dict from sorted monomial to nonzero coefficient.

    A container: it compares by its terms and renders them with `to_str`.
    Coefficients are kept as given, so a Fraction stays exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def to_str(self) -> str:
        return join_terms([(_mono_str(m), self.terms[m])
                           for m in sorted(self.terms)])

    def __repr__(self):
        return f"MultiPoly({self.to_str()})"


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
