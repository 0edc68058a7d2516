"""Matrix-entry variables and the rendering of monomials in them.

Variables are entries of the five matrices that appear in the trace function
on the flag-stabilizing chart: X (the representation), M (inverse of the
first unipotent group element), N (the second), and their replacements M', X'
introduced by the change of variables.  `semican.packed` computes with
polynomials in these variables; a `Mono` is one of its monomials decoded
into a sorted tuple.  The separation builds a `VarId` once per slot of the
layout of a dimension vector, to name the slot and order its fields, and
otherwise knows each variable by its unit monomial.
`separation.report_texts` writes the reports from the packed kernel with
`_mono_str` and `join_terms`, in the canonical term order, so that every
report is reproducible byte for byte.
The tuple-monomial polynomial arithmetic that the tests check the packed
kernel against is `RefPoly` in `tests/oracles.py`.
"""

from __future__ import annotations

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
    monomial's text is "1", as `_mono_str` writes it.  The reports of
    `separation.report_texts` and the reference `RefPoly.to_str` of the
    tests both render through here.
    """
    if not terms:
        return "0"
    return " + ".join([str(c) if text == "1" else text if c == 1
                       else f"{c}*{text}" for text, c in terms])


class BilinearityError(ValueError):
    """A monomial fails the degree-(1,1) pattern; carries the witness."""

    def __init__(self, witness: str):
        super().__init__(f"monomial {witness} is not bilinear in (W1, W2)")
        self.witness = witness
