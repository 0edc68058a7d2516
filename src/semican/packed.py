"""Packed-integer polynomials: the arithmetic of the separation certificate.

A polynomial is a plain `dict[int, int]` from monomial to nonzero integer
coefficient.  A monomial is one int holding an exponent field of FIELD_BITS
bits for each variable of a `Slots` table, so the product of two monomials
is the sum of their ints and a group of variables is a bit mask.  A sum
carries from one field into the next only when an exponent reaches
2**FIELD_BITS; `Slots` takes a bound on the total degree of every
polynomial its caller forms and rejects a bound that does not fit a field.

This module does all the arithmetic of the separation, for `certify` and
for the reports of `separation.report_texts` alike.  Its callers name a
variable by its unit monomial: `check_bilinear` takes the variable groups
as sets of units.  Nothing here builds a string except the witness of a
failed bilinearity check, decoded through `Slots.decode`, the one place a
unit is turned back into its `VarId`; `report_texts` writes the reports
from these polynomials the same way.  The tests check this kernel against
the `RefPoly` arithmetic on tuple monomials of `tests/oracles.py`, which
shares no code with it.
"""

from __future__ import annotations

from .sympoly import BilinearityError, Mono, VarId, _mono_str

FIELD_BITS = 8
FIELD_MASK = (1 << FIELD_BITS) - 1


class Slots:
    """One exponent field per variable, in increasing VarId order.

    `unit[v]` is the monomial v.  Field k holds the exponent of
    `variables[k]`, so a decoded monomial comes out sorted, as a `Mono`.
    """

    def __init__(self, variables, max_degree: int):
        if max_degree > FIELD_MASK:
            raise ValueError(
                f"degree bound {max_degree} does not fit an exponent field "
                f"of {FIELD_BITS} bits")
        self.variables: tuple[VarId, ...] = tuple(sorted(set(variables)))
        self.unit = {v: 1 << (FIELD_BITS * k)
                     for k, v in enumerate(self.variables)}
        # the factor (v, 1) of each variable, shared by every decoded
        # monomial: fewer objects to allocate
        self._linear = [(v, 1) for v in self.variables]

    def decode(self, mono: int) -> Mono:
        """The sorted tuple monomial; visits only the set fields."""
        out = []
        while mono:
            k = ((mono & -mono).bit_length() - 1) // FIELD_BITS
            e = (mono >> (FIELD_BITS * k)) & FIELD_MASK
            out.append(self._linear[k] if e == 1
                       else (self.variables[k], e))
            mono -= e << (FIELD_BITS * k)
        return tuple(out)


def mask(units) -> int:
    """The bit mask of the fields of the variables `units`."""
    return FIELD_MASK * sum(units)


def add_into(out: dict, p: dict, scale: int = 1, shift: int = 0) -> None:
    """out += scale * m * p, where m is the monomial `shift`."""
    for mono, c in p.items():
        mono += shift
        out[mono] = out.get(mono, 0) + scale * c


def nonzero(p: dict) -> dict:
    return {m: c for m, c in p.items() if c}


def mul(a: dict, b: dict) -> dict:
    """Product of two polynomials; may hold zero coefficients."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    return out


def coefficient_of(p: dict, unit: int) -> dict:
    """Coefficient of the variable `unit` in p, of degree <= 1 in it."""
    shift = unit.bit_length() - 1
    out = {}
    for mono, c in p.items():
        e = (mono >> shift) & FIELD_MASK
        if e == 1:
            out[mono - unit] = c
        elif e:
            raise ValueError(f"degree {e} > 1 in the substituted variable")
    return out


def substitute(p: dict, mapping: dict) -> dict:
    """Simultaneously replace each variable `unit` by `mapping[unit]`."""
    if not mapping:
        return nonzero(p)
    hits = mask(mapping)
    out: dict = {}
    for mono, c in p.items():
        hit = mono & hits
        if not hit:
            out[mono] = out.get(mono, 0) + c
            continue
        rest = mono - hit
        term = None
        while hit:
            shift = ((hit & -hit).bit_length() - 1) // FIELD_BITS * FIELD_BITS
            e = (hit >> shift) & FIELD_MASK
            hit -= e << shift
            value = mapping[1 << shift]
            if term is None:  # the first factor: rest * c * value
                term = {rest + m: c * v for m, v in value.items()}
                e -= 1
            for _ in range(e):
                term = mul(term, value)
        for m, tc in term.items():
            out[m] = out.get(m, 0) + tc
    return nonzero(out)


def check_bilinear(p: dict, slots: Slots, rows, cols, vc) -> None:
    """Check that p is bilinear in (W1, W2) with coefficients in Vc.

    `rows`, `cols` and `vc` are the sets of unit monomials of W1, W2 and
    Vc.  Passes iff every monomial has degree exactly 1 in W1, exactly 1 in
    W2 and all other factors in Vc, with any exponent.  Otherwise raises
    BilinearityError naming the first offending monomial, decoded through
    `slots`, in the term order of the reports.
    """
    row_mask, col_mask = mask(rows), mask(cols)
    other = ~(row_mask | col_mask | mask(vc))
    bad = [m for m in p if m & other or (m & row_mask) not in rows
           or (m & col_mask) not in cols]
    if bad:
        raise BilinearityError(_mono_str(min(map(slots.decode, bad))))
