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
variable by its unit monomial and a group of variables by the sum of their
units, its unit mask, whose set bits ascend in `VarId` order:
`check_bilinear` takes the groups W1, W2 and Vc as unit masks.  Nothing
here builds a string except the witness of a failed bilinearity check,
decoded through `Slots.decode`, the one place a unit is turned back into
its `VarId`; `report_texts` writes the reports from these polynomials the
same way.  The tests check this kernel against the `RefPoly` arithmetic on
tuple monomials of `tests/oracles.py`, which shares no code with it.
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
    """p less its zero coefficients: p itself when it has none."""
    return {m: c for m, c in p.items() if c} if 0 in p.values() else p


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
        return nonzero(dict(p))
    hits = mask(mapping)
    out: dict = {}
    for mono, c in p.items():
        hit = mono & hits
        if not hit:
            out[mono] = out.get(mono, 0) + c
            continue
        rest = mono - hit
        value = mapping.get(hit)
        if value is not None:  # one substituted variable, to the power 1
            for m, v in value.items():
                m += rest
                out[m] = out.get(m, 0) + c * v
            continue
        term = {rest: c}  # times all the factors but one, lowest first
        while value is None:
            shift = ((hit & -hit).bit_length() - 1) // FIELD_BITS * FIELD_BITS
            term = mul(term, mapping[1 << shift])
            hit -= 1 << shift
            value = mapping.get(hit)
        for m, tc in term.items():  # times the last one
            add_into(out, value, scale=tc, shift=m)
    return nonzero(out)


def check_bilinear(p: dict, slots: Slots, w1: int, w2: int, vc: int) -> None:
    """Check that p is bilinear in (W1, W2) with coefficients in Vc.

    `w1`, `w2` and `vc` are the unit masks of W1, W2 and Vc.  Passes iff
    every monomial has degree exactly 1 in W1, exactly 1 in W2 and all
    other factors in Vc, with any exponent: its part in the fields of W1
    is a single set bit, and that bit is a unit of W1 (an exponent 2 sets
    the next bit of the field instead), and likewise for W2.  Otherwise
    raises BilinearityError naming the first offending monomial, decoded
    through `slots`, in the term order of the reports.
    """
    row_mask, col_mask = FIELD_MASK * w1, FIELD_MASK * w2
    inside = row_mask | col_mask | FIELD_MASK * vc
    bad = []
    for m in p:
        r, s = m & row_mask, m & col_mask
        if (m & inside != m or not r & w1 or r & (r - 1)
                or not s & w2 or s & (s - 1)):
            bad.append(m)
    if bad:
        raise BilinearityError(_mono_str(min(map(slots.decode, bad))))
