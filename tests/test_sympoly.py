import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semican import packed, sympoly
from semican.core import DimVector
from semican.separation import NormalFormY, flag_shape
from semican.sympoly import KINDS, BilinearityError, VarId

from oracles import (RefPoly, bilinear_decompose, bilinear_decompose_two_pass,
                     encode, enumerate_instances, expand_trace,
                     partial_derivative)


def V(kind, r, c):
    return RefPoly.var(VarId(kind, r, c))


X12 = VarId("X", 1, 2)
M21 = VarId("M", 2, 1)
N21 = VarId("N", 2, 1)


def test_varid_validation_and_order():
    with pytest.raises(ValueError):
        VarId("M", 1, 2)
    with pytest.raises(ValueError):
        VarId("Q", 2, 1)
    assert VarId("M", 2, 1) < VarId("Mp", 2, 1) < VarId("N", 2, 1) \
        < VarId("X", 1, 1) < VarId("Xp", 1, 1)
    assert str(VarId("Mp", 3, 1)) == "M'(3,1)"


def _all_varids(bound):
    out = []
    for code, kind in enumerate(KINDS):
        for row in range(bound + 1):
            for col in range(bound + 1):
                if kind in ("M", "N") and not row > col:
                    continue
                out.append(((code, row, col), VarId(kind, row, col)))
    return out


def test_varid_order_matches_tuple_order():
    pairs = _all_varids(8)
    random.Random(0).shuffle(pairs)
    by_tuple = [v for _, v in sorted(pairs, key=lambda p: p[0])]
    by_varid = sorted(v for _, v in pairs)
    assert by_varid == by_tuple
    # KINDS is in string order, so this is also the order by kind name
    assert by_varid == sorted(by_varid, key=lambda v: (v.kind, v.row, v.col))


def test_varid_round_trip():
    display = {"M": "M", "Mp": "M'", "N": "N", "X": "X", "Xp": "X'"}
    for (code, row, col), v in _all_varids(8) + [
            ((3, 255, 0), VarId("X", 255, 0)),
            ((2, 255, 254), VarId("N", 255, 254))]:
        assert (v.kind, v.row, v.col) == (KINDS[code], row, col)
        assert str(v) == f"{display[v.kind]}({row},{col})"
        assert VarId(v.kind, v.row, v.col) == v
        assert repr(v) == f"VarId({v.kind!r}, {row}, {col})"
        copy = pickle.loads(pickle.dumps(v))
        assert type(copy) is VarId and copy == v
    for args in [("X", 256, 1), ("X", 1, 256), ("X", -1, 1), ("M", 256, 1)]:
        with pytest.raises(ValueError):
            VarId(*args)


def test_varid_interned():
    v = VarId("X", 3, 2)
    assert VarId("X", 3, 2) is v
    assert VarId(v.kind, v.row, v.col) is v
    assert pickle.loads(pickle.dumps(v)) is v
    assert copy.copy(v) is v and copy.deepcopy(v) is v
    VarId("M", 2, 1), VarId("X", 255, 1)
    for args in [("M", 1, 2), ("X", 256, 1), ("Q", 2, 1), ("N", 3, 3)]:
        for _ in range(2):  # a failing key never enters the table
            with pytest.raises(ValueError):
                VarId(*args)
        assert args not in sympoly._INTERNED


_vars = [VarId("X", 1, 1), VarId("X", 2, 1), VarId("M", 2, 1), VarId("N", 3, 2)]


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = []
        for v in draw(st.sets(st.sampled_from(_vars), max_size=3)):
            mono.append((v, draw(st.integers(1, 2))))
        key = tuple(sorted(mono))
        terms[key] = terms.get(key, 0) + Fraction(draw(st.integers(-5, 5)))
    return RefPoly(terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RefPoly.zero()
    assert a * RefPoly.const(1) == a
    assert a * RefPoly.zero() == RefPoly.zero()


def test_partial_derivative_examples():
    p = V("X", 1, 2) * V("M", 2, 1)
    assert partial_derivative(p, M21) == V("X", 1, 2)
    assert partial_derivative(RefPoly.zero(), X12) == RefPoly.zero()
    p = V("X", 1, 2) * V("X", 1, 2) * V("M", 2, 1)
    assert partial_derivative(p, X12) == \
        RefPoly.const(2) * V("X", 1, 2) * V("M", 2, 1)


def test_substitute_and_coefficient():
    p = V("X", 1, 2) * V("M", 2, 1) + V("N", 2, 1)
    q = p.substitute({M21: V("Mp", 2, 1) - V("N", 2, 1)})
    expected = V("X", 1, 2) * V("Mp", 2, 1) - V("X", 1, 2) * V("N", 2, 1) \
        + V("N", 2, 1)
    assert q == expected
    assert q.coefficient_of(VarId("Mp", 2, 1)) == V("X", 1, 2)


def test_to_str_deterministic():
    p = V("X", 1, 2) * V("M", 2, 1) + RefPoly.const(Fraction(3, 2)) \
        * V("N", 2, 1)
    assert p.to_str() == "M(2,1)*X(1,2) + 3/2*N(2,1)"
    assert RefPoly().to_str() == "0"


# ---------------------------------------------------------------------------
# bilinear decomposition


def test_bilinear_examples():
    p = V("X", 1, 2) * V("M", 2, 1)
    form = bilinear_decompose(p, {M21}, {X12}, set())
    assert form.matrix == ((RefPoly.const(1),),)

    with pytest.raises(BilinearityError) as exc:
        bilinear_decompose(V("X", 1, 2) * V("X", 1, 2), {X12}, {M21}, set())
    assert "X(1,2)^2" in str(exc.value)

    c1, c2 = VarId("N", 3, 1), VarId("N", 3, 2)
    w1a, w1b = VarId("M", 2, 1), VarId("M", 3, 1)
    p = RefPoly.var(c1) * RefPoly.var(w1a) * V("X", 1, 2) \
        + RefPoly.var(c2) * RefPoly.var(w1b) * V("X", 1, 2)
    form = bilinear_decompose(p, {w1a, w1b}, {X12}, {c1, c2})
    assert form.rows == (w1a, w1b)
    assert form.matrix == ((RefPoly.var(c1),), (RefPoly.var(c2),))


def test_bilinear_rejects_uncovered_variable():
    p = V("X", 1, 2) * V("M", 2, 1) * V("N", 2, 1)
    with pytest.raises(BilinearityError) as exc:
        bilinear_decompose(p, {M21}, {X12}, set())  # N not declared anywhere
    assert exc.value.witness == "M(2,1)*N(2,1)*X(1,2)"


M31, N31 = VarId("M", 3, 1), VarId("N", 3, 1)


@pytest.mark.parametrize("p, witness", [
    (V("M", 2, 1) * V("M", 2, 1) * V("X", 1, 2), "M(2,1)^2*X(1,2)"),
    (V("M", 2, 1) * V("M", 3, 1) * V("X", 1, 2), "M(2,1)*M(3,1)*X(1,2)"),
    (V("M", 2, 1) * V("N", 3, 1), "M(2,1)*N(3,1)"),
    (V("M", 2, 1) * V("X", 1, 2) * V("X", 1, 2), "M(2,1)*X(1,2)^2"),
    (V("N", 3, 1) * V("X", 1, 2), "N(3,1)*X(1,2)"),
])
def test_bilinear_failure_names_monomial(p, witness):
    # W1 squared, two W1 factors, no W2 factor, W2 squared, no W1 factor
    ok = V("M", 3, 1) * V("X", 1, 2)
    with pytest.raises(BilinearityError) as exc:
        bilinear_decompose(ok + p, {M21, M31}, {X12}, {N31})
    assert exc.value.witness == witness


def test_bilinear_accepts_any_coefficient_exponent():
    c = RefPoly.var(N31)
    p = V("M", 2, 1) * V("X", 1, 2) * c * c * c
    form = bilinear_decompose(p, {M21}, {X12}, {N31})
    assert form.matrix == ((c * c * c,),)
    # a variable in both groups is its own bilinear monomial
    form = bilinear_decompose(V("X", 1, 2), {X12}, {X12}, set())
    assert form.matrix == ((RefPoly.const(1),),)


def test_bilinear_matches_two_pass_reference():
    # every monomial in three variables with exponents 0..2, against every
    # way of putting each variable into at most two of W1, W2 and Vc; the
    # packed kernel's check must agree (vs is sorted, so each monomial is
    # canonical as in RefPoly)
    vs = (M21, N31, X12)
    slots = packed.Slots(vs, max_degree=6)
    roles = [set(r) for n in range(3)
             for r in itertools.combinations(("w1", "w2", "vc"), n)]
    for exps in itertools.product(range(3), repeat=3):
        p = RefPoly({tuple((v, e) for v, e in zip(vs, exps) if e): 1})
        for role in itertools.product(roles, repeat=3):
            groups = [{v for v, r in zip(vs, role) if g in r}
                      for g in ("w1", "w2", "vc")]
            packed_p = {encode(slots, m): c for m, c in p.terms.items()}
            units = [sum(slots.unit[v] for v in g) for g in groups]
            try:
                expected = bilinear_decompose_two_pass(p, *groups)
            except BilinearityError as exc:
                with pytest.raises(BilinearityError) as got:
                    bilinear_decompose(p, *groups)
                assert got.value.witness == exc.witness
                with pytest.raises(BilinearityError) as got:
                    packed.check_bilinear(packed_p, slots, *units)
                assert got.value.witness == exc.witness
            else:
                assert bilinear_decompose(p, *groups) == expected
                packed.check_bilinear(packed_p, slots, *units)


def test_bilinear_witness_is_first_in_term_order():
    ok = V("M", 2, 1) * V("X", 1, 2)
    late = V("N", 3, 1) * V("X", 1, 2)   # no W1 factor
    early = V("M", 2, 1) * V("N", 3, 1)  # no W2 factor
    vs = (M21, X12, N31)  # one in each of W1, W2 and Vc
    slots = packed.Slots(vs, max_degree=3)
    witnesses = set()
    for first, second in ((late, early), (early, late)):
        terms = {**first.terms, **second.terms, **ok.terms}
        with pytest.raises(BilinearityError) as exc:
            bilinear_decompose(RefPoly(terms), {M21}, {X12}, {N31})
        witnesses.add(exc.value.witness)
        with pytest.raises(BilinearityError) as exc:
            packed.check_bilinear({encode(slots, m): c for m, c in terms.items()},
                                  slots, *(slots.unit[v] for v in vs))
        witnesses.add(exc.value.witness)
    assert witnesses == {"M(2,1)*N(3,1)"}


# ---------------------------------------------------------------------------
# the packed kernel against the RefPoly reference


_X11, _X21, _M21, _N32 = map(RefPoly.var, _vars)
_B = _X21 + RefPoly.const(2) * _N32
_C = _X11 * _N32 - RefPoly.const(3)


@given(polys(), polys(), polys())
# `substitute` takes a monomial with one mapped variable, to the power 1,
# on its own path; a mapped variable squared, or two mapped variables in
# one monomial, go through the general loop
@example(_X11 * _X11 * _N32 + _X21 * _X21, _B, _C)
@example(_X11 * _M21 * _N32 + _X21 * _M21, _B, _C)
@example(_X11 * _N32 + _X21 + _M21, _B, _C)
@settings(max_examples=60, deadline=None)
def test_packed_arithmetic_matches_multipoly(a, b, c):
    # degree <= 6 per polynomial, so <= 36 after substituting into a
    slots = packed.Slots(_vars, max_degree=36)

    def enc(p):
        return {encode(slots, m): coeff for m, coeff in p.terms.items()}

    def dec(d):
        return RefPoly({slots.decode(m): coeff for m, coeff in d.items()})

    assert dec(packed.mul(enc(a), enc(b))) == a * b
    mapping = {_vars[0]: b, _vars[2]: c}
    assert dec(packed.substitute(
        enc(a), {slots.unit[v]: enc(p) for v, p in mapping.items()})) \
        == a.substitute(mapping)
    # a single mapped variable, and the empty mapping: a copy of a
    assert dec(packed.substitute(enc(a), {slots.unit[_vars[1]]: enc(c)})) \
        == a.substitute({_vars[1]: c})
    encoded = enc(a)
    same = packed.substitute(encoded, {})
    assert same == encoded and same is not encoded
    try:
        expected = a.coefficient_of(_vars[3])
    except ValueError:
        with pytest.raises(ValueError):
            packed.coefficient_of(enc(a), slots.unit[_vars[3]])
    else:
        assert dec(packed.coefficient_of(enc(a), slots.unit[_vars[3]])) \
            == expected


def test_packed_slots_guard_field_width():
    assert packed.FIELD_MASK == 255
    slots = packed.Slots([X12, M21], max_degree=255)
    mono = ((M21, 255), (X12, 1))
    assert slots.decode(encode(slots, mono)) == mono
    with pytest.raises(ValueError, match="degree bound 256"):
        packed.Slots([X12, M21], max_degree=256)


# ---------------------------------------------------------------------------
# trace expansion


def test_expand_trace_examples():
    sh = flag_shape((2, 1))
    assert expand_trace(sh, NormalFormY.of()) \
        == RefPoly.zero()
    sh = flag_shape((1, 2, 2, 1))
    h = expand_trace(sh, NormalFormY.of((1, 1)))
    assert h == V("X", 1, 2) * V("M", 2, 1)
    h = expand_trace(sh, NormalFormY.of((1, 2)))
    assert h == V("X", 2, 2) * V("M", 2, 1) \
        + V("X", 1, 2) * V("M", 2, 1) * V("N", 2, 1)


def test_expand_trace_rejects_inadmissible():
    sh = flag_shape((2, 1))
    with pytest.raises(ValueError):
        expand_trace(sh, NormalFormY.of((1, 1)))


def _symbolic_trace(shape, y0):
    # oracle: assemble x (I + lower) y0 (I + lower) as symbolic matrices and
    # take the trace of the product directly
    d1, d2 = shape.d1, shape.d2
    x = [[V("X", i + 1, j + 1) if shape.adm_x(i + 1, j + 1) else RefPoly.zero()
          for j in range(d1)] for i in range(d2)]
    m = [[RefPoly.const(1 if i == j else 0) + (V("M", i + 1, j + 1)
          if i > j else RefPoly.zero()) for j in range(d1)]
         for i in range(d1)]
    y = [[RefPoly.const(1 if (i + 1, j + 1) in y0.entries else 0)
          for j in range(d2)] for i in range(d1)]
    n = [[RefPoly.const(1 if i == j else 0) + (V("N", i + 1, j + 1)
          if i > j else RefPoly.zero()) for j in range(d2)]
         for i in range(d2)]

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(len(b))),
                     RefPoly.zero()) for j in range(len(b[0]))]
                for i in range(len(a))]

    prod = mul(mul(mul(x, m), y), n)
    return sum((prod[i][i] for i in range(d2)), RefPoly.zero())


def test_expand_trace_matches_matrix_product():
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            if d1 + d2 == 0 or d1 + d2 > 5:
                continue
            for a, y0 in enumerate_instances(DimVector(d1, d2)):
                sh = flag_shape(a)
                got = expand_trace(sh, y0)
                if d1 == 0 or d2 == 0:
                    assert got == RefPoly.zero()
                    continue
                assert got == _symbolic_trace(sh, y0), (a, sorted(y0.entries))


def test_expand_trace_degree_bounds():
    for a, y0 in enumerate_instances(DimVector(2, 2)):
        h = expand_trace(flag_shape(a), y0)
        for mono, _ in h.terms.items():
            total = sum(e for _, e in mono)
            assert total <= 3
            for v, e in mono:
                if v.kind == "X":
                    assert e == 1
