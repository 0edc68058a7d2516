import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semican import sympoly
from semican.core import DimVector
from semican.separation import NormalFormY, flag_shape
from semican.sympoly import (KINDS, BilinearityError, MultiPoly, VarId,
                             bilinear_decompose, expand_trace)

from oracles import bilinear_decompose_two_pass, partial_derivative


def V(kind, r, c):
    return MultiPoly.var(VarId(kind, r, c))


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
    return MultiPoly(terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == MultiPoly.zero()
    assert a * MultiPoly.const(1) == a
    assert a * MultiPoly.zero() == MultiPoly.zero()


def test_partial_derivative_examples():
    p = V("X", 1, 2) * V("M", 2, 1)
    assert partial_derivative(p, M21) == V("X", 1, 2)
    assert partial_derivative(MultiPoly.zero(), X12) == MultiPoly.zero()
    p = V("X", 1, 2) * V("X", 1, 2) * V("M", 2, 1)
    assert partial_derivative(p, X12) == \
        MultiPoly.const(2) * V("X", 1, 2) * V("M", 2, 1)


def test_substitute_and_coefficient():
    p = V("X", 1, 2) * V("M", 2, 1) + V("N", 2, 1)
    q = p.substitute({M21: V("Mp", 2, 1) - V("N", 2, 1)})
    expected = V("X", 1, 2) * V("Mp", 2, 1) - V("X", 1, 2) * V("N", 2, 1) \
        + V("N", 2, 1)
    assert q == expected
    assert q.coefficient_of(VarId("Mp", 2, 1)) == V("X", 1, 2)


def test_to_str_deterministic():
    p = V("X", 1, 2) * V("M", 2, 1) + MultiPoly.const(Fraction(3, 2)) \
        * V("N", 2, 1)
    assert p.to_str() == "M(2,1)*X(1,2) + 3/2*N(2,1)"
    assert MultiPoly.zero().to_str() == "0"


# ---------------------------------------------------------------------------
# bilinear decomposition


def test_bilinear_examples():
    p = V("X", 1, 2) * V("M", 2, 1)
    form = bilinear_decompose(p, {M21}, {X12}, set())
    assert form.matrix == ((MultiPoly.const(1),),)

    with pytest.raises(BilinearityError) as exc:
        bilinear_decompose(V("X", 1, 2) * V("X", 1, 2), {X12}, {M21}, set())
    assert "X(1,2)^2" in str(exc.value)

    c1, c2 = VarId("N", 3, 1), VarId("N", 3, 2)
    w1a, w1b = VarId("M", 2, 1), VarId("M", 3, 1)
    p = MultiPoly.var(c1) * MultiPoly.var(w1a) * V("X", 1, 2) \
        + MultiPoly.var(c2) * MultiPoly.var(w1b) * V("X", 1, 2)
    form = bilinear_decompose(p, {w1a, w1b}, {X12}, {c1, c2})
    assert form.rows == (w1a, w1b)
    assert form.matrix == ((MultiPoly.var(c1),), (MultiPoly.var(c2),))


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
    c = MultiPoly.var(N31)
    p = V("M", 2, 1) * V("X", 1, 2) * c * c * c
    form = bilinear_decompose(p, {M21}, {X12}, {N31})
    assert form.matrix == ((c * c * c,),)
    # a variable in both groups is its own bilinear monomial
    form = bilinear_decompose(V("X", 1, 2), {X12}, {X12}, set())
    assert form.matrix == ((MultiPoly.const(1),),)


def test_bilinear_matches_two_pass_reference():
    # every monomial in three variables with exponents 0..2, against every
    # way of putting each variable into at most two of W1, W2 and Vc
    vs = (M21, X12, N31)
    roles = [set(r) for n in range(3)
             for r in itertools.combinations(("w1", "w2", "vc"), n)]
    for exps in itertools.product(range(3), repeat=3):
        p = MultiPoly({tuple((v, e) for v, e in zip(vs, exps) if e): 1})
        for role in itertools.product(roles, repeat=3):
            groups = [{v for v, r in zip(vs, role) if g in r}
                      for g in ("w1", "w2", "vc")]
            try:
                expected = bilinear_decompose_two_pass(p, *groups)
            except BilinearityError as exc:
                with pytest.raises(BilinearityError) as got:
                    bilinear_decompose(p, *groups)
                assert got.value.witness == exc.witness
            else:
                assert bilinear_decompose(p, *groups) == expected


# ---------------------------------------------------------------------------
# trace expansion


def test_expand_trace_examples():
    sh = flag_shape((2, 1))
    assert expand_trace(DimVector(1, 1), sh, NormalFormY.of()) \
        == MultiPoly.zero()
    sh = flag_shape((1, 2, 2, 1))
    h = expand_trace(DimVector(2, 2), sh, NormalFormY.of((1, 1)))
    assert h == V("X", 1, 2) * V("M", 2, 1)
    h = expand_trace(DimVector(2, 2), sh, NormalFormY.of((1, 2)))
    assert h == V("X", 2, 2) * V("M", 2, 1) \
        + V("X", 1, 2) * V("M", 2, 1) * V("N", 2, 1)


def test_expand_trace_rejects_inadmissible():
    sh = flag_shape((2, 1))
    with pytest.raises(ValueError):
        expand_trace(DimVector(1, 1), sh, NormalFormY.of((1, 1)))


def _symbolic_trace(shape, y0):
    # oracle: assemble x (I + lower) y0 (I + lower) as symbolic matrices and
    # take the trace of the product directly
    d1, d2 = shape.d1, shape.d2
    x = [[V("X", i + 1, j + 1) if shape.adm_x(i + 1, j + 1) else MultiPoly.zero()
          for j in range(d1)] for i in range(d2)]
    m = [[MultiPoly.const(1 if i == j else 0) + (V("M", i + 1, j + 1)
          if i > j else MultiPoly.zero()) for j in range(d1)]
         for i in range(d1)]
    y = [[MultiPoly.const(1 if (i + 1, j + 1) in y0.entries else 0)
          for j in range(d2)] for i in range(d1)]
    n = [[MultiPoly.const(1 if i == j else 0) + (V("N", i + 1, j + 1)
          if i > j else MultiPoly.zero()) for j in range(d2)]
         for i in range(d2)]

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(len(b))),
                     MultiPoly.zero()) for j in range(len(b[0]))]
                for i in range(len(a))]

    prod = mul(mul(mul(x, m), y), n)
    return sum((prod[i][i] for i in range(d2)), MultiPoly.zero())


def test_expand_trace_matches_matrix_product():
    from semican.separation import enumerate_instances
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            if d1 + d2 == 0 or d1 + d2 > 5:
                continue
            for a, y0 in enumerate_instances(DimVector(d1, d2)):
                sh = flag_shape(a)
                got = expand_trace(DimVector(d1, d2), sh, y0)
                if d1 == 0 or d2 == 0:
                    assert got == MultiPoly.zero()
                    continue
                assert got == _symbolic_trace(sh, y0), (a, sorted(y0.entries))


def test_expand_trace_degree_bounds():
    from semican.separation import enumerate_instances
    for a, y0 in enumerate_instances(DimVector(2, 2)):
        h = expand_trace(DimVector(2, 2), flag_shape(a), y0)
        for mono, _ in h.terms.items():
            total = sum(e for _, e in mono)
            assert total <= 3
            for v, e in mono:
                if v.kind == "X":
                    assert e == 1
