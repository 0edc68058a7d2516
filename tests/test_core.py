import pickle
import random
from fractions import Fraction

import pytest

from semican import ratlin
from semican.bases import (ConstructibleFnE, canonical_fn, m_coefficients,
                           transfer_matrix)
from semican.core import (ConormalComponent, DimVector, Orbit, PiModClass,
                          dual_orbit, enumerate_orbits, orbit_dim,
                          representative_pair, sign_parity)
from semican.geom import PairPoint
from semican.separation import NormalFormY, flag_shape

from oracles import QPoly, gauss_binom, kernel_basis, rank_mod


def test_enumerate_orbits():
    assert [o.r for o in enumerate_orbits(DimVector(1, 1))] == [0, 1]
    assert [o.r for o in enumerate_orbits(DimVector(2, 3))] == [0, 1, 2]
    assert [o.r for o in enumerate_orbits(DimVector(0, 5))] == [0]


def test_orbit_dim_examples():
    assert orbit_dim(Orbit(DimVector(2, 2), 1)) == 3
    assert orbit_dim(Orbit(DimVector(2, 2), 0)) == 0
    assert orbit_dim(Orbit(DimVector(2, 3), 2)) == 6


def _rank_locus_count(d1, d2, r) -> QPoly:
    # matrices V1 -> V2 of exact rank r over F_q: choose the row space,
    # then a surjection onto it
    count = gauss_binom(d1, r)
    for i in range(r):
        count = count * (QPoly.q_power(d2) - QPoly.q_power(i))
    return count


def _brute_rank_count(d1, d2, r, q):
    # enumerate all d2 x d1 matrices over F_q and count by rank
    total = 0
    n = d1 * d2
    for code in range(q**n):
        mat = []
        c = code
        for _ in range(d2):
            row = []
            for _ in range(d1):
                row.append(c % q)
                c //= q
            mat.append(row)
        if rank_mod(mat, q) == r:
            total += 1
    return total


@pytest.mark.parametrize("d1,d2", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_orbit_dim_against_point_count(d1, d2):
    # the orbit dimension is the degree of the exact-rank point count in q
    for r in range(min(d1, d2) + 1):
        poly = _rank_locus_count(d1, d2, r)
        for q in (2, 3):
            assert poly(q) == _brute_rank_count(d1, d2, r, q)
        assert len(poly.coeffs) - 1 == orbit_dim(Orbit(DimVector(d1, d2), r))


def test_dual_orbit_examples():
    assert dual_orbit(Orbit(DimVector(2, 3), 1)).r == 1
    assert dual_orbit(Orbit(DimVector(2, 2), 0)).r == 2
    assert dual_orbit(Orbit(DimVector(2, 2), 2)).r == 0


def test_dual_orbit_generic_annihilator_rank():
    # generic y with x y = 0 = y x for the canonical rank-r x has rank min - r
    rng = random.Random(11)
    for d1, d2 in [(2, 3), (3, 3), (2, 2)]:
        dim = DimVector(d1, d2)
        for r in range(min(d1, d2) + 1):
            x, _ = representative_pair(PiModClass(dim, r, 0))
            rows = []
            # unknown y is d1 x d2; equations x y = 0 (d2 x d2), y x = 0 (d1 x d1)
            for i in range(d2):
                for j in range(d2):
                    row = [Fraction(0)] * (d1 * d2)
                    for k in range(d1):
                        row[k * d2 + j] += x[i][k]
                    rows.append(row)
            for i in range(d1):
                for j in range(d1):
                    row = [Fraction(0)] * (d1 * d2)
                    for k in range(d2):
                        row[i * d2 + k] += x[k][j]
                    rows.append(row)
            basis = kernel_basis(rows)
            best = 0
            for _ in range(12):
                combo = [Fraction(rng.randint(-5, 5)) for _ in basis]
                y = [
                    [
                        sum((c * b[i * d2 + j] for c, b in zip(combo, basis)),
                            Fraction(0))
                        for j in range(d2)
                    ]
                    for i in range(d1)
                ]
                best = max(best, ratlin.rank(y))
            assert best == min(d1, d2) - r


def test_sign_parity_examples():
    assert sign_parity(Orbit(DimVector(2, 2), 1)) == -2
    assert sign_parity(Orbit(DimVector(1, 1), 1)) == 0
    assert sign_parity(Orbit(DimVector(3, 2), 2)) == 0


def test_sign_parity_closed_form_and_evenness():
    for d1 in range(9):
        for d2 in range(9):
            if d1 + d2 == 0:
                continue
            dim = DimVector(d1, d2)
            for o in enumerate_orbits(dim):
                p = sign_parity(o)
                assert p % 2 == 0
                lo = min(d1, d2)
                assert p == 2 * o.r * (o.r - lo)


def test_dual_is_involution():
    for d1 in range(6):
        for d2 in range(6):
            if d1 + d2 == 0:
                continue
            for o in enumerate_orbits(DimVector(d1, d2)):
                assert dual_orbit(dual_orbit(o)) == o


def test_orbit_dim_strictly_increasing():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            dims = [orbit_dim(o) for o in enumerate_orbits(DimVector(d1, d2))]
            assert all(a < b for a, b in zip(dims, dims[1:]))


def test_representative_pair_examples():
    x, y = representative_pair(PiModClass(DimVector(1, 1), 1, 0))
    assert x == ((1,),) and y == ((0,),)
    x, y = representative_pair(PiModClass(DimVector(1, 1), 0, 1))
    assert x == ((0,),) and y == ((1,),)
    x, y = representative_pair(PiModClass(DimVector(2, 2), 1, 1))
    assert x[0][0] == 1 and sum(v for row in x for v in row) == 1
    assert y[1][1] == 1 and sum(v for row in y for v in row) == 1


def test_representative_pair_products_vanish():
    for d1 in range(1, 6):
        for d2 in range(1, 6):
            dim = DimVector(d1, d2)
            for r in range(min(d1, d2) + 1):
                for s in range(min(d1, d2) - r + 1):
                    x, y = representative_pair(PiModClass(dim, r, s))
                    xy = ratlin.mat_mul([list(t) for t in x], [list(t) for t in y])
                    yx = ratlin.mat_mul([list(t) for t in y], [list(t) for t in x])
                    assert all(v == 0 for row in xy for v in row)
                    assert all(v == 0 for row in yx for v in row)
                    assert ratlin.rank(x) == r
                    assert ratlin.rank(y) == s


def test_invalid_classes_rejected():
    with pytest.raises(ValueError):
        Orbit(DimVector(2, 2), 3)
    with pytest.raises(ValueError):
        PiModClass(DimVector(2, 2), 2, 1)
    with pytest.raises(ValueError):
        DimVector(-1, 2)
    with pytest.raises(ValueError, match="negative dimension in \\(1, -2\\)"):
        DimVector(d1=1, d2=-2)
    with pytest.raises(ValueError, match="one value per orbit required"):
        ConstructibleFnE(DimVector(2, 2), (Fraction(1), Fraction(0)))
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(ValueError, match="incompatible matrix shapes"):
        PairPoint(((one, zero),), ((zero,),))  # x is 1 x 2, y 1 x 1
    with pytest.raises(ValueError, match="x y and y x must both vanish"):
        PairPoint(((one,),), ((one,),))
    with pytest.raises(ValueError,
                       match=r"repeated row or column in \[\(1, 1\), \(1, 2\)\]"):
        NormalFormY(frozenset({(1, 1), (1, 2)}))


def test_value_types_by_keyword_and_pickle():
    # immutable tuples whose equality is tuple equality; a worker process
    # receives them pickled
    assert DimVector(d1=1, d2=2) == DimVector(1, 2) == (1, 2)
    assert Orbit(dim=DimVector(1, 2), r=1).dim.d2 == 2
    dim = DimVector(2, 2)
    shape = flag_shape((1, 2, 2, 1))
    assert shape.packed_chart is shape.packed_chart  # cached in __dict__
    values = [dim, Orbit(dim, 1), PiModClass(dim, 1, 1),
              ConormalComponent(Orbit(dim, 1)), canonical_fn(dim, 1),
              m_coefficients(dim), transfer_matrix(dim),
              PairPoint.from_class(PiModClass(dim, 1, 1)), shape,
              NormalFormY.of((1, 1))]
    assert len({type(v) for v in values}) == 10
    for v in values:
        copy = pickle.loads(pickle.dumps(v))
        assert type(copy) is type(v) and copy == v and hash(copy) == hash(v)
        with pytest.raises(AttributeError):
            setattr(v, v._fields[0], None)


def test_conormal_component():
    comp = ConormalComponent(Orbit(DimVector(2, 3), 1))
    assert comp.dimension == 6
    assert comp.generic_class == PiModClass(DimVector(2, 3), 1, 1)
