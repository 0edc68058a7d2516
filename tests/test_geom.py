from fractions import Fraction

import pytest

from semican import ratlin
from semican.core import DimVector, Orbit, PiModClass, dual_orbit, orbit_dim
from semican.geom import (GenericityError, PairPoint, bilinear_form_B,
                          conormal_dimension, conormal_tangent,
                          expected_hessian_rank, hessian_rank_check,
                          w_regularity_sample)


def P(d1, d2, r, s):
    return PairPoint.from_class(PiModClass(DimVector(d1, d2), r, s))


def test_pairpoint_rejects_noncommuting():
    one = Fraction(1)
    zero = Fraction(0)
    with pytest.raises(ValueError):
        PairPoint(((one,),), ((one,),))  # x y = 1 != 0


def test_bilinear_form_examples():
    assert ratlin.rank(bilinear_form_B(P(1, 1, 1, 0))) == 0
    assert ratlin.rank(bilinear_form_B(P(2, 2, 1, 1))) == 2
    assert ratlin.rank(bilinear_form_B(P(2, 1, 1, 0))) == 0


def test_bilinear_form_rank_identity_exhaustive():
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            dim = DimVector(d1, d2)
            for r in range(dim.rank_bound + 1):
                p = P(d1, d2, r, dim.rank_bound - r)
                s_dim = orbit_dim(Orbit(dim, r))
                shat_dim = orbit_dim(dual_orbit(Orbit(dim, r)))
                assert ratlin.rank(bilinear_form_B(p)) == \
                    s_dim + shat_dim - d1 * d2


def test_hessian_rank_examples():
    assert expected_hessian_rank(P(1, 1, 1, 0)) == 0
    assert hessian_rank_check(P(1, 1, 1, 0))
    assert expected_hessian_rank(P(2, 2, 1, 1)) == 2
    assert hessian_rank_check(P(2, 2, 1, 1))
    assert expected_hessian_rank(P(2, 2, 0, 2)) == 0
    assert hessian_rank_check(P(2, 2, 0, 2))


def test_hessian_rank_exhaustive():
    dims = [(d1, d2) for d1 in range(1, 5) for d2 in range(1, 5)]
    for d1, d2 in dims + [(5, 5), (3, 6), (2, 6)]:
        dim = DimVector(d1, d2)
        for r in range(dim.rank_bound + 1):
            assert hessian_rank_check(P(d1, d2, r, dim.rank_bound - r))


def test_hessian_genericity_guard():
    with pytest.raises(GenericityError):
        hessian_rank_check(P(2, 2, 1, 0))


def test_conormal_tangent_examples():
    assert conormal_dimension(P(1, 1, 1, 0)) == 1
    basis = conormal_tangent(P(1, 1, 1, 0))
    # v is forced to zero, u stays free
    assert all(v == ((Fraction(0),),) for _, v in basis)
    assert conormal_dimension(P(2, 2, 1, 1)) == 4
    assert conormal_dimension(P(1, 1, 0, 0)) == 2


def test_conormal_dimension_generic_vs_not():
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            dim = DimVector(d1, d2)
            for r in range(dim.rank_bound + 1):
                assert conormal_dimension(P(d1, d2, r, dim.rank_bound - r)) \
                    == d1 * d2
    # the origin of (1,1) sits on both components: excess dimension
    assert conormal_dimension(P(1, 1, 0, 0)) == 2 > 1


def test_conormal_tangent_solutions_satisfy_equations():
    p = P(3, 2, 1, 1)
    for u, v in conormal_tangent(p):
        yu = ratlin.mat_mul([list(r) for r in p.y], [list(r) for r in u])
        vx = ratlin.mat_mul([list(r) for r in v], [list(r) for r in p.x])
        uy = ratlin.mat_mul([list(r) for r in u], [list(r) for r in p.y])
        xv = ratlin.mat_mul([list(r) for r in p.x], [list(r) for r in v])
        assert all(a + b == 0 for ra, rb in zip(yu, vx) for a, b in zip(ra, rb))
        assert all(a + b == 0 for ra, rb in zip(uy, xv) for a, b in zip(ra, rb))


def test_wreg_examples_pass():
    rep = w_regularity_sample(Orbit(DimVector(1, 1), 0),
                              Orbit(DimVector(1, 1), 1), n_samples=4, seed=1)
    assert rep.passed
    assert max(rep.max_ratios) == 0.0  # dense outer orbit: full tangent
    rep = w_regularity_sample(Orbit(DimVector(2, 2), 0),
                              Orbit(DimVector(2, 2), 1), n_samples=4, seed=1)
    assert rep.passed
    rep = w_regularity_sample(Orbit(DimVector(2, 2), 1),
                              Orbit(DimVector(2, 2), 2), n_samples=4, seed=1)
    assert rep.passed


def test_wreg_nontrivial_pair_has_bounded_nonzero_ratios():
    rep = w_regularity_sample(Orbit(DimVector(3, 3), 1),
                              Orbit(DimVector(3, 3), 2), n_samples=6, seed=2)
    assert rep.passed
    assert max(rep.max_ratios) > 0.0
    assert len(rep.scales) == 6


def test_wreg_rejects_bad_pair():
    with pytest.raises(ValueError):
        w_regularity_sample(Orbit(DimVector(2, 2), 1),
                            Orbit(DimVector(2, 2), 1))
    with pytest.raises(ValueError):
        w_regularity_sample(Orbit(DimVector(2, 2), 1),
                            Orbit(DimVector(2, 3), 2))


def test_wreg_report_serializes():
    rep = w_regularity_sample(Orbit(DimVector(2, 2), 0),
                              Orbit(DimVector(2, 2), 1), n_samples=2, seed=3)
    d = rep.to_dict()
    assert d["dim"] == [2, 2] and d["seed"] == 3
    assert len(d["max_ratios"]) == len(d["scales"])
