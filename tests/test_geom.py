import random
from fractions import Fraction

import pytest

from semican import ratlin
from semican.core import (ConormalComponent, DimVector, Orbit, PiModClass,
                          dual_orbit, enumerate_orbits, orbit_dim, pi_classes,
                          representative_pair)
from semican.geom import (GenericityError, PairPoint, _mixed_block,
                          action_rank, bilinear_form_B, conormal_dimension,
                          expected_hessian_rank, hessian_rank_check,
                          w_regularity)

from oracles import conormal_tangent, w_regularity_sample


def P(d1, d2, r, s):
    return PairPoint.from_class(PiModClass(DimVector(d1, d2), r, s))


def test_pairpoint_rejects_noncommuting():
    one = Fraction(1)
    zero = Fraction(0)
    with pytest.raises(ValueError):
        PairPoint(((one,),), ((one,),))  # x y = 1 != 0


def _all_classes(bound, lo=0):
    return [c for d1 in range(lo, bound + 1) for d2 in range(lo, bound + 1)
            for c in pi_classes(DimVector(d1, d2))]


# Oracle: the Hessian blocks built entry by entry from the Lie algebra actions
# h . x = h2 x - x h1 and h . y = h1 y - y h2 and the trace pairing.

def _gl_basis(d1, d2):
    """Standard basis of gl(d1) + gl(d2) as (side, row, col) triples."""
    return [(1, a, b) for a in range(d1) for b in range(d1)] + [
        (2, a, b) for a in range(d2) for b in range(d2)
    ]


def _act_x(h, z):
    """Action of a Lie algebra basis element on a map V1 -> V2: h2 z - z h1."""
    side, a, b = h
    d2, d1 = len(z), len(z[0]) if z else 0
    out = [[0] * d1 for _ in range(d2)]
    if side == 2:
        for j in range(d1):
            out[a][j] = z[b][j]
    else:
        for i in range(d2):
            out[i][b] = -z[i][a]
    return out


def _act_y(h, z):
    """Action on a map V2 -> V1: h1 z - z h2."""
    side, a, b = h
    d1, d2 = len(z), len(z[0]) if z else 0
    out = [[0] * d2 for _ in range(d1)]
    if side == 1:
        for j in range(d2):
            out[a][j] = z[b][j]
    else:
        for i in range(d1):
            out[i][b] = -z[i][a]
    return out


def _pair(a, b):
    """Trace pairing of a map V1 -> V2 against a map V2 -> V1."""
    return sum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(b)))


def _oracle_hessian(p):
    """(B, full): the pairing form and twice the Hessian of
    (h, k) -> <exp(h) x, exp(k) y> at 0, for a point with integer entries."""
    assert all(v.denominator == 1 for z in (p.x, p.y) for row in z for v in row)
    x, y = ([[int(v) for v in row] for row in z] for z in (p.x, p.y))
    basis = _gl_basis(p.dim.d1, p.dim.d2)
    n = len(basis)
    ux = [_act_x(h, x) for h in basis]
    vy = [_act_y(h, y) for h in basis]
    bmat = [[_pair(u, v) for v in vy] for u in ux]
    gx = [[_pair(_act_x(h, u), y) for u in ux] for h in basis]
    gy = [[_pair(x, _act_y(h, v)) for v in vy] for h in basis]
    hxx = [[gx[a][b] + gx[b][a] for b in range(n)] for a in range(n)]
    hyy = [[gy[a][b] + gy[b][a] for b in range(n)] for a in range(n)]
    full = [hxx[a] + [2 * v for v in bmat[a]] for a in range(n)] + [
        [2 * bmat[b][a] for b in range(n)] + hyy[a] for a in range(n)
    ]
    return bmat, full


def _unimodular(rng, n):
    """A seeded integer matrix of determinant 1 and its integer inverse."""
    g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    g_inv = [row[:] for row in g]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        for row in g:  # g <- g (1 + t E_ij)
            row[j] += t * row[i]
        g_inv[i] = [u - t * v for u, v in zip(g_inv[i], g_inv[j])]
    assert ratlin.mat_mul(g, g_inv) == [
        [int(i == j) for j in range(n)] for i in range(n)]
    return g, g_inv


def _conjugated(c, rng):
    """The class representative moved by a seeded (g1, g2) in GL(d1) x GL(d2):
    x -> g2 x g1^-1, y -> g1 y g2^-1."""
    p = PairPoint.from_class(c)
    g1, g1_inv = _unimodular(rng, c.dim.d1)
    g2, g2_inv = _unimodular(rng, c.dim.d2)
    x = ratlin.mat_mul(ratlin.mat_mul(g2, [list(r) for r in p.x]), g1_inv)
    y = ratlin.mat_mul(ratlin.mat_mul(g1, [list(r) for r in p.y]), g2_inv)
    return PairPoint(tuple(map(tuple, x)), tuple(map(tuple, y)))


def test_bilinear_form_matches_action_oracle():
    rng = random.Random(5)
    classes = _all_classes(4, lo=1)
    points = [PairPoint.from_class(c) for c in classes]
    points += [_conjugated(c, rng) for c in classes if c.r and c.s]
    for p in points:
        b = bilinear_form_B(p)
        bmat, full = _oracle_hessian(p)
        assert bmat == b
        assert full == [[-2 * v for v in row] + [2 * v for v in row]
                        for row in b] + [[2 * v for v in row] +
                                         [-2 * v for v in row] for row in b]
        assert ratlin.rank(b) == 2 * p.rank_x * p.rank_y
        # B = [[0, M], [M^T, 0]]: hessian_rank_check ranks M alone
        n1 = p.dim.d1 ** 2
        mixed = _mixed_block(p)
        assert [row[n1:] for row in b[:n1]] == mixed
        assert all(v == 0 for row in b[:n1] for v in row[:n1])
        assert 2 * ratlin.rank(mixed) == ratlin.rank(b)


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
    # every pair class, non-generic and zero-dimensional ones included
    for c in _all_classes(5):
        p = PairPoint.from_class(c)
        assert ratlin.rank(bilinear_form_B(p)) == 2 * c.r * c.s


def test_bilinear_form_rank_is_2rs_at_every_generic_class():
    # the mixed block of B is a column permutation of x^T (x) y, so
    # rank B = 2 rank(x) rank(y): a value ratlin.rank does not compute
    classes = [ConormalComponent(o).generic_class
               for d1 in range(7) for d2 in range(7) if d1 + d2
               for o in enumerate_orbits(DimVector(d1, d2))]
    assert len(classes) == 139
    for c in classes:
        p = PairPoint.from_class(c)
        assert ratlin.rank(bilinear_form_B(p)) == 2 * c.r * c.s, c


def test_hessian_rank_examples():
    assert expected_hessian_rank(P(1, 1, 1, 0)) == 0
    assert hessian_rank_check(P(1, 1, 1, 0))
    assert expected_hessian_rank(P(2, 2, 1, 1)) == 2
    assert hessian_rank_check(P(2, 2, 1, 1))
    assert expected_hessian_rank(P(2, 2, 0, 2)) == 0
    assert hessian_rank_check(P(2, 2, 0, 2))


def test_hessian_rank_exhaustive():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            dim = DimVector(d1, d2)
            for r in range(dim.rank_bound + 1):
                assert hessian_rank_check(P(d1, d2, r, dim.rank_bound - r))


def test_hessian_rank_check_ranks_x_and_y_once(monkeypatch):
    # x, y, the conormal rows and the mixed block: four exact ranks per
    # generic class, and still the verdict of the uncounted check
    real, calls = ratlin.rank, []

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(ratlin, "rank", counted)
    for d1, d2 in ((1, 1), (2, 3), (4, 4)):
        dim = DimVector(d1, d2)
        for r in range(dim.rank_bound + 1):
            calls.clear()
            assert hessian_rank_check(P(d1, d2, r, dim.rank_bound - r))
            assert len(calls) == 4, (d1, d2, r)


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


def test_conormal_dimension_is_tangent_basis_size():
    for c in _all_classes(4):
        p = PairPoint.from_class(c)
        assert conormal_dimension(p) == len(conormal_tangent(p)), c


def test_conormal_tangent_solutions_satisfy_equations():
    p = P(3, 2, 1, 1)
    for u, v in conormal_tangent(p):
        yu = ratlin.mat_mul([list(r) for r in p.y], [list(r) for r in u])
        vx = ratlin.mat_mul([list(r) for r in v], [list(r) for r in p.x])
        uy = ratlin.mat_mul([list(r) for r in u], [list(r) for r in p.y])
        xv = ratlin.mat_mul([list(r) for r in p.x], [list(r) for r in v])
        assert all(a + b == 0 for ra, rb in zip(yu, vx) for a, b in zip(ra, rb))
        assert all(a + b == 0 for ra, rb in zip(uy, xv) for a, b in zip(ra, rb))


def test_action_rank_is_orbit_dim_at_every_point():
    # at the representatives, and at random integer matrices of every rank:
    # each rank stratum is one orbit, of dimension r (d1 + d2 - r)
    rng = random.Random(5)
    for d1 in range(5):
        for d2 in range(5):
            dim = DimVector(d1, d2)
            for r in range(dim.rank_bound + 1):
                rep = representative_pair(PiModClass(dim, r, 0))[0]
                assert ratlin.rank(rep) == r
                assert action_rank(rep) == orbit_dim(Orbit(dim, r))
            for _ in range(3):
                z = [[rng.randint(-2, 2) for _ in range(d1)]
                     for _ in range(d2)]
                r = ratlin.rank(z)
                assert action_rank(z) == orbit_dim(Orbit(dim, r)), z


def test_w_regularity_reports():
    reports, failed = w_regularity(DimVector(2, 3))
    assert failed == []
    assert reports == [
        {"inner_rank": 0, "outer_rank": 1, "inner_tangent_rank": 0,
         "line_ranks": [1, 1, 1], "outer_tangent_ranks": [4, 4, 4],
         "passed": True},
        {"inner_rank": 0, "outer_rank": 2, "inner_tangent_rank": 0,
         "line_ranks": [2, 2, 2], "outer_tangent_ranks": [6, 6, 6],
         "passed": True},
        {"inner_rank": 1, "outer_rank": 2, "inner_tangent_rank": 4,
         "line_ranks": [2, 2, 2], "outer_tangent_ranks": [6, 6, 6],
         "passed": True},
    ]
    # one orbit and no pair
    assert w_regularity(DimVector(0, 3)) == ([], [])


def test_w_regularity_passes_up_to_6x6():
    for d1 in range(7):
        for d2 in range(7):
            reports, failed = w_regularity(DimVector(d1, d2))
            assert not failed and all(r["passed"] for r in reports)
            n = min(d1, d2) + 1
            assert len(reports) == n * (n - 1) // 2


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
