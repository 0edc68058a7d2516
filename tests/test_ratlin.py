import math
import random
from fractions import Fraction

import pytest

from semican import ratlin

from oracles import (gauss_jordan_solve, kernel_basis, pivot_columns,
                     solve_pivoted)

F = Fraction


def _rand_matrix(rng, n, m):
    return [[F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(m)]
            for _ in range(n)]


def _apply(a, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]


def _products(rng, trials=40):
    """Matrices A.B with A n x k, B k x m of full rank k, so rank(A.B) = k."""
    for _ in range(trials):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(0, min(n, m))
        while True:
            a, b = _rand_matrix(rng, n, k), _rand_matrix(rng, k, m)
            if ratlin.rank(a) == k and ratlin.rank(b) == k:
                break
        prod = ratlin.mat_mul(a, b) if k else [[F(0)] * m for _ in range(n)]
        yield prod, k


def test_rank_of_products():
    assert ratlin.rank([[1, 2], [2, 4]]) == 1
    assert ratlin.rank([[0, 0], [0, 0]]) == 0
    assert ratlin.rank([]) == 0
    for prod, k in _products(random.Random(1)):
        assert ratlin.rank(prod) == k


def test_kernel_basis():
    for prod, k in _products(random.Random(2)):
        n_cols = len(prod[0])
        kernel = kernel_basis(prod)
        assert len(kernel) == n_cols - k
        assert ratlin.rank(kernel) == len(kernel)
        for v in kernel:
            assert all(x == 0 for x in _apply(prod, v))


def test_solve_pivoted():
    rng = random.Random(3)
    for prod, k in _products(rng):
        n_cols = len(prod[0])
        x0 = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n_cols)]
        b = _apply(prod, x0)
        x = solve_pivoted(prod, b)
        assert _apply(prod, x) == b
        pivots = pivot_columns(prod)
        assert all(x[c] == 0 for c in range(n_cols) if c not in pivots)
    # second equation is twice the first, with the wrong right-hand side
    with pytest.raises(ratlin.InconsistentSystem) as exc:
        solve_pivoted([[1, 1], [2, 2]], [1, 3])
    assert exc.value.row == 1


def test_solve_square():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = _rand_matrix(rng, n, n)
        if ratlin.rank(a) < n:
            continue
        b = _rand_matrix(rng, n, 3)
        u, s = ratlin.solve_square(a, b)
        assert s > 0
        assert ratlin.mat_mul(a, u) == [[s * x for x in row] for row in b]
    with pytest.raises(ratlin.InconsistentSystem):
        ratlin.solve_square([[1, 2], [2, 4]], [[1], [2]])
    with pytest.raises(ratlin.InconsistentSystem):
        ratlin.solve_square([[0, 0], [0, 0]], [[0], [0]])


def _rand_system(rng, n, m, fractions):
    if fractions:
        def entry():
            return F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
    else:
        def entry():
            return rng.randint(-6, 6)
    return ([[entry() for _ in range(n)] for _ in range(n)],
            [[entry() for _ in range(m)] for _ in range(n)])


def test_solve_square_matches_gauss_jordan():
    # u / s is the Fraction solution, in ints, with s the least denominator
    rng = random.Random(6)
    solved = singular = negative_pivots = 0
    for fractions in (False, True):
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(1, 4)
            a, b = _rand_system(rng, n, m, fractions)
            try:
                x = gauss_jordan_solve(a, b)
            except ValueError:
                with pytest.raises(ratlin.InconsistentSystem):
                    ratlin.solve_square(a, b)
                singular += 1
                continue
            u, s = ratlin.solve_square(a, b)
            flat = [v for row in u for v in row]
            assert type(s) is int and all(type(v) is int for v in flat)
            assert s > 0 and math.gcd(s, *flat) == 1
            assert [[F(v, s) for v in row] for row in u] == x
            solved += 1
            basis = ratlin.echelon([ra + rb for ra, rb in zip(a, b)])[1]
            negative_pivots += any(row[c] < 0 for c, row in basis)
    assert solved > 300 and singular > 0 and negative_pivots > 0
    # negative pivots by hand, and a zero right-hand side
    assert ratlin.solve_square([[-3]], [[2]]) == ([[-2]], 3)
    assert ratlin.solve_square([[-2, 0], [0, -4]], [[1], [2]]) == \
        ([[-1], [-1]], 2)
    assert ratlin.solve_square([[-5, 1], [0, 7]], [[0, 0], [0, 0]]) == \
        ([[0, 0], [0, 0]], 1)


def test_echelon_picks_earliest_independent_rows():
    a = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4], [0, 0, 5]]
    picked, basis = ratlin.echelon(a)
    assert picked == [1, 3, 5]
    assert [c for c, _ in basis] == [0, 1, 2]
    assert ratlin.echelon(a, limit=2)[0] == [1, 3]
    # each basis row is zero at the other pivot columns
    for c, row in basis:
        assert all(row[c2] == 0 for c2, _ in basis if c2 != c)
        assert row[c] != 0


def test_echelon_width_confines_pivots():
    # pivots only in the first `width` columns: the rows picked are those
    # that echelon picks on those columns alone, and read_off solves the
    # square system they form
    rng = random.Random(8)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        a = _rand_matrix(rng, rng.randint(1, 7), n)
        a += [[2 * x for x in row] for row in a[:2]]
        b = _rand_matrix(rng, len(a), m)
        aug = [ra + rb for ra, rb in zip(a, b)]
        picked, basis = ratlin.echelon(aug, n, width=n)
        assert picked == ratlin.echelon(a, n)[0]
        assert all(c < n for c, _ in basis)
        if len(picked) < n:
            with pytest.raises(ratlin.InconsistentSystem):
                ratlin.read_off(basis, n)
            continue
        assert ratlin.read_off(basis, n) == ratlin.solve_square(
            [a[i] for i in picked], [b[i] for i in picked])


def test_rows_with_denominators():
    a = [[F(1, 2), F(2, 3)], [F(3, 4), F(1)]]
    assert ratlin.rank(a) == 1
    assert kernel_basis(a) == [[F(-4, 3), F(1)]]
    assert solve_pivoted(a, [F(1, 6), F(1, 4)]) == [F(1, 3), F(0)]
    # X = [[2], [-5/3]] = [[6], [-5]] / 3
    x = ratlin.solve_square([[F(1, 2), F(0)], [F(2, 3), F(1, 5)]],
                            [[F(1)], [F(1)]])
    assert x == ([[6], [-5]], 3)
    picked, basis = ratlin.echelon([[F(1, 2), F(2, 3)], [F(3, 2), F(2)]])
    assert picked == [0] and basis == [(0, [3, 4])]
