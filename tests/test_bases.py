import math
import random
import re
from fractions import Fraction

import pytest

import semican.bases as bases
from semican import ratlin
from semican.bases import (ConjectureViolation, ConstructibleFnE,
                           ExpansionMatrix, SpanningError, canonical_fn,
                           cc_multiplicities, lift_failures, m_coefficients,
                           pi_classes, sandwich_rows, sandwich_words,
                           transfer_matrix)
from semican.core import DimVector, PiModClass
from semican.qcount import euler_counts, word_content

from oracles import (express_in_monomials, first_sweep_mismatch, gauss_binom,
                     kernel_basis, monomial_matrix, smallness_check,
                     spanning_words, transpose)


def _row(dim, word):
    return euler_counts(word, dim, "E")


def _lift(f, rows=None):
    """Pair-side values of the lift of f, keyed by class (r, s)."""
    values = transfer_matrix(f.dim, rows).apply(f.values)
    return {(c.r, c.s): v for c, v in zip(pi_classes(f.dim), values)}


# ---------------------------------------------------------------------------
# words


def test_spanning_words_contents():
    assert sandwich_words(DimVector(0, 0)) == [()]
    assert sandwich_words(DimVector(1, 1)) == \
        spanning_words(DimVector(1, 1)) == [((1, 1), (2, 1)), ((2, 1), (1, 1))]
    # grouped sandwiches, and the oracle's sweep adds every composition
    words22 = sandwich_words(DimVector(2, 2))
    assert words22 == [((1, 1), (2, 2), (1, 1)), ((1, 2), (2, 2)),
                       ((2, 1), (1, 2), (2, 1)), ((2, 2), (1, 2))]
    for dim in [DimVector(2, 2), DimVector(3, 2)]:
        words = spanning_words(dim)
        assert set(sandwich_words(dim)) <= set(words)
        assert sum(all(m == 1 for _, m in w) for w in words) == \
            math.comb(dim.total, dim.d1)
        for w in words:
            assert word_content(w) == (dim.d1, dim.d2)


def test_monomial_word_validation():
    for word in (((3, 1),), ((1, 0), (1, 1))):
        with pytest.raises(ValueError, match="malformed"):
            euler_counts(word, DimVector(1, 0), "E")


# ---------------------------------------------------------------------------
# monomial matrices


def test_monomial_matrix_examples():
    dim = DimVector(1, 1)
    assert _row(dim, ((2, 1), (1, 1))) == [1, 1]
    assert _row(dim, ((1, 1), (2, 1))) == [1, 0]
    dim = DimVector(2, 1)
    assert _row(dim, ((2, 1), (1, 1), (1, 1))) == [2, 2]
    assert _row(dim, ((1, 1), (1, 1), (2, 1))) == [2, 0]


# ---------------------------------------------------------------------------
# canonical stalk functions


def test_canonical_fn_examples():
    f = canonical_fn(DimVector(2, 2), 1)
    assert f.values == (Fraction(2), Fraction(1), Fraction(0))
    for d1, d2 in [(1, 1), (2, 2), (2, 3), (3, 2)]:
        dim = DimVector(d1, d2)
        top = canonical_fn(dim, dim.rank_bound)
        assert all(v == 1 for v in top.values)
    f = canonical_fn(DimVector(2, 1), 0)
    assert f.values == (Fraction(1), Fraction(0))


def test_canonical_fn_grassmannian_cross_oracle():
    # stalk values coincide with resolution-fiber point counts at q = 1
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            dim = DimVector(d1, d2)
            n = min(d1, d2)
            for r in range(n + 1):
                f = canonical_fn(dim, r)
                for rp in range(n + 1):
                    if rp > r:
                        assert f.value(rp) == 0
                    elif d1 <= d2:
                        assert f.value(rp) == gauss_binom(d1 - rp, d1 - r).at_one()
                    else:
                        assert f.value(rp) == gauss_binom(d2 - rp, d2 - r).at_one()


def test_smallness_check_examples():
    assert smallness_check(DimVector(2, 2), 1, "ker") is True
    assert smallness_check(DimVector(3, 1), 1, "ker") is False
    assert smallness_check(DimVector(3, 1), 1, "coker") is True
    assert smallness_check(DimVector(1, 1), 1, "ker") is True
    assert smallness_check(DimVector(1, 1), 1, "coker") is True


def test_one_side_always_small():
    # canonical_fn needs a small resolution on one side for every rank: for
    # d1 <= d2 the ker-side condition reduces to d2 - d1 + r - r' > 0
    for d1 in range(9):
        for d2 in range(9):
            dim = DimVector(d1, d2)
            small = "ker" if d1 <= d2 else "coker"
            for r in range(dim.rank_bound + 1):
                assert smallness_check(dim, r, small), (dim, r)


# ---------------------------------------------------------------------------
# expansion and inversion


def test_express_in_monomials_examples():
    dim = DimVector(1, 1)
    words = spanning_words(dim)
    one = ConstructibleFnE(dim, (Fraction(1), Fraction(1)))
    coeffs = dict(zip(words, express_in_monomials(one, words)))
    assert coeffs[((2, 1), (1, 1))] == 1
    assert coeffs[((1, 1), (2, 1))] == 0
    origin = ConstructibleFnE(dim, (Fraction(1), Fraction(0)))
    coeffs = dict(zip(words, express_in_monomials(origin, words)))
    assert coeffs[((1, 1), (2, 1))] == 1
    assert coeffs[((2, 1), (1, 1))] == 0


def test_express_solution_property():
    # whatever pivots picked, the coefficients must reproduce f on every orbit
    rng = random.Random(3)
    for d1, d2 in [(2, 1), (2, 2), (3, 2)]:
        dim = DimVector(d1, d2)
        words = spanning_words(dim)
        mat = monomial_matrix(dim, words, "E")
        for _ in range(5):
            f = ConstructibleFnE(
                dim,
                tuple(Fraction(rng.randint(-4, 4))
                      for _ in range(dim.rank_bound + 1)),
            )
            coeffs = express_in_monomials(f, words)
            for r in range(dim.rank_bound + 1):
                got = sum((c * mat[i][r] for i, c in enumerate(coeffs)),
                          Fraction(0))
                assert got == f.value(r)


def test_half_coefficient_solution_verifies():
    # (2,1): the constant function equals half the value row of one word
    dim = DimVector(2, 1)
    row = _row(dim, ((2, 1), (1, 1), (1, 1)))
    assert [Fraction(1, 2) * v for v in row] == [Fraction(1), Fraction(1)]


def test_spanning_error_names_missing_orbits():
    dim = DimVector(1, 1)
    one = ConstructibleFnE(dim, (Fraction(1), Fraction(1)))
    with pytest.raises(SpanningError) as exc:
        express_in_monomials(one, [((1, 1), (2, 1))])
    assert exc.value.dim == dim and exc.value.missing == [1]


def test_psi_inverse_examples():
    # the lift psi^{-1} is the transfer matrix applied to the E-side values
    dim = DimVector(1, 1)
    one = ConstructibleFnE(dim, (Fraction(1), Fraction(1)))
    assert _lift(one) == {(0, 0): 1, (1, 0): 1, (0, 1): 0}
    origin = ConstructibleFnE(dim, (Fraction(1), Fraction(0)))
    assert _lift(origin) == {(0, 0): 1, (1, 0): 0, (0, 1): 1}


def test_section_identity_exhaustive():
    # restriction to classes with vanishing second rank recovers the input
    rng = random.Random(9)
    for d1 in range(1, 4):
        for d2 in range(1, 4):
            dim = DimVector(d1, d2)
            mat = monomial_matrix(dim, spanning_words(dim), "E")
            for row in mat:
                f = ConstructibleFnE(dim, tuple(row))
                lifted = _lift(f)
                for r in range(dim.rank_bound + 1):
                    assert lifted[r, 0] == f.value(r)
            for _ in range(3):
                f = ConstructibleFnE(
                    dim,
                    tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(dim.rank_bound + 1)),
                )
                lifted = _lift(f)
                for r in range(dim.rank_bound + 1):
                    assert lifted[r, 0] == f.value(r)


def test_kernel_invariance():
    # every vector of a basis of the kernel of the E-side matrix kills the
    # pair-side matrix too, hence so does every kernel vector
    for d1 in range(1, 4):
        for d2 in range(1, 4):
            dim = DimVector(d1, d2)
            words = spanning_words(dim)
            mat_e = monomial_matrix(dim, words, "E")
            mat_pi = monomial_matrix(dim, words, "Pi")
            basis = kernel_basis(transpose(mat_e))
            assert len(basis) == len(words) - ratlin.rank(mat_e)
            for vec in basis:
                for col in zip(*mat_pi):
                    assert sum(v * c for v, c in zip(vec, col)) == 0


def test_lift_independent_of_solution():
    # different word orders change the pivoted rows, not the lift
    for d1, d2 in [(2, 1), (2, 2), (3, 2)]:
        dim = DimVector(d1, d2)
        reversed_rows = {
            sub: (mat_e[::-1], mat_pi[::-1])
            for sub, (mat_e, mat_pi) in sandwich_rows(dim).items()}
        f = canonical_fn(dim, dim.rank_bound - 1)
        assert _lift(f) == _lift(f, reversed_rows)


def test_transfer_matrix_integral_with_identity_section():
    dim = DimVector(5, 5)
    t = transfer_matrix(dim)
    assert t.mismatch is None
    assert type(t.scale) is int and all(type(v) is int for row in t.u
                                        for v in row)
    assert all(v.denominator == 1 for row in t.entries for v in row)
    classes = pi_classes(dim)
    for r in range(dim.rank_bound + 1):
        j = classes.index(PiModClass(dim, r, 0))
        assert [row[j] for row in t.entries] == \
            [1 if rp == r else 0 for rp in range(dim.rank_bound + 1)]
    assert t.section_failures() == []


def test_transfer_matrix_passes_the_word_sweep():
    # the intertwining identities imply mat_pi = mat_e . T on every word;
    # the oracle checks that row by row on compositions and sandwiches
    for d1 in range(7):
        for d2 in range(7):
            dim = DimVector(d1, d2)
            t = transfer_matrix(dim)
            assert t.mismatch is None, dim
            assert first_sweep_mismatch(t, spanning_words(dim)) is None, dim


def _sides(witness):
    lhs, rhs = witness.rpartition(": ")[2].split(" != ")
    return Fraction(lhs), Fraction(rhs)


def test_transfer_matrix_witnesses(monkeypatch):
    dim = DimVector(2, 2)
    rows = sandwich_rows(dim)

    # one corrupted pair-side count in the first sandwich row, which the
    # solve always picks: T_(2,2) is off, so the identities that peel a
    # letter off (2, 2) fail, and so does the word sweep
    mat_e, mat_pi = rows[dim]
    j = pi_classes(dim).index(PiModClass(dim, 0, 2))
    mat_pi = [list(row) for row in mat_pi]
    mat_pi[0][j] += 1
    t = transfer_matrix(dim, {**rows, dim: (mat_e, mat_pi)})
    assert t.mismatch.startswith("dim (2,2), letter ")
    lhs, rhs = _sides(t.mismatch)
    assert lhs != rhs
    assert first_sweep_mismatch(t, spanning_words(dim)) is not None
    assert t.section_failures() == []
    with pytest.raises(ConjectureViolation,
                       match=re.escape(f"kernel_invariance ({t.mismatch})")):
        cc_multiplicities(dim, transfer=t)

    # one corrupted pair-side step count at the sub-dimension (3, 3) of
    # (4, 3), of a single or a grouped letter: the rows, and so T, stay
    # right, and that letter's identity catches it
    real = bases.step_matrix
    for letter, witness in [
            ((2, 1), "dim (3,3), letter 2^1, orbit 0, class (0,0): 4 != 3"),
            ((1, 2), "dim (3,3), letter 1^2, orbit 0, class (0,0): ")]:

        def corrupted(sub, vertex, b, side, letter=letter):
            steps = real(sub, vertex, b, side)
            if (sub, (vertex, b), side) != (DimVector(3, 3), letter, "Pi"):
                return steps
            (child, n), *rest = steps[0]
            return (((child, n + 1), *rest),) + steps[1:]

        monkeypatch.setattr(bases, "step_matrix", corrupted)
        assert transfer_matrix(DimVector(4, 3)).mismatch.startswith(witness)
    monkeypatch.undo()

    truncated = {sub: (mat_e[:1], mat_pi[:1]) for sub, (mat_e, mat_pi)
                 in sandwich_rows(DimVector(1, 1)).items()}
    with pytest.raises(SpanningError) as exc:
        transfer_matrix(DimVector(1, 1), truncated)
    assert exc.value.dim == DimVector(1, 1) and exc.value.missing == [1]


def test_cc_multiplicities_checks_the_section_identity():
    # a doubled (1, 0) column of T with no broken identity: only the section
    # identity catches it, in cc_multiplicities as in verify
    dim = DimVector(2, 2)
    t = transfer_matrix(dim)
    j = pi_classes(dim).index(PiModClass(dim, 1, 0))
    t = t._replace(u=tuple(
        row[:j] + (2 * row[j],) + row[j + 1:] for row in t.u))
    assert t.mismatch is None
    assert lift_failures(t) == ["section_identity (r=1)"]
    with pytest.raises(ConjectureViolation,
                       match=re.escape("section_identity (r=1)")):
        cc_multiplicities(dim, transfer=t)


# ---------------------------------------------------------------------------
# m and n


def test_m_matrix_hand_oracles():
    # m is exactly the identity at every dimension vector up to (6, 6); a
    # lift that keeps m unitriangular but not the identity fails here
    dims = [DimVector(d1, d2) for d1 in range(7) for d2 in range(7)
            if d1 + d2]
    assert len(dims) == 48
    for dim in dims:
        m = m_coefficients(dim)
        n = m.size
        for i in range(n):
            for j in range(n):
                assert m.entry(i, j) == (1 if i == j else 0), (dim, i, j)


def test_m_matrix_structure():
    for d1 in range(1, 4):
        for d2 in range(1, 4):
            m = m_coefficients(DimVector(d1, d2))
            assert m.first_bad_entry() is None


def test_first_bad_entry_examples():
    def mat(*rows):
        return ExpansionMatrix(DimVector(1, 1), tuple(
            tuple(Fraction(v) for v in row) for row in rows))

    assert mat((1, 3), (0, 1)).first_bad_entry(nonnegative=True) is None
    assert mat((1, -1), (0, 1)).first_bad_entry() is None
    assert mat((1, -1), (0, 1)).first_bad_entry(nonnegative=True) == (0, 1)
    assert mat((1, 0), ("1/2", 1)).first_bad_entry() == (1, 0)
    assert mat((1, "1/2"), (0, 2)).first_bad_entry() == (0, 1)
    assert mat((2, 0), (1, 1)).first_bad_entry() == (0, 0)


def test_m_matches_monomial_expansion_oracle():
    # m through T equals stalk functions expressed in monomials and summed
    # against the pair-side matrix at the generic classes
    for d1 in range(4):
        for d2 in range(4):
            if d1 + d2 == 0:
                continue
            dim = DimVector(d1, d2)
            words = spanning_words(dim)
            mat_pi = monomial_matrix(dim, words, "Pi")
            classes = pi_classes(dim)
            bound = dim.rank_bound
            m = m_coefficients(dim)
            for r in range(bound + 1):
                coeffs = express_in_monomials(canonical_fn(dim, r), words)
                for rp in range(bound + 1):
                    j = classes.index(PiModClass(dim, rp, bound - rp))
                    expected = sum((c * row[j] for c, row in zip(coeffs, mat_pi)),
                                   Fraction(0))
                    assert m.entry(rp, r) == expected


def test_cc_multiplicities():
    for d1, d2 in [(1, 1), (2, 1)]:
        n = cc_multiplicities(DimVector(d1, d2))
        for i in range(n.size):
            for j in range(n.size):
                assert n.entry(i, j) == (1 if i == j else 0)
    for d1 in range(1, 4):
        for d2 in range(1, 4):
            n = cc_multiplicities(DimVector(d1, d2))
            for i in range(n.size):
                assert n.entry(i, i) == 1
                for j in range(n.size):
                    assert n.entry(i, j) >= 0
                    assert n.entry(i, j).denominator == 1


def test_conjecture_violation_is_raised():
    # a deliberately broken expansion matrix must not validate
    import semican.bases as bases

    fake_m = ExpansionMatrix(DimVector(1, 1), (
        (Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(2))))

    real = bases.m_coefficients
    bases.m_coefficients = lambda *args, **kwargs: fake_m
    try:
        with pytest.raises(ConjectureViolation):
            cc_multiplicities(DimVector(1, 1))
    finally:
        bases.m_coefficients = real
