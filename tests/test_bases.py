import gc
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

import semican.bases as bases
from semican import qcount, ratlin
from semican.bases import (ConjectureViolation, ConstructibleFnE,
                           ExpansionMatrix, SpanningError, canonical_fn,
                           cc_multiplicities, lift_failures, m_coefficients,
                           resolution_rows, resolution_words, transfer_matrix)
from semican.core import DimVector, PiModClass, pi_classes
from semican.qcount import euler_counts, step_matrix

from oracles import (every_sandwich_rows, express_in_monomials,
                     first_broken_identity, first_sweep_mismatch,
                     gauss_binom, kernel_basis, lift_values, monomial_matrix,
                     sandwich_words, smallness_check, spanning_words,
                     transfer_entries, transpose, two_pass_transfer,
                     word_content, word_counts)


def _row(dim, word):
    return euler_counts(word, dim, "E")


def _lift(f, rows=None):
    """Pair-side values of the lift of f, keyed by class (r, s)."""
    values = lift_values(transfer_matrix(f.dim, rows), f.values)
    return {(c.r, c.s): v for c, v in zip(pi_classes(f.dim), values)}


# ---------------------------------------------------------------------------
# words


def test_resolution_words_contents():
    assert resolution_words(DimVector(0, 0)) == [()]
    assert resolution_words(DimVector(1, 1)) == [(1, 2), (2, 1)]
    assert resolution_words(DimVector(2, 3)) == [
        (1, 1, 2, 2, 2), (1, 2, 2, 2, 1), (2, 2, 2, 1, 1)]
    assert resolution_words(DimVector(3, 2)) == [
        (1, 1, 1, 2, 2), (2, 1, 1, 1, 2), (2, 2, 1, 1, 1)]
    assert resolution_words(DimVector(0, 3)) == [(2, 2, 2)]
    assert resolution_words(DimVector(2, 0)) == [(1, 1)]


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
    for word in (((3, 1),), ((1, 0), (1, 1)), (3,), (1, 0), ((1, 1),)):
        with pytest.raises(ValueError, match="malformed"):
            euler_counts(word, DimVector(1, 0), "E")


# ---------------------------------------------------------------------------
# monomial matrices


def test_monomial_matrix_examples():
    dim = DimVector(1, 1)
    assert _row(dim, (2, 1)) == [1, 1]
    assert _row(dim, (1, 2)) == [1, 0]
    dim = DimVector(2, 1)
    assert _row(dim, (2, 1, 1)) == [2, 2]
    assert _row(dim, (1, 1, 2)) == [2, 0]


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


def test_canonical_fn_rejects_ranks_out_of_range():
    # the rank is checked before the resolution word is picked, so -1 does
    # not read the last orbit's function
    for dim, r in [(DimVector(2, 2), -1), (DimVector(2, 2), 3),
                   (DimVector(2, 2), 5), (DimVector(3, 1), 2),
                   (DimVector(0, 0), 1)]:
        with pytest.raises(ValueError, match=re.escape(
                f"rank {r} out of range for {dim}")):
            canonical_fn(dim, r)


def _binom(n, k):
    return math.comb(n, k) if k >= 0 else 0


def test_resolution_rows_are_the_fibre_counts():
    # the count rows of w_r are (k - r)! K! r! times the points of its
    # resolution fibre at q = 1: C(k - r', k - r) over the rank-r' orbit,
    # and C(k - r_x - s, k - r - s) over the pair class (r_x, s), the
    # subspaces between im y and ker x (or their mirror when d1 > d2)
    cases = 0
    for d1 in range(9):
        for d2 in range(9):
            dim = DimVector(d1, d2)
            k, big = dim.rank_bound, max(d1, d2)
            for r, w in enumerate(resolution_words(dim)):
                flags = (math.factorial(k - r) * math.factorial(big)
                         * math.factorial(r))
                assert euler_counts(w, dim, "E") == \
                    [flags * _binom(k - rp, k - r) for rp in range(k + 1)]
                pair = euler_counts(w, dim, "Pi")
                assert pair == [flags * _binom(k - c.r - c.s, k - r - c.s)
                                for c in pi_classes(dim)], (dim, r)
                cases += len(pair)
    assert cases == 4587


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
    row = _row(dim, (2, 1, 1))
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


def test_lift_independent_of_solution(monkeypatch):
    # reversed sandwich rows change the pivoted rows, not the T that any
    # sub-dimension's own rows give; reversed identity equations at the
    # diagonal, or reversed E rows of dim, change neither T nor the lift
    for d1, d2 in [(2, 1), (2, 2), (3, 2)]:
        dim = DimVector(d1, d2)
        for sub, (mat_e, mat_pi) in every_sandwich_rows(dim).items():
            assert two_pass_transfer(sub, mat_e[::-1], mat_pi[::-1]) == \
                two_pass_transfer(sub, mat_e, mat_pi), sub
        f = canonical_fn(dim, dim.rank_bound - 1)
        want = transfer_matrix(dim)
        assert _lift(f) == _lift(f, resolution_rows(dim)[::-1])
        real = bases._spanning_basis
        monkeypatch.setattr(bases, "_spanning_basis",
                            lambda sub, rows: real(sub, rows[::-1]))
        assert transfer_matrix(dim) == want
        assert want.mismatch is None
        monkeypatch.undo()


def test_transfer_matrix_integral_with_identity_section():
    dim = DimVector(5, 5)
    t = transfer_matrix(dim)
    assert t.mismatch is None
    assert type(t.scale) is int and all(type(v) is int for row in t.u
                                        for v in row)
    entries = transfer_entries(t)
    assert all(v.denominator == 1 for row in entries for v in row)
    classes = pi_classes(dim)
    for r in range(dim.rank_bound + 1):
        j = classes.index(PiModClass(dim, r, 0))
        assert [row[j] for row in entries] == \
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
    real = bases.step_matrix

    def corrupting(at, letter, cls=0, entry=0):
        # one pair-side step count of `letter` at `at`, class index `cls`,
        # off by one
        def corrupted(sub, vertex, side):
            steps = real(sub, vertex, side)
            if (sub, (vertex, 1), side) != (at, letter, "Pi"):
                return steps
            row = list(steps[cls])
            child, n = row[entry]
            row[entry] = (child, n + 1)
            return steps[:cls] + (tuple(row),) + steps[cls + 1:]
        return corrupted

    # one corrupted pair-side count of 1^1 at class (1, 1) of the diagonal
    # (2, 2), which T_(2,2) is solved from: T_(2,2) is off, the identities
    # there no longer fit it, and the word sweep over the true counts fails
    dim = DimVector(2, 2)
    j = pi_classes(dim).index(PiModClass(dim, 1, 1))
    monkeypatch.setattr(bases, "step_matrix", corrupting(dim, (1, 1), j))
    t = transfer_matrix(dim)
    monkeypatch.undo()
    assert t.mismatch == \
        "dim (2,2), letter 2^1, orbit 0, class (1,1): 1 != 2"
    lhs, rhs = _sides(t.mismatch)
    assert lhs != rhs
    assert first_sweep_mismatch(t, spanning_words(dim)) is not None
    assert t.section_failures() == []
    with pytest.raises(ConjectureViolation,
                       match=re.escape(f"kernel_invariance ({t.mismatch})")):
        cc_multiplicities(dim, transfer=t)

    # the step rules are the model the identities check: a corrupted count
    # that one T still fits at every D <= (2, 2) breaks no identity, and
    # only the word sweep over the true counts (and, in tier 1, the
    # q-polynomial oracle of the step rules) sees it
    j = pi_classes(dim).index(PiModClass(dim, 0, 2))
    monkeypatch.setattr(bases, "step_matrix", corrupting(dim, (1, 1), j))
    t = transfer_matrix(dim)
    monkeypatch.undo()
    assert t.mismatch is None and t.section_failures() == []
    assert first_sweep_mismatch(t, spanning_words(dim)) is not None

    # one corrupted pair-side step count at the diagonal (3, 3) of (4, 3),
    # of either single letter: both feed the solve of T_(3,3), so the
    # identities at (3, 3) fail whichever letter it is, and a corrupted 1^1
    # also moves the section column (0, 0)
    for letter, witness, section in [
            ((2, 1), "dim (3,3), letter 2^1, orbit 0, class (0,0): 4 != 3",
             []),
            ((1, 1), "dim (3,3), letter 2^1, orbit 0, class (0,0): 3 != 4",
             [0])]:
        monkeypatch.setattr(bases, "step_matrix",
                            corrupting(DimVector(3, 3), letter))
        t = transfer_matrix(DimVector(4, 3))
        assert (t.mismatch, t.section_failures()) == (witness, section)
    monkeypatch.undo()

    truncated = resolution_rows(DimVector(1, 1))[:1]
    with pytest.raises(SpanningError) as exc:
        transfer_matrix(DimVector(1, 1), truncated)
    assert exc.value.dim == DimVector(1, 1) and exc.value.missing == [1]


def test_resolution_rows_match_euler_counts():
    # the rows are the oracle's E-side rows of the resolution words, of dim
    # alone, and each is prod b! times the row of its grouped form
    for dim in [DimVector(6, 6), DimVector(6, 3), DimVector(2, 5)]:
        rows = resolution_rows(dim)
        words = resolution_words(dim)
        assert len(rows) == len(words) == dim.rank_bound + 1
        for w, row in zip(words, rows):
            single = tuple((v, 1) for v in w)
            grouped = tuple((v, len(list(run)))
                            for v, run in itertools.groupby(w))
            flags = math.prod(math.factorial(b) for _, b in grouped)
            assert row == word_counts(single, dim, "E"), (dim, w)
            assert row == [flags * n for n in word_counts(grouped, dim, "E")]


def _solved_diagonal(k):
    """(u, scale) of T_(j,j) for every j <= k, solved as transfer_matrix
    solves them."""
    solved = [([[1]], 1)]
    for j in range(1, k + 1):
        solved.append(bases._solve_diagonal(j, *solved[-1]))
    return solved


def test_one_elimination_matches_two_passes():
    # one elimination of the identity equations at each diagonal (k, k)
    # gives the (u, scale) of picking (k, k)'s own sandwich rows by echelon
    # and then solve_square
    rows = every_sandwich_rows(DimVector(8, 8))
    for k, solved in enumerate(_solved_diagonal(8)):
        sub = DimVector(k, k)
        assert solved == two_pass_transfer(sub, *rows[sub]), sub
    # rank-deficient E rows: the same SpanningError, with the same ranks
    rows = every_sandwich_rows(DimVector(4, 3))
    cases = 0
    for sub, (mat_e, mat_pi) in rows.items():
        n_orbits = sub.rank_bound + 1
        keeps = [list(range(k)) for k in range(n_orbits)]
        keeps.append(list(range(1, len(mat_e), 2)))
        keeps.append([0] * len(mat_e))
        for keep in keeps:
            e, p = [mat_e[i] for i in keep], [mat_pi[i] for i in keep]
            try:
                two_pass_transfer(sub, e, p)
            except SpanningError as exc:
                with pytest.raises(SpanningError) as got:
                    transfer_matrix(sub, e)
                assert got.value.dim == exc.dim == sub
                assert got.value.missing == exc.missing, (sub, keep)
                cases += 1
            else:
                assert transfer_matrix(sub, e) == transfer_matrix(sub)
    assert cases > 20


def test_transfer_matrix_closed_form():
    # at every rank bound k <= 24 the solved T has scale 1 and
    # T[r'][(r, s)] = (-1)^(r' - r) C(s, r' - r), zero for r' < r
    for k, (u, scale) in enumerate(_solved_diagonal(24)):
        assert scale == 1, k
        want = [[(-1) ** (rp - r) * math.comb(s, rp - r) if rp >= r else 0
                 for r, s in qcount._pi_index(k)]
                for rp in range(k + 1)]
        assert u == want, k


def test_rank_deficient_identities_raise_spanning_error(monkeypatch):
    # with the E step of 2^1 at (k, k) dropping rank k, no equation there
    # holds the row of rank k, and the solve names (k, k)
    real = bases.step_matrix
    for k in range(1, 5):
        at = DimVector(k, k)

        def dropping(sub, vertex, side, at=at, k=k):
            steps = real(sub, vertex, side)
            if (sub, vertex, side) != (at, 2, "E"):
                return steps
            return steps[:k] + ((),)

        monkeypatch.setattr(bases, "step_matrix", dropping)
        for dim in [DimVector(4, 4), DimVector(5, 4)]:
            with pytest.raises(SpanningError) as exc:
                transfer_matrix(dim)
            assert exc.value.dim == at and exc.value.missing == [k], dim
        monkeypatch.undo()


def test_one_solve_per_rank_bound_matches_every_own_solve(monkeypatch):
    # T is solved once per rank bound k, at (k, k), and every D <= dim is
    # checked with the T of min(D); at every D <= (8, 8) that is the T that
    # D's own sandwich rows give.  dim's E rows take one more elimination,
    # for spanning
    calls = {}

    def recording(module, name):
        real = getattr(module, name)

        def record(*args, **kwargs):
            calls.setdefault(name, []).append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, record)

    recording(bases, "_solve_diagonal")
    recording(bases, "_first_broken_identity")
    recording(ratlin, "echelon")
    for dim in [DimVector(8, 8), DimVector(3, 6)]:
        calls.clear()
        assert transfer_matrix(dim).mismatch is None
        k = dim.rank_bound
        assert calls["_solve_diagonal"] == list(range(1, k + 1))
        assert len(calls["echelon"]) == k + 1
        (scaled,) = calls["_first_broken_identity"]
        oracle = every_sandwich_rows(dim)
        assert list(scaled) == list(oracle)
        for sub, (mat_e, mat_pi) in oracle.items():
            assert scaled[sub] == two_pass_transfer(sub, mat_e, mat_pi), sub


def test_spanning_checked_at_an_off_diagonal_dim(monkeypatch):
    # dim = (3, 2) solves nothing at (3, 2), but m reads its stalk
    # functions from its resolution E rows, so a truncated set of them fails
    dim = DimVector(3, 2)
    rows = resolution_rows(dim)
    oracle_e, oracle_pi = every_sandwich_rows(dim)[dim]
    with pytest.raises(SpanningError) as want:
        two_pass_transfer(dim, oracle_e[:1], oracle_pi[:1])
    with pytest.raises(SpanningError) as exc:
        transfer_matrix(dim, rows[:1])
    assert exc.value.dim == dim
    assert exc.value.missing == want.value.missing == [1, 2]
    # a rank-deficient diagonal sub-dimension fails first, in (d1, d2) order
    real = bases.step_matrix

    def dropping(sub, vertex, side):
        steps = real(sub, vertex, side)
        if (sub, vertex, side) != (DimVector(1, 1), 2, "E"):
            return steps
        return steps[:1] + ((),)

    monkeypatch.setattr(bases, "step_matrix", dropping)
    with pytest.raises(SpanningError) as exc:
        transfer_matrix(dim, rows[:1])
    assert exc.value.dim == DimVector(1, 1) and exc.value.missing == [1]


def _scaled(dim):
    return {sub: two_pass_transfer(sub, mat_e, mat_pi)
            for sub, (mat_e, mat_pi) in every_sandwich_rows(dim).items()}


def test_identity_witness_matches_entry_scan(monkeypatch):
    # the whole-matrix comparison names the same first failing entry, in
    # the same text, as the entry-by-entry scan of the oracle over single
    # letters
    scaled = _scaled(DimVector(4, 3))
    assert bases._first_broken_identity(scaled) is None
    # every grouped letter's identity holds too
    assert first_broken_identity(scaled) is None
    # the same T_D over the scale 2 still passes
    doubled = {**scaled, DimVector(2, 2): (
        [[2 * x for x in row] for row in scaled[DimVector(2, 2)][0]], 2)}
    assert bases._first_broken_identity(doubled) is None
    assert first_broken_identity(doubled) is None

    witnesses = set()
    for base in (scaled, doubled):
        for sub in [DimVector(0, 0), DimVector(1, 0), DimVector(1, 1),
                    DimVector(2, 2), DimVector(3, 1), DimVector(4, 3)]:
            u, scale = base[sub]
            rows, cols = len(u) - 1, len(u[0]) - 1
            # one entry, or two in different rows and columns, so that the
            # failing entries span rows and columns and the scan order shows
            for where in ([(0, 0)], [(rows, cols)], [(rows // 2, cols // 2)],
                          [(0, cols), (rows, 0)]):
                bad = [list(row) for row in u]
                for rp, c in where:
                    bad[rp][c] += 1
                corrupted = {**base, sub: (bad, scale)}
                want = first_broken_identity(corrupted, single=True)
                assert want is not None, (sub, where)
                assert bases._first_broken_identity(corrupted) == want
                witnesses.add(want)
    assert any("/" in w for w in witnesses)

    # one corrupted step count of a single letter, on each side
    for letter, side in [((1, 1), "Pi"), ((2, 1), "Pi"), ((2, 1), "E")]:

        def corrupted(sub, vertex, side_, letter=letter, side=side):
            steps = step_matrix(sub, vertex, side_)
            if (sub, (vertex, 1), side_) != (DimVector(4, 3), letter, side):
                return steps
            k = next(i for i, row in enumerate(steps) if row)
            (child, n), *rest = steps[k]
            return steps[:k] + (((child, n + 1), *rest),) + steps[k + 1:]

        monkeypatch.setattr(bases, "step_matrix", corrupted)
        want = first_broken_identity(
            scaled, lambda sub, v, b, side_: corrupted(sub, v, side_),
            single=True)
        assert want is not None and want.startswith(
            f"dim (4,3), letter {letter[0]}^1, ")
        assert bases._first_broken_identity(scaled) == want
        # the library, which solves only at the diagonal, names it too
        assert transfer_matrix(DimVector(4, 3)).mismatch == want
        monkeypatch.undo()


def test_lift_reads_single_letters_only(monkeypatch):
    # every step matrix the lift asks for, for its count rows, its solve
    # and its identities, peels a single letter, the only letter the
    # library has a step rule for; the grouping relation (tested in
    # test_qcount against the oracle's grouped rule) carries the identities
    # to grouped words.  The count rows, the only ones read through qcount,
    # are E-side rows: no pair-side count row is built
    calls = {}
    for module in (bases, qcount):
        def record(dim, vertex, side, real=module.step_matrix,
                   name=module.__name__):
            calls[name].append((dim, vertex, side))
            return real(dim, vertex, side)
        monkeypatch.setattr(module, "step_matrix", record)
    for dim in [DimVector(8, 8), DimVector(3, 6)]:
        for run in (transfer_matrix, cc_multiplicities):
            calls.update({"semican.bases": [], "semican.qcount": []})
            run(dim)
            both = calls["semican.bases"] + calls["semican.qcount"]
            assert {(v, side) for _, v, side in both} == \
                {(v, side) for v in (1, 2) for side in ("E", "Pi")}, dim
            assert calls["semican.qcount"], dim
            assert {side for *_, side in calls["semican.qcount"]} == {"E"}


def test_lift_holds_no_memory_after_it_returns():
    # nothing of the lift outlives cc_multiplicities but the class index of
    # each rank bound: under 1 MB is still held after (20, 20)
    qcount._pi_index.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        cc_multiplicities(DimVector(20, 20))
        gc.collect()  # also empties the interpreter's free lists
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held


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
