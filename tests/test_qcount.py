import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semican.bases import _refined
from semican.core import (DimVector, Orbit, PiModClass, enumerate_orbits,
                          pi_classes)
from semican.qcount import euler_counts, step_matrix, word_content

from oracles import (QPoly, StepCount, brute_single_letter, eval_word,
                     gauss_binom, grouped_step, q_factorial, q_int,
                     spanning_words, sub_grouped, sub_simple_E, sub_simple_Pi,
                     transitions, word_counts)

# ---------------------------------------------------------------------------
# QPoly ring


@given(st.lists(st.integers(-9, 9), max_size=6),
       st.lists(st.integers(-9, 9), max_size=6),
       st.lists(st.integers(-9, 9), max_size=6))
@settings(max_examples=60, deadline=None)
def test_qpoly_ring_axioms(a, b, c):
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    assert pa + pb == pb + pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * pb == pb * pa
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa - pa) == QPoly.zero()
    assert pa.at_one() == sum(a)


def test_qpoly_normalization():
    assert QPoly((1, 0, 0)).coeffs == (1,)
    assert QPoly((0, 0)).coeffs == ()
    assert not QPoly.zero()


# ---------------------------------------------------------------------------
# Gaussian binomials


def _brute_subspace_count(m, k, q):
    # subspaces of F_q^m of dimension k, counted by enumeration
    if k == 0:
        return 1
    vectors = [tuple(v) for v in itertools.product(range(q), repeat=m)]

    def span(gens):
        space = {tuple([0] * m)}
        changed = True
        while changed:
            changed = False
            for g in gens:
                for c in range(q):
                    for s in list(space):
                        v = tuple((c * gi + si) % q for gi, si in zip(g, s))
                        if v not in space:
                            space.add(v)
                            changed = True
        return frozenset(space)

    spaces = set()
    for gens in itertools.combinations(vectors[1:], k):
        s = span(gens)
        if len(s) == q**k:
            spaces.add(s)
    return len(spaces)


def test_gauss_binom_examples():
    assert gauss_binom(2, 1) == QPoly((1, 1))
    for n in range(6):
        assert gauss_binom(n, 0) == QPoly.one()
    assert gauss_binom(3, 2) == QPoly((1, 1, 1))
    assert gauss_binom(3, 2)(2) == _brute_subspace_count(3, 2, 2) == 7
    assert gauss_binom(2, 1)(2) == _brute_subspace_count(2, 1, 2) == 3
    assert gauss_binom(2, 1)(3) == _brute_subspace_count(2, 1, 3)
    assert gauss_binom(4, 2)(2) == _brute_subspace_count(4, 2, 2)


def test_gauss_binom_bounds_and_symmetry():
    assert gauss_binom(3, -1) == QPoly.zero()
    assert gauss_binom(3, 4) == QPoly.zero()
    for m in range(7):
        for k in range(m + 1):
            assert gauss_binom(m, k) == gauss_binom(m, m - k)
            from math import comb
            assert gauss_binom(m, k).at_one() == comb(m, k)


# ---------------------------------------------------------------------------
# one-step counts


def E(d1, d2, r):
    return Orbit(DimVector(d1, d2), r)


def Pi(d1, d2, r, s):
    return PiModClass(DimVector(d1, d2), r, s)


def test_sub_simple_E_examples():
    assert sub_simple_E(E(1, 1, 1), 1) == []
    assert sub_simple_E(E(1, 1, 1), 2) == [StepCount(E(1, 0, 0), QPoly.one())]
    assert sub_simple_E(E(2, 1, 0), 1) == [StepCount(E(1, 1, 0), QPoly((1, 1)))]


def test_sub_simple_Pi_examples():
    assert sub_simple_Pi(Pi(1, 1, 0, 1), 2) == []
    assert sub_simple_Pi(Pi(1, 1, 1, 0), 2) == [
        StepCount(Pi(1, 0, 0, 0), QPoly.one())
    ]
    assert sub_simple_Pi(Pi(2, 1, 0, 1), 1) == [
        StepCount(Pi(1, 1, 0, 0), QPoly.one()),
        StepCount(Pi(1, 1, 0, 1), QPoly((0, 1))),
    ]


def test_sub_grouped_examples():
    assert sub_grouped(E(2, 2, 0), 1, 2, "E") == [
        StepCount(E(0, 2, 0), QPoly.one())
    ]
    assert sub_grouped(E(2, 2, 1), 2, 1, "E") == [
        StepCount(E(2, 1, 0), QPoly.one()),
        StepCount(E(2, 1, 1), QPoly((0, 1))),
    ]
    assert sub_grouped(E(2, 2, 2), 1, 1, "E") == []


def _all_E_classes(bound):
    for d1 in range(bound + 1):
        for d2 in range(bound + 1):
            if d1 + d2 == 0:
                continue
            for r in range(min(d1, d2) + 1):
                yield E(d1, d2, r)


def _all_Pi_classes(bound):
    for d1 in range(bound + 1):
        for d2 in range(bound + 1):
            if d1 + d2 == 0:
                continue
            for r in range(min(d1, d2) + 1):
                for s in range(min(d1, d2) - r + 1):
                    yield Pi(d1, d2, r, s)


def test_nonnegative_coefficients():
    for cls in _all_E_classes(4):
        for vertex in (1, 2):
            for b in range(4):
                for step in sub_grouped(cls, vertex, b, "E"):
                    assert all(c >= 0 for c in step.count.coeffs)
    for cls in _all_Pi_classes(4):
        for vertex in (1, 2):
            for step in sub_simple_Pi(cls, vertex):
                assert all(c >= 0 for c in step.count.coeffs)


def test_content_conservation():
    # the children of a one-step peel account for every admissible line
    for cls in _all_E_classes(4):
        d1, d2, r = cls.dim.d1, cls.dim.d2, cls.r
        total1 = sum((s.count for s in sub_simple_E(cls, 1)), QPoly.zero())
        assert total1 == q_int(d1 - r)
        total2 = sum((s.count for s in sub_simple_E(cls, 2)), QPoly.zero())
        assert total2 == q_int(d2)
    for cls in _all_Pi_classes(4):
        d1, d2, r, s = cls.dim.d1, cls.dim.d2, cls.r, cls.s
        total1 = sum((t.count for t in sub_simple_Pi(cls, 1)), QPoly.zero())
        assert total1 == q_int(d1 - r)
        total2 = sum((t.count for t in sub_simple_Pi(cls, 2)), QPoly.zero())
        assert total2 == q_int(d2 - s)


def test_grouped_total_is_gauss():
    for cls in _all_E_classes(4):
        for b in range(4):
            total = sum((s.count for s in sub_grouped(cls, 2, b, "E")),
                        QPoly.zero())
            assert total == gauss_binom(cls.dim.d2, b)
    for cls in _all_Pi_classes(3):
        for b in range(3):
            total = sum((s.count for s in sub_grouped(cls, 1, b, "Pi")),
                        QPoly.zero())
            assert total == gauss_binom(cls.dim.d1 - cls.r, b)


def _iterate_simple(cls, vertex, b, side):
    front = {cls: QPoly.one()}
    simple = sub_simple_E if side == "E" else sub_simple_Pi
    for _ in range(b):
        nxt = {}
        for c, acc in front.items():
            for step in simple(c, vertex):
                nxt[step.child] = nxt.get(step.child, QPoly.zero()) \
                    + acc * step.count
        front = nxt
    return front


@pytest.mark.parametrize("side", ["E", "Pi"])
def test_grouped_vs_iterated_simple(side):
    # peeling b lines in all orders counts each b-space once per complete flag
    classes = _all_E_classes(3) if side == "E" else _all_Pi_classes(3)
    for cls in classes:
        for vertex in (1, 2):
            for b in range(4):
                flags = _iterate_simple(cls, vertex, b, side)
                grouped = sub_grouped(cls, vertex, b, side)
                grouped_map = {s.child: s.count for s in grouped}
                fac = q_factorial(b)
                for child in set(flags) | set(grouped_map):
                    lhs = flags.get(child, QPoly.zero())
                    rhs = grouped_map.get(child, QPoly.zero()) * fac
                    assert lhs == rhs, (cls, vertex, b, child)


# ---------------------------------------------------------------------------
# word evaluation


def test_eval_word_examples():
    assert eval_word(((2, 1), (1, 1)), E(1, 1, 1), "E") == QPoly.one()
    assert eval_word(((1, 1), (2, 1)), E(1, 1, 1), "E") == QPoly.zero()
    assert eval_word(((1, 1), (1, 1), (2, 1)), E(2, 1, 0), "E") == QPoly((1, 1))


def test_eval_word_content_mismatch():
    with pytest.raises(ValueError):
        eval_word(((1, 1),), E(1, 1, 0), "E")
    with pytest.raises(ValueError):
        eval_word(((1, 1), (2, 2)), E(1, 1, 0), "E")
    with pytest.raises(TypeError):
        eval_word(((1, 1), (2, 1)), Pi(1, 1, 0, 0), "E")


def test_euler_counts_match_eval_word_at_one():
    # the integer q = 1 count is the counting polynomial evaluated at 1; a
    # grouped word counts 1 / prod b! times its single-letter refinement,
    # and the oracle's grouped steps count it directly
    for d1 in range(5):
        for d2 in range(5):
            dim = DimVector(d1, d2)
            for side, classes in (("E", enumerate_orbits(dim)),
                                  ("Pi", pi_classes(dim))):
                for w in spanning_words(dim):
                    expected = [eval_word(w, c, side).at_one()
                                for c in classes]
                    flags = math.prod(math.factorial(b) for _, b in w)
                    assert euler_counts(_refined(w), dim, side) == \
                        [flags * n for n in expected]
                    assert word_counts(w, dim, side) == expected


def test_euler_counts_validation():
    with pytest.raises(ValueError, match="does not match"):
        euler_counts(((1, 1), (2, 2)), DimVector(1, 1), "E")
    with pytest.raises(ValueError, match="does not match"):
        euler_counts(((1, 1), (2, 1)), DimVector(2, 1), "Pi")
    with pytest.raises(ValueError, match="malformed"):
        euler_counts(((3, 1),), DimVector(1, 0), "E")
    with pytest.raises(ValueError, match="side"):
        euler_counts(((1, 1), (2, 1)), DimVector(1, 1), "Lambda")
    assert euler_counts((), DimVector(0, 0), "Pi") == [1]


def test_euler_counts_reject_grouped_letters():
    # the library peels single letters only; a grouped letter is named
    for side in ("E", "Pi"):
        with pytest.raises(ValueError, match=re.escape("grouped letter 2^2")):
            euler_counts(((1, 1), (2, 2)), DimVector(1, 2), side)
        with pytest.raises(ValueError, match=re.escape("grouped letter 1^3")):
            euler_counts(((1, 3),), DimVector(3, 0), side)


def test_step_matrix_matches_grouped_polynomials_at_one():
    # each integer step count is the oracle's grouped count at q = 1, with
    # its child indexed in the class order of the child dimension: the
    # library's closed forms at b = 1, the oracle's q = 1 table at every
    # other b
    for d1 in range(7):
        for d2 in range(7):
            dim = DimVector(d1, d2)
            for side, classes in (("E", enumerate_orbits), ("Pi", pi_classes)):
                for vertex, top in ((1, d1), (2, d2)):
                    for b in range(top + 1):
                        child = DimVector(d1 - b, d2) if vertex == 1 \
                            else DimVector(d1, d2 - b)
                        index = {c: i for i, c in enumerate(classes(child))}
                        expected = tuple(
                            tuple(sorted((index[s.child], s.count.at_one())
                                         for s in sub_grouped(c, vertex, b,
                                                              side)))
                            for c in classes(dim))
                        got = step_matrix(dim, vertex, side) if b == 1 \
                            else grouped_step(dim, vertex, b, side)
                        assert tuple(tuple(sorted(row)) for row in got) == \
                            expected, (dim, vertex, b, side)


def test_grouping_relation():
    # peeling v^b and then a complete flag of the b-dimensional sub is
    # peeling b single letters, and chi(Fl(b)) = b!, so on both sides
    #   S_{v,1}(D) . S_{v,1}(D - e_v) ... S_{v,1}(D - (b-1) e_v)
    #       == b! S_{v,b}(D),
    # composed here as sparse rows: the library's single letters on the
    # left, the oracle's grouped rule at q = 1 on the right.  This carries
    # the lift's single-letter identities to grouped words
    cases = 0
    for d1 in range(11):
        for d2 in range(11):
            dim = DimVector(d1, d2)
            for side, classes in (("E", enumerate_orbits),
                                  ("Pi", pi_classes)):
                for vertex, top in ((1, d1), (2, d2)):
                    # row per class of dim: {class of D - b e_v: count}
                    product = [{i: 1} for i in range(len(classes(dim)))]
                    for b in range(1, top + 1):
                        child = DimVector(d1 - b + 1, d2) if vertex == 1 \
                            else DimVector(d1, d2 - b + 1)
                        steps = step_matrix(child, vertex, side)
                        composed = []
                        for row in product:
                            out = {}
                            for j, n in row.items():
                                for k, m in steps[j]:
                                    out[k] = out.get(k, 0) + n * m
                            composed.append(out)
                        product = composed
                        grouped = [{k: math.factorial(b) * m for k, m in row}
                                   for row in grouped_step(dim, vertex, b,
                                                           side)]
                        assert product == grouped, (dim, vertex, b, side)
                        cases += 1
    assert cases == 2420


def test_step_counts_match_brute_force_over_fp():
    # the step polynomials are hand-derived; count the lines instead.  At
    # core.representative_pair of every class with d1, d2 <= 4, every line
    # at vertex v that is a subrepresentation is enumerated over F_2 and
    # F_3, and its quotient's class read off by elimination over F_p.  The
    # representative stands for its whole class because pair classes are a
    # complete invariant: the indecomposable modules of the preprojective
    # algebra of A2 with x y = 0 = y x are S1, S2, x (1 -> 2) and y
    # (2 -> 1), so a pair is fixed up to isomorphism by its dimension
    # vector and the ranks r of x and s of y (and an E orbit by r alone)
    cases = 0
    for d1 in range(5):
        for d2 in range(5):
            dim = DimVector(d1, d2)
            for cls in enumerate_orbits(dim) + pi_classes(dim):
                simple = sub_simple_Pi if isinstance(cls, PiModClass) \
                    else sub_simple_E
                for vertex, top in ((1, d1), (2, d2)):
                    if not top:
                        continue
                    for p in (2, 3):
                        want = {s.child: s.count(p)
                                for s in simple(cls, vertex)}
                        assert brute_single_letter(cls, vertex, p) == want, \
                            (cls, vertex, p)
                        cases += 1
    assert cases == 600


def _words_for(d1, d2, max_group=2):
    letters = [(1, m) for m in range(1, max_group + 1)] + \
              [(2, m) for m in range(1, max_group + 1)]

    def gen(rem1, rem2):
        if rem1 == 0 and rem2 == 0:
            yield ()
            return
        for v, m in letters:
            if v == 1 and m <= rem1:
                for rest in gen(rem1 - m, rem2):
                    yield ((v, m),) + rest
            if v == 2 and m <= rem2:
                for rest in gen(rem1, rem2 - m):
                    yield ((v, m),) + rest

    return list(gen(d1, d2))


def test_word_associativity_by_splitting():
    rng = random.Random(5)
    for d1, d2 in [(2, 2), (3, 2), (2, 3)]:
        dim = DimVector(d1, d2)
        words = _words_for(d1, d2)
        for word in rng.sample(words, min(12, len(words))):
            for side, classes in (
                ("E", [E(d1, d2, r) for r in range(min(d1, d2) + 1)]),
                ("Pi", [Pi(d1, d2, r, s) for r in range(min(d1, d2) + 1)
                        for s in range(min(d1, d2) - r + 1)]),
            ):
                for cls in classes:
                    whole = eval_word(word, cls, side)
                    cut = rng.randrange(len(word) + 1)
                    w1, w2 = word[:cut], word[cut:]
                    mids = transitions(w1, cls, side)
                    split = sum(
                        (mult * eval_word(w2, mid, side)
                         for mid, mult in mids.items()),
                        QPoly.zero(),
                    )
                    assert whole == split


def test_pi_restriction_matches_E_side():
    # pair classes with vanishing second rank count exactly the same flags
    for d1, d2 in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        for word in _words_for(d1, d2):
            for r in range(min(d1, d2) + 1):
                assert eval_word(word, Pi(d1, d2, r, 0), "Pi") == \
                    eval_word(word, E(d1, d2, r), "E")


def test_word_content():
    assert word_content(((1, 2), (2, 1), (1, 1))) == (3, 1)
