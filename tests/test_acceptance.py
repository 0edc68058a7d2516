"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (rational arithmetic) except the stratification probe of
criterion 10, which is a seeded floating-point heuristic with a fixed 10x
boundedness threshold over a six-step distance ladder.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import random
import time
from functools import lru_cache

import semican.cli as cli
from semican import ratlin
from semican.bases import (canonical_fn, cc_multiplicities, m_coefficients,
                           monomial_matrix_E, monomial_matrix_Pi, pi_classes,
                           spanning_words, transfer_matrix)
from semican.core import (DimVector, Orbit, PiModClass, dual_orbit,
                          enumerate_orbits, orbit_dim, sign_parity)
from semican.geom import PairPoint, bilinear_form_B, hessian_rank_check
from semican.separation import (back_substitute, build_and_separate,
                                enumerate_instances)
from semican.wreg import w_regularity_sample

from oracles import gauss_binom


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _dims(bound, include_zero=True):
    lo = 0 if include_zero else 1
    for d1 in range(lo, bound + 1):
        for d2 in range(lo, bound + 1):
            if d1 + d2 >= 1:
                yield DimVector(d1, d2)


def test_criterion_1_hand_oracle_m_matrices(capsys):
    start = time.perf_counter()
    ok = True
    for d1, d2 in [(1, 1), (2, 1)]:
        code = cli.main(["verify", "--d1", str(d1), "--d2", str(d2)])
        out = capsys.readouterr().out
        report = json.loads(out)
        n = len(report["m_matrix"])
        ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        ok = ok and code == 0 and report["m_matrix"] == ident
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, f"verify (1,1), (2,1): m = identity exactly "
                       f"({elapsed:.2f}s < 1s)")


def test_criterion_2_structure_up_to_3(capsys):
    start = time.perf_counter()
    ok = True
    for dim in _dims(3):
        m = m_coefficients(dim)
        ok = ok and m.first_bad_entry() is None
        n = cc_multiplicities(dim)  # raises on any structural violation
        for i in range(n.size):
            ok = ok and n.entry(i, i) == 1
            for j in range(n.size):
                ok = ok and n.entry(i, j) >= 0 and \
                    n.entry(i, j).denominator == 1
                if i > j:
                    ok = ok and n.entry(i, j) == 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        _report(2, ok, f"m unitriangular integral, n = sign-twist of m "
                       f"nonnegative with unit diagonal, all d1,d2 <= 3 "
                       f"({elapsed:.1f}s < 30s)")


def test_criterion_3_section_identity(capsys):
    ok = True
    for dim in _dims(3):
        words = spanning_words(dim)
        mat_e = monomial_matrix_E(dim, words)
        transfer = transfer_matrix(dim, words)
        section = [pi_classes(dim).index(PiModClass(dim, r, 0))
                   for r in range(dim.rank_bound + 1)]
        for row in mat_e:
            lifted = transfer.apply(row)
            ok = ok and [lifted[j] for j in section] == row
    with capsys.disabled():
        _report(3, ok, "restriction of every lifted monomial to the "
                       "vanishing-second-rank classes equals the input, "
                       "exhaustive d1,d2 <= 3, exact")


def test_criterion_4_kernel_invariance(capsys):
    ok = True
    for dim in _dims(3):
        words = spanning_words(dim)
        mat_e = monomial_matrix_E(dim, words)
        mat_pi = monomial_matrix_Pi(dim, words)
        basis = ratlin.kernel_basis(ratlin.transpose(mat_e))
        ok = ok and len(basis) == len(words) - ratlin.rank(mat_e)
        for vec in basis:
            for col in zip(*mat_pi):
                ok = ok and sum(v * c for v, c in zip(vec, col)) == 0
    with capsys.disabled():
        _report(4, ok, "every vector of a kernel basis of the E-side "
                       "monomial matrix, hence the whole kernel, maps to the "
                       "zero pair-side function, d1,d2 <= 3, exact")


@lru_cache(maxsize=1)
def _certificate_instances():
    out = []
    for dim in _dims(3):
        out.extend(enumerate_instances(dim))
    full = list(enumerate_instances(DimVector(4, 4)))
    out.extend(random.Random(1).sample(full, 500))
    return [(a, y0, build_and_separate(a, y0)) for a, y0 in out]


def _is_bilinear_certificate(rep) -> bool:
    """B is indexed by W1 x W2 and every separated monomial has degree (1,1)."""
    w1, w2 = set(rep.w1), set(rep.w2)
    return (rep.bilinear.rows == rep.w1 and rep.bilinear.cols == rep.w2
            and all(sum(e for v, e in mono if v in w1) == 1
                    and sum(e for v, e in mono if v in w2) == 1
                    for mono in rep.separated.terms))


def test_criterion_5_separation_certificate(capsys):
    start = time.perf_counter()
    instances = _certificate_instances()
    ok = all(_is_bilinear_certificate(rep) for _, _, rep in instances)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        _report(5, ok, f"separated trace bilinear in (W1, W2), hence "
                       f"chi = 1, on all {len(instances)} instances (exhaustive d1,d2 <= 3 "
                       f"plus 500 sampled at (4,4)) ({elapsed:.1f}s < 120s)")


def test_criterion_6_substitution_identity(capsys):
    instances = _certificate_instances()
    ok = all(back_substitute(rep) == rep.trace for _, _, rep in instances)
    with capsys.disabled():
        _report(6, ok, f"back-substitution restores the trace polynomial "
                       f"term for term on all {len(instances)} instances, "
                       f"exact")


def test_criterion_7_appendix_b(capsys):
    start = time.perf_counter()
    ok = True
    for dim in _dims(6, include_zero=False):
        for r in range(dim.rank_bound + 1):
            p = PairPoint.from_class(PiModClass(dim, r, dim.rank_bound - r))
            # raises GenericityError unless the conormal tangent
            # dimension is d1*d2
            ok = ok and hessian_rank_check(p)
            expected = orbit_dim(Orbit(dim, r)) \
                + orbit_dim(dual_orbit(Orbit(dim, r))) - dim.d1 * dim.d2
            ok = ok and ratlin.rank(bilinear_form_B(p)) == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        _report(7, ok, f"Hessian and pairing-form ranks match "
                       f"dim S + dim S-hat - d1*d2 and conormal tangent "
                       f"dimension is d1*d2, all generic reps d1,d2 <= 6 "
                       f"({elapsed:.1f}s < 10s)")


def test_criterion_8_parity(capsys):
    ok = True
    for dim in _dims(8):
        for o in enumerate_orbits(dim):
            ok = ok and sign_parity(o) % 2 == 0
    with capsys.disabled():
        _report(8, ok, "component-dimension defect is even for every orbit "
                       "with d1,d2 <= 8, exhaustive, exact")


def test_criterion_9_canonical_stalk_cross_oracle(capsys):
    ok = True
    for dim in _dims(4, include_zero=False):
        n = dim.rank_bound
        small_side = dim.d1 if dim.d1 <= dim.d2 else dim.d2
        for r in range(n + 1):
            f = canonical_fn(dim, r)
            for rp in range(n + 1):
                expected = gauss_binom(small_side - rp, small_side - r).at_one() \
                    if rp <= r else 0
                ok = ok and f.value(rp) == expected
    ok = ok and canonical_fn(DimVector(2, 2), 1).value(0) == 2
    with capsys.disabled():
        _report(9, ok, "IC stalk values equal q = 1 Grassmannian fiber "
                       "counts for d1,d2 <= 4; value 2 at the origin "
                       "of (2,2) rank 1, exact")


def test_criterion_10_w_regularity(capsys):
    start = time.perf_counter()
    ok = True
    for dim in _dims(3, include_zero=False):
        for ri in range(dim.rank_bound + 1):
            for rj in range(ri + 1, dim.rank_bound + 1):
                for seed in (1, 2, 3):
                    rep = w_regularity_sample(
                        Orbit(dim, ri), Orbit(dim, rj),
                        n_samples=6, seed=seed, n_scales=6, threshold=10.0,
                    )
                    ok = ok and rep.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        _report(10, ok, f"tangent-distance ratios bounded within 10x across "
                        f"a 6-step ladder, all orbit pairs d1,d2 <= 3, "
                        f"seeds 1-3 ({elapsed:.1f}s < 30s)")
