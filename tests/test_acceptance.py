"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (rational arithmetic).  Criterion 10 also runs the
seeded floating-point stratification probe of tests/oracles.py, with a
fixed 10x boundedness threshold over a six-step distance ladder, and checks
that the exact w-regularity stage passes on every pair it probes.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import random
import time
from functools import lru_cache

import semican.cli as cli
from semican import ratlin
from semican.bases import (canonical_fn, cc_multiplicities, m_coefficients,
                           transfer_matrix)
from semican.core import (DimVector, Orbit, PiModClass, dual_orbit,
                          enumerate_orbits, orbit_dim, pi_classes,
                          sign_parity)
from semican.geom import (PairPoint, bilinear_form_B, hessian_rank_check,
                          w_regularity)
from semican.separation import report_dicts, separate_packed

from oracles import (back_substitute, decode_separation, enumerate_instances,
                     gauss_binom, kernel_basis, lift_values, monomial_matrix,
                     spanning_words, transpose, w_regularity_sample)


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
        mat_e = monomial_matrix(dim, spanning_words(dim), "E")
        transfer = transfer_matrix(dim)
        section = [pi_classes(dim).index(PiModClass(dim, r, 0))
                   for r in range(dim.rank_bound + 1)]
        for row in mat_e:
            lifted = lift_values(transfer, row)
            ok = ok and [lifted[j] for j in section] == row
    with capsys.disabled():
        _report(3, ok, "restriction of every lifted monomial to the "
                       "vanishing-second-rank classes equals the input, "
                       "exhaustive d1,d2 <= 3, exact")


def test_criterion_4_kernel_invariance(capsys):
    ok = True
    for dim in _dims(3):
        words = spanning_words(dim)
        mat_e = monomial_matrix(dim, words, "E")
        mat_pi = monomial_matrix(dim, words, "Pi")
        basis = kernel_basis(transpose(mat_e))
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
    return [(a, y0, separate_packed(a, y0)) for a, y0 in out]


def _is_bilinear_certificate(a, y0, sep) -> bool:
    """B is indexed by W1 x W2 and every separated monomial has degree (1,1)."""
    dec = decode_separation(sep)
    w1, w2 = dec.w1, dec.w2
    [report] = report_dicts(a, [y0])
    return (report["w1"] == [str(v) for v in sorted(w1)]
            and report["w2"] == [str(v) for v in sorted(w2)]
            and report["b_shape"] == [len(w1), len(w2)]
            and len(report["b_matrix"]) == len(w1)
            and all(len(row) == len(w2) for row in report["b_matrix"])
            and all(sum(e for v, e in mono if v in w1) == 1
                    and sum(e for v, e in mono if v in w2) == 1
                    for mono in dec.separated.terms))


def test_criterion_5_separation_certificate(capsys):
    start = time.perf_counter()
    instances = _certificate_instances()
    ok = all(_is_bilinear_certificate(*instance) for instance in instances)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        _report(5, ok, f"separated trace bilinear in (W1, W2), hence "
                       f"chi = 1, on all {len(instances)} instances (exhaustive d1,d2 <= 3 "
                       f"plus 500 sampled at (4,4)) ({elapsed:.1f}s < 120s)")


def test_criterion_6_substitution_identity(capsys):
    instances = _certificate_instances()
    ok = all(back_substitute(dec) == dec.trace
             for dec in (decode_separation(sep) for _, _, sep in instances))
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
        exact, failed = w_regularity(dim)
        ok = ok and not failed
        probed = []
        for ri in range(dim.rank_bound + 1):
            for rj in range(ri + 1, dim.rank_bound + 1):
                probed.append((ri, rj))
                for seed in (1, 2, 3):
                    rep = w_regularity_sample(
                        Orbit(dim, ri), Orbit(dim, rj),
                        n_samples=6, seed=seed, n_scales=6, threshold=10.0,
                    )
                    ok = ok and rep.passed
        ok = ok and [(e["inner_rank"], e["outer_rank"]) for e in exact
                     if e["passed"]] == probed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        _report(10, ok, f"tangent-distance ratios bounded within 10x across "
                        f"a 6-step ladder, all orbit pairs d1,d2 <= 3, "
                        f"seeds 1-3, and the exact rank premises hold on "
                        f"every probed pair ({elapsed:.1f}s < 30s)")
