import itertools
import json
import random
from fractions import Fraction

import pytest

from semican.core import DimVector, PiModClass, representative_pair
from semican.separation import (NormalFormY, SeparationError,
                                back_substitute, build_and_separate,
                                enumerate_instances, enumerate_matchings,
                                flag_shape, validate_matching)
from semican.sympoly import MultiPoly, VarId, expand_trace

from oracles import critical_locus_check, normal_form

# ---------------------------------------------------------------------------
# flag shapes


def test_flag_shape_examples():
    sh = flag_shape((2, 1))
    assert sh.t_slots == (2,) and sh.s_slots == (1,)
    assert sh.adm_x(1, 1) and not sh.adm_y(1, 1)
    sh = flag_shape((1, 2))
    assert not sh.adm_x(1, 1) and sh.adm_y(1, 1)
    sh = flag_shape((1, 2, 2, 1))
    assert set(sh.x_positions()) == {(1, 2), (2, 2)}
    assert set(sh.y_positions()) == {(1, 1), (1, 2)}


def test_flag_shape_slots_partition():
    for d in range(1, 9):
        for comp in itertools.product((1, 2), repeat=d):
            sh = flag_shape(comp)
            assert sorted(sh.t_slots + sh.s_slots) == list(range(1, d + 1))
            for i in range(1, sh.d2 + 1):
                for j in range(1, sh.d1 + 1):
                    assert sh.adm_x(i, j) != sh.adm_y(j, i)


def _runs_breaks(slots):
    # 1-based indices into `slots` where a new run of consecutive values starts
    breaks = [1]
    for k in range(1, len(slots)):
        if slots[k] != slots[k - 1] + 1:
            breaks.append(k + 1)
    breaks.append(len(slots) + 1)
    return breaks


def test_flag_shape_reproduces_block_description():
    # oracle: the four-case block rule expressed through run boundaries
    for d in range(1, 9):
        for comp in itertools.product((1, 2), repeat=d):
            sh = flag_shape(comp)
            if not sh.t_slots or not sh.s_slots:
                continue
            mu = _runs_breaks(sh.t_slots)
            nu = _runs_breaks(sh.s_slots)
            starts_with_s = comp[0] == 2
            for i in range(1, sh.d2 + 1):
                k = max(idx for idx, v in enumerate(nu) if v <= i)  # row block
                for j in range(1, sh.d1 + 1):
                    if starts_with_s:
                        allowed = j >= mu[k]
                    else:
                        allowed = k + 1 < len(mu) and j >= mu[k + 1]
                    assert sh.adm_x(i, j) == allowed, (comp, i, j)
            for i in range(1, sh.d1 + 1):
                k = max(idx for idx, v in enumerate(mu) if v <= i)
                for j in range(1, sh.d2 + 1):
                    if starts_with_s:
                        allowed = k + 1 < len(nu) and j >= nu[k + 1]
                    else:
                        allowed = j >= nu[k]
                    assert sh.adm_y(i, j) == allowed, (comp, i, j)


def test_flag_shape_shared_per_composition():
    sh = flag_shape((1, 2, 2, 1))
    assert flag_shape([1, 2, 2, 1]) is sh
    m_vars, n_vars, x_vars = sh.chart_vars
    assert [v for v, _, _ in m_vars] == [VarId("M", 2, 1)]
    assert [v for v, _, _ in n_vars] == [VarId("N", 2, 1)]
    assert [v for v, _, _ in x_vars] == [VarId("X", 1, 2), VarId("X", 2, 2)]
    assert all((v.row, v.col) == (r, c)
               for v, r, c in m_vars + n_vars + x_vars)


# ---------------------------------------------------------------------------
# matchings


def test_enumerate_matchings_examples():
    assert [sorted(m.entries) for m in enumerate_matchings(flag_shape((1, 2)))] \
        == [[], [(1, 1)]]
    assert [sorted(m.entries) for m in enumerate_matchings(flag_shape((2, 1)))] \
        == [[]]
    counts = {a: len(list(enumerate_matchings(flag_shape(a))))
              for a in [(1, 1, 2), (1, 2, 1), (2, 1, 1)]}
    assert counts[(2, 1, 1)] == 1  # no admissible position
    assert counts[(1, 2, 1)] == 2
    assert counts[(1, 1, 2)] == 3  # empty plus two one-entry matchings


def test_enumerate_instances_counts():
    pairs = list(enumerate_instances(DimVector(1, 1)))
    assert [(a, sorted(m.entries)) for a, m in pairs] == [
        ((1, 2), []), ((1, 2), [(1, 1)]), ((2, 1), []),
    ]
    assert len(list(enumerate_instances(DimVector(0, 1)))) == 1


def test_matching_validation():
    sh = flag_shape((1, 2, 2, 1))
    with pytest.raises(ValueError):
        validate_matching(sh, NormalFormY.of((2, 1)))
    with pytest.raises(ValueError):
        NormalFormY.of((1, 1), (1, 2))  # repeated row


# ---------------------------------------------------------------------------
# normal form


def _mat(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _is_upper_unitriangular_like(g):
    # upper triangular with nonzero diagonal (Borel, not necessarily unipotent)
    n = len(g)
    return all(g[i][i] != 0 for i in range(n)) and \
        all(g[i][j] == 0 for i in range(n) for j in range(i))


def test_normal_form_zero():
    sh = flag_shape((1, 2))
    nf, cert = normal_form(sh, _mat([[0]]))
    assert nf.entries == frozenset()


def test_normal_form_single_entry_scaled():
    sh = flag_shape((1, 2))
    nf, cert = normal_form(sh, _mat([[7]]))
    assert sorted(nf.entries) == [(1, 1)]


def test_normal_form_two_entries_one_column():
    # two stacked entries: the bottom one survives as the pivot
    sh = flag_shape((1, 1, 2))
    y = _mat([[3], [5]])
    nf, cert = normal_form(sh, y)
    assert sorted(nf.entries) == [(2, 1)]


def _nf_matrix(shape, nf):
    m = [[Fraction(0)] * shape.d2 for _ in range(shape.d1)]
    for i, j in nf.entries:
        m[i - 1][j - 1] = Fraction(1)
    return m


def test_normal_form_certificate_and_idempotence():
    rng = random.Random(23)
    comps = [(1, 2, 1, 2), (1, 1, 2, 2), (1, 2, 2, 1), (1, 1, 2, 2, 1, 2)]
    for comp in comps:
        sh = flag_shape(comp)
        for _ in range(20):
            y = [[Fraction(0)] * sh.d2 for _ in range(sh.d1)]
            for i, j in sh.y_positions():
                if rng.random() < 0.6:
                    y[i - 1][j - 1] = Fraction(rng.randint(-4, 4))
            nf, cert = normal_form(sh, y)
            # certificate: normal * g2 == g1 * y
            left = _mul(_nf_matrix(sh, nf), [list(r) for r in cert.g2])
            right = _mul([list(r) for r in cert.g1], y)
            assert left == right
            assert _is_upper_unitriangular_like(cert.g1)
            assert _is_upper_unitriangular_like(cert.g2)
            # result is a valid admissible matching, stable under a re-run
            validate_matching(sh, nf)
            again, _ = normal_form(sh, _nf_matrix(sh, nf))
            assert again.entries == nf.entries


def test_normal_form_invariant_under_borel_action():
    # acting by any further upper-triangular pair and re-normalizing gives
    # back the same matching
    rng = random.Random(41)

    def random_upper(n):
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = Fraction(rng.choice([1, 2, -1, 3]))
            for j in range(i + 1, n):
                g[i][j] = Fraction(rng.randint(-3, 3))
        return g

    for comp in [(1, 2, 1, 2), (1, 2, 2, 1), (1, 1, 2, 2, 1, 2)]:
        sh = flag_shape(comp)
        for _ in range(15):
            y = [[Fraction(0)] * sh.d2 for _ in range(sh.d1)]
            for i, j in sh.y_positions():
                if rng.random() < 0.5:
                    y[i - 1][j - 1] = Fraction(rng.randint(-4, 4))
            nf, _ = normal_form(sh, y)
            moved = _mul(_mul(random_upper(sh.d1), _nf_matrix(sh, nf)),
                         random_upper(sh.d2))
            again, _ = normal_form(sh, moved)
            assert again.entries == nf.entries


def test_normal_form_rejects_bad_support():
    sh = flag_shape((2, 1))
    with pytest.raises(ValueError):
        normal_form(sh, _mat([[1]]))


# ---------------------------------------------------------------------------
# separation engine


def test_separate_trivial_instance():
    rep = build_and_separate((2, 1), NormalFormY.of())
    assert rep.trace == MultiPoly.zero()
    assert rep.set_t == ()
    assert len(rep.bilinear.rows) == 0 and len(rep.bilinear.cols) == 0


def test_separate_hand_instance():
    rep = build_and_separate((1, 2, 2, 1), NormalFormY.of((1, 1)))
    assert rep.w1 == (VarId("M", 2, 1),)
    assert rep.w2 == (VarId("X", 1, 2),)
    assert rep.bilinear.matrix == ((MultiPoly.const(1),),)


def test_separate_exhaustive_small_dims():
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            if d1 + d2 == 0:
                continue
            for a, y0 in enumerate_instances(DimVector(d1, d2)):
                rep = build_and_separate(a, y0)
                # every monomial is degree (1,1) in the two quadratic groups
                w1, w2 = set(rep.w1), set(rep.w2)
                for mono in rep.separated.terms:
                    assert sum(e for v, e in mono if v in w1) == 1
                    assert sum(e for v, e in mono if v in w2) == 1


def test_separated_coefficients_stay_integers():
    rep = build_and_separate((1, 2, 2, 1), NormalFormY.of((1, 1)))
    coeffs = list(rep.separated.terms.values())
    assert coeffs and all(type(c) is int for c in coeffs)


def test_substitution_identity_exhaustive():
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            if d1 + d2 == 0:
                continue
            for a, y0 in enumerate_instances(DimVector(d1, d2)):
                rep = build_and_separate(a, y0)
                assert back_substitute(rep) == rep.trace


def test_single_substitution_matches_chained():
    from semican.separation import _inversion, _x_change
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            if d1 + d2 == 0:
                continue
            for a, y0 in enumerate_instances(DimVector(d1, d2)):
                sh = flag_shape(a)
                entries = y0.sorted_entries()
                j_set = {j for _, j in entries}
                t_pairs, m_expr, _ = _inversion(sh, entries)
                x_expr, _ = _x_change(sh, entries, j_set, t_pairs, m_expr)
                for keys, values in ((m_expr, x_expr), (x_expr, m_expr)):
                    used = {v for p in values.values() for mono in p.terms
                            for v, _ in mono}
                    assert not used & keys.keys(), (a, entries)
                h = expand_trace(sh.dim, sh, y0)
                chained = h.substitute(m_expr).substitute(x_expr)
                assert build_and_separate(a, y0).separated == chained, \
                    (a, entries)


def _mp_free(p):
    return MultiPoly({m: c for m, c in p.terms.items()
                      if all(v.kind != "Mp" for v, _ in m)})


def _six_pieces(comp, y0):
    # independent derivation of the separated polynomial from the six
    # displayed term families
    from semican.separation import _inversion
    sh = flag_shape(comp)
    entries = y0.sorted_entries()
    i_set = {i for i, _ in entries}
    j_set = {j for _, j in entries}
    t_pairs, m_expr, _ = _inversion(sh, entries)
    t_set = set(t_pairs)

    def v(kind, r, c):
        return MultiPoly.var(VarId(kind, r, c))

    total = MultiPoly.zero()
    # coupled part after the change of variables: sum of X' M' over T
    for (ip, jp), (ia, ja) in t_pairs:
        total = total + v("Xp", jp, ia) * v("Mp", ia, ip)
    # plain X N and X M families away from the matched rows/columns
    for ia, ja in entries:
        for i in range(1, ja):
            if i not in j_set and sh.adm_x(i, ia):
                total = total + v("X", i, ia) * v("N", ja, i)
    for ip, jp in entries:
        for j in range(ip + 1, sh.d1 + 1):
            if j not in i_set and sh.adm_x(jp, j):
                total = total + v("X", jp, j) * v("M", j, ip)
    # triple products split by whether the X row/column is matched
    for ib, jb in entries:
        for i in range(1, jb):
            for j in range(ib + 1, sh.d1 + 1):
                if not sh.adm_x(i, j):
                    continue
                if i not in j_set and j not in i_set:
                    total = total + v("X", i, j) * v("M", j, ib) * v("N", jb, i)
                elif i in j_set and j not in i_set:
                    total = total + v("X", i, j) * v("M", j, ib) * v("N", jb, i)
    # X-in-matched-column part: out-of-T couplings stay, in-T ones leave the
    # constant tail of the inversion behind
    for ip_, jp_ in entries:          # alpha' with column index j in I
        for ib, jb in entries:        # alpha''
            if ib >= ip_:
                continue
            if ((ib, jb), (ip_, jp_)) in t_set:
                continue
            for i in range(1, jb):
                if i not in j_set and sh.adm_x(i, ip_):
                    total = total + v("X", i, ip_) * v("M", ip_, ib) \
                        * v("N", jb, i)
    for (ip, jp), (ia, ja) in t_pairs:
        tail = _mp_free(m_expr[VarId("M", ia, ip)])
        if not tail:
            continue
        for i in range(1, jp):
            if i not in j_set and sh.adm_x(i, ia):
                total = total + v("X", i, ia) * tail * v("N", jp, i)
    return total


def test_separated_polynomial_matches_six_piece_form():
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            if d1 + d2 == 0:
                continue
            for a, y0 in enumerate_instances(DimVector(d1, d2)):
                rep = build_and_separate(a, y0)
                assert rep.separated == _six_pieces(a, y0), \
                    (a, sorted(y0.entries))


def test_separate_rejects_inadmissible_y0():
    with pytest.raises(ValueError):
        build_and_separate((1, 2, 2, 1), NormalFormY.of((2, 1)))


def test_bilinearity_failure_is_hard_error(monkeypatch):
    import semican.separation as sep
    from semican.sympoly import BilinearityError

    def broken(*args, **kwargs):
        raise BilinearityError("X(1,2)^2")

    monkeypatch.setattr(sep, "bilinear_decompose", broken)
    with pytest.raises(SeparationError) as exc:
        sep.build_and_separate((1, 2, 2, 1), NormalFormY.of((1, 1)))
    assert "X(1,2)^2" in str(exc.value)


def test_report_serializes():
    rep = build_and_separate((1, 2, 2, 1), NormalFormY.of((1, 2)))
    blob = json.dumps(rep.to_dict())
    data = json.loads(blob)
    assert data["trace_poly"] == rep.trace.to_str()
    assert data["b_shape"] == [len(rep.bilinear.rows), len(rep.bilinear.cols)]


# ---------------------------------------------------------------------------
# critical locus


def test_critical_locus_admissible_pair():
    # canonical pair representatives on the compatible chart are critical
    dim = DimVector(2, 2)
    x, y = representative_pair(PiModClass(dim, 1, 1))
    # chart 2,2,1,1: x = E11 admissible iff adm_x(1,1); pick a chart that fits
    comp = (2, 2, 1, 1)
    sh = flag_shape(comp)
    assert sh.adm_x(1, 1)
    assert critical_locus_check(comp, x, y)


def test_critical_locus_matches_prediction_everywhere():
    rng = random.Random(31)
    for comp in [(1, 2), (2, 1), (1, 2, 2, 1), (2, 1, 1, 2), (1, 1, 2, 2)]:
        sh = flag_shape(comp)
        d1, d2 = sh.d1, sh.d2
        for _ in range(25):
            x0 = [[Fraction(0)] * d1 for _ in range(d2)]
            for i, j in sh.x_positions():
                if rng.random() < 0.5:
                    x0[i - 1][j - 1] = Fraction(rng.randint(-3, 3))
            y = [[Fraction(rng.randint(-2, 2)) if rng.random() < 0.4
                  else Fraction(0) for _ in range(d2)] for _ in range(d1)]
            assert critical_locus_check(comp, x0, y)


def test_critical_locus_zero_covector():
    comp = (1, 2, 2, 1)
    sh = flag_shape(comp)
    x0 = [[Fraction(0)] * sh.d1 for _ in range(sh.d2)]
    y = [[Fraction(0)] * sh.d2 for _ in range(sh.d1)]
    assert critical_locus_check(comp, x0, y)
