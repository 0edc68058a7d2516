import gc
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from semican import packed
from semican.core import (DimVector, PiModClass, compositions,
                          representative_pair)
import semican.verify as verify
from semican.separation import (MAX_RANK_BOUND, NormalFormY, SeparationError,
                                _blocks, _chart, _layout, _MonomialNames,
                                certify, count_instances, flag_shape,
                                instances_at, matchings, report_dicts,
                                report_texts, separate_packed,
                                validate_matching)
from semican.sympoly import VarId

from oracles import (RefPoly, _classify, _inversion, _x_change,
                     back_substitute, critical_locus_check, decode_separation,
                     encode, enumerate_instances, enumerate_matchings,
                     expand_trace, normal_form, reference_dict, sample_by_list,
                     separate_reference, trace_pieces, x_positions,
                     y_positions)

# ---------------------------------------------------------------------------
# flag shapes


def test_flag_shape_examples():
    sh = flag_shape((2, 1))
    assert sh.t_slots == (2,) and sh.s_slots == (1,)
    assert sh.adm_x(1, 1) and not sh.adm_y(1, 1)
    sh = flag_shape((1, 2))
    assert not sh.adm_x(1, 1) and sh.adm_y(1, 1)
    sh = flag_shape((1, 2, 2, 1))
    chart = _chart(sh.composition)
    assert {(r, c) for u, r, c in chart.layout.x_vars
            if u & chart.keep} == {(1, 2), (2, 2)}
    assert set(y_positions(sh)) == {(1, 1), (1, 2)}


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
    # one chart per composition, and one layout per dimension vector
    chart = _chart((1, 2, 2, 1))
    assert _chart((1, 2, 2, 1)) is chart
    assert chart.shape == flag_shape([1, 2, 2, 1])
    layout = chart.layout
    assert _chart((2, 1, 1, 2)).layout is layout is _layout(2, 2)

    def named(group):
        return [(layout.slots.decode(u)[0][0], r, c) for u, r, c in group]

    m_vars, n_vars, x_vars = map(named, (
        layout.m_vars, layout.n_vars,
        [v for v in layout.x_vars if v[0] & chart.keep]))
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


def test_count_instances_matches_the_listing():
    for d1 in range(6):
        for d2 in range(6):
            dim = DimVector(d1, d2)
            assert count_instances(dim) == \
                len(list(enumerate_instances(dim))), (d1, d2)


def test_count_instances_large():
    assert count_instances(DimVector(6, 6)) == 845691
    assert count_instances(DimVector(8, 8)) == 429658515


def test_instances_at_matches_the_listing():
    for d1 in range(5):
        for d2 in range(5):
            if d1 + d2:
                dim = DimVector(d1, d2)
                listed = list(enumerate_instances(dim))
                assert [instances_at(dim, [i])[0]
                        for i in range(len(listed))] == listed
                assert instances_at(dim, reversed(range(len(listed)))) \
                    == listed[::-1]


def test_matchings_match_the_listing():
    # `separate --all` lists a composition's matchings by the ranked walk
    for d1 in range(5):
        for d2 in range(5):
            for a in compositions(d1, d2):
                assert matchings(a) == enumerate_matchings(flag_shape(a)), a
    with pytest.raises(ValueError, match="letters must be 1 or 2"):
        matchings((1, 3))


def test_instances_at_rejects_out_of_range():
    dim = DimVector(1, 1)
    assert instances_at(dim, []) == []
    for i in (-1, 3):
        with pytest.raises(IndexError):
            instances_at(dim, [0, i])


def test_blocks_reads_no_size_without_ranks():
    def unread():
        raise AssertionError("a block size was read")
        yield

    assert list(_blocks(unread(), 0, [])) == []
    assert list(_blocks(iter([("a", 2), ("b", 3)]), 0, [3])) == [("b", 2, [3])]


@pytest.mark.parametrize("d", [4, 5])
def test_verify_certifies_the_list_sample(monkeypatch, d):
    # a report does not list its instances, so the golden reports cannot
    # see a changed sample; record what verify certifies instead
    dim = DimVector(d, d)
    certified = []

    def record(a, y0):
        certified.append((a, y0))
        return True

    monkeypatch.setattr(verify, "certify", record)
    for seed in range(1, 6):
        certified.clear()
        verify.run_verify(d, d, seed=seed, skip_wreg=True)
        assert certified == sample_by_list(dim, seed, verify.SEP_SAMPLES)


def test_matching_validation():
    sh = flag_shape((1, 2, 2, 1))
    with pytest.raises(ValueError):
        validate_matching(sh, NormalFormY.of((2, 1)))
    with pytest.raises(ValueError):
        NormalFormY.of((1, 1), (1, 2))  # repeated row
    with pytest.raises(ValueError, match="repeated row or column"):
        NormalFormY.of((1, 1), (1, 1))  # repeated entry


def test_letters_and_indices_are_never_truncated():
    # a float letter or y0 index is refused, not cut to the int below it:
    # [1.5, 2.9] is not the composition (1, 2), and (1.9, 1.2) is not the
    # y0 entry (1, 1), which (1, 2) admits
    with pytest.raises(ValueError, match=r"composition letters must be "
                       r"ints: \(1\.5, 2\.9\)"):
        flag_shape([1.5, 2.9])
    with pytest.raises(ValueError,
                       match=r"y0 indices must be ints: \(1\.9, 1\.2\)"):
        NormalFormY.of((1.9, 1.2))
    # refused whatever the memo of charts holds: (1.0, 2.0) equals (1, 2)
    y0 = NormalFormY.of((1, 1))
    assert certify((1, 2), y0)
    for comp in ([1.5, 2.9], (1.0, 2.0)):
        with pytest.raises(ValueError, match="composition letters must be"):
            certify(comp, y0)
        with pytest.raises(ValueError, match="composition letters must be"):
            report_texts(comp, [y0])
    # what operator.index reads passes: ints, bools and numpy ints
    assert flag_shape([True, np.int64(2)]) == flag_shape((1, 2))
    assert NormalFormY.of((np.int8(1), True)) == NormalFormY.of((1, 1))
    assert certify((1, 2), NormalFormY.of((np.int64(1), np.int64(1))))


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
            for i, j in y_positions(sh):
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
            for i, j in y_positions(sh):
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
    sep = separate_packed((2, 1), NormalFormY.of())
    assert decode_separation(sep).trace == RefPoly()
    [rep] = report_dicts((2, 1), [NormalFormY.of()])
    assert rep["set_t"] == []
    assert rep["b_shape"] == [0, 0] and rep["b_matrix"] == []


def test_separate_hand_instance():
    sep = decode_separation(
        separate_packed((1, 2, 2, 1), NormalFormY.of((1, 1))))
    assert sep.w1 == {VarId("M", 2, 1)}
    assert sep.w2 == {VarId("X", 1, 2)}
    [rep] = report_dicts((1, 2, 2, 1), [NormalFormY.of((1, 1))])
    assert rep["b_matrix"] == [["1"]]


def test_separate_exhaustive_small_dims():
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            if d1 + d2 == 0:
                continue
            for a, y0 in enumerate_instances(DimVector(d1, d2)):
                sep = decode_separation(separate_packed(a, y0))
                # every monomial is degree (1,1) in the two quadratic groups
                w1, w2 = sep.w1, sep.w2
                for mono in sep.separated.terms:
                    assert sum(e for v, e in mono if v in w1) == 1
                    assert sum(e for v, e in mono if v in w2) == 1


def test_separated_coefficients_stay_integers():
    sep = decode_separation(
        separate_packed((1, 2, 2, 1), NormalFormY.of((1, 1))))
    coeffs = list(sep.separated.terms.values())
    assert coeffs and all(type(c) is int for c in coeffs)


def test_substitution_identity_exhaustive():
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            if d1 + d2 == 0:
                continue
            for a, y0 in enumerate_instances(DimVector(d1, d2)):
                sep = decode_separation(separate_packed(a, y0))
                assert back_substitute(sep) == sep.trace


def test_single_substitution_matches_chained():
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
                h = expand_trace(sh, y0)
                chained = h.substitute(m_expr).substitute(x_expr)
                sep = decode_separation(separate_packed(a, y0))
                assert sep.separated == chained, (a, entries)


def _mp_free(p):
    return RefPoly({m: c for m, c in p.terms.items()
                    if all(v.kind != "Mp" for v, _ in m)})


def _six_pieces(comp, y0):
    # independent derivation of the separated polynomial from the six
    # displayed term families
    sh = flag_shape(comp)
    entries = y0.sorted_entries()
    i_set = {i for i, _ in entries}
    j_set = {j for _, j in entries}
    t_pairs, m_expr, _ = _inversion(sh, entries)
    t_set = set(t_pairs)

    def v(kind, r, c):
        return RefPoly.var(VarId(kind, r, c))

    total = RefPoly.zero()
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
                sep = decode_separation(separate_packed(a, y0))
                assert sep.separated == _six_pieces(a, y0), \
                    (a, sorted(y0.entries))


def _assert_matches_reference(a):
    # the polynomials of the packed kernel, decoded, equal those the RefPoly
    # construction of the oracle builds on tuple monomials, and the JSON
    # reports, per instance and as one batch per composition, equal the
    # ones rendered from the reference's RefPoly fields
    listed = enumerate_matchings(flag_shape(a))
    expected = []
    for y0 in listed:
        dec = decode_separation(separate_packed(a, y0))
        ref = separate_reference(a, y0)
        where = (a, sorted(y0.entries))
        assert dec.trace == ref.trace, where
        assert dec.separated == ref.separated, where
        assert dec.definitions == ref.definitions, where
        expected.append(reference_dict(ref))
        assert report_dicts(a, [y0]) == expected[-1:], where
        # the degree bound of the layout's docstring
        k = len(y0.entries)
        assert all(sum(e for _, e in mono) <= 2 * k + 2
                   for mono in ref.separated.terms)
        restored = back_substitute(ref) == ref.trace
        assert restored and certify(a, y0) is restored
    assert report_dicts(a, listed) == expected, a


def test_certify_matches_multipoly_reference():
    for d1 in range(0, 5):
        for d2 in range(0, 5):
            if d1 + d2 == 0:
                continue
            for a in compositions(d1, d2):
                _assert_matches_reference(a)


def test_separate_packed_matches_reference_off_the_square():
    # every X entry of (d1, d2) has a slot, admissible or not, while each
    # composition keeps only its admissible X: exhaustive on two dimension
    # vectors with d1 != d2 and an entry above 4
    for d1, d2 in ((3, 5), (5, 3)):
        for a in compositions(d1, d2):
            _assert_matches_reference(a)


def test_group_masks_match_the_reference_split():
    # the unit masks of every instance, decoded, equal the oracle's VarId
    # split, and no variable is in two groups.  The split of a dimension
    # vector is kept per (I, J) and shared by its compositions: running the
    # compositions forward and then in reverse, from empty memos, has each
    # (I, J) split first for a different composition in each pass, so a
    # memo that carried one composition's admissibility fails here
    dims = [(d1, d2) for d1 in range(5) for d2 in range(5) if d1 + d2]
    comps = [a for d1, d2 in dims + [(3, 5), (5, 3)]
             for a in compositions(d1, d2)]
    _chart.cache_clear()
    _layout.cache_clear()
    for order in (comps, comps[::-1]):
        for a in order:
            shape = flag_shape(a)
            for y0 in matchings(a):
                sep = separate_packed(a, y0)
                assert not (sep.w1 & sep.w2 or sep.w1 & sep.vc
                            or sep.w2 & sep.vc), (a, y0)
                dec = decode_separation(sep)
                assert (dec.w1, dec.w2, dec.vc) == _classify(
                    shape, y0.sorted_entries(), sep.t_pairs), (a, y0)


def test_pieces_filter_the_layout_templates():
    # each composition's trace pieces, filtered from the templates of its
    # dimension vector, equal the oracle's pieces built from the
    # admissible factors, at every admissible y0 entry
    for d1 in range(0, 5):
        for d2 in range(0, 5):
            charts = [_chart(a) for a in compositions(d1, d2)]
            # one layout, so one slot and unit table, per dimension vector
            assert len({id(c.layout) for c in charts}) <= 1, (d1, d2)
            for chart in charts:
                sh = chart.shape
                assert [(r, c) for u, r, c in chart.layout.x_vars
                        if u & chart.keep] == x_positions(sh)
                for entry in y_positions(sh):
                    expected = {encode(chart.layout.slots, mono): c
                                for mono, c in trace_pieces(sh)[entry].items()}
                    assert chart.piece(entry) == expected, \
                        (sh.composition, entry)


def test_packed_chart_guards_exponent_fields():
    # 2 (k + 1)**2 must fit 8 bits: k = min(d1, d2) <= 10
    assert MAX_RANK_BOUND == 10
    assert _chart((1,) * 10 + (2,) * 11).layout.slots.variables
    with pytest.raises(ValueError, match="degree bound 288"):
        _chart((1,) * 11 + (2,) * 11)
    # listing the matchings builds no chart, so it has no such bound
    assert matchings((2,) * 11 + (1,) * 11) == [NormalFormY.of()]


def test_separate_rejects_inadmissible_y0():
    with pytest.raises(ValueError):
        separate_packed((1, 2, 2, 1), NormalFormY.of((2, 1)))


def test_bilinearity_failure_is_hard_error(monkeypatch):
    import semican.separation as sep
    from semican import packed
    from semican.sympoly import BilinearityError

    def broken(*args, **kwargs):
        raise BilinearityError("X(1,2)^2")

    monkeypatch.setattr(packed, "check_bilinear", broken)
    with pytest.raises(SeparationError) as exc:
        sep.report_dicts((1, 2, 2, 1), [NormalFormY.of((1, 1))])
    assert "X(1,2)^2" in str(exc.value)


def test_report_serializes():
    y0 = NormalFormY.of((1, 2))
    sep = separate_packed((1, 2, 2, 1), y0)
    blob = json.dumps(report_dicts((1, 2, 2, 1), [y0])[0])
    data = json.loads(blob)
    assert data["trace_poly"] == decode_separation(sep).trace.to_str()
    assert data["b_shape"] == [sep.w1.bit_count(), sep.w2.bit_count()]


def test_monomial_sort_keys_sort_as_tuple_monomials():
    # the reports order terms by the byte keys of `_MonomialNames`, which
    # must sort as the decoded tuple monomials do; (10, 10) has 335 slots,
    # so its field indices take both bytes of a key
    rng = random.Random(31)
    for d in (4, 10):
        slots = _layout(d, d).slots
        n = len(slots.variables)
        assert n == (50 if d == 4 else 335)
        names = _MonomialNames(slots)
        edges = [0, 1, n - 1] + ([255, 256] if n > 256 else [])
        monos = set()
        for _ in range(40):
            # few fields per pool: shared first factors and prefixes
            pool = sorted({*rng.sample(range(n), 4), *rng.sample(edges, 2)})
            for _ in range(25):
                fields = rng.sample(pool, rng.randint(0, len(pool)))
                monos.add(sum(rng.choice((1, 2, 3, 255))
                              << (packed.FIELD_BITS * f) for f in fields))
        monos = list(monos)
        rng.shuffle(monos)
        assert len(monos) > 500
        assert sorted(monos, key=lambda m: names[m][0]) \
            == sorted(monos, key=slots.decode), d


def test_calls_leave_no_cyclic_garbage():
    # what each call builds is freed by reference counting alone: the
    # cyclic collector finds nothing after it
    a = (1, 2, 2, 1, 1, 2, 2, 1)
    y0 = NormalFormY.of((1, 2), (3, 3), (2, 4))
    calls = [(matchings, (a,)),
             (instances_at, (DimVector(4, 4), [5, 900, 2000])),
             (report_texts, (a, [y0])),
             (certify, (a, y0))]
    gc.collect()
    gc.disable()
    try:
        for call, args in calls:
            call(*args)
            assert gc.collect() == 0, call.__name__
    finally:
        gc.enable()


def test_readme_library_example(capsys):
    # the README's block runs as printed and gives the outputs it documents
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["M(2,1)*X(1,2)", "M(2,1)"]


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
            for i, j in x_positions(sh):
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
