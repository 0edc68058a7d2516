"""Variable separation for the trace function on a flag-stabilizing chart.

Fixing a composition of the two vertex letters fixes a complete flag; the
chart consists of representations x stabilizing it, acted on by the two
opposite unipotent groups.  For a covector y0 in Borel normal form (at most
one unit entry per row and column) the trace function expands into six
families of terms; after a triangular change of variables it becomes exactly
bilinear in two disjoint variable groups, with coefficients in the rest.
Bilinearity forces the Hessian rank to be even at every coefficient value,
which certifies that the shifted vanishing-cycle Euler number at the chart
origin equals 1.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import packed
from .core import DimVector, compositions
from .sympoly import BilinearityError, Mono, VarId, _mono_str, join_terms


class SeparationError(RuntimeError):
    """Bilinearity failed; carries the witness monomial.  Must never happen."""


class FlagShape(namedtuple("FlagShape", "composition t_slots s_slots")):
    """Slot data of a composition: which matrix entries may be nonzero.

    t_slots / s_slots are the 1-based positions of the vertex-1 / vertex-2
    letters, each a tuple of ints.  x (d2 x d1) may be nonzero at (i, j) iff
    s_i < t_j; y (d1 x d2) at (j, i) iff t_j < s_i.  Exactly one of the two
    holds for every pair.
    """

    # no __slots__: the cached_property table lives in the __dict__

    def __reduce__(self):
        # pickled as its composition alone, without the cached table
        return flag_shape, (self.composition,)

    @property
    def d1(self) -> int:
        return len(self.t_slots)

    @property
    def d2(self) -> int:
        return len(self.s_slots)

    def adm_x(self, row: int, col: int) -> bool:
        return self.s_slots[row - 1] < self.t_slots[col - 1]

    def adm_y(self, row: int, col: int) -> bool:
        return self.t_slots[row - 1] < self.s_slots[col - 1]

    @cached_property
    def packed_chart(self) -> _PackedChart:
        """The tables of the separation: exponent slots and trace pieces."""
        return _PackedChart(self)


class _Layout:
    """The exponent slots and trace templates of one dimension vector.

    There is a slot for every M, N and X variable of (d1, d2), X over all
    d2 x d1 entries, and for the primed copy M'/X' of every M and X, so
    every composition of (d1, d2) fits the one `Slots` table.  Its `VarId`,
    built here once, names the slot and orders the fields; the separation
    itself knows a variable only by its unit monomial
    `unit[kind, row, col]`.  `m_vars`, `n_vars` and `x_vars` list the
    unprimed variables as (unit, row, col).  `templates[entry]` lists the
    trace terms of one y0 entry (ia, ja) as (x_row, x_col, monomial): the
    X*N, X*M and X*M*N families tied to the entry, of which a composition
    keeps the terms whose X is admissible.  No term belongs to two entries.

    Degree bound, with k = min(d1, d2) >= the number of y0 entries: each
    M expression of the inversion has degree <= max(1, k), each X
    expression and each primed definition degree <= k + 1, so the separated
    trace (from X*N, X*M, X*M*N terms) has degree <= 2k + 2 and its back
    substitution degree <= 2(k + 1)**2 (`_degree_bound`).  No exponent
    exceeds the degree of its monomial, so this bound, checked by
    `packed.Slots`, keeps every exponent inside its field; MAX_RANK_BOUND
    is the largest k it allows.
    """

    def __init__(self, d1: int, d2: int):
        m, n = ([(j, i) for j in range(2, d + 1) for i in range(1, j)]
                for d in (d1, d2))  # strictly lower entries of the unipotents
        x = [(i, j) for i in range(1, d2 + 1) for j in range(1, d1 + 1)]
        keys = [(kind, r, c) for kind, group in (("M", m), ("Mp", m), ("N", n),
                                                 ("X", x), ("Xp", x))
                for r, c in group]
        variables = [VarId(*key) for key in keys]
        self.slots = packed.Slots(
            variables, max_degree=_degree_bound(min(d1, d2)))
        self.unit = unit = dict(zip(keys, map(self.slots.unit.get, variables)))
        self.m_vars, self.n_vars, self.x_vars = (
            [(unit[kind, r, c], r, c) for r, c in group]
            for kind, group in (("M", m), ("N", n), ("X", x)))
        self.templates = {
            (ia, ja): [(i, ia, unit["X", i, ia] + unit["N", ja, i])
                       for i in range(1, ja)]
            + [(ja, j, unit["X", ja, j] + unit["M", j, ia])
               for j in range(ia + 1, d1 + 1)]
            + [(i, j, unit["X", i, j] + unit["M", j, ia] + unit["N", ja, i])
               for i in range(1, ja) for j in range(ia + 1, d1 + 1)]
            for ia in range(1, d1 + 1) for ja in range(1, d2 + 1)}


@lru_cache(maxsize=16)
def _layout(d1: int, d2: int) -> _Layout:
    return _Layout(d1, d2)


class _PackedChart:
    """One shape's view of its dimension vector's `_Layout`.

    It shares the layout's `slots`, `unit`, `m_vars` and `n_vars` and keeps
    the admissible X only in `x_vars`.  `piece(entry)` holds the trace
    terms of one y0 entry, each with coefficient 1: the entry's template
    less the terms whose X is not admissible.  It is built on first use,
    because a sampled run touches few entries of each shape, and shared
    after that, so callers must not mutate it.
    """

    def __init__(self, shape: FlagShape):
        layout = _layout(shape.d1, shape.d2)
        self.shape = shape
        self.slots, self.unit = layout.slots, layout.unit
        self.m_vars, self.n_vars = layout.m_vars, layout.n_vars
        self.x_vars = [v for v in layout.x_vars if shape.adm_x(v[1], v[2])]
        self._templates = layout.templates
        self._pieces: dict = {}

    def piece(self, entry: tuple[int, int]) -> dict[int, int]:
        p = self._pieces.get(entry)
        if p is None:
            s, t = self.shape.s_slots, self.shape.t_slots
            p = self._pieces[entry] = {
                m: 1 for i, j, m in self._templates[entry]
                if s[i - 1] < t[j - 1]}
        return p


def _degree_bound(k: int) -> int:
    """The degree bound of `_Layout` when min(d1, d2) = k."""
    return 2 * (k + 1) ** 2


# the largest min(d1, d2) whose charts fit the exponent fields (10 with
# 8-bit fields); `verify` refuses larger dimension vectors up front
MAX_RANK_BOUND = max(k for k in range(packed.FIELD_MASK)
                     if _degree_bound(k) <= packed.FIELD_MASK)


def flag_shape(composition) -> FlagShape:
    """The FlagShape of a composition.

    Memoised: a composition among the 1024 most recently used gets the same
    object back, with the tables it has built so far.
    """
    return _flag_shape(tuple(composition))


@lru_cache(maxsize=1024)  # holds every composition of (6, 6)
def _flag_shape(composition: tuple) -> FlagShape:
    a = tuple(int(v) for v in composition)
    if any(v not in (1, 2) for v in a):
        raise ValueError(f"composition letters must be 1 or 2: {a}")
    t = tuple(k + 1 for k, v in enumerate(a) if v == 1)
    s = tuple(k + 1 for k, v in enumerate(a) if v == 2)
    return FlagShape(a, t, s)


class NormalFormY(namedtuple("NormalFormY", "entries")):
    """Partial matching of unit entries: at most one per row and per column."""

    __slots__ = ()

    def __new__(cls, entries: frozenset[tuple[int, int]]):
        self = super().__new__(cls, entries)
        rows = [i for i, _ in self.entries]
        cols = [j for _, j in self.entries]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError(f"repeated row or column in {sorted(self.entries)}")
        return self

    @classmethod
    def of(cls, *positions) -> "NormalFormY":
        entries = [(int(i), int(j)) for i, j in positions]
        if len(set(entries)) != len(entries):
            raise ValueError(f"repeated row or column in {sorted(entries)}")
        return cls(frozenset(entries))

    def sorted_entries(self) -> list[tuple[int, int]]:
        return sorted(self.entries, key=lambda e: e[1])


def validate_matching(shape: FlagShape, y0: NormalFormY) -> None:
    for i, j in sorted(y0.entries):
        if not (1 <= i <= shape.d1 and 1 <= j <= shape.d2):
            raise ValueError(f"y0 entry ({i},{j}) out of range for "
                             f"({shape.d1}, {shape.d2})")
        if not shape.adm_y(i, j):
            raise ValueError(
                f"y0 entry ({i},{j}) violates flag stability: "
                f"slot {shape.t_slots[i - 1]} of vertex 1 comes after "
                f"slot {shape.s_slots[j - 1]} of vertex 2"
            )


# ---------------------------------------------------------------------------
# the instances by index
#
# The instances of a dimension vector are ordered by composition, in
# `compositions` order, then by matching, by (size, sorted entries).
# Row i of a composition admits the columns j > before[i - 1], the number
# of letters 2 before its i-th letter 1.  These sets shrink as i grows, so
# the admissible positions form a Ferrers board, and removing some rows and
# columns leaves one.


def _rook_numbers(heights, most: int) -> list[int]:
    """r[k], for k <= most: the k-entry matchings of a Ferrers board.

    `heights` are its row lengths, nondecreasing, so each row's columns
    contain those of the rows before it, and an entry in a row has (length
    - entries placed so far) free columns (Goldman, Joichi and White, Proc.
    AMS 52, 1975).
    """
    r = [1] + [0] * most
    for h in heights:
        for k in range(most, 0, -1):
            r[k] += (h - k + 1) * r[k - 1]
    return r


def _blocks(sized, base: int, ranks: list[int]):
    """The blocks that hold a rank, in order.

    `sized` yields (key, size) of consecutive blocks, the first starting at
    `base`; `ranks` are sorted.  Yields (key, start, the ranks in it), and
    stops once every rank is placed, so later sizes are never computed:
    with no ranks, `sized` is not read at all.
    """
    if not ranks:
        return
    for key, n in sized:
        k = bisect_left(ranks, base + n)
        if k:
            yield key, base, ranks[:k]
            ranks = ranks[k:]
            if not ranks:
                return
        base += n


def _twos_before(composition) -> list[int]:
    """The number of letters 2 before each letter 1, in order."""
    before, twos = [], 0
    for letter in composition:
        if letter == 1:
            before.append(twos)
        else:
            twos += 1
    return before


def _count_matchings(before: list[int], d2: int) -> int:
    return sum(_rook_numbers([d2 - b for b in reversed(before)], len(before)))


def _sized_compositions(dim: DimVector):
    """((composition, before), its instance count) of each composition, in
    `compositions` order."""
    for a in compositions(dim.d1, dim.d2):
        before = _twos_before(a)
        yield (a, before), _count_matchings(before, dim.d2)


def count_instances(dim: DimVector) -> int:
    """The number of instances, without listing them: the sum over all
    compositions of their rook numbers."""
    return sum(n for _, n in _sized_compositions(dim))


def matchings(composition) -> list[NormalFormY]:
    """Every admissible matching of a composition, the empty one included,
    in instance order."""
    shape = flag_shape(composition)
    before = _twos_before(shape.composition)
    ranks = list(range(_count_matchings(before, shape.d2)))
    return [NormalFormY(frozenset(entries))
            for entries in _matchings_at(before, shape.d2, ranks)]


def instances_at(dim: DimVector, indices) -> list[tuple[tuple, NormalFormY]]:
    """The instances of `dim` at these indices of the instance order.

    One walk over the compositions, skipping each by its instance count;
    the indices in one composition share its counting.  Raises IndexError
    unless every index is in range(count_instances(dim)).
    """
    indices = list(indices)
    wanted = sorted(set(indices))
    if wanted and wanted[0] < 0:
        raise IndexError(f"instance index {wanted[0]} is negative")
    found: dict[int, tuple[tuple, NormalFormY]] = {}
    for (a, before), base, ranks in _blocks(_sized_compositions(dim), 0,
                                            wanted):
        picked = _matchings_at(before, dim.d2, [r - base for r in ranks])
        for r, entries in zip(ranks, picked):
            found[r] = a, NormalFormY(frozenset(entries))
    if len(found) < len(wanted):
        raise IndexError(f"instance index {wanted[-1]} out of range for "
                         f"({dim.d1}, {dim.d2})")
    return [found[i] for i in indices]


def _matchings_at(before: list[int], d2: int, ranks: list[int]) -> list:
    """The entries of the matchings of these sorted ranks in one composition.

    Row i (from 1) admits the columns j with before[i - 1] < j <= d2.  The
    matchings are in instance order, by (size, sorted entries): the blocks
    are the matchings of each size, by rook number, then those of each next
    entry in (row, column) order, by the count of their completions in the
    later rows, less its column.
    """
    out: list[tuple] = []

    def walk(free, row, entries, size, base, ranks):
        cols = {c for _, c in entries}
        if size < 2:  # a block of one matching each
            last = [()] if not size else [
                ((i + 1, j),) for i in range(row, len(before))
                for j in range(before[i] + 1, d2 + 1) if j not in cols]
            out.extend(entries + last[r - base] for r in ranks)
            return

        def next_entries():
            for i in range(row, len(before)):
                for j in range(before[i] + 1, d2 + 1):
                    if j not in cols:
                        rest = [f - (j > b) for f, b in zip(free, before)]
                        yield ((i + 1, j), rest), _rook_numbers(
                            rest[:i:-1], size - 1)[-1]

        for (entry, rest), start, part in _blocks(next_entries(), base, ranks):
            walk(rest, entry[0], entries + (entry,), size - 1, start, part)

    free = [d2 - b for b in before]  # the free columns of each row
    sizes = _rook_numbers(free[::-1], len(before))
    for size, start, part in _blocks(enumerate(sizes), 0, ranks):
        walk(free, 0, (), size, start, part)
    return out


def _coupled_pairs(shape: FlagShape, entries):
    """The set T: pairs (alpha', alpha) of y0 entries coupled through x."""
    return [(ap, al) for ap in entries for al in entries
            if shape.adm_x(ap[1], al[0])]


def _fiber(t_pairs, al):
    """The alpha' coupled to alpha, by decreasing column."""
    return sorted((ap for ap, a2 in t_pairs if a2 == al), key=lambda e: -e[1])


def _classify(chart: _PackedChart, entries, t_pairs):
    """The quadratic/coefficient split of all chart variables, as sets of
    unit monomials."""
    unit = chart.unit
    i_set = {i for i, _ in entries}
    j_set = {j for _, j in entries}
    t_m = {unit["M", al[0], ap[0]] for ap, al in t_pairs}
    t_x = {unit["X", ap[1], al[0]] for ap, al in t_pairs}

    w1 = {unit["Mp", al[0], ap[0]] for ap, al in t_pairs}
    w2 = {unit["Xp", ap[1], al[0]] for ap, al in t_pairs}
    vc = set()
    for u, j, i in chart.m_vars:
        if u in t_m:
            continue  # replaced by M'
        if j not in i_set and i in i_set:
            w1.add(u)
        else:
            vc.add(u)
    for u, j, i in chart.n_vars:
        if j in j_set and i not in j_set:
            w2.add(u)
        else:
            vc.add(u)
    for u, i, j in chart.x_vars:
        if u in t_x:
            continue  # replaced by X'
        if i not in j_set and j in i_set:
            w1.add(u)
        elif i in j_set and j not in i_set:
            w2.add(u)
        else:
            vc.add(u)
    return w1, w2, vc


def _separation_error(composition, entries, exc) -> SeparationError:
    return SeparationError(
        f"separation failed on {composition} with y0 {entries}: {exc}")


# ---------------------------------------------------------------------------
# the construction, on `packed` polynomials over the layout's slots


class PackedSeparation(NamedTuple):
    """The polynomials of one separation on the packed kernel.

    `changes` maps each coupled M and X unit monomial to its expression in
    the new variables, `definitions` each primed unit monomial to its
    definition in the original ones; `w1`, `w2` and `vc` are the unit
    monomial groups of `_classify`.
    """

    chart: _PackedChart
    t_pairs: list
    trace: dict[int, int]
    separated: dict[int, int]
    changes: dict[int, dict[int, int]]
    definitions: dict[int, dict[int, int]]
    w1: set
    w2: set
    vc: set


def _packed_inversion(chart: _PackedChart, entries, t_pairs):
    """Triangular elimination of the coupled lower-unipotent variables.

    Returns (m_expr, mp_def): the expression of each coupled M variable in
    the new M' variables, keyed by its (row, col), and the definition of
    each M' in the original ones, keyed by unit monomial.  Processing each
    fiber by decreasing second matching column makes the system triangular,
    so the inversion is formal and exact.
    """
    unit = chart.unit
    m_expr: dict[tuple[int, int], dict] = {}
    mp_def: dict[int, dict] = {}
    for al in entries:
        ia, ja = al
        for ip, jp in _fiber(t_pairs, al):
            n = unit["N", ja, jp]
            mp = unit["Mp", ia, ip]
            defn = {unit["M", ia, ip]: 1, n: 1}
            expr = {mp: 1, n: -1}
            for ib, jb in entries:
                if ib < ia and jb > jp:
                    n = unit["N", jb, jp]
                    cross = unit["M", ia, ib]
                    packed.add_into(defn, {cross: 1}, shift=n)
                    packed.add_into(expr, m_expr.get((ia, ib), {cross: 1}),
                                    scale=-1, shift=n)
            m_expr[ia, ip] = packed.nonzero(expr)
            mp_def[mp] = packed.nonzero(defn)
    return m_expr, mp_def


def _packed_x_change(chart: _PackedChart, j_set, t_pairs, m_expr):
    """Change of the coupled X variables absorbing the mixed X U N terms.

    Returns (x_expr, xp_def), both keyed by unit monomial.
    """
    unit = chart.unit
    x_expr: dict[int, dict] = {}
    xp_def: dict[int, dict] = {}
    for ap, al in t_pairs:
        ia, ja = al
        ip, jp = ap
        correction: dict = {}
        for app, a2 in t_pairs:
            if a2 != al or app[1] > jp:
                continue
            if app == ap:
                u = {0: 1}
            else:
                u = packed.coefficient_of(m_expr[ia, app[0]],
                                          unit["Mp", ia, ip])
            # X(i, ia) is admissible for each i < app[1]: the s_slots
            # increase, and X(app[1], ia) is, as (app, al) is in T
            for i in range(1, app[1]):
                if i not in j_set:
                    packed.add_into(correction, u, shift=unit["X", i, ia]
                                    + unit["N", app[1], i])
        correction = packed.nonzero(correction)
        # correction has degree >= 2, so neither X nor X' cancels into it
        x, xp = unit["X", jp, ia], unit["Xp", jp, ia]
        x_expr[x] = {xp: 1, **{m: -c for m, c in correction.items()}}
        xp_def[xp] = {x: 1, **correction}
    return x_expr, xp_def


def separate_packed(composition, y0: NormalFormY) -> PackedSeparation:
    """Separate one instance on the packed kernel.

    Raises SeparationError if the substituted trace fails to be bilinear in
    the quadratic variables; for the two-vertex quiver this cannot happen.
    """
    shape = flag_shape(composition)
    validate_matching(shape, y0)
    entries = y0.sorted_entries()
    chart = shape.packed_chart
    trace: dict[int, int] = {}
    for entry in entries:
        trace.update(chart.piece(entry))
    t_pairs = _coupled_pairs(shape, entries)
    m_expr, mp_def = _packed_inversion(chart, entries, t_pairs)
    x_expr, xp_def = _packed_x_change(chart, {j for _, j in entries},
                                      t_pairs, m_expr)
    changes = {chart.unit["M", ia, ip]: p for (ia, ip), p in m_expr.items()}
    changes.update(x_expr)
    # one substitution for both maps equals one map after the other: no key
    # of either occurs in the other's values (the M expressions hold M, M'
    # and N; the X expressions X', N and the X of rows outside J).  With T
    # empty nothing changes, and the separated polynomial is the trace.
    separated = packed.substitute(trace, changes) if changes else trace
    w1, w2, vc = _classify(chart, entries, t_pairs)
    try:
        packed.check_bilinear(separated, chart.slots, w1, w2, vc)
    except BilinearityError as exc:
        raise _separation_error(composition, entries, exc) from exc
    return PackedSeparation(chart, t_pairs, trace, separated, changes,
                            {**mp_def, **xp_def}, w1, w2, vc)


def certify(composition, y0: NormalFormY) -> bool:
    """Check one instance's separation certificate; render nothing.

    Raises SeparationError, from `separate_packed`, when the separated
    trace is not bilinear.  Otherwise returns whether replacing the primed
    variables by their definitions gives back the trace.
    """
    sep = separate_packed(composition, y0)
    return packed.substitute(sep.separated, sep.definitions) == sep.trace


class _MonomialNames(dict):
    """Packed monomial -> (decoded monomial, its text), filled on first use."""

    def __init__(self, slots: packed.Slots):
        super().__init__()
        self.slots = slots

    def __missing__(self, m: int) -> tuple[Mono, str]:
        mono = self.slots.decode(m)
        entry = self[m] = (mono, _mono_str(mono))
        return entry


def report_dicts(composition, matchings) -> list[dict]:
    """The JSON report of the separation of each matching, in order.

    The one producer of separation reports, which `separate` prints.  Every
    field is rendered straight from `separate_packed`'s polynomials through
    the slot table of its dimension vector, terms in sorted tuple-monomial
    order.  A memo that lives for this call only maps each packed monomial
    to its decoded monomial, the sort key, and its text, so a monomial is
    decoded and rendered once per call however many reports hold it.
    `b_matrix` is the bilinear form, the certificate: a cell is the part of
    the separated trace with one W1 and one W2 factor, split off by the two
    bit masks, as a polynomial in Vc.  Raises SeparationError like
    `separate_packed`.
    """
    shape = flag_shape(composition)
    named = _MonomialNames(shape.packed_chart.slots)

    def render(p: dict[int, int]) -> str:
        if len(p) == 1:  # most cells of a form: nothing to sort
            for m, c in p.items():
                return join_terms([(named[m][1], c)])
        terms = sorted([(*named[m], c) for m, c in p.items()])
        return join_terms([(text, c) for _, text, c in terms])

    zero = join_terms([])
    out = []
    for y0 in matchings:
        sep = separate_packed(shape.composition, y0)
        # a unit's field order is its VarId order, the order of the report
        rows, cols = sorted(sep.w1), sorted(sep.w2)
        row_of = {u: i for i, u in enumerate(rows)}
        col_of = {u: j for j, u in enumerate(cols)}
        row_mask, col_mask = packed.mask(row_of), packed.mask(col_of)
        cells: dict = {}
        for m, c in sep.separated.items():
            # W1 and W2 are disjoint, and each monomial is one unit of each
            # times a monomial in Vc
            r, s = m & row_mask, m & col_mask
            cells.setdefault((row_of[r], col_of[s]), {})[m - r - s] = c
        matrix = [[zero] * len(cols) for _ in rows]
        for (i, j), cell in cells.items():
            matrix[i][j] = render(cell)
        trace = render(sep.trace)
        out.append({
            "composition": list(shape.composition),
            "y0": [list(e) for e in y0.sorted_entries()],
            "set_t": [[list(a), list(b)] for a, b in sorted(sep.t_pairs)],
            "w1": [named[u][1] for u in rows],
            "w2": [named[u][1] for u in cols],
            "vc": [named[u][1] for u in sorted(sep.vc)],
            "trace_poly": trace,
            "separated_poly": (trace if sep.separated is sep.trace
                               else render(sep.separated)),
            "change_of_variables": sorted(
                [named[u][1], render(p)] for u, p in sep.changes.items()),
            "b_shape": [len(rows), len(cols)],
            "b_matrix": matrix,
        })
    return out
