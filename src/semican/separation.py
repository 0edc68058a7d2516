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

import json
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from operator import index, itemgetter
from typing import NamedTuple

from . import packed
from .core import DimVector, compositions
from .sympoly import BilinearityError, VarId, _mono_str, join_terms

_quote = json.encoder.encode_basestring_ascii  # as json.dumps quotes a str
_COLUMN = itemgetter(1)


class SeparationError(RuntimeError):
    """Bilinearity failed; carries the witness monomial.  Must never happen."""


class FlagShape(namedtuple("FlagShape", "composition t_slots s_slots")):
    """Slot data of a composition: which matrix entries may be nonzero.

    t_slots / s_slots are the 1-based positions of the vertex-1 / vertex-2
    letters, each a tuple of ints.  x (d2 x d1) may be nonzero at (i, j) iff
    s_i < t_j; y (d1 x d2) at (j, i) iff t_j < s_i.  Exactly one of the two
    holds for every pair.  Built by `flag_shape`; the tables of its
    separation are its chart's (`_chart`).
    """

    __slots__ = ()

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


class _Layout:
    """The exponent slots, trace templates and variable splits of one
    dimension vector, built once by `_layout` and kept for the life of the
    process.

    There is a slot for every M, N and X variable of (d1, d2), X over all
    d2 x d1 entries, and for the primed copy M'/X' of every M and X, so
    every composition of (d1, d2) fits the one `Slots` table.  Its `VarId`,
    built here once, names the slot and orders the fields; the separation
    itself knows a variable only by its unit monomial
    `table[kind][row][col]`, and a group of variables by its unit mask.
    `m_vars`, `n_vars` and `x_vars` list the unprimed variables as (unit,
    row, col).  `templates[entry]` lists the trace terms of one y0 entry
    (ia, ja) as (x_row, x_col, monomial): the X*N, X*M and X*M*N families
    tied to the entry, of which a composition keeps the terms whose X is
    admissible.  No term belongs to two entries.  `split(i_bits, j_bits)`
    is the W1/W2/Vc split of every M, N and X by the rows I and columns J of
    a matching, built once per (I, J) and kept: C(d1 + d2, d1) pairs at
    most.  `names` is the reports' memo of monomial texts
    (`_MonomialNames`), and `reports[depth]` their tables (`_ReportTable`).

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
        kinds = (("M", m, d1, d1), ("Mp", m, d1, d1), ("N", n, d2, d2),
                 ("X", x, d2, d1), ("Xp", x, d2, d1))
        self.slots = packed.Slots(
            [VarId(kind, r, c) for kind, group, _, _ in kinds
             for r, c in group],
            max_degree=_degree_bound(min(d1, d2)))
        unit = self.slots.unit
        # indexed from 1; 0 where a kind has no variable
        self.table = table = {}
        for kind, group, rows, cols in kinds:
            table[kind] = [[0] * (cols + 1) for _ in range(rows + 1)]
            for r, c in group:
                table[kind][r][c] = unit[VarId(kind, r, c)]
        self.units = sum(unit.values())  # the mask of every slot
        self.m_vars, self.n_vars, self.x_vars = (
            [(table[kind][r][c], r, c) for r, c in group]
            for kind, group in (("M", m), ("N", n), ("X", x)))
        self._splits: dict = {}
        mt, nt, xt = table["M"], table["N"], table["X"]
        self.templates = {
            (ia, ja): [(i, ia, xt[i][ia] + nt[ja][i]) for i in range(1, ja)]
            + [(ja, j, xt[ja][j] + mt[j][ia]) for j in range(ia + 1, d1 + 1)]
            + [(i, j, xt[i][j] + mt[j][ia] + nt[ja][i])
               for i in range(1, ja) for j in range(ia + 1, d1 + 1)]
            for ia in range(1, d1 + 1) for ja in range(1, d2 + 1)}
        self.names = _MonomialNames(self.slots)
        self.reports: dict[int, _ReportTable] = {}

    def split(self, i_bits: int, j_bits: int) -> tuple[int, int, int]:
        """The unit masks (W1, W2, Vc) of every M, N and X of (d1, d2), for
        a matching with rows I and columns J, before the change of
        variables.  `i_bits` and `j_bits` have bit i set for each i in I
        and J.

        M(j, i) is in W1 when i is a row of I and j is not; N(j, i) is in
        W2 when j is a column of J and i is not; X(i, j) is in W1 when j is
        in I and i not in J, and in W2 when i is in J and j not in I.  The
        rest is Vc.  Nothing here depends on the composition: a chart
        removes the X it does not admit (`_PackedChart.keep`).
        """
        key = i_bits, j_bits
        masks = self._splits.get(key)
        if masks is None:
            w1 = w2 = vc = 0
            for u, j, i in self.m_vars:
                if not i_bits >> j & 1 and i_bits >> i & 1:
                    w1 += u
                else:
                    vc += u
            for u, j, i in self.n_vars:
                if j_bits >> j & 1 and not j_bits >> i & 1:
                    w2 += u
                else:
                    vc += u
            for u, i, j in self.x_vars:
                if not j_bits >> i & 1 and i_bits >> j & 1:
                    w1 += u
                elif j_bits >> i & 1 and not i_bits >> j & 1:
                    w2 += u
                else:
                    vc += u
            masks = self._splits[key] = w1, w2, vc
        return masks


@lru_cache(maxsize=None)
def _layout(d1: int, d2: int) -> _Layout:
    """The one layout of (d1, d2), kept for the life of the process."""
    return _Layout(d1, d2)


class _PackedChart:
    """One shape's view of its dimension vector's `_Layout`, kept in `layout`.

    Built by `_chart`, one per composition.  The slot table and the unit
    tables are the layout's (`layout.slots`, `layout.table`).  `keep` is
    the unit mask of every slot of the layout except the X the shape does
    not admit.  `y_entries` holds the admissible y0 entries (i, j), those
    with t_i < s_j.  `piece(entry)` holds the trace terms of one y0 entry,
    each with coefficient 1: the entry's template less the terms whose X is
    not admissible.  It is built on first use, because a sampled run
    touches few entries of each shape, and shared after that, so callers
    must not mutate it.
    """

    def __init__(self, shape: FlagShape):
        layout = _layout(shape.d1, shape.d2)
        self.shape = shape
        self.keep = layout.units - sum(
            u for u, i, j in layout.x_vars if not shape.adm_x(i, j))
        t, s = shape.t_slots, shape.s_slots
        # the layout's entry tuples, shared by every chart of its vector
        self.y_entries = frozenset(
            e for e in layout.templates if t[e[0] - 1] < s[e[1] - 1])
        self.layout = layout
        self._pieces: dict = {}

    def piece(self, entry: tuple[int, int]) -> dict[int, int]:
        p = self._pieces.get(entry)
        if p is None:
            s, t = self.shape.s_slots, self.shape.t_slots
            p = self._pieces[entry] = {
                m: 1 for i, j, m in self.layout.templates[entry]
                if s[i - 1] < t[j - 1]}
        return p


def _degree_bound(k: int) -> int:
    """The degree bound of `_Layout` when min(d1, d2) = k."""
    return 2 * (k + 1) ** 2


# the largest min(d1, d2) whose charts fit the exponent fields (10 with
# 8-bit fields); `verify` refuses larger dimension vectors up front
MAX_RANK_BOUND = max(k for k in range(packed.FIELD_MASK)
                     if _degree_bound(k) <= packed.FIELD_MASK)


def _ints(values, what: str = "composition letters") -> tuple:
    """The values as ints, each read by `operator.index`: ints, bools and
    numpy ints pass, and a float raises ValueError instead of being
    truncated."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be ints: {values}") from None


def flag_shape(composition) -> FlagShape:
    """The FlagShape of a composition, each letter 1 or 2."""
    a = _ints(composition)
    if any(v not in (1, 2) for v in a):
        raise ValueError(f"composition letters must be 1 or 2: {a}")
    t = tuple(k + 1 for k, v in enumerate(a) if v == 1)
    s = tuple(k + 1 for k, v in enumerate(a) if v == 2)
    return FlagShape(a, t, s)


@lru_cache(maxsize=1024)  # holds every composition of (6, 6)
def _chart(composition: tuple) -> _PackedChart:
    """The chart of a composition, with the trace pieces it has built so
    far: a composition among the 1024 most recently used gets the same
    object back.  Callers pass the letters through `_ints` first, as a
    float equal to a letter would find that letter's chart here."""
    return _PackedChart(flag_shape(composition))


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
        entries = [_ints((i, j), "y0 indices") for i, j in positions]
        if len(set(entries)) != len(entries):
            raise ValueError(f"repeated row or column in {sorted(entries)}")
        return cls(frozenset(entries))

    def sorted_entries(self) -> list[tuple[int, int]]:
        return sorted(self.entries, key=_COLUMN)


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
    shape = flag_shape(composition)  # no chart, so no bound on its size
    before = _twos_before(shape.composition)
    ranks = list(range(_count_matchings(before, shape.d2)))
    # a matching by construction: `_make` skips the checks of NormalFormY()
    return [NormalFormY._make((frozenset(entries),))
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
            found[r] = a, NormalFormY._make((frozenset(entries),))
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
    free = [d2 - b for b in before]  # the free columns of each row
    sizes = _rook_numbers(free[::-1], len(before))
    for size, start, part in _blocks(enumerate(sizes), 0, ranks):
        _walk(before, d2, out, free, 0, (), size, start, part)
    return out


def _walk(before, d2, out, free, row, entries, size, base, ranks):
    """Append to `out` the matchings of these ranks, from `base` on, that
    add `size` entries to `entries` in rows `row` (from 0) on."""
    cols = {c for _, c in entries}
    if size < 2:  # a block of one matching each
        last = [()] if not size else [
            ((i + 1, j),) for i in range(row, len(before))
            for j in range(before[i] + 1, d2 + 1) if j not in cols]
        out.extend(entries + last[r - base] for r in ranks)
        return
    nexts = ((((i + 1, j), rest), _rook_numbers(rest[:i:-1], size - 1)[-1])
             for i in range(row, len(before))
             for j in range(before[i] + 1, d2 + 1) if j not in cols
             for rest in ([f - (j > b) for f, b in zip(free, before)],))
    for (entry, rest), start, part in _blocks(nexts, base, ranks):
        _walk(before, d2, out, rest, entry[0], entries + (entry,), size - 1,
              start, part)


def _coupled_pairs(shape: FlagShape, entries):
    """The set T: pairs (alpha', alpha) of y0 entries coupled through x,
    X(j', i) admissible, in the order of `entries` for alpha' then alpha."""
    s, t = shape.s_slots, shape.t_slots
    return [(ap, al) for ap in entries for al in entries
            if s[ap[1] - 1] < t[al[0] - 1]]


def _separation_error(composition, entries, exc) -> SeparationError:
    return SeparationError(
        f"separation failed on {composition} with y0 {entries}: {exc}")


# ---------------------------------------------------------------------------
# the construction, on `packed` polynomials over the layout's slots


class PackedSeparation(NamedTuple):
    """The polynomials of one separation on the packed kernel.

    `entries` are the y0 entries by column.  `changes` maps each coupled M
    and X unit monomial to its expression in the new variables,
    `definitions` each primed unit monomial to its definition in the
    original ones; both are empty when T is.  `w1`, `w2` and `vc` are the
    unit masks of the variable groups: the chart's split (`_Layout.split`)
    with each coupled M and X replaced by its primed copy, M' into W1 and
    X' into W2.
    """

    chart: _PackedChart
    entries: list
    t_pairs: list
    trace: dict[int, int]
    separated: dict[int, int]
    changes: dict[int, dict[int, int]]
    definitions: dict[int, dict[int, int]]
    w1: int
    w2: int
    vc: int


def _packed_inversion(table, entries, fibers):
    """Triangular elimination of the coupled lower-unipotent variables.

    `fibers` maps each y0 entry alpha to the alpha' coupled to it, by
    decreasing column.  Returns (m_expr, mp_def): the expression of each
    coupled M variable in the new M' variables and the definition of each
    M' in the original ones, both keyed by unit monomial.  Processing each
    fiber in that order makes the system triangular, so the inversion is
    formal and exact.
    """
    mt, mpt, nt = table["M"], table["Mp"], table["N"]
    m_expr: dict[int, dict] = {}
    mp_def: dict[int, dict] = {}
    for (ia, ja), fiber in fibers.items():
        for ip, jp in fiber:
            n = nt[ja][jp]
            mp = mpt[ia][ip]
            defn = {mt[ia][ip]: 1, n: 1}
            expr = {mp: 1, n: -1}
            for ib, jb in entries:
                if ib < ia and jb > jp:
                    n = nt[jb][jp]
                    cross = mt[ia][ib]
                    defn[cross + n] = defn.get(cross + n, 0) + 1
                    # a coupled (ib, jb) came earlier in the fiber, so
                    # its M is already expressed
                    packed.add_into(expr, m_expr.get(cross, {cross: 1}),
                                    scale=-1, shift=n)
            m_expr[mt[ia][ip]] = packed.nonzero(expr)
            mp_def[mp] = packed.nonzero(defn)
    return m_expr, mp_def


def _packed_x_change(table, j_bits, fibers, m_expr):
    """Change of the coupled X variables absorbing the mixed X U N terms.

    Returns (x_expr, xp_def), both keyed by unit monomial.
    """
    mt, mpt, nt = table["M"], table["Mp"], table["N"]
    xt, xpt = table["X"], table["Xp"]
    x_expr: dict[int, dict] = {}
    xp_def: dict[int, dict] = {}
    for (ia, _), fiber in fibers.items():
        for k, (ip, jp) in enumerate(fiber):
            correction: dict = {}
            # the alpha'' of the fiber with column <= jp: this alpha' and
            # those after it
            for ipp, jpp in fiber[k:]:
                u = {0: 1} if ipp == ip else packed.coefficient_of(
                    m_expr[mt[ia][ipp]], mpt[ia][ip])
                # X(i, ia) is admissible for each i < jpp: the s_slots
                # increase, and X(jpp, ia) is, as (alpha'', alpha) is in T
                for i in range(1, jpp):
                    if not j_bits >> i & 1:
                        packed.add_into(correction, u,
                                        shift=xt[i][ia] + nt[jpp][i])
            correction = packed.nonzero(correction)
            # correction has degree >= 2, so neither X nor X' cancels into it
            x, xp = xt[jp][ia], xpt[jp][ia]
            x_expr[x] = {xp: 1, **{m: -c for m, c in correction.items()}}
            xp_def[xp] = {x: 1, **correction}
    return x_expr, xp_def


def separate_packed(composition, y0: NormalFormY) -> PackedSeparation:
    """Separate one instance on the packed kernel.

    Raises ValueError, worded by `validate_matching`, unless every entry of
    y0 is admissible, and SeparationError if the substituted trace fails to
    be bilinear in the quadratic variables; for the two-vertex quiver this
    cannot happen.
    """
    chart = _chart(_ints(composition))
    shape = chart.shape
    if not y0.entries <= chart.y_entries:
        validate_matching(shape, y0)  # raises, naming the first bad entry
    entries = y0.sorted_entries()
    trace: dict[int, int] = {}
    i_bits = j_bits = 0
    for entry in entries:
        trace.update(chart.piece(entry))
        i_bits |= 1 << entry[0]
        j_bits |= 1 << entry[1]
    w1, w2, vc = chart.layout.split(i_bits, j_bits)
    keep = chart.keep
    w1, w2, vc = w1 & keep, w2 & keep, vc & keep
    t_pairs = _coupled_pairs(shape, entries)
    if t_pairs:
        fibers: dict = {}  # alpha -> its alpha', by decreasing column
        for ap, al in reversed(t_pairs):
            fibers.setdefault(al, []).append(ap)
        table = chart.layout.table
        m_expr, mp_def = _packed_inversion(table, entries, fibers)
        x_expr, xp_def = _packed_x_change(table, j_bits, fibers, m_expr)
        changes = {**m_expr, **x_expr}
        # one substitution for both maps equals one map after the other: no
        # key of either occurs in the other's values (the M expressions hold
        # M, M' and N; the X expressions X', N and the X of rows outside J)
        separated = packed.substitute(trace, changes)
        definitions = {**mp_def, **xp_def}
        # the coupled M and X, in Vc by the split (both indices of each are
        # in I or J), give way to M' in W1 and X' in W2
        vc -= sum(changes)
        w1 += sum(mp_def)
        w2 += sum(xp_def)
    else:  # nothing changes: the separated polynomial is the trace
        separated, changes, definitions = trace, {}, {}
    try:
        packed.check_bilinear(separated, chart.layout.slots, w1, w2, vc)
    except BilinearityError as exc:
        raise _separation_error(composition, entries, exc) from exc
    return PackedSeparation(chart, entries, t_pairs, trace, separated,
                            changes, definitions, w1, w2, vc)


def certify(composition, y0: NormalFormY) -> bool:
    """Check one instance's separation certificate; render nothing.

    Raises SeparationError, from `separate_packed`, when the separated
    trace is not bilinear.  Otherwise returns whether replacing the primed
    variables by their definitions gives back the trace.
    """
    sep = separate_packed(composition, y0)
    return packed.substitute(sep.separated, sep.definitions) == sep.trace


class _MonomialNames(dict):
    """Packed monomial m -> (sort key, its text, the text quoted as a JSON
    string, m), filled on first use.

    The key holds 3 bytes per factor of the decoded monomial: its field
    index in 2 bytes, big-endian, then its exponent.  Field order is
    `VarId` order, so keys sort as the tuple monomials do.  One per
    dimension vector, kept by its `_Layout`: every composition of the
    vector shares its slot table, so a monomial is decoded and rendered
    once however many reports, and calls, hold it.
    """

    def __init__(self, slots: packed.Slots):
        super().__init__()
        self.slots = slots
        self._field = {v: k.to_bytes(2, "big")
                       for k, v in enumerate(slots.variables)}

    def __missing__(self, m: int) -> tuple[bytes, str, str, int]:
        mono = self.slots.decode(m)
        text = _mono_str(mono)
        key = b"".join([self._field[v] + bytes((e,)) for v, e in mono])
        entry = self[m] = (key, text, _quote(text), m)
        return entry


def _render(named: _MonomialNames, p: dict[int, int]) -> str:
    """The quoted text of a polynomial, its terms in tuple-monomial order."""
    if len(p) == 1:
        [(m, c)] = p.items()
        if c == 1:
            return named[m][2]
    terms = sorted(map(named.__getitem__, p))  # by sort key
    return _quote(join_terms([(text, p[m]) for _, text, _, m in terms]))


# the keys of a separation report, in order
_REPORT_KEYS = ("composition", "y0", "set_t", "w1", "w2", "vc", "trace_poly",
                "separated_poly", "change_of_variables", "b_shape", "b_matrix")


def _array(items, newline: str) -> str:
    """A JSON list of the item texts as `json.dumps(..., indent=2)` writes
    it, its closing bracket on the line that `newline` starts."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


class _ReportTable:
    """The texts that the reports of one dimension vector share at one
    nesting depth, kept by its `_Layout` in `reports[depth]`.

    `n0`, `n1` and `n2` start the lines of a report's braces, of its
    fields and of the items of a field's list; `pair` is the %-format of a
    list of two such items; `entries[0]` and `entries[1]`
    are the texts of each y0 entry (i, j) in the y0 list and in a set_t
    pair.  Two memos, as few of their keys occur however many reports hold
    them: `group(mask)`, the index of each unit of a unit mask in its group
    and the group's name array, and `form(rows, cols)`, the fixed text of
    a whole report whose `b_matrix` has that shape, in the pieces that go
    before, between and after the texts of its first nine fields and then
    of its cells, row by row.
    """

    def __init__(self, names: _MonomialNames, d1: int, d2: int, depth: int):
        self.names = names
        self.n0 = n0 = "\n" + "  " * depth
        self.n1, self.n2 = n1, n2 = n0 + "  ", n0 + "    "
        n3 = n2 + "  "
        self.pair = "[" + n3 + "%s," + n3 + "%s" + n2 + "]"
        self.entries = [
            {(i, j): _array((str(i), str(j)), newline)
             for i in range(1, d1 + 1) for j in range(1, d2 + 1)}
            for newline in (n2, n3)]
        self._groups: dict[int, tuple[dict[int, int], str]] = {}
        self._forms: dict[tuple[int, int], list[str]] = {}

    def group(self, mask: int) -> tuple[dict[int, int], str]:
        found = self._groups.get(mask)
        if found is None:
            units, rest = [], mask
            while rest:  # ascending bits: VarId order, the report's order
                units.append(rest & -rest)
                rest -= units[-1]
            found = self._groups[mask] = (
                {u: k for k, u in enumerate(units)},
                _array([self.names[u][2] for u in units], self.n1))
        return found

    def form(self, rows: int, cols: int) -> list[str]:
        found = self._forms.get((rows, cols))
        if found is None:
            row = _array(["%s"] * cols, self.n2)
            values = ["%s"] * 9 + [_array((str(rows), str(cols)), self.n1),
                                   _array([row] * rows, self.n1)]
            found = self._forms[rows, cols] = "".join(
                ("," if k else "{") + self.n1 + _quote(key) + ": " + value
                for k, (key, value) in enumerate(zip(_REPORT_KEYS, values))
            ).split("%s")
            found[-1] += self.n0 + "}"
        return found


def report_texts(composition, matchings, depth: int = 0) -> list[str]:
    """The JSON text of the separation report of each matching.

    The one producer of separation reports: `separate` prints these texts
    and `report_dicts` parses them.  Each is exactly the bytes
    `json.dumps(report, indent=2)` writes for a report at nesting `depth`:
    every line break is followed by two spaces per level.  Every field is
    rendered straight from `separate_packed`'s polynomials and unit masks
    through the tables of its dimension vector: the slot table's monomial
    texts and sort keys (`_MonomialNames`) and, at this depth, the
    `_ReportTable`, which renders each variable group once and holds the
    format of the whole report.  Terms come in sorted tuple-monomial order.
    `b_matrix` is the bilinear form, the certificate: a cell is the part of
    the separated trace with one W1 and one W2 factor, split off by the
    fields of the two masks, as a polynomial in Vc.  Raises SeparationError
    like `separate_packed`, before any report is returned.
    """
    chart = _chart(_ints(composition))
    shape, layout = chart.shape, chart.layout
    table = layout.reports.get(depth)
    if table is None:
        table = layout.reports[depth] = _ReportTable(
            layout.names, shape.d1, shape.d2, depth)
    named, n1, pair = layout.names, table.n1, table.pair
    y0_texts, pair_texts = table.entries
    zero = _quote(join_terms([]))
    composition_text = _array([str(v) for v in shape.composition], n1)
    texts: list[str] = []
    for y0 in matchings:
        sep = separate_packed(shape.composition, y0)
        row_of, rows_text = table.group(sep.w1)
        col_of, cols_text = table.group(sep.w2)
        row_mask, col_mask = (packed.FIELD_MASK * sep.w1,
                              packed.FIELD_MASK * sep.w2)
        cols = len(col_of)
        cells = [zero] * (len(row_of) * cols)  # row by row
        several = []
        for m, c in sep.separated.items():
            # W1 and W2 are disjoint, and each monomial is one unit of each
            # times a monomial in Vc
            r, s = m & row_mask, m & col_mask
            k = row_of[r] * cols + col_of[s]
            if cells[k] is not zero:
                several.append(k)
            elif c == 1:
                cells[k] = named[m - r - s][2]
            else:
                cells[k] = _render(named, {m - r - s: c})
        if several:  # rare: the cells of several terms, rendered whole
            polys: dict = {k: {} for k in several}
            for m, c in sep.separated.items():
                r, s = m & row_mask, m & col_mask
                polys.get(row_of[r] * cols + col_of[s], {})[m - r - s] = c
            for k, p in polys.items():
                cells[k] = _render(named, p)
        trace = _render(named, sep.trace)
        changes = sorted(sep.changes.items(), key=lambda t: named[t[0]][1])
        values = [
            composition_text,
            _array([y0_texts[e] for e in sep.entries], n1),
            _array([pair % (pair_texts[a], pair_texts[b])
                    for a, b in sorted(sep.t_pairs)], n1),
            rows_text, cols_text, table.group(sep.vc)[1],
            trace,
            trace if sep.separated is sep.trace
            else _render(named, sep.separated),
            _array([pair % (named[u][2], _render(named, p))
                    for u, p in changes], n1),
            *cells]
        # the report's fixed pieces, one more than its values, alternate
        # with them: refill a list of their joint length
        pieces = table.form(len(row_of), cols)
        text = pieces + values
        text[::2], text[1::2] = pieces, values
        texts.append("".join(text))
    return texts


def report_dicts(composition, matchings) -> list[dict]:
    """The JSON report of the separation of each matching, in order: the
    texts of `report_texts`, parsed, so exactly what `separate` prints."""
    return json.loads("[" + ",".join(report_texts(composition, matchings))
                      + "]")
