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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .core import DimVector, compositions
from .sympoly import (BilinearForm, BilinearityError, MultiPoly, VarId,
                      bilinear_decompose, expand_trace)


class SeparationError(RuntimeError):
    """Bilinearity failed; carries the witness monomial.  Must never happen."""


@dataclass(frozen=True)
class FlagShape:
    """Slot data of a composition: which matrix entries may be nonzero.

    t_slots / s_slots are the 1-based positions of the vertex-1 / vertex-2
    letters.  x (d2 x d1) may be nonzero at (i, j) iff s_i < t_j; y (d1 x d2)
    at (j, i) iff t_j < s_i.  Exactly one of the two holds for every pair.
    """

    composition: tuple[int, ...]
    t_slots: tuple[int, ...]
    s_slots: tuple[int, ...]

    @property
    def d1(self) -> int:
        return len(self.t_slots)

    @property
    def d2(self) -> int:
        return len(self.s_slots)

    @property
    def dim(self) -> DimVector:
        return DimVector(self.d1, self.d2)

    def adm_x(self, row: int, col: int) -> bool:
        return self.s_slots[row - 1] < self.t_slots[col - 1]

    def adm_y(self, row: int, col: int) -> bool:
        return self.t_slots[row - 1] < self.s_slots[col - 1]

    def x_positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.d2 + 1)
                for j in range(1, self.d1 + 1) if self.adm_x(i, j)]

    def y_positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.d1 + 1)
                for j in range(1, self.d2 + 1) if self.adm_y(i, j)]

    @cached_property
    def chart_vars(self):
        """(M, N, X) chart variables of the shape, each as (var, row, col).

        M and N are the strictly lower entries of the two unipotent factors,
        X the admissible entries of x.
        """
        def lower(kind, d):
            return tuple((VarId(kind, j, i), j, i)
                         for j in range(2, d + 1) for i in range(1, j))

        return (lower("M", self.d1), lower("N", self.d2),
                tuple((VarId("X", i, j), i, j) for i, j in self.x_positions()))

    @cached_property
    def trace_pieces(self) -> _TracePieces:
        """Terms of the trace contributed by each admissible y0 entry.

        `trace_pieces[ia, ja]` holds the X*N, X*M and X*M*N families tied to
        the entry (ia, ja), each with coefficient 1.  A piece is built on
        first use and shared after that: callers must not mutate it.
        """
        return _TracePieces(self)


class _TracePieces(dict):
    """The trace terms of each y0 entry of one shape, built on first use.

    Lazy because a sampled run touches few entries of each shape: building
    every piece of all 924 shapes of (6,6) takes about 1.5 s on a 2-vCPU VM,
    while `verify` there separates 500 instances.
    """

    def __init__(self, shape: FlagShape):
        super().__init__()
        self.shape = shape

    def __missing__(self, entry: tuple[int, int]) -> dict:
        ia, ja = entry
        d1, adm_x = self.shape.d1, self.shape.adm_x
        factors = []
        for i in range(1, ja):
            if adm_x(i, ia):
                factors.append((("X", i, ia), ("N", ja, i)))
        for j in range(ia + 1, d1 + 1):
            if adm_x(ja, j):
                factors.append((("X", ja, j), ("M", j, ia)))
        for i in range(1, ja):
            for j in range(ia + 1, d1 + 1):
                if adm_x(i, j):
                    factors.append((("X", i, j), ("M", j, ia), ("N", ja, i)))
        piece = self[entry] = {
            tuple(sorted((VarId(*f), 1) for f in fs)): 1 for fs in factors}
        return piece


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


@dataclass(frozen=True)
class NormalFormY:
    """Partial matching of unit entries: at most one per row and per column."""

    entries: frozenset[tuple[int, int]]

    def __post_init__(self):
        rows = [i for i, _ in self.entries]
        cols = [j for _, j in self.entries]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError(f"repeated row or column in {sorted(self.entries)}")

    @classmethod
    def of(cls, *positions) -> "NormalFormY":
        return cls(frozenset((int(i), int(j)) for i, j in positions))

    def sorted_entries(self) -> list[tuple[int, int]]:
        return sorted(self.entries, key=lambda e: e[1])


def validate_matching(shape: FlagShape, y0: NormalFormY) -> None:
    for i, j in sorted(y0.entries):
        if not (1 <= i <= shape.d1 and 1 <= j <= shape.d2):
            raise ValueError(f"y0 entry ({i},{j}) out of range for {shape.dim}")
        if not shape.adm_y(i, j):
            raise ValueError(
                f"y0 entry ({i},{j}) violates flag stability: "
                f"slot {shape.t_slots[i - 1]} of vertex 1 comes after "
                f"slot {shape.s_slots[j - 1]} of vertex 2"
            )


def enumerate_matchings(shape: FlagShape) -> list[NormalFormY]:
    """All admissible partial matchings, the empty one included."""
    adm = shape.y_positions()
    by_col: dict[int, list[int]] = {}
    for i, j in adm:
        by_col.setdefault(j, []).append(i)
    cols = sorted(by_col)
    out: list[NormalFormY] = []

    def walk(idx: int, used_rows: frozenset, acc: tuple):
        if idx == len(cols):
            out.append(NormalFormY(frozenset(acc)))
            return
        walk(idx + 1, used_rows, acc)
        j = cols[idx]
        for i in sorted(by_col[j]):
            if i not in used_rows:
                walk(idx + 1, used_rows | {i}, acc + ((i, j),))

    walk(0, frozenset(), ())
    out.sort(key=lambda m: (len(m.entries), sorted(m.entries)))
    return out


def enumerate_instances(dim: DimVector):
    """Every (composition, normal-form y0) pair for this dimension vector."""
    for a in compositions(dim.d1, dim.d2):
        shape = flag_shape(a)
        for m in enumerate_matchings(shape):
            yield a, m


@dataclass(frozen=True)
class SeparationReport:
    """Everything the separation of one instance produces.

    The certificate is `bilinear`: `separated` is exactly bilinear in
    (w1, w2) with coefficients in vc, so its Hessian rank is even at every
    coefficient value and chi = 1 at the chart origin.  `definitions` gives
    each primed variable in the original ones; it is not serialised.
    """

    composition: tuple[int, ...]
    y0: tuple[tuple[int, int], ...]
    set_t: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    w1: tuple[VarId, ...]
    w2: tuple[VarId, ...]
    vc: tuple[VarId, ...]
    trace: MultiPoly
    separated: MultiPoly
    change_of_variables: tuple[tuple[str, str], ...]
    bilinear: BilinearForm
    definitions: dict[VarId, MultiPoly] = field(compare=False, repr=False)

    @property
    def trace_poly(self) -> str:
        return self.trace.to_str()

    @property
    def separated_poly(self) -> str:
        return self.separated.to_str()

    def to_dict(self) -> dict:
        return {
            "composition": list(self.composition),
            "y0": [list(e) for e in self.y0],
            "set_t": [[list(a), list(b)] for a, b in self.set_t],
            "w1": [str(v) for v in self.w1],
            "w2": [str(v) for v in self.w2],
            "vc": [str(v) for v in self.vc],
            "trace_poly": self.trace_poly,
            "separated_poly": self.separated_poly,
            "change_of_variables": [list(p) for p in self.change_of_variables],
            "b_shape": [len(self.bilinear.rows), len(self.bilinear.cols)],
            "b_matrix": [[cell.to_str() for cell in row]
                         for row in self.bilinear.matrix],
        }


def _inversion(shape: FlagShape, entries):
    """Triangular elimination of the coupled lower-unipotent variables.

    Returns (m_expr, mp_def): the expression of each coupled M variable in the
    new M' variables, and the definition of each M' in the original ones.
    Processing each fiber by decreasing second matching column makes the
    system triangular, so the inversion is formal and exact.
    """
    t_pairs = [(ap, al) for ap in entries for al in entries
               if shape.adm_x(ap[1], al[0])]
    m_expr: dict[VarId, MultiPoly] = {}
    mp_def: dict[VarId, MultiPoly] = {}
    for al in entries:
        fiber = sorted((ap for ap, a2 in t_pairs if a2 == al),
                       key=lambda e: -e[1])
        for ap in fiber:
            ia, ja = al
            ip, jp = ap
            mvar = VarId("M", ia, ip)
            mpvar = VarId("Mp", ia, ip)
            defn = MultiPoly.var(mvar) + MultiPoly.var(VarId("N", ja, jp))
            expr = MultiPoly.var(mpvar) - MultiPoly.var(VarId("N", ja, jp))
            for ib, jb in entries:
                if ib < ia and jb > jp:
                    n = MultiPoly.var(VarId("N", jb, jp))
                    cross = VarId("M", ia, ib)
                    defn = defn + MultiPoly.var(cross) * n
                    expr = expr - m_expr.get(cross, MultiPoly.var(cross)) * n
            m_expr[mvar] = expr
            mp_def[mpvar] = defn
    return t_pairs, m_expr, mp_def


def _x_change(shape: FlagShape, entries, j_set, t_pairs, m_expr):
    """Change of the coupled X variables absorbing the mixed X U N terms."""
    x_expr: dict[VarId, MultiPoly] = {}
    xp_def: dict[VarId, MultiPoly] = {}
    for ap, al in t_pairs:
        ia, ja = al
        ip, jp = ap
        xvar = VarId("X", jp, ia)
        xpvar = VarId("Xp", jp, ia)
        correction = MultiPoly.zero()
        for app, a2 in t_pairs:
            if a2 != al or app[1] > jp:
                continue
            if app == ap:
                u = MultiPoly.const(1)
            else:
                # coefficient of M'(ia, ip) inside the expansion of M(ia, i'')
                u = m_expr[VarId("M", ia, app[0])].coefficient_of(
                    VarId("Mp", ia, ip))
            if not u:
                continue
            for i in range(1, app[1]):
                if i not in j_set and shape.adm_x(i, ia):
                    correction = correction + (
                        MultiPoly.var(VarId("X", i, ia)) * u
                        * MultiPoly.var(VarId("N", app[1], i))
                    )
        x_expr[xvar] = MultiPoly.var(xpvar) - correction
        xp_def[xpvar] = MultiPoly.var(xvar) + correction
    return x_expr, xp_def


def _classify(shape: FlagShape, entries, t_pairs):
    """The quadratic/coefficient split of all chart variables."""
    i_set = {i for i, _ in entries}
    j_set = {j for _, j in entries}
    t_m = {VarId("M", al[0], ap[0]) for ap, al in t_pairs}
    t_x = {VarId("X", ap[1], al[0]) for ap, al in t_pairs}

    w1 = {VarId("Mp", al[0], ap[0]) for ap, al in t_pairs}
    w2 = {VarId("Xp", ap[1], al[0]) for ap, al in t_pairs}
    vc = set()
    m_vars, n_vars, x_vars = shape.chart_vars
    for v, j, i in m_vars:
        if v in t_m:
            continue  # replaced by M'
        if j not in i_set and i in i_set:
            w1.add(v)
        else:
            vc.add(v)
    for v, j, i in n_vars:
        if j in j_set and i not in j_set:
            w2.add(v)
        else:
            vc.add(v)
    for v, i, j in x_vars:
        if v in t_x:
            continue  # replaced by X'
        if i not in j_set and j in i_set:
            w1.add(v)
        elif i in j_set and j not in i_set:
            w2.add(v)
        else:
            vc.add(v)
    return w1, w2, vc


def build_and_separate(composition, y0: NormalFormY) -> SeparationReport:
    """Separate one instance; the report's bilinear form certifies chi = 1.

    Raises SeparationError if the substituted trace fails to be bilinear in
    the quadratic variables; for the two-vertex quiver this cannot happen.
    """
    shape = flag_shape(composition)
    validate_matching(shape, y0)
    entries = y0.sorted_entries()
    j_set = {j for _, j in entries}

    h = expand_trace(shape.dim, shape, y0)
    t_pairs, m_expr, mp_def = _inversion(shape, entries)
    x_expr, xp_def = _x_change(shape, entries, j_set, t_pairs, m_expr)
    # one substitution for both maps equals one map after the other: no key
    # of either occurs in the other's values (the M expressions hold M, M'
    # and N; the X expressions X', N and the X of rows outside J)
    separated = h.substitute({**m_expr, **x_expr})

    w1, w2, vc = _classify(shape, entries, t_pairs)
    try:
        form = bilinear_decompose(separated, w1, w2, vc)
    except BilinearityError as exc:
        raise SeparationError(
            f"separation failed on {composition} with y0 {entries}: {exc}"
        ) from exc

    change = tuple(
        sorted([(str(k), v.to_str()) for k, v in m_expr.items()]
               + [(str(k), v.to_str()) for k, v in x_expr.items()])
    )
    return SeparationReport(
        composition=shape.composition,
        y0=tuple(entries),
        set_t=tuple(sorted((tuple(ap), tuple(al)) for ap, al in t_pairs)),
        w1=tuple(sorted(w1)),
        w2=tuple(sorted(w2)),
        vc=tuple(sorted(vc)),
        trace=h,
        separated=separated,
        change_of_variables=change,
        bilinear=form,
        definitions={**mp_def, **xp_def},
    )


def back_substitute(report: SeparationReport) -> MultiPoly:
    """Replace the primed variables by their definitions in the originals."""
    return report.separated.substitute(report.definitions)
