"""Truncated translation quivers for terminal data and mesh-category knitting.

For terminal data (Q, t) the model carries the vertices (i, a) with
0 <= a <= t_i, the quivers Gamma_M and Gamma_M^* on them, the knitted
dimension vectors and the full hom-dimension table.

Arrow bookkeeping: a Q-arrow i -> j contributes, for every slice z, an
in-slice arrow (j,z) -> (i,z) and a cross arrow (i,z+1) -> (j,z).  The
other conceivable reading swaps the roles of i and j in both rules; the
one fixed here makes slice 0 a copy of Q^op whose arrows feed the hom
knitting toward the injective vertices, and the verification suite pins it
against the worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DynkinOverflowError, NotAdaptedError, TerminalConstraintError
from .quiver import Quiver, RootVec, topological_order


@dataclass(frozen=True)
class MeshVertex:
    i: int
    a: int

    def __repr__(self) -> str:
        return f"({self.i},{self.a})"


@dataclass(frozen=True)
class IntervalLabel:
    """The label T_{i,[a,b]}; a > b encodes the unit by convention."""

    i: int
    a: int
    b: int

    def is_unit(self) -> bool:
        return self.a > self.b

    def __repr__(self) -> str:
        return f"T_{{{self.i},[{self.a},{self.b}]}}"


@dataclass(frozen=True)
class TerminalData:
    q: Quiver
    t: tuple[int, ...]

    def level(self, i: int) -> int:
        return self.t[i - 1]


def validate_terminal(q: Quiver, t) -> TerminalData:
    """Successor-closedness is the local check t_u - 1 <= t_v <= t_u per
    arrow u -> v; Dynkin existence is checked later during knitting."""
    t = tuple(int(x) for x in t)
    if len(t) != q.n:
        raise TerminalConstraintError(f"t has length {len(t)}, expected {q.n}")
    if any(x < 0 for x in t):
        raise TerminalConstraintError("t entries must be nonnegative")
    for (u, v) in q.arrows:
        if not (t[u - 1] - 1 <= t[v - 1] <= t[u - 1]):
            raise TerminalConstraintError(
                f"arrow {u}->{v} needs t_{u}-1 <= t_{v} <= t_{u}, "
                f"got t_{u}={t[u - 1]}, t_{v}={t[v - 1]}"
            )
    return TerminalData(q, t)


@dataclass(frozen=True)
class CategoryModel:
    terminal: TerminalData
    vertices: tuple[MeshVertex, ...]
    gammaM: Quiver
    gammaMStar: Quiver
    dims: dict
    hom_table: tuple
    index: dict

    @property
    def r(self) -> int:
        return len(self.vertices)

    def pos(self, v: MeshVertex) -> int:
        """0-based canonical position of a vertex."""
        try:
            return self.index[v]
        except KeyError:
            raise IndexError(f"vertex {v} is not in the category") from None

    def hom_dim(self, x: MeshVertex, z: MeshVertex) -> int:
        return self.hom_table[self.pos(x)][self.pos(z)]


def _path_counts_into(q: Quiver, i: int) -> list[int]:
    """Number of directed paths j -> i in Q for every j (entry j-1)."""
    counts = [0] * q.n
    counts[i - 1] = 1
    for v in reversed(topological_order(q)):
        if v == i:
            continue
        counts[v - 1] = sum(counts[t - 1] for t in q.arrows_out(v))
    return counts


def _knit_dims(td: TerminalData):
    """Knit dimension vectors on all slices up to max(t).

    Returns a dict (i, z) -> tuple.  A tau-orbit ends at the first slice
    whose mesh candidate fails to be nonnegative and nonzero; in Dynkin
    type this truncation is what makes vertices disappear.
    """
    q = td.q
    n = q.n
    maxt = max(td.t) if td.t else 0
    order = topological_order(q)
    dims: dict = {}
    for i in range(1, n + 1):
        dims[(i, 0)] = tuple(_path_counts_into(q, i))
    for z in range(1, maxt + 1):
        for i in order:
            if (i, z - 1) not in dims:
                continue
            vec = [-x for x in dims[(i, z - 1)]]
            alive = True
            for j in q.arrows_out(i):
                prev = dims.get((j, z - 1))
                if prev is None:
                    alive = False
                    break
                vec = [a + b for a, b in zip(vec, prev)]
            if not alive:
                continue
            for k in q.arrows_in(i):
                cur = dims.get((k, z))
                if cur is not None:
                    vec = [a + b for a, b in zip(vec, cur)]
            if all(x >= 0 for x in vec) and any(vec):
                dims[(i, z)] = tuple(vec)
    return dims


def dim_vectors(td: TerminalData) -> dict:
    """Knitted dimension vectors of the model vertices, as RootVec values."""
    raw = _knit_dims(td)
    out = {}
    for i in range(1, td.q.n + 1):
        for a in range(td.level(i) + 1):
            if (i, a) not in raw:
                raise DynkinOverflowError(
                    f"tau^{a}(I_{i}) does not exist; t_{i}={td.level(i)} is too large"
                )
            out[MeshVertex(i, a)] = RootVec(raw[(i, a)])
    return out


def _model_arrows(td: TerminalData):
    """Gamma_M arrows as MeshVertex pairs, with multiplicity."""
    t = td.t
    arrows = []
    for (i, j) in td.q.arrows:
        for z in range(min(t[i - 1], t[j - 1]) + 1):
            arrows.append((MeshVertex(j, z), MeshVertex(i, z)))
        for z in range(t[j - 1] + 1):
            if z + 1 <= t[i - 1]:
                arrows.append((MeshVertex(i, z + 1), MeshVertex(j, z)))
    return arrows


def canonical_ordering_vertices(td: TerminalData) -> list[MeshVertex]:
    """Level ascending, ties broken by a sources-first topological order
    of Q.  This is always Gamma_M-adapted."""
    order = topological_order(td.q)
    verts = []
    maxt = max(td.t) if td.t else 0
    for a in range(maxt + 1):
        for i in order:
            if a <= td.level(i):
                verts.append(MeshVertex(i, a))
    return verts


def _knit_hom_row(td: TerminalData, model: set, x: MeshVertex) -> dict:
    """dim Hom(M_x, -) on the model, by knitting the covariant hom functor
    slice by slice toward slice 0:
        h(Y) = sum_{mid -> Y} h(mid) - h(tau Y) + [Y == x],
    with h = 0 above the slice of x and outside the model (successor
    closure kills every hom landing off the model)."""
    q = td.q
    rev = list(reversed(topological_order(q)))
    h: dict = {}
    for z in range(x.a, -1, -1):
        for i in rev:
            y = MeshVertex(i, z)
            if y not in model:
                continue
            val = 1 if y == x else 0
            for j in q.arrows_out(i):
                val += h.get(MeshVertex(j, z), 0)
            for k in q.arrows_in(i):
                val += h.get(MeshVertex(k, z + 1), 0)
            val -= h.get(MeshVertex(i, z + 1), 0)
            h[y] = val
    return h


def build_category(td: TerminalData) -> CategoryModel:
    """Populate vertices, Gamma_M, Gamma_M^*, dimension vectors and the
    full hom table for valid terminal data."""
    dims = dim_vectors(td)
    vertices = tuple(canonical_ordering_vertices(td))
    index = {v: k for k, v in enumerate(vertices)}
    model = set(vertices)

    arrows_m = _model_arrows(td)
    gamma_m = Quiver(
        len(vertices),
        tuple(sorted((index[s] + 1, index[t] + 1) for (s, t) in arrows_m)),
    )
    arrows_star = list(arrows_m)
    for v in vertices:
        up = MeshVertex(v.i, v.a + 1)
        if up in model:
            arrows_star.append((v, up))
    gamma_star = Quiver(
        len(vertices),
        tuple(sorted((index[s] + 1, index[t] + 1) for (s, t) in arrows_star)),
    )

    table = []
    for x in vertices:
        row = _knit_hom_row(td, model, x)
        table.append(tuple(row.get(z, 0) for z in vertices))
    return CategoryModel(
        terminal=td,
        vertices=vertices,
        gammaM=gamma_m,
        gammaMStar=gamma_star,
        dims=dims,
        hom_table=tuple(table),
        index=index,
    )


def validate_label(cat: CategoryModel, lbl: IntervalLabel) -> None:
    if lbl.is_unit():
        return
    if not (1 <= lbl.i <= cat.terminal.q.n):
        raise IndexError(f"label vertex {lbl.i} out of range")
    if not (0 <= lbl.a <= lbl.b <= cat.terminal.level(lbl.i)):
        raise IndexError(f"label {lbl} out of range for t={cat.terminal.t}")


def projected_dimvec(cat: CategoryModel, lbl: IntervalLabel, ordering=None):
    """Dimension vector of Hom(T_{i,[a,b]}, T_M): the entry at x(s) is
    sum_{l=a}^{b} dim Hom(tau^l I_i, M_{x(s)}).  Entries follow ``ordering``
    (canonical when omitted)."""
    validate_label(cat, lbl)
    if ordering is None:
        ordering = cat.vertices
    total = [0] * cat.r
    if not lbl.is_unit():
        for l in range(lbl.a, lbl.b + 1):
            row = cat.hom_table[cat.pos(MeshVertex(lbl.i, l))]
            for s, z in enumerate(ordering):
                total[s] += row[cat.pos(z)]
    return tuple(total)


def delta_support(cat: CategoryModel, lbl: IntervalLabel, ordering=None):
    """Delta-dimension vector of Hom(T_{i,[a,b]}, T_M): the indicator of
    {(i, l) : a <= l <= b} in ``ordering`` coordinates."""
    validate_label(cat, lbl)
    if ordering is None:
        ordering = cat.vertices
    return tuple(
        1 if (z.i == lbl.i and lbl.a <= z.a <= lbl.b) else 0 for z in ordering
    )


def validate_ordering(cat: CategoryModel, ordering) -> None:
    """A Gamma_M-adapted ordering has every arrow x(j) -> x(i) with j > i."""
    ordering = list(ordering)
    if sorted(ordering, key=lambda v: (v.i, v.a)) != sorted(
        cat.vertices, key=lambda v: (v.i, v.a)
    ):
        raise NotAdaptedError("ordering is not a permutation of the vertices")
    position = {v: k for k, v in enumerate(ordering)}
    for (s, t) in cat.gammaM.arrows:
        src = cat.vertices[s - 1]
        tgt = cat.vertices[t - 1]
        if position[src] <= position[tgt]:
            raise NotAdaptedError(
                f"arrow {src} -> {tgt} violates adaptedness at positions "
                f"{position[src] + 1} <= {position[tgt] + 1}"
            )


def adapted_orderings(cat: CategoryModel):
    """The canonical Gamma_M-adapted ordering of the vertices."""
    ordering = canonical_ordering_vertices(cat.terminal)
    validate_ordering(cat, ordering)
    return ordering


def delta_dims(cat: CategoryModel, ordering=None):
    """d_Delta: entry j is dim Delta_{x(j)} =
    sum_{j' <= j} dim Hom(M_{x(j)}, M_{x(j')})."""
    if ordering is None:
        ordering = adapted_orderings(cat)
    validate_ordering(cat, ordering)
    out = []
    for j, x in enumerate(ordering):
        row = cat.hom_table[cat.pos(x)]
        out.append(sum(row[cat.pos(ordering[jp])] for jp in range(j + 1)))
    return tuple(out)


def triangle_display(cat: CategoryModel, values):
    """Rearrange a vector in canonical coordinates into the row-per-orbit
    triangle used throughout: row i lists levels t_i, t_i - 1, ..., 0."""
    at = {v: values[s] for s, v in enumerate(cat.vertices)}
    rows = []
    for i in range(1, cat.terminal.q.n + 1):
        rows.append(
            tuple(at[MeshVertex(i, a)] for a in range(cat.terminal.level(i), -1, -1))
        )
    return tuple(rows)


# -- exports --------------------------------------------------------------


def to_dot(cat: CategoryModel, star: bool = True) -> str:
    """DOT text of Gamma_M (star=False) or Gamma_M^*; tau-arrows dashed."""
    lines = ["digraph gamma {", "  rankdir=RL;"]
    for v in cat.vertices:
        lines.append(f'  "{v.i},{v.a}" [label="({v.i},{v.a})"];')
    g = cat.gammaMStar if star else cat.gammaM
    for (s, t) in g.arrows:
        src = cat.vertices[s - 1]
        tgt = cat.vertices[t - 1]
        style = ""
        if star and src.i == tgt.i and tgt.a == src.a + 1:
            style = " [style=dashed]"
        lines.append(f'  "{src.i},{src.a}" -> "{tgt.i},{tgt.a}"{style};')
    lines.append("}")
    return "\n".join(lines)


def to_json(cat: CategoryModel) -> dict:
    """Dims and hom table keyed by "(i,a)" strings, plus the Gamma^* arrows."""

    def key(v):
        return f"({v.i},{v.a})"

    return {
        "n": cat.terminal.q.n,
        "t": list(cat.terminal.t),
        "vertices": [key(v) for v in cat.vertices],
        "gamma_star": [
            [key(cat.vertices[s - 1]), key(cat.vertices[t - 1])]
            for (s, t) in cat.gammaMStar.arrows
        ],
        "dims": {key(v): list(cat.dims[v].coords) for v in cat.vertices},
        "hom": {
            key(x): {key(z): cat.hom_dim(x, z) for z in cat.vertices}
            for x in cat.vertices
        },
    }
