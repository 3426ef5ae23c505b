"""Truncated translation quivers for terminal data and mesh-category knitting.

For terminal data (Q, t) the model carries the vertices (i, a) with
0 <= a <= t_i, the quivers Gamma_M and Gamma_M^* on them, the full
hom-dimension table and the dimension vectors.  The dimension vectors are
knitted first, slice by slice upward from the injectives, so a tau-orbit
that ends before t_i (Dynkin overflow) is refused before any vertex list or
hom row exists; the mesh relation is then knitted once more, into the hom
table.

Arrow bookkeeping: a Q-arrow i -> j contributes, for every slice z, an
in-slice arrow (j,z) -> (i,z) and a cross arrow (i,z+1) -> (j,z).  The
other conceivable reading swaps the roles of i and j in both rules; the
one fixed here makes slice 0 a copy of Q^op whose arrows feed the hom
knitting toward the injective vertices, and the verification suite pins it
against the worked examples.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .errors import (DynkinOverflowError, LabelRangeError, NotAdaptedError, TerminalConstraintError,
                     VertexIndexError)
from .labels import IntervalLabel, MeshVertex
from .quiver import Quiver, topological_order


class TerminalData(NamedTuple):
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


def schedule_length(td: TerminalData) -> int:
    """r(M) = sum of t_i (t_i + 1) / 2, the number of steps of the rigid path."""
    return sum(t * (t + 1) // 2 for t in td.t)


class CategoryModel(NamedTuple):
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
            raise VertexIndexError(f"vertex {v} is not in the category") from None


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


def _knit_dims(td: TerminalData) -> dict:
    """dim M_(i,a) for every model vertex, knitted one slice at a time
    upward from the injectives, whose vectors count the paths j -> i:
        dim (i, z) = sum_{i -> j} dim (j, z - 1) + sum_{k -> i} dim (k, z)
                     - dim (i, z - 1).
    Successor closure keeps every term inside the model.  A tau-orbit ends
    at its first vector that is not positive or that needs a vertex (j, z - 1)
    past the end of its own orbit (a missing (k, z) counts as zero).  Only
    orbits still alive and below their t_i are knitted, so a Dynkin overflow
    costs a few slices however large t is; it is refused at the first
    missing vertex, i ascending, then a ascending."""
    q, t = td.q, td.t
    order = topological_order(q)
    paths = {}  # j -> the number of paths j -> i, for every i
    for j in reversed(order):
        counts = [0] * q.n
        counts[j - 1] = 1
        for m in q.arrows_out(j):
            counts = list(map(add, counts, paths[m]))
        paths[j] = counts
    dims = {(i, 0): tuple(paths[j][i - 1] for j in range(1, q.n + 1)) for i in order}
    zero = (0,) * q.n
    ends = {}  # orbit -> its first missing level
    for z in range(1, max(t, default=0) + 1):
        live = [i for i in order if z <= t[i - 1] and i not in ends]
        if not live:
            break
        for i in live:
            vec = [-x for x in dims[i, z - 1]]
            for j in q.arrows_out(i):
                prev = dims.get((j, z - 1))
                if prev is None:
                    break
                vec = list(map(add, vec, prev))
            else:
                for k in q.arrows_in(i):
                    vec = list(map(add, vec, dims.get((k, z), zero)))
                if min(vec) >= 0 and any(vec):
                    dims[i, z] = tuple(vec)
                    continue
            ends[i] = z
    if ends:
        i = min(ends)
        raise DynkinOverflowError(f"tau^{ends[i]}(I_{i}) does not exist; t_{i}={t[i - 1]} is too large")
    return {MeshVertex(i, a): vec for (i, a), vec in dims.items()}


def build_category(td: TerminalData) -> CategoryModel:
    """Populate vertices, Gamma_M, Gamma_M^*, dimension vectors and the
    full hom table for valid terminal data; a Dynkin overflow is refused
    by ``_knit_dims`` first.

    Every Gamma_M arrow goes from a larger canonical position to a smaller
    one, and tau p = (i, a + 1) lies above p = (i, a), so row x of the hom
    table is one downward sweep of the mesh relation from h[x] = 1:
        h[p] = sum_{m -> p} h[m] - h[tau p]    (p < x),
    and 0 above x.  Successor closure makes this exact on the model; its
    row x read at the injectives I_j = (j, 0) is dim M_x again."""
    dims = _knit_dims(td)
    vertices = tuple(canonical_ordering_vertices(td))
    index = {v: k for k, v in enumerate(vertices)}
    r = len(vertices)
    arrows_m = sorted((index[s], index[t]) for (s, t) in _model_arrows(td))
    # tau of each position, r (an entry that stays 0) where it leaves the model
    tau = [index.get((i, a + 1), r) for i, a in vertices]
    arrows_star = sorted(arrows_m + [(p, u) for p, u in enumerate(tau) if u < r])
    gamma_m = Quiver(r, tuple((s + 1, t + 1) for (s, t) in arrows_m))
    gamma_star = Quiver(r, tuple((s + 1, t + 1) for (s, t) in arrows_star))

    preds = [[] for _ in vertices]
    for (s, t) in arrows_m:
        preds[t].append(s)
    table = []
    for x in range(r):
        h = [0] * (r + 1)
        h[x] = 1
        for p in range(x - 1, -1, -1):
            h[p] = sum([h[m] for m in preds[p]]) - h[tau[p]]
        table.append(tuple(h[:r]))
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
        raise LabelRangeError(f"label vertex {lbl.i} out of range")
    if not (0 <= lbl.a <= lbl.b <= cat.terminal.level(lbl.i)):
        raise LabelRangeError(f"label {lbl} out of range for t={cat.terminal.t}")


def top_dimvecs(cat: CategoryModel, positions=None) -> list:
    """The dimension vector of Hom(T_{i,[a,t_i]}, T_M) for the vertex (i, a)
    at each canonical position: its entry at x(s) is
    sum_{l=a}^{t_i} dim Hom(tau^l I_i, M_{x(s)}), so it is that of
    T_{i,[a+1,t_i]} plus hom row (i, a), one suffix sum per tau-orbit.
    Entry s belongs to the vertex at canonical position ``positions[s]``
    (every canonical position when omitted), as ``validate_ordering``
    returns them."""
    if positions is None:
        positions = range(cat.r)
    sums: dict = {}  # orbit -> the suffix sum so far
    vecs = [()] * cat.r
    # canonical positions ascend with the level, so each orbit comes top down
    for x in range(cat.r - 1, -1, -1):
        i, row = cat.vertices[x].i, cat.hom_table[x]
        vec = sums[i] = tuple(map(add, sums[i], row)) if i in sums else row
        vecs[x] = tuple(map(vec.__getitem__, positions))
    return vecs


def delta_support(cat: CategoryModel, lbl: IntervalLabel, seat=None):
    """Delta-dimension vector of Hom(T_{i,[a,b]}, T_M): the indicator of
    {(i, l) : a <= l <= b}, entry ``seat[p]`` (p if omitted) for the vertex
    at canonical position p."""
    validate_label(cat, lbl)
    row, i = [0] * cat.r, lbl.i
    for l in range(lbl.a, lbl.b + 1):
        p = cat.index[i, l]  # a vertex hashes as its plain tuple
        row[p if seat is None else seat[p]] = 1
    return tuple(row)


def validate_ordering(cat: CategoryModel, ordering) -> tuple[int, ...]:
    """The canonical positions of a Gamma_M-adapted ordering, with
    ``ordering[s] == cat.vertices[positions[s]]``.  Adapted means a
    permutation of the vertices with every arrow x(j) -> x(i) at j > i."""
    positions = tuple(cat.index.get(v, -1) for v in ordering)
    if sorted(positions) != list(range(cat.r)):
        raise NotAdaptedError("ordering is not a permutation of the vertices")
    seat = sorted(range(cat.r), key=positions.__getitem__)  # the inverse permutation
    for (u, v) in cat.gammaM.arrows:
        if seat[u - 1] <= seat[v - 1]:
            raise NotAdaptedError(
                f"arrow {cat.vertices[u - 1]} -> {cat.vertices[v - 1]} violates "
                f"adaptedness at positions {seat[u - 1] + 1} <= {seat[v - 1] + 1}"
            )
    return positions


def adapted_orderings(cat: CategoryModel):
    """The canonical Gamma_M-adapted ordering of the vertices."""
    return list(cat.vertices)


def delta_dims(cat: CategoryModel, positions=None):
    """d_Delta: entry j is dim Delta_{x(j)} =
    sum_{j' <= j} dim Hom(M_{x(j)}, M_{x(j')}), where x(j) is the vertex
    at canonical position ``positions[j]`` (canonical order when omitted)."""
    if positions is None:
        positions = range(cat.r)
    return tuple(
        sum(cat.hom_table[p][q] for q in positions[: j + 1])
        for j, p in enumerate(positions)
    )


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


# -- reports --------------------------------------------------------------


def length_text(length: int, as_json: bool = False) -> str:
    """The schedule length r(M) as ``path --count-only`` reports it; its
    text is also the first line of the full ``path`` report."""
    return f'{{"length": {length}}}' if as_json else f"schedule length r(M) = {length}"


def to_dot(cat: CategoryModel) -> str:
    """DOT text of Gamma_M^*; tau-arrows dashed."""
    lines = ["digraph gamma {", "  rankdir=RL;"]
    for v in cat.vertices:
        lines.append(f'  "{v.i},{v.a}" [label="{v!r}"];')
    for (s, t) in cat.gammaMStar.arrows:
        src = cat.vertices[s - 1]
        tgt = cat.vertices[t - 1]
        style = " [style=dashed]" if src.i == tgt.i and tgt.a == src.a + 1 else ""
        lines.append(f'  "{src.i},{src.a}" -> "{tgt.i},{tgt.a}"{style};')
    lines.append("}")
    return "\n".join(lines)


def to_json(cat: CategoryModel, ordering) -> dict:
    """The ``build`` report: dims and hom table keyed by "(i,a)" strings,
    the Gamma^* arrows, and the ordering with its d_Delta."""
    return {
        "n": cat.terminal.q.n,
        "t": list(cat.terminal.t),
        "vertices": [repr(v) for v in cat.vertices],
        "gamma_star": [
            [repr(cat.vertices[s - 1]), repr(cat.vertices[t - 1])]
            for (s, t) in cat.gammaMStar.arrows
        ],
        "dims": {repr(v): list(cat.dims[v]) for v in cat.vertices},
        "hom": {
            repr(x): dict(zip(map(repr, cat.vertices), row))
            for x, row in zip(cat.vertices, cat.hom_table)
        },
        "d_delta": list(delta_dims(cat, validate_ordering(cat, ordering))),
        "ordering": [list(v) for v in ordering],
    }


def text(cat: CategoryModel, ordering) -> str:
    """The text ``build`` report: the facts of ``to_json``, one a line."""
    star = ", ".join(f"{cat.vertices[s - 1]!r}->{cat.vertices[t - 1]!r}" for (s, t) in cat.gammaMStar.arrows)
    return "\n".join([
        f"category on {cat.r} vertices, t = {','.join(map(str, cat.terminal.t))}",
        "vertices (canonical order): " + " ".join(map(repr, cat.vertices)),
        f"Gamma* arrows: {star}",
        "dimension vectors:",
        *(f"  {v!r}: {list(cat.dims[v])}" for v in cat.vertices),
        "hom table (rows = source, canonical order):",
        *(f"  {x!r}: {list(row)}" for x, row in zip(cat.vertices, cat.hom_table)),
        f"d_Delta (ordering): {list(delta_dims(cat, validate_ordering(cat, ordering)))}",
    ])
