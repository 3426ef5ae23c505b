"""The explicit mutation schedule from T_M to T_M^vee, the generalized
determinantal identities it realizes, and dual-PBW expansion of interval
variables into the single-interval generators."""

from __future__ import annotations

from typing import NamedTuple

from . import cluster, mesh
from . import exchange as ex
from .errors import LabelRangeError, ScheduleMismatchError, TerminalConstraintError
from .labels import IntervalLabel, LabelTexts, MeshVertex
from .mesh import TerminalData, schedule_length
from .quiver import Quiver, topological_order, validate_sink_sequence


def qm_op(td: TerminalData) -> Quiver:
    """Q_M^op: the full subquiver of Gamma_{T_M} on the top vertices
    (i, t_i), transported to the vertex set 1..n.  A Q-arrow i -> j lands
    in-slice (giving j -> i) when t_i = t_j and cross-slice (giving i -> j)
    when t_i = t_j + 1."""
    arrows = []
    for (i, j) in td.q.arrows:
        ti, tj = td.level(i), td.level(j)
        if ti == tj:
            arrows.append((j, i))
        elif ti == tj + 1:
            arrows.append((i, j))
        else:
            raise TerminalConstraintError(f"arrow {i}->{j} violates closure")
    return Quiver(td.q.n, tuple(sorted(arrows)))


def qm_adapted_order(op: Quiver) -> list[int]:
    """A Q_M-adapted ordering of 1..n, given op = Q_M^op: each vertex is a
    sink of Q_M after reflecting at all earlier ones.  The sources-first
    topological order of Q_M^op always qualifies."""
    order = topological_order(op)
    validate_sink_sequence(op.opposite(), order)
    return order


class DetIdentity(NamedTuple):
    """T_{i,[a-1,b]} T_{i,[a,b-1]} = T_{i,[a,b]} T_{i,[a-1,b-1]}
    - prod_{i->j} T_{j,[a+d_j, b+d_j]} prod_{k->i} T_{k,[a-1+d_k, b-1+d_k]}
    with d_x = t_x - t_i over the arrows of Q_M^op.  ``main`` is
    (T_{i,[a,b]}, T_{i,[a-1,b-1]}): mutating the first gives the second.
    ``sides`` are the two sides of that exchange relation, the left pair and
    the product, each as {label: multiplicity} with units (empty intervals)
    left out.  The convention also drops negative-index symbols, but none
    arises: d_j is 0 or -1 on arrows i -> j and d_k is 0 or 1 on arrows
    k -> i, so every index stays at least a - 1 >= 0, and only
    T_{i,[a,b-1]} with a = b is a unit."""

    main: tuple[IntervalLabel, IntervalLabel]
    sides: tuple[dict, dict]


def det_identity(td: TerminalData, op: Quiver, i: int, a: int, b: int) -> DetIdentity:
    """The identity at T_{i,[a,b]}, given op = Q_M^op."""
    if not (1 <= a <= b <= td.level(i)):
        raise LabelRangeError(f"need 1 <= a <= b <= t_{i}, got a={a}, b={b}")
    ti = td.level(i)
    product: dict = {}
    for j in op.arrows_out(i):
        d = td.level(j) - ti
        lbl = IntervalLabel(j, a + d, b + d)
        product[lbl] = product.get(lbl, 0) + 1
    for k in op.arrows_in(i):
        d = td.level(k) - ti
        lbl = IntervalLabel(k, a - 1 + d, b - 1 + d)
        product[lbl] = product.get(lbl, 0) + 1
    left = {IntervalLabel(i, a - 1, b): 1}
    if a < b:
        left[IntervalLabel(i, a, b - 1)] = 1
    return DetIdentity(
        main=(IntervalLabel(i, a, b), IntervalLabel(i, a - 1, b - 1)),
        sides=(left, product),
    )


class Schedule(NamedTuple):
    qm_order: tuple[int, ...]
    steps: tuple[DetIdentity, ...]


def make_schedule(td: TerminalData) -> Schedule:
    """Round k = 0, 1, ... mutates, for each i in Q_M-adapted order, the
    labels T_{i,[b,b]}, T_{i,[b-1,b]}, ..., T_{i,[1,b]} with b = t_i - k,
    skipping exhausted orbits.  Each step is its determinantal identity,
    whose ``main[0]`` is the label it mutates."""
    op = qm_op(td)
    order = qm_adapted_order(op)
    steps = tuple(
        det_identity(td, op, i, a, td.level(i) - k)
        for k in range(max(td.t, default=0))
        for i in order
        for a in range(td.level(i) - k, 0, -1)
    )
    if len(steps) != schedule_length(td):
        raise ScheduleMismatchError(f"{len(steps)} steps, r(M) = {schedule_length(td)}")
    return Schedule(tuple(order), steps)


class PathStep(NamedTuple):
    index: int
    position: int
    identity: DetIdentity
    dominated: bool


class PathResult(NamedTuple):
    schedule: Schedule
    seed: cluster.Seed
    steps: tuple[PathStep, ...]


def run_path(seed: cluster.Seed, sch: Schedule) -> PathResult:
    """Run the full schedule.  Every mutation must hit the vertex currently
    carrying the scheduled label and its exchange sides must be the two
    sides of the predicted determinantal identity, in either order, else
    ScheduleMismatchError."""
    if seed.labels is None:
        raise ScheduleMismatchError("seed has no interval labels to follow")
    records = []
    cur = seed
    position_of = {l: k for k, l in enumerate(seed.labels, 1)}
    for idx, ident in enumerate(sch.steps):
        target, new_label = ident.main
        k = position_of.pop(target, None)
        if k is None:
            raise ScheduleMismatchError(f"step {idx + 1}: no vertex is labeled {target!r}")
        sides = ex.arrows_at(cur.matrix, k)
        emitted = tuple(cluster.side_counts(cur.labels, side) for side in sides)
        if ident.sides not in (emitted, emitted[::-1]):
            raise ScheduleMismatchError(
                f"step {idx + 1}: exchange at {target!r} emitted "
                f"{emitted[0]} / {emitted[1]}, predicted "
                f"{ident.sides[0]} / {ident.sides[1]}"
            )
        cur = cluster.mutate_seed(cur, k, new_label=new_label, sides=sides)
        position_of[new_label] = k
        records.append(PathStep(idx + 1, k, ident, cur.dominated))
    return PathResult(schedule=sch, seed=cur, steps=tuple(records))


# -- dual PBW expansion ----------------------------------------------------


def pbw_expand(cat: mesh.CategoryModel, lbl: IntervalLabel, images=None) -> LaurentPoly:
    """Expand T_{i,[a,b]} as a polynomial in the single-interval variables
    z_{l,c}, evaluated at ``images``: their values in canonical position
    order, by default the z_{l,c} themselves.

    Recursion: solve the determinantal identity at (i, a+1, b) for the
    longest interval and divide exactly by T_{i,[a+1,b-1]}, a unit when
    b = a + 1.  Each product starts from its first factor, so no product
    has a unit operand.  Every quotient is a polynomial in the z_{l,c} and
    evaluation is a ring map, so each division stays exact wherever its
    divisor's value is not 0.  A division failure would contradict
    polynomiality of the dual PBW expansion and is fatal."""
    from .laurent import LaurentPoly, exact_div

    mesh.validate_label(cat, lbl)
    td = cat.terminal
    op = qm_op(td)
    if images is None:
        images = [LaurentPoly.variable(p, cat.r) for p in range(cat.r)]
    r = images[0].arity
    memo: dict = {}

    def expand(i: int, a: int, b: int) -> LaurentPoly:
        """T_{i,[a,b]} for a <= b (no product factor is a unit)."""
        key = (i, a, b)
        if key in memo:
            return memo[key]
        if a == b:
            res = images[cat.pos(MeshVertex(i, a))]
        else:
            num = expand(i, a + 1, b) * expand(i, a, b - 1)
            prod = None
            for f, m in det_identity(td, op, i, a + 1, b).sides[1].items():
                power = expand(*f) ** m
                prod = power if prod is None else prod * power
            res = num - (LaurentPoly.one(r) if prod is None else prod)
            if b > a + 1:
                res = exact_div(res, expand(i, a + 1, b - 1))
        memo[key] = res
        return res

    if lbl.is_unit():
        return LaurentPoly.one(r)
    return expand(*lbl)


# -- reporting ---------------------------------------------------------------


def relation_texts(steps) -> list[tuple[str, str, str]]:
    """Each step's old label, new label and exchange relation as text, each
    side's labels sorted by their text (not as tuples: the two orders
    differ once an index reaches 10); every label is formatted once for all
    the steps."""
    text = LabelTexts()

    def fmt(side):
        # label texts are distinct, so the multiplicity never breaks a tie
        return cluster.monomial_text(sorted(zip(map(text.__getitem__, side), side.values())))

    lines = []
    for step in steps:
        (old, new), (left, right) = step.identity.main, step.identity.sides
        lines.append((text[old], text[new], f"{text[old]}*{text[new]} = {fmt(left)} + {fmt(right)}"))
    return lines


def result_text(res: PathResult) -> str:
    """The text ``path`` report: the schedule length, a line per step and
    the final labels."""
    lines = [mesh.length_text(len(res.schedule.steps))]
    for st, (old, new, relation) in zip(res.steps, relation_texts(res.steps)):
        lines.append(f"step {st.index}: {old} -> {new}  {relation}  Max-dominated: {st.dominated}")
    lines.append("final labels: " + " ".join(map(repr, res.seed.labels)))
    return "\n".join(lines)


def result_to_json(res: PathResult) -> dict:
    """The JSON ``path`` report."""
    return {
        "length": len(res.schedule.steps),
        "qm_order": list(res.schedule.qm_order),
        "steps": [
            {
                "index": s.index,
                "position": s.position,
                "old": list(s.identity.main[0]),
                "new": list(s.identity.main[1]),
                "relation": relation,
                "dominated": s.dominated,
            }
            for s, (_, _, relation) in zip(res.steps, relation_texts(res.steps))
        ],
        "final_labels": [list(l) for l in res.seed.labels],
        "final_seed": cluster.to_json(res.seed),
    }
