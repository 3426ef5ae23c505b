"""The explicit mutation schedule from T_M to T_M^vee, the generalized
determinantal identities it realizes, and dual-PBW expansion of interval
variables into the single-interval generators."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import cluster, mesh
from . import exchange as ex
from .errors import ScheduleMismatchError, TerminalConstraintError
from .laurent import LaurentPoly, exact_div
from .mesh import IntervalLabel, MeshVertex, TerminalData
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


def qm_adapted_order(td: TerminalData) -> list[int]:
    """A Q_M-adapted ordering of 1..n: each vertex is a sink of Q_M after
    reflecting at all earlier ones.  The sources-first topological order of
    Q_M^op always qualifies."""
    op = qm_op(td)
    order = topological_order(op)
    validate_sink_sequence(op.opposite(), order)
    return order


def schedule_length(td: TerminalData) -> int:
    """r(M) = sum of t_i (t_i + 1) / 2."""
    return sum(t * (t + 1) // 2 for t in td.t)


@dataclass(frozen=True)
class Schedule:
    td: TerminalData
    qm_order: tuple[int, ...]
    steps: tuple[IntervalLabel, ...]

    def __len__(self) -> int:
        return len(self.steps)


def make_schedule(td: TerminalData) -> Schedule:
    """Step k mutates, for each i in Q_M-adapted order, the labels
    T_{i,[b,b]}, T_{i,[b-1,b]}, ..., T_{i,[1,b]} with b = t_i - (k - 1),
    skipping exhausted orbits."""
    order = qm_adapted_order(td)
    steps = []
    k = 1
    while True:
        round_steps = []
        for i in order:
            b = td.level(i) - (k - 1)
            if b >= 1:
                for a in range(b, 0, -1):
                    round_steps.append(IntervalLabel(i, a, b))
        if not round_steps:
            break
        steps.extend(round_steps)
        k += 1
    sch = Schedule(td, tuple(order), tuple(steps))
    if len(sch) != schedule_length(td):
        raise ScheduleMismatchError(f"{len(sch)} steps, r(M) = {schedule_length(td)}")
    return sch


@dataclass(frozen=True)
class DetIdentity:
    """T_{i,[a-1,b]} T_{i,[a,b-1]} = T_{i,[a,b]} T_{i,[a-1,b-1]}
    - prod_{i->j} T_{j,[a+d_j, b+d_j]} prod_{k->i} T_{k,[a-1+d_k, b-1+d_k]}
    with d_x = t_x - t_i over the arrows of Q_M^op.  Empty intervals are
    units; negative-index symbols are dropped entirely."""

    i: int
    a: int
    b: int
    left: tuple[IntervalLabel, IntervalLabel]
    main: tuple[IntervalLabel, IntervalLabel]
    factors: tuple[IntervalLabel, ...]

    def exchange_sides(self):
        """The two sides of the exchange relation for mutating T_{i,[a,b]}
        into T_{i,[a-1,b-1]}, as label multisets (units dropped)."""
        side1 = Counter(l for l in self.left if not l.is_unit())
        side2 = Counter(self.factors)
        return side1, side2


def _keep(lbl: IntervalLabel):
    """Apply the two conventions: negative indices drop the symbol, c > d
    is the multiplicative unit (also dropped from products)."""
    if lbl.a < 0 or lbl.b < 0:
        return None
    if lbl.is_unit():
        return None
    return lbl


def det_identity(td: TerminalData, i: int, a: int, b: int) -> DetIdentity:
    if not (1 <= a <= b <= td.level(i)):
        raise IndexError(f"need 1 <= a <= b <= t_{i}, got a={a}, b={b}")
    op = qm_op(td)
    ti = td.level(i)
    factors = []
    for j in op.arrows_out(i):
        d = td.level(j) - ti
        f = _keep(IntervalLabel(j, a + d, b + d))
        if f is not None:
            factors.append(f)
    for k in op.arrows_in(i):
        d = td.level(k) - ti
        f = _keep(IntervalLabel(k, a - 1 + d, b - 1 + d))
        if f is not None:
            factors.append(f)
    return DetIdentity(
        i=i,
        a=a,
        b=b,
        left=(IntervalLabel(i, a - 1, b), IntervalLabel(i, a, b - 1)),
        main=(IntervalLabel(i, a, b), IntervalLabel(i, a - 1, b - 1)),
        factors=tuple(sorted(factors, key=lambda l: (l.i, l.a, l.b))),
    )


@dataclass(frozen=True)
class PathStep:
    index: int
    position: int
    old_label: IntervalLabel
    new_label: IntervalLabel
    identity: DetIdentity
    dominated: bool


@dataclass(frozen=True)
class PathResult:
    schedule: Schedule
    seed: cluster.Seed
    steps: tuple[PathStep, ...]


def _label_counts(labels, side) -> Counter:
    """An exchange side {position: multiplicity} as a multiset of labels."""
    counts: Counter = Counter()
    for i, m in side.items():
        counts[labels[i - 1]] += m
    return counts


def run_path(seed: cluster.Seed, sch: Schedule) -> PathResult:
    """Run the full schedule.  Every mutation must hit the vertex currently
    carrying the scheduled label and its exchange relation must match the
    predicted determinantal identity, else ScheduleMismatchError."""
    if seed.labels is None:
        raise ScheduleMismatchError("seed has no interval labels to follow")
    records = []
    cur = seed
    position_of = {l: k for k, l in enumerate(seed.labels, 1)}
    for idx, target in enumerate(sch.steps):
        k = position_of.pop(target, None)
        if k is None:
            raise ScheduleMismatchError(f"step {idx + 1}: no vertex is labeled {target!r}")
        ident = det_identity(sch.td, target.i, target.a, target.b)
        out_labels, in_labels = (
            _label_counts(cur.labels, side) for side in ex.arrows_at(cur.matrix, k)
        )
        side1, side2 = ident.exchange_sides()
        if {
            frozenset(out_labels.items()),
            frozenset(in_labels.items()),
        } != {frozenset(side1.items()), frozenset(side2.items())}:
            raise ScheduleMismatchError(
                f"step {idx + 1}: exchange at {target!r} emitted "
                f"{dict(out_labels)} / {dict(in_labels)}, predicted "
                f"{dict(side1)} / {dict(side2)}"
            )
        new_label = IntervalLabel(target.i, target.a - 1, target.b - 1)
        cur = cluster.mutate_seed(cur, k, new_label=new_label)
        position_of[new_label] = k
        records.append(
            PathStep(
                index=idx + 1,
                position=k,
                old_label=target,
                new_label=new_label,
                identity=ident,
                dominated=cur.dominated,
            )
        )
    return PathResult(schedule=sch, seed=cur, steps=tuple(records))


# -- dual PBW expansion ----------------------------------------------------


def pbw_expand(cat: mesh.CategoryModel, lbl: IntervalLabel) -> LaurentPoly:
    """Expand T_{i,[a,b]} as a polynomial in the single-interval variables
    z_{l,c}, one per mesh vertex in canonical position order.

    Recursion: solve the determinantal identity at (i, a+1, b) for the
    longest interval and divide exactly by T_{i,[a+1,b-1]}.  A division
    failure would contradict polynomiality of the dual PBW expansion and
    is fatal."""
    mesh.validate_label(cat, lbl)
    td = cat.terminal
    r = cat.r
    memo: dict = {}

    def expand(i: int, a: int, b: int) -> LaurentPoly:
        if a > b:
            return LaurentPoly.one(r)
        key = (i, a, b)
        if key in memo:
            return memo[key]
        if a == b:
            res = LaurentPoly.variable(cat.pos(MeshVertex(i, a)), r)
        else:
            ident = det_identity(td, i, a + 1, b)
            num = expand(i, a + 1, b) * expand(i, a, b - 1)
            prod = LaurentPoly.one(r)
            for f in ident.factors:
                prod = prod * expand(f.i, f.a, f.b)
            res = exact_div(num - prod, expand(i, a + 1, b - 1))
        memo[key] = res
        return res

    if lbl.is_unit():
        return LaurentPoly.one(r)
    return expand(lbl.i, lbl.a, lbl.b)


# -- reporting ---------------------------------------------------------------


def relation_text(step: PathStep) -> str:
    ident = step.identity
    side1, side2 = ident.exchange_sides()

    def fmt(counter):
        # label reprs are distinct, so the multiplicity never breaks a tie
        return cluster.monomial_text(sorted((repr(l), m) for l, m in counter.items()))

    return (
        f"{ident.main[0]!r}*{ident.main[1]!r} = {fmt(side1)} + {fmt(side2)}"
    )


def result_to_json(res: PathResult) -> dict:
    return {
        "length": len(res.schedule),
        "qm_order": list(res.schedule.qm_order),
        "steps": [
            {
                "index": s.index,
                "position": s.position,
                "old": [s.old_label.i, s.old_label.a, s.old_label.b],
                "new": [s.new_label.i, s.new_label.a, s.new_label.b],
                "relation": relation_text(s),
                "dominated": s.dominated,
            }
            for s in res.steps
        ],
        "final_labels": [
            [l.i, l.a, l.b] for l in res.seed.labels
        ],
        "final_seed": cluster.to_json(res.seed),
    }
