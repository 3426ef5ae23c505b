import json
import random
from collections import Counter, defaultdict
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import (
    walk_report,
    core_equal,
    delta_rule,
    dim_rule,
    mutable,
    projected_dimvec,
    seed_by_vertex,
    side_sum,
    specialize_frozen,
    strictly_equal,
    trace_line as oracle_trace_line,
)
from test_mesh import random_terminal

from clusterknit import cluster, laurent, reference
from clusterknit.cluster import (
    Seed,
    from_json,
    initial_seed,
    mutate_seed,
    to_json,
    trace_line,
)
from clusterknit.errors import (
    AmbiguityError,
    ArityMismatchError,
    FrozenMutationError,
    SeedFormatError,
)
from clusterknit.exchange import arrows_at, make_matrix
from clusterknit.laurent import LaurentPoly, exact_div
from clusterknit.mesh import (
    IntervalLabel,
    MeshVertex,
    build_category,
    delta_support,
    triangle_display,
    validate_ordering,
    validate_terminal,
)
from clusterknit.quiver import validate_quiver
from clusterknit.rigidpath import make_schedule

V = MeshVertex


def rank2_seed():
    m = make_matrix([[0, 1], [-1, 0]])
    return Seed(matrix=m, vars=(LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)))


def test_initial_seed_kronecker(kronecker3):
    s = initial_seed(kronecker3)
    assert s.r == 7
    frozen_labels = sorted(
        (s.labels[k - 1].i, s.labels[k - 1].a, s.labels[k - 1].b)
        for k in s.matrix.frozen
    )
    assert frozen_labels == [(1, 0, 2), (2, 0, 1), (3, 0, 1)]
    # dim trackers are the seven hom triangles
    want = reference.HOM_TRIANGLES
    for k, v in enumerate(kronecker3.vertices):
        assert triangle_display(kronecker3, s.dim_trackers[k]) == want[(v.i, v.a)]


def random_adapted_ordering(rng, cat):
    """A seeded random Gamma_M-adapted ordering: a random linear extension
    that places the target of every arrow before its source."""
    waiting = [0] * cat.r  # arrows out of each vertex whose target is unplaced
    sources = defaultdict(list)
    for (u, v) in cat.gammaM.arrows:
        waiting[u - 1] += 1
        sources[v - 1].append(u - 1)
    ready = [p for p in range(cat.r) if not waiting[p]]
    ordering = []
    while ready:
        p = ready.pop(rng.randrange(len(ready)))
        ordering.append(cat.vertices[p])
        for u in sources[p]:
            waiting[u] -= 1
            if not waiting[u]:
                ready.append(u)
    assert len(ordering) == cat.r
    return ordering


def test_initial_seed_matches_the_vertex_oracle_along_random_orderings(kronecker3_ordering):
    """Seed coordinates come from canonical positions; the oracle reads every
    entry by vertex.  Orderings whose permutation is not its own inverse tell
    the positions from their inverse, which canonical orderings cannot."""
    rng = random.Random(29)
    cats = [reference.category(name) for name in reference.CORPUS]
    cats += [build_category(random_terminal(rng, nmax=6, tmax=5)) for _ in range(40)]
    cases = [(reference.category("kronecker3"), kronecker3_ordering)]
    cases += [(cat, random_adapted_ordering(rng, cat)) for cat in cats for _ in range(2)]
    not_involutions = 0
    for cat, ordering in cases:
        positions = validate_ordering(cat, ordering)
        assert [cat.vertices[p] for p in positions] == list(ordering)
        not_involutions += any(positions[p] != s for s, p in enumerate(positions))
        s = initial_seed(cat, ordering, with_vars=False)
        want = seed_by_vertex(cat, ordering)
        got = {key: getattr(s, key) for key in want if key not in ("b", "frozen")}
        got.update(b=s.matrix.b, frozen=s.matrix.frozen)
        assert got == want
    assert not_involutions > 20, not_involutions


def test_initial_seed_delta_trackers(kronecker3):
    s = initial_seed(kronecker3)
    k = kronecker3.pos(V(1, 1))
    assert triangle_display(kronecker3, s.delta_trackers[k]) == (
        (1, 1, 0),
        (0, 0),
        (0, 0),
    )


def test_initial_seed_all_frozen():
    q = validate_quiver(3, [(1, 2), (2, 3)])
    cat = build_category(validate_terminal(q, (0, 0, 0)))
    s = initial_seed(cat)
    assert s.matrix.frozen == {1, 2, 3}
    for k in range(1, 4):
        with pytest.raises(FrozenMutationError):
            mutate_seed(s, k)


def test_mutate_rank2():
    s = rank2_seed()
    s2 = mutate_seed(s, 1)
    y1, y2 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
    assert s2.vars[0] == exact_div(y2 + LaurentPoly.one(2), y1)


def test_mutate_seed_involution_random_reachable(kronecker3, fan_a3):
    rng = random.Random(3)
    for cat in (kronecker3, fan_a3):
        base = initial_seed(cat)
        for _ in range(100):
            s = base
            for _ in range(rng.randint(0, 3)):
                k = rng.choice(mutable(base.matrix))
                s = mutate_seed(s, k)
            k = rng.choice(mutable(base.matrix))
            assert core_equal(mutate_seed(mutate_seed(s, k), k), s)


def d4_category():
    """The D_4 quiver with central source and every summand, the d4 walk
    seed of the small-exact benchmark."""
    q = validate_quiver(4, [(2, 1), (2, 3), (2, 4)])
    return build_category(validate_terminal(q, (1, 1, 1, 1)))


@pytest.mark.parametrize(
    "name, length", [("fan_a3", 120), ("linear_a4", 120), ("d4", 120), ("kronecker3", 6)]
)
def test_memoised_walks_match_memo_free_mutation(monkeypatch, name, length):
    """Seeded random walks, each followed by its reversal, sharing one
    exchange memo: every trace line and every seed equals what memo-free
    mutation gives, the reversed half divides nothing, and each stored
    relation, reverse entries included, is its fresh exact division.
    kronecker3 is of infinite type: its forward steps almost always miss."""
    cat = d4_category() if name == "d4" else reference.category(name)
    start = initial_seed(cat)
    divisions = []
    monkeypatch.setattr(
        laurent, "exact_div", lambda num, den: divisions.append(1) or exact_div(num, den)
    )
    memo = cluster.ExchangeMemo()
    rng = random.Random(31)
    for _ in range(4):
        walk = [rng.choice(mutable(start.matrix)) for _ in range(length)]
        plain = memoised = start
        for step, k in enumerate(walk + walk[::-1]):
            new_plain = mutate_seed(plain, k)
            done = len(divisions)
            new = mutate_seed(memoised, k, memo=memo)
            assert step < length or len(divisions) == done, "a backtrack missed"
            assert trace_line(memoised, k, new, memo) == trace_line(plain, k, new_plain)
            assert to_json(new) == to_json(new_plain) and new.dominated == new_plain.dominated
            plain, memoised = new_plain, new
        assert memoised.vars == start.vars
    for (old, out_side, in_side), new in memo.quotients.items():
        out_p, in_p = (
            prod((v**m for v, m in side), start=LaurentPoly.one(start.r))
            for side in (out_side, in_side)
        )
        assert new == exact_div(out_p + in_p, old)


def test_trace_lines_match_the_per_factor_oracle(fan_a3, linear_a4, kronecker3):
    """Seeded walks, one memo each, on labelled category seeds (whose
    mutated positions lose their labels) and on unlabelled seeds of random
    matrices: every trace line equals the per-factor oracle's, through
    multiplicities above 1 and empty sides (written ``1``)."""
    rng = random.Random(25)
    starts = [initial_seed(cat) for cat in (fan_a3, linear_a4, kronecker3)]
    while len(starts) < 40:
        r = rng.randint(2, 4)
        m = random_matrix(rng, r, (0, 0, -1, 1, -2, 2, 3))
        if len(m.frozen) < r:
            starts.append(Seed(matrix=m, vars=tuple(LaurentPoly.variable(i, r) for i in range(r))))
    seen = Counter()
    for s in starts:
        memo = cluster.ExchangeMemo()
        for _ in range(4):
            k = rng.choice(mutable(s.matrix))
            new = mutate_seed(s, k, memo=memo)
            sides = new.sides
            assert sides == arrows_at(s.matrix, k)
            assert trace_line(s, k, new, memo) == oracle_trace_line(s, k, new)
            seen["labelled" if s.labels else "unlabelled"] += 1
            seen["multiplicity > 1"] += any(m > 1 for side in sides for m in side.values())
            seen["empty side"] += not all(sides)
            s = new
    assert min(seen.values()) >= 10 and len(seen) == 4, seen


def test_the_memo_adds_up_equal_variables(linear_a4):
    """Two positions holding one variable make it a square: the memo never
    takes y1' = (y2*y2 + 1)/y1 for (y2 + 1)/y1, met in either order.  A
    seeded walk on the linear A_4 seed with one variable copied to a second
    position (the image of the true walk under y_q -> y_p, so every division
    stays exact) agrees step by step with memo-free mutation."""
    y1, y2 = LaurentPoly.variable(0, 3), LaurentPoly.variable(1, 3)
    both = Seed(matrix=make_matrix([[0, -1, -1], [1, 0, 0], [1, 0, 0]]), vars=(y1, y2, y2))
    one = Seed(matrix=make_matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]), vars=(y1, y2, y2))
    assert mutate_seed(both, 1).vars[0] == exact_div(y2 * y2 + LaurentPoly.one(3), y1)
    for order in ((both, one), (one, both)):
        memo = cluster.ExchangeMemo()
        for s in order:
            assert mutate_seed(s, 1, memo=memo).vars == mutate_seed(s, 1).vars
    start = initial_seed(linear_a4)
    p, q = mutable(start.matrix)[:2]
    copied = start.vars[: q - 1] + (start.vars[p - 1],) + start.vars[q:]
    start = Seed(matrix=start.matrix, vars=copied, labels=start.labels, dim_trackers=start.dim_trackers,
                 delta_trackers=start.delta_trackers, d_delta=start.d_delta)
    rng = random.Random(7)
    walk = [rng.choice(mutable(start.matrix)) for _ in range(150)]
    memo, plain, memoised = cluster.ExchangeMemo(), start, start
    for k in walk + walk[::-1]:
        new, new_plain = mutate_seed(memoised, k, memo=memo), mutate_seed(plain, k)
        assert trace_line(memoised, k, new, memo) == oracle_trace_line(plain, k, new_plain)
        assert new.vars == new_plain.vars
        plain, memoised = new_plain, new
    assert memoised.vars == start.vars


def bench_walk_seeds() -> dict:
    """The walk seeds of the small-exact benchmark, by name."""
    pins = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
    return json.loads(pins.read_text())["seeds"]


@pytest.mark.parametrize("name", ["fan-a3", "linear-a4", "a4-t3210", "d4"])
def test_a_walk_divides_each_exchange_pair_once(monkeypatch, name):
    """On each finite-type walk seed of the benchmark, a seeded 1,500-step
    walk and its reversal make one exact division per exchange pair
    {old, new} they meet, although they meet relations again with their
    variables at other positions."""
    start = from_json(bench_walk_seeds()[name])
    divisions = []
    monkeypatch.setattr(
        laurent, "exact_div", lambda num, den: divisions.append(1) or exact_div(num, den)
    )
    rng = random.Random(name)
    walk = [rng.choice(mutable(start.matrix)) for _ in range(1500)]
    memo, s, pairs, by_position = cluster.ExchangeMemo(), start, set(), set()
    for k in walk + walk[::-1]:
        new = mutate_seed(s, k, memo=memo)
        sides = new.sides
        pairs.add(frozenset((s.vars[k - 1], new.vars[k - 1])))
        # the key of a memo that keeps each side in position order
        by_position.add((s.vars[k - 1], *(tuple((s.vars[i - 1], m) for i, m in side.items()) for side in sides)))
        s = new
    assert len(divisions) == len(pairs) < len(by_position)


def test_mutate_dimvec_worked_example(kronecker3):
    s = initial_seed(kronecker3)
    k = kronecker3.pos(reference.MUTATION_VERTEX) + 1
    s2 = mutate_seed(s, k)
    assert s2.dominated
    assert triangle_display(kronecker3, s2.dim_trackers[k - 1]) == reference.MUTATED_DIM_TRIANGLE


def test_mutate_dimvec_equal_sums_identical():
    # two vertices with one arrow each way around a middle vertex carrying
    # identical trackers: both branches equal, no ambiguity
    m = make_matrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    tr = ((1, 0, 0), (0, 1, 0), (0, 1, 0))
    s = Seed(matrix=m, dim_trackers=tr)
    s2 = mutate_seed(s, 1)
    assert s2.dominated and s2.dim_trackers[0] == (-1, 1, 0)


def test_mutate_dimvec_ambiguity():
    m = make_matrix([[0, 1, -1], [-1, 0, 0], [1, 0, 0]])
    tr = ((1, 1, 1), (1, 0, 0), (0, 1, 0))
    s = Seed(matrix=m, dim_trackers=tr)
    with pytest.raises(AmbiguityError):
        mutate_seed(s, 1)


def test_mutate_delta_worked_example(kronecker3):
    s = initial_seed(kronecker3)
    k = kronecker3.pos(reference.MUTATION_VERTEX) + 1
    vec = mutate_seed(s, k).delta_trackers[k - 1]
    assert triangle_display(kronecker3, vec) == reference.MUTATED_DELTA_TRIANGLE
    # the chosen branch is also the one keeping every entry nonnegative
    assert all(x >= 0 for x in vec)


def test_delta_tracker_frozen_untouched(kronecker3):
    s = initial_seed(kronecker3)
    frozen = sorted(s.matrix.frozen)
    s2 = mutate_seed(s, kronecker3.pos(V(1, 1)) + 1)
    for k in frozen:
        assert s2.delta_trackers[k - 1] == s.delta_trackers[k - 1]
        assert s2.dim_trackers[k - 1] == s.dim_trackers[k - 1]


def test_mutated_quiver_worked_example(kronecker3):
    """After mutating at (1,1), the exchange quiver shows the reversed
    arrows at the mutated vertex, a triple arrow (2,1) -> (2,0), and the
    long composite arrow (1,0) -> (1,2)."""
    cat = kronecker3
    s = mutate_seed(initial_seed(cat), cat.pos(V(1, 1)) + 1)
    p = {(v.i, v.a): cat.pos(v) + 1 for v in cat.vertices}

    def count(src, tgt):
        return max(s.matrix.b[p[tgt] - 1][p[src] - 1], 0)

    assert count((2, 1), (2, 0)) == 3
    assert count((1, 0), (1, 2)) == 1
    # reversed arrows at the mutated vertex
    assert count((1, 1), (2, 1)) == 2
    assert count((1, 1), (1, 0)) == 1
    assert count((2, 0), (1, 1)) == 2
    assert count((1, 2), (1, 1)) == 1
    # untouched mesh arrows elsewhere
    assert count((3, 1), (2, 1)) == 1
    assert count((3, 0), (3, 1)) == 1


def test_mutate_frozen_raises(kronecker3):
    s = initial_seed(kronecker3)
    k = sorted(s.matrix.frozen)[0]
    with pytest.raises(FrozenMutationError):
        mutate_seed(s, k)


def test_laurent_phenomenon_smoke(kronecker3, fan_a3, linear_a4):
    """Short random walks never hit a failed exchange division."""
    rng = random.Random(23)
    for cat in (kronecker3, fan_a3, linear_a4):
        base = initial_seed(cat)
        for _ in range(10):
            s = base
            for _ in range(6):
                s = mutate_seed(s, rng.choice(mutable(base.matrix)))


def test_matrix_mutation_commutes_with_seed(kronecker3):
    """The matrix of the mutated seed is the mutated matrix."""
    from clusterknit.exchange import mutate_matrix

    s = initial_seed(kronecker3)
    for k in mutable(s.matrix):
        assert strictly_equal(mutate_seed(s, k).matrix, mutate_matrix(s.matrix, k))


def test_specialize_frozen():
    p = LaurentPoly.variable(0, 3) * LaurentPoly.variable(2, 3) + LaurentPoly.variable(
        1, 3
    )
    out = specialize_frozen(p, frozen={3})
    assert out == LaurentPoly.variable(0, 3) + LaurentPoly.variable(1, 3)


def test_seed_json_round_trip(kronecker3):
    s = mutate_seed(initial_seed(kronecker3), kronecker3.pos(V(1, 1)) + 1)
    blob = json.dumps(to_json(s))
    s2 = from_json(json.loads(blob))
    assert core_equal(s2, s)
    assert s2.labels[: s.r - 1] == s.labels[: s.r - 1]


def test_trace_line(kronecker3):
    s = initial_seed(kronecker3)
    k = kronecker3.pos(V(1, 1)) + 1
    line = trace_line(s, k, mutate_seed(s, k))
    assert f"mu_{k}" in line and "d = " in line


def test_a_mutation_reads_its_own_exchange_sides(kronecker3):
    """``mutate_seed`` takes no sides: it reads them at k and keeps them on
    the new seed, where ``trace_line`` finds them.  Sides once passed in by
    hand at kronecker3's vertex 4, ({1: 1}, {2: 1}), made y4' = (y1 + y2)/y4
    and the dimension row (1, 0, 0, 0, 0, 0, 0) without an error; the
    seed's own give the true row."""
    s = initial_seed(kronecker3)
    with pytest.raises(TypeError):
        mutate_seed(s, 4, sides=({1: 1}, {2: 1}))
    new = mutate_seed(s, 4)
    assert new.sides == arrows_at(s.matrix, 4) == ({2: 2, 7: 1}, {1: 1, 5: 2})
    assert new.dim_trackers[3] == (13, 8, 2, 4, 2, 0, 0)
    assert new.delta_trackers[3] == (1, 0, 0, 0, 2, 0, 0)
    y = [LaurentPoly.variable(i, 7) for i in range(7)]
    assert new.vars[3] == exact_div(y[1] ** 2 * y[6] + y[0] * y[4] ** 2, y[3])
    assert trace_line(s, 4, new) == (
        "mu_4  T_{1,[1,2]}' * T_{1,[1,2]} = T_{2,[0,1]}^2*T_{1,[2,2]} + T_{1,[0,2]}*T_{2,[1,1]}^2"
        "  var = y1*y4^-1*y5^2 + y2^2*y4^-1*y7  d = [13, 8, 2, 4, 2, 0, 0]  dDelta = [1, 0, 0, 0, 2, 0, 0]"
    )
    assert initial_seed(kronecker3).sides is None and new == mutate_seed(s, 4, memo=cluster.ExchangeMemo())


def test_tracker_consistency_after_schedule_step(kronecker3):
    """Mutating T_{1,[2,2]} (the first schedule step) gives the vertex
    T_{1,[1,1]}, whose trackers must equal the mesh predictions."""
    cat = kronecker3
    s = initial_seed(cat)
    k = cat.pos(V(1, 2)) + 1
    s2 = mutate_seed(s, k, new_label=IntervalLabel(1, 1, 1))
    assert s2.dim_trackers[k - 1] == projected_dimvec(cat, IntervalLabel(1, 1, 1))
    assert s2.delta_trackers[k - 1] == delta_support(cat, IntervalLabel(1, 1, 1))


def test_mutate_seed_needs_d_delta_for_delta_trackers(kronecker3):
    """A Delta tracker cannot be mutated without d_Delta: mutate_seed raises
    instead of keeping the old vector at k."""
    s = initial_seed(kronecker3)
    assert mutate_seed(s, 4).delta_trackers[3] == (1, 0, 0, 0, 2, 0, 0)
    stale = Seed(s.matrix, s.vars, s.labels, s.dim_trackers, s.delta_trackers, d_delta=None)
    with pytest.raises(SeedFormatError, match="d_Delta"):
        mutate_seed(stale, 4)


def test_seed_equality_ignores_dominated_and_frozen_pairs(kronecker3):
    """Seed equality reads the matrix, variables, labels, both tracker
    views and d_Delta, never ``dominated`` or ``sides``; ``!=`` is always
    ``not ==``, also for matrices that differ only between two frozen
    indices."""
    s = initial_seed(kronecker3)
    b = [list(row) for row in s.matrix.b]
    i, j = sorted(s.matrix.frozen)[:2]
    b[i - 1][j - 1] += 1
    fields = (s.vars, s.labels, s.dim_trackers, s.delta_trackers, s.d_delta)
    same = [
        Seed(s.matrix, *fields, dominated=False),
        Seed(s.matrix, *fields, sides=({1: 1}, {2: 1})),
        Seed(make_matrix(b, s.matrix.frozen), *fields),
    ]
    for t in same:
        assert t == s and not t != s and hash(t) == hash(s)
    k = mutable(s.matrix)[0]
    other = [
        mutate_seed(s, k),
        Seed(s.matrix, *fields[:-1], d_delta=None),
        Seed(s.matrix, s.vars, s.labels, s.dim_trackers),
    ]
    for t in other:
        assert t != s and not t == s


def outcome(rule, *args):
    try:
        return rule(*args)
    except AmbiguityError:
        return AmbiguityError


def tracker_step(s, k: int):
    """What ``mutate_seed`` makes of each tracker at k, from a seed that
    carries that tracker alone: ((row, dominated) or AmbiguityError,
    row or AmbiguityError), the shapes of ``dim_rule`` and ``delta_rule``.
    Every other row comes back as it was."""
    only = {
        "dim_trackers": Seed(matrix=s.matrix, dim_trackers=s.dim_trackers),
        "delta_trackers": Seed(matrix=s.matrix, delta_trackers=s.delta_trackers, d_delta=s.d_delta),
    }
    got = []
    for name, seed in only.items():
        try:
            new = mutate_seed(seed, k)
        except AmbiguityError:
            got.append(AmbiguityError)
            continue
        rows, old = getattr(new, name), getattr(s, name)
        assert rows[: k - 1] + rows[k:] == old[: k - 1] + old[k:]
        got.append((rows[k - 1], new.dominated) if name == "dim_trackers" else rows[k - 1])
    return tuple(got)


def random_matrix(rng, r: int, entries):
    b = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            b[i][j] = rng.choice(entries)
            b[j][i] = -b[i][j]
    return make_matrix(b, rng.sample(range(1, r + 1), rng.randint(0, r - 1)))


def test_tracker_rules_match_the_zero_started_oracle():
    """The packed dimension and Delta rules of ``mutate_seed`` agree with
    the zero-started tuple sums of the oracles on seeded random seeds
    (negative entries, multiplicities up to 3, empty sides, ties) and
    raise AmbiguityError in exactly the same cases."""
    rng = random.Random(61)
    seen = Counter()
    for _ in range(4000):
        r = rng.randint(2, 6)
        m = random_matrix(rng, r, (0, 0, -1, 1, -2, 2, 3))

        def rows():  # drawn from a small pool, so that equal sums are common
            pool = [tuple(rng.randint(-1, 1) for _ in range(r)) for _ in range(rng.randint(1, 3))]
            return tuple(rng.choice(pool) for _ in range(r))

        s = Seed(matrix=m, dim_trackers=rows(), delta_trackers=rows(),
                 d_delta=tuple(rng.randint(-1, 2) for _ in range(r)))
        k = rng.choice(mutable(m))
        out, inc = arrows_at(m, k)
        want = outcome(dim_rule, s, k)
        want_delta = outcome(delta_rule, s, k)
        assert tracker_step(s, k) == (want, want_delta)
        sums = [side_sum(s.dim_trackers, side) for side in (out, inc)]
        seen["empty side"] += not out or not inc
        seen["multiplicity > 1"] += any(x > 1 for x in (*out.values(), *inc.values()))
        seen["undominated tie"] += want is AmbiguityError
        seen["equal nonempty sums"] += bool(out and inc) and sums[0] == sums[1]
        seen["dominated, unequal"] += want is not AmbiguityError and want[1] and sums[0] != sums[1]
        seen["undominated"] += want is not AmbiguityError and not want[1]
        seen["tied Delta sums"] += want_delta is AmbiguityError
    assert min(seen.values()) >= 20 and len(seen) == 7, seen
    rows = Seed(matrix=make_matrix([[0, 1], [-1, 0]]), dim_trackers=((1, -2), (3, 4)))._dim_trackers
    assert cluster._side_sum(rows.ints, {2: 1}) is rows.ints[1]


def test_packed_rules_widen_at_the_slot_limits():
    """Seeds whose entries sit at the limits of the narrowest packing
    ([-256, 256) in 16-bit slots), walked a few steps with multiplicities
    up to 100: the packed rules redo a step wider where a new row
    overflows its slots, and take more guard bits where a side's total
    multiplicity passes 64, and every step agrees with the oracles."""
    rng = random.Random(16)
    limits = (-256, -255, -1, 0, 1, 254, 255)
    seen = Counter()
    for _ in range(300):
        r = rng.randint(2, 5)
        m = random_matrix(rng, r, (0, -1, 1, 3, -7, 40, -70, 100))
        s = Seed(
            matrix=m,
            dim_trackers=tuple(tuple(rng.choice(limits) for _ in range(r)) for _ in range(r)),
            delta_trackers=tuple(tuple(rng.choice(limits) for _ in range(r)) for _ in range(r)),
            d_delta=tuple(rng.choice(limits) for _ in range(r)),
        )
        for _ in range(rng.randint(1, 4)):
            k = rng.choice(mutable(s.matrix))
            want = outcome(dim_rule, s, k), outcome(delta_rule, s, k)
            assert tracker_step(s, k) == want
            if AmbiguityError in want:
                break
            new = mutate_seed(s, k)
            for rows, was in ((new._dim_trackers, s._dim_trackers), (new._delta_trackers, s._delta_trackers)):
                seen["more guard bits"] += rows.lay.g > was.lay.g
                seen["redone wider"] += rows.lay.g == was.lay.g and rows.lay.w > was.lay.w
            s = new
            seen["steps"] += 1
    assert min(seen.values()) >= 100 and seen["steps"] >= 300, seen


def test_json_walk_matches_the_dict_report(fan_a3, linear_a4, kronecker3):
    """The JSON ``mutate`` report, written from the texts a walk keeps by
    position, is the text ``json.dumps(indent=1, sort_keys=True)`` writes
    of the dict report, on seeded walks from labelled category seeds
    (whose mutated positions lose their labels), from unlabelled seeds of
    random matrices, through exchange sides of multiplicity above 1, and
    from tracker-only seeds at the slot limits, where a step redoes a row
    wider."""
    rng = random.Random(29)
    starts = [initial_seed(cat) for cat in (fan_a3, linear_a4, kronecker3) for _ in range(4)]
    while len(starts) < 40:
        r = rng.randint(2, 4)
        m = random_matrix(rng, r, (0, 0, -1, 1, -2, 2, 3))
        if len(m.frozen) < r:
            starts.append(Seed(matrix=m, vars=tuple(LaurentPoly.variable(i, r) for i in range(r))))
    limits = (-256, -255, -1, 0, 1, 254, 255)
    while len(starts) < 200:
        r = rng.randint(1, 5)
        rows = [tuple(rng.choice(limits) for _ in range(r)) for _ in range(r)]
        starts.append(Seed(matrix=random_matrix(rng, r, (0, -1, 1, 3, -7, 40)), dim_trackers=rows,
                           delta_trackers=rows[::-1], d_delta=tuple(rng.choice(limits) for _ in range(r))))
    seen = Counter()
    for s in starts:
        walk = [rng.choice(mutable(s.matrix)) for _ in range(rng.randint(1, 4))]
        try:
            want = walk_report(s, walk)
        except AmbiguityError:
            continue
        assert "".join(cluster.walk(s, walk, as_json=True)) == json.dumps(want, indent=1, sort_keys=True)
        seen["labelled" if s.labels else "unlabelled"] += 1
        for k in walk:
            sides = arrows_at(s.matrix, k)
            new = mutate_seed(s, k)
            seen["multiplicity > 1"] += any(m > 1 for side in sides for m in side.values())
            if s.dim_trackers is not None:
                seen["redone wider"] += any(
                    rows.lay.g == was.lay.g and rows.lay.w > was.lay.w
                    for rows, was in ((new._dim_trackers, s._dim_trackers), (new._delta_trackers, s._delta_trackers))
                )
            s = new
    assert min(seen.values()) >= 10 and len(seen) == 4, seen


@pytest.mark.parametrize("name", ["e8", "kronecker-3arrow"])
def test_packed_rules_match_the_oracles_along_the_bench_paths(name):
    """Every step of the tracker-path instances (E8 at t = 14 and the
    3-arrow Kronecker quiver at t = (25,24)) against the tuple oracles
    run on a twin that carries tuple rows."""
    if name == "e8":
        cat = reference.category("e8")
    else:
        cat = build_category(validate_terminal(validate_quiver(2, [(1, 2)] * 3), (25, 24)))
    cur = initial_seed(cat, with_vars=False)
    twin = SimpleNamespace(matrix=cur.matrix, dim_trackers=cur.dim_trackers,
                           delta_trackers=cur.delta_trackers, d_delta=cur.d_delta)
    for ident in make_schedule(cat.terminal).steps:
        k = cur.labels.index(ident.main[0]) + 1
        vec, dominated = dim_rule(twin, k)
        cur = mutate_seed(cur, k, new_label=ident.main[1])
        assert (cur._dim_trackers.row(k), cur.dominated) == (vec, dominated)
        twin.dim_trackers = twin.dim_trackers[: k - 1] + (vec,) + twin.dim_trackers[k:]
        vec = delta_rule(twin, k)
        assert cur._delta_trackers.row(k) == vec
        twin.delta_trackers = twin.delta_trackers[: k - 1] + (vec,) + twin.delta_trackers[k:]
        twin.matrix = cur.matrix
    assert (cur.dim_trackers, cur.delta_trackers) == (twin.dim_trackers, twin.delta_trackers)


def test_mutate_seed_reports_dominance(kronecker3):
    s = initial_seed(kronecker3)
    assert s.dominated
    for k in mutable(s.matrix):
        s2 = mutate_seed(s, k)
        assert (s2.dim_trackers[k - 1], s2.dominated) == dim_rule(s, k)
    bare = Seed(matrix=s.matrix)
    assert mutate_seed(bare, mutable(s.matrix)[0]).dominated


def test_from_json_checks_sizes(kronecker3):
    good = to_json(initial_seed(kronecker3))
    assert core_equal(from_json(good), initial_seed(kronecker3))

    def spoiled(**changes):
        data = json.loads(json.dumps(good))
        for key, value in changes.items():
            if value is None:
                del data[key]
            else:
                data[key] = value
        return data

    bad = [
        spoiled(r=8),
        spoiled(vars=good["vars"][:-1]),
        spoiled(labels=good["labels"] + [None]),
        spoiled(labels=[[1, 0]] + good["labels"][1:]),
        spoiled(dim_trackers=good["dim_trackers"][1:]),
        spoiled(delta_trackers=[v[:-1] for v in good["delta_trackers"]]),
        spoiled(d_delta=good["d_delta"] + [0]),
        spoiled(d_delta=None),
        # entry types and frozen indices
        spoiled(matrix={"b": 5}),
        spoiled(matrix=[[0]]),
        spoiled(matrix={"b": [[0.5] + good["matrix"]["b"][0][1:]] + good["matrix"]["b"][1:]}),
        spoiled(matrix={**good["matrix"], "frozen": [good["r"] + 1]}),
        spoiled(matrix={**good["matrix"], "frozen": [0]}),
        spoiled(matrix={**good["matrix"], "frozen": 1}),
        spoiled(dim_trackers=[[1, "a"] + row[2:] for row in good["dim_trackers"]]),
        spoiled(delta_trackers=[[True] + row[1:] for row in good["delta_trackers"]]),
        spoiled(d_delta=["1"] + good["d_delta"][1:]),
        spoiled(labels=[[1, 0, "2"]] + good["labels"][1:]),
        spoiled(vars=[5] + good["vars"][1:]),
        spoiled(vars=[{"1,0,0,0,0,0,0": 1.5}] + good["vars"][1:]),
        spoiled(vars=[{"1,0,0,0,0,0,0": "0"}] + good["vars"][1:]),
    ]
    for data in bad:
        with pytest.raises(SeedFormatError):
            from_json(data)
    wrong_arity = spoiled(vars=[{"1,0": "1"}] + good["vars"][1:])
    with pytest.raises(ArityMismatchError):
        from_json(wrong_arity)


def test_from_json_loads_the_benchmark_walk_seeds():
    for data in bench_walk_seeds().values():
        assert to_json(from_json(data)) == data
