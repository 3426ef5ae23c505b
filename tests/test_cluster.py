import json
import random
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from oracles import core_equal, dim_rule, mutable, seed_by_vertex, specialize_frozen, strictly_equal
from test_mesh import random_terminal

from clusterknit import reference
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
from clusterknit.exchange import make_matrix
from clusterknit.laurent import LaurentPoly
from clusterknit.mesh import (
    IntervalLabel,
    MeshVertex,
    build_category,
    delta_support,
    projected_dimvec,
    triangle_display,
    validate_ordering,
    validate_terminal,
)
from clusterknit.quiver import validate_quiver

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
    from clusterknit.laurent import exact_div

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
        return max(s.matrix.entry(p[tgt], p[src]), 0)

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
    stale = replace(s, d_delta=None)
    with pytest.raises(ValueError, match="d_Delta"):
        mutate_seed(stale, 4)


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
    pins = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
    for data in json.loads(pins.read_text())["seeds"].values():
        assert to_json(from_json(data)) == data
