import random
import signal

import pytest

from oracles import hom_dim, interval_hom_dim, knit_dims, knit_hom_row, maximal_terminal, projected_dimvec
from test_quiver import random_quiver

from clusterknit import mesh, reference
from clusterknit.errors import (
    DynkinOverflowError,
    LabelRangeError,
    NotAdaptedError,
    TerminalConstraintError,
    VertexIndexError,
)
from clusterknit.mesh import (
    IntervalLabel,
    MeshVertex,
    adapted_orderings,
    build_category,
    canonical_ordering_vertices,
    delta_dims,
    delta_support,
    to_dot,
    to_json,
    triangle_display,
    validate_label,
    validate_ordering,
    validate_terminal,
)
from clusterknit.quiver import topological_order, validate_quiver

V = MeshVertex


def random_levels(rng, nmax=5, tmax=3):
    """Random acyclic quiver (parallel arrows allowed) with a random level
    vector that meets the closure constraint, built along a topological
    order; whether every tau-orbit reaches its level is not checked."""
    while True:
        q = random_quiver(rng, nmax)
        t = {}
        for v in topological_order(q):
            preds = q.arrows_in(v)
            lo = max((t[u] - 1 for u in preds), default=0)
            hi = min((t[u] for u in preds), default=tmax)
            if lo > hi:
                break
            t[v] = rng.randint(max(lo, 0), hi)
        else:
            return validate_terminal(q, tuple(t[v] for v in range(1, q.n + 1)))


def random_terminal(rng, nmax=5, tmax=3):
    """``random_levels`` drawn again until the category exists."""
    while True:
        td = random_levels(rng, nmax, tmax)
        try:
            build_category(td)
            return td
        except DynkinOverflowError:
            continue


def test_build_kronecker3(kronecker3):
    cat = kronecker3
    assert cat.r == 7
    dims = {(v.i, v.a): cat.dims[v] for v in cat.vertices}
    assert dims == {
        (1, 0): (1, 0, 0),
        (2, 0): (2, 1, 0),
        (3, 0): (2, 1, 1),
        (1, 1): (3, 2, 0),
        (2, 1): (6, 4, 1),
        (3, 1): (4, 3, 0),
        (1, 2): (9, 6, 2),
    }


def test_gamma_star_arrows(kronecker3):
    """Full arrow multiset of Gamma^* for 1 => 2 -> 3, t = (2,1,1)."""
    cat = kronecker3
    pos = {(v.i, v.a): cat.pos(v) + 1 for v in cat.vertices}
    arrows = sorted(
        (
            next(k for k, p in pos.items() if p == s),
            next(k for k, p in pos.items() if p == t),
        )
        for (s, t) in cat.gammaMStar.arrows
    )
    expected = sorted(
        [
            ((1, 2), (2, 1)),
            ((1, 2), (2, 1)),
            ((1, 1), (2, 0)),
            ((1, 1), (2, 0)),
            ((2, 1), (1, 1)),
            ((2, 1), (1, 1)),
            ((2, 0), (1, 0)),
            ((2, 0), (1, 0)),
            ((3, 1), (2, 1)),
            ((3, 0), (2, 0)),
            ((2, 1), (3, 0)),
            # tau-arrows
            ((1, 0), (1, 1)),
            ((1, 1), (1, 2)),
            ((2, 0), (2, 1)),
            ((3, 0), (3, 1)),
        ]
    )
    assert arrows == expected


def test_build_category_matches_the_knitting_oracles():
    """The one hom-table sweep against the two knittings it replaced, on
    every corpus instance and on seeded random quivers (parallel arrows
    included) with levels up to and past the end of their tau-orbits.
    Each hom row equals the per-row vertex-keyed knitting and, read at the
    injectives, ``dims``; ``dims`` equals the upward knitting from the
    injectives, and DynkinOverflowError is
    raised exactly when that knitting lacks a model vertex, naming the first
    one (i ascending, then a ascending)."""
    rng = random.Random(9)
    cases = [reference.terminal(name) for name in reference.CORPUS]
    cases += [random_levels(rng, nmax=6, tmax=5) for _ in range(400)]
    overflows = parallel = 0
    for td in cases:
        knit = knit_dims(td)
        parallel += len(set(td.q.arrows)) < len(td.q.arrows)
        missing = [
            (i, a)
            for i in range(1, td.q.n + 1)
            for a in range(td.level(i) + 1)
            if (i, a) not in knit
        ]
        if missing:
            i, a = missing[0]
            with pytest.raises(DynkinOverflowError) as exc:
                build_category(td)
            assert str(exc.value) == (
                f"tau^{a}(I_{i}) does not exist; t_{i}={td.level(i)} is too large"
            )
            overflows += 1
            continue
        cat = build_category(td)
        assert {(v.i, v.a): d for v, d in cat.dims.items()} == {
            (v.i, v.a): knit[v.i, v.a] for v in cat.vertices
        }
        model = set(cat.vertices)
        injectives = [cat.pos(V(j, 0)) for j in range(1, td.q.n + 1)]
        for x, row in zip(cat.vertices, cat.hom_table):
            oracle = knit_hom_row(td, model, x)
            assert row == tuple(oracle.get(z, 0) for z in cat.vertices), (td, x)
            assert tuple(row[p] for p in injectives) == cat.dims[x]
    assert overflows > 50 and len(cases) - overflows > 50 and parallel > 50


def test_build_zero_levels():
    q = validate_quiver(3, [(1, 2), (2, 3)])
    cat = build_category(validate_terminal(q, (0, 0, 0)))
    assert cat.r == 3
    assert cat.gammaM.arrows == cat.gammaMStar.arrows  # no tau-arrows
    # the slice is Q^op
    assert len(cat.gammaM.arrows) == 2


def test_terminal_constraint_violated():
    q = validate_quiver(2, [(1, 2)])
    with pytest.raises(TerminalConstraintError):
        validate_terminal(q, (0, 2))


def test_dynkin_overflow():
    q = validate_quiver(3, [(1, 2), (2, 3)])
    with pytest.raises(DynkinOverflowError):
        build_category(validate_terminal(q, (2, 1, 1)))
    q4 = reference.quiver("linear_a4")
    with pytest.raises(DynkinOverflowError):
        build_category(validate_terminal(q4, (1, 2, 3, 4)))


def test_dynkin_overflow_is_refused_before_the_model(monkeypatch):
    """Linear A_3 at t = (30000,)*3: the tau-orbit of I_1 ends at level 3,
    and the knitted dimension vectors say so before any vertex list or hom
    row is built, however large t is."""
    def too_slow(signum, frame):
        raise TimeoutError("build_category ran for more than one second")

    def no_model(*args):
        raise AssertionError("the vertex list was built before the refusal")

    td = validate_terminal(validate_quiver(3, [(1, 2), (2, 3)]), (30000,) * 3)
    monkeypatch.setattr(mesh, "canonical_ordering_vertices", no_model)
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(DynkinOverflowError) as exc:
            build_category(td)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == "tau^3(I_1) does not exist; t_1=30000 is too large"


def test_dims_a2():
    q = validate_quiver(2, [(1, 2)])
    cat = build_category(validate_terminal(q, (1, 0)))
    assert cat.dims[V(2, 0)] == (1, 1)
    assert cat.dims[V(1, 1)] == (0, 1)


def test_dims_triangle(triangle3):
    got = sorted(triangle3.dims.values())
    assert (4, 3, 3) in got and (2, 2, 1) in got


def test_dims_affine_cycle_graph():
    """Oriented triangle 3->1, 3->2, 2->1 with t = (1,1,1): the translate
    of the 2-dimensional injective I_2 is 7-dimensional, so the glued
    interval module has dimension vector (2,3,4)."""
    q = validate_quiver(3, [(3, 1), (3, 2), (2, 1)])
    cat = build_category(validate_terminal(q, (1, 1, 1)))
    assert cat.dims[V(2, 0)] == (0, 1, 1)
    assert cat.dims[V(2, 1)] == (2, 2, 3)
    glued = [
        a + b
        for a, b in zip(cat.dims[V(2, 0)], cat.dims[V(2, 1)])
    ]
    assert glued == [2, 3, 4]


def test_zero_levels_orderings_are_topological():
    """With t = 0 every topological ordering of Q is adapted and yields a
    word of length n."""
    from clusterknit.quiver import adapted_word

    q = validate_quiver(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    cat = build_category(validate_terminal(q, (0, 0, 0, 0)))
    for perm in ((1, 2, 3, 4), (1, 3, 2, 4)):
        ordering = [V(i, 0) for i in perm]
        validate_ordering(cat, ordering)
        assert len(adapted_word(cat, ordering)) == 4
    with pytest.raises(NotAdaptedError):
        validate_ordering(cat, [V(i, 0) for i in (4, 2, 3, 1)])


def test_socle_entry_is_one(kronecker3, fan_a3, five_vertex, linear_a4):
    for cat in (kronecker3, fan_a3, five_vertex, linear_a4):
        for i in range(1, cat.terminal.q.n + 1):
            assert cat.dims[V(i, 0)][i - 1] == 1


def test_mesh_additivity(kronecker3, five_vertex):
    """dims(i,z+1) + dims(i,z) = sum over arrows into (i,z) of the source
    dims, whenever (i,z+1) is in the model."""
    for cat in (kronecker3, five_vertex):
        q = cat.terminal.q
        present = set(cat.vertices)
        for v in cat.vertices:
            up = V(v.i, v.a + 1)
            if up not in present:
                continue
            mids = [0] * q.n
            for j in q.arrows_out(v.i):
                if V(j, v.a) in present:
                    mids = [
                        a + b for a, b in zip(mids, cat.dims[V(j, v.a)])
                    ]
            for k in q.arrows_in(v.i):
                if V(k, v.a + 1) in present:
                    mids = [
                        a + b for a, b in zip(mids, cat.dims[V(k, v.a + 1)])
                    ]
            lhs = [
                a + b for a, b in zip(cat.dims[up], cat.dims[v])
            ]
            assert lhs == mids, (v, lhs, mids)


def test_hom_dim_identity(kronecker3, fan_a3, linear_a4):
    for cat in (kronecker3, fan_a3, linear_a4):
        for x in cat.vertices:
            assert hom_dim(cat, x, x) == 1


def test_hom_dim_directedness(kronecker3, five_vertex):
    for cat in (kronecker3, five_vertex):
        for x in cat.vertices:
            for z in cat.vertices:
                if z.a > x.a:
                    assert hom_dim(cat, x, z) == 0


def test_hom_triangles_fan_a3(fan_a3):
    """Hom triangles of the six T_{i,a} for 1 <- 2 -> 3."""
    cat = fan_a3
    want = {
        (1, 1): ((1, 0), (1, 0), (0, 1)),
        (1, 0): ((1, 1), (1, 1), (0, 1)),
        (2, 1): ((0, 1), (1, 1), (0, 1)),
        (2, 0): ((0, 1), (1, 2), (0, 1)),
        (3, 1): ((0, 1), (1, 0), (1, 0)),
        (3, 0): ((0, 1), (1, 1), (1, 1)),
    }
    for (i, a), tri in want.items():
        lbl = IntervalLabel(i, a, cat.terminal.level(i))
        assert triangle_display(cat, projected_dimvec(cat, lbl)) == tri


def test_hom_against_intertwiner_oracle():
    """Knitted hom dimensions equal the brute-force intertwiner solution on
    every pair of indecomposables of linear A_3 and A_4 quivers."""
    quivers = [
        validate_quiver(3, [(1, 2), (2, 3)]),
        reference.quiver("fan_a3"),
        validate_quiver(3, [(1, 2), (3, 2)]),
        reference.quiver("linear_a4"),
        validate_quiver(4, [(1, 2), (2, 3), (3, 4)]),
        validate_quiver(4, [(2, 1), (2, 3), (4, 3)]),
    ]
    for q in quivers:
        cat = build_category(maximal_terminal(q))
        assert cat.r == q.n * (q.n + 1) // 2  # all indecomposables
        supp = {}
        for v in cat.vertices:
            coords = cat.dims[v]
            assert set(coords) <= {0, 1}
            supp[v] = {j + 1 for j, c in enumerate(coords) if c}
        for x in cat.vertices:
            for z in cat.vertices:
                assert hom_dim(cat, x, z) == interval_hom_dim(
                    q, supp[x], supp[z]
                ), (q.arrows, x, z)


def test_hom_oracle_on_partial_models():
    """Same oracle comparison on proper successor-closed regions, where a
    model vertex can have its translate inside the ambient translation
    quiver but outside the model."""
    cases = [
        (reference.quiver("linear_a4"), (0, 1, 1, 1)),
        (reference.quiver("linear_a4"), (0, 0, 1, 2)),
        (validate_quiver(3, [(1, 2), (2, 3)]), (1, 1, 0)),
        (reference.quiver("fan_a3"), (0, 1, 0)),
        (reference.quiver("fan_a3"), (1, 1, 0)),
    ]
    for q, t in cases:
        cat = build_category(validate_terminal(q, t))
        supp = {
            v: {j + 1 for j, c in enumerate(cat.dims[v]) if c}
            for v in cat.vertices
        }
        for x in cat.vertices:
            for z in cat.vertices:
                assert hom_dim(cat, x, z) == interval_hom_dim(
                    q, supp[x], supp[z]
                ), (q.arrows, t, x, z)


def test_projected_dimvec_kronecker(kronecker3):
    cat = kronecker3
    for a in (2, 1):
        vec = projected_dimvec(cat, IntervalLabel(1, a, 2))
        assert triangle_display(cat, vec) == reference.HOM_TRIANGLES[(1, a)]


def test_projected_dimvec_top_label_self_entry(kronecker3, fan_a3):
    for cat in (kronecker3, fan_a3):
        for i in range(1, cat.terminal.q.n + 1):
            ti = cat.terminal.level(i)
            vec = projected_dimvec(cat, IntervalLabel(i, ti, ti))
            assert vec[cat.pos(V(i, ti))] == 1


def test_delta_dims_first_injective_is_one():
    q = validate_quiver(2, [(1, 2)])
    cat = build_category(validate_terminal(q, (1, 0)))
    ordering = adapted_orderings(cat)
    dd = delta_dims(cat, validate_ordering(cat, ordering))
    assert ordering[0].a == 0 and dd[0] == 1


def test_delta_dims_all_positive(kronecker3, five_vertex, linear_a4):
    for cat in (kronecker3, five_vertex, linear_a4):
        assert all(x >= 1 for x in delta_dims(cat))


def test_delta_support(kronecker3):
    tri = triangle_display(
        kronecker3, delta_support(kronecker3, IntervalLabel(1, 1, 2))
    )
    assert tri == ((1, 1, 0), (0, 0), (0, 0))


def test_canonical_ordering_validates_random():
    rng = random.Random(41)
    for _ in range(100):
        td = random_terminal(rng)
        cat = build_category(td)
        validate_ordering(cat, canonical_ordering_vertices(td))


def test_reversed_ordering_fails(kronecker3):
    with pytest.raises(NotAdaptedError):
        validate_ordering(kronecker3, list(reversed(kronecker3.vertices)))


def test_worked_ordering_validates(kronecker3, kronecker3_ordering):
    validate_ordering(kronecker3, kronecker3_ordering)


def test_hom_table_triangular_in_adapted_order(kronecker3, five_vertex):
    for cat in (kronecker3, five_vertex):
        ordering = adapted_orderings(cat)
        for j, x in enumerate(ordering):
            for jp in range(j + 1, len(ordering)):
                assert hom_dim(cat, x, ordering[jp]) == 0
            assert hom_dim(cat, x, x) == 1


def test_gamma_star_no_loops_or_two_cycles(kronecker3, five_vertex, linear_a4):
    for cat in (kronecker3, five_vertex, linear_a4):
        seen = set(cat.gammaMStar.arrows)
        for (s, t) in seen:
            assert s != t
            assert (t, s) not in seen


def test_dot_export(kronecker3):
    dot = to_dot(kronecker3)
    assert dot.startswith("digraph")
    assert "style=dashed" in dot  # tau-arrows styled
    assert '"1,0" -> "1,1"' in dot


def test_json_export(kronecker3):
    data = to_json(kronecker3, kronecker3.vertices)
    assert data["dims"]["(1,2)"] == [9, 6, 2]
    assert data["hom"]["(1,2)"]["(1,0)"] == 9


def test_label_out_of_range_is_typed(kronecker3):
    """A label on no vertex, or past its level, raises LabelRangeError,
    which is still an IndexError; a unit label is always accepted."""
    validate_label(kronecker3, IntervalLabel(9, 5, 0))
    for lbl in (IntervalLabel(4, 0, 0), IntervalLabel(0, 0, 0), IntervalLabel(3, 0, 2), IntervalLabel(1, -1, 1)):
        with pytest.raises(LabelRangeError):
            validate_label(kronecker3, lbl)
    with pytest.raises(IndexError):
        projected_dimvec(kronecker3, IntervalLabel(2, 0, 2))


def test_vertex_not_in_the_category_is_typed(kronecker3):
    """``pos`` of a vertex the category lacks raises VertexIndexError,
    which is still an IndexError."""
    assert kronecker3.pos(V(1, 2)) == kronecker3.vertices.index(V(1, 2))
    for v in (V(1, 3), V(4, 0), V(0, 0)):
        with pytest.raises(VertexIndexError, match="is not in the category"):
            kronecker3.pos(v)
    with pytest.raises(IndexError):
        kronecker3.pos(V(3, 2))


def test_terminal_data_repr():
    td = validate_terminal(validate_quiver(2, [(1, 2)]), (1, 1))
    assert repr(td) == "TerminalData(q=Quiver(n=2, arrows=((1, 2),)), t=(1, 1))"
