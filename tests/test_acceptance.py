"""Acceptance suite: one test per criterion, bit-exact expectations.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them); any assertion failure is the corresponding FAIL.
"""

import random
import time

import pytest

from oracles import (
    core_equal,
    hom_dim,
    interval_hom_dim,
    maximal_terminal,
    mutable,
    projected_dimvec,
    strictly_equal,
    substitute,
)

from clusterknit import euler, minors, reference
from clusterknit.cluster import initial_seed, mutate_seed
from clusterknit.exchange import make_matrix, mutate_matrix
from clusterknit.laurent import LaurentPoly
from clusterknit.mesh import (
    IntervalLabel,
    MeshVertex,
    adapted_orderings,
    build_category,
    delta_dims,
    triangle_display,
    validate_terminal,
)
from clusterknit.quiver import adapted_word, cartan, inversion_roots, validate_quiver
from clusterknit.rigidpath import make_schedule, pbw_expand, run_path, schedule_length

V = MeshVertex
L = IntervalLabel


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def timed(budget):
    start = time.time()

    def check():
        elapsed = time.time() - start
        assert elapsed < budget, f"over time budget: {elapsed:.1f}s >= {budget}s"
        return elapsed

    return check


def test_criterion_01_mutation_involution(kronecker3, fan_a3):
    done = timed(5)
    rng = random.Random(101)
    for _ in range(1000):
        r = rng.randint(2, 8)
        rows = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                v = rng.randint(-3, 3)
                rows[i][j], rows[j][i] = v, -v
        m = make_matrix(rows)
        k = rng.randint(1, r)
        assert strictly_equal(mutate_matrix(mutate_matrix(m, k), k), m)
    for cat in (kronecker3, fan_a3):
        base = initial_seed(cat)
        for _ in range(100):
            s = base
            for _ in range(rng.randint(0, 3)):
                s = mutate_seed(s, rng.choice(mutable(base.matrix)))
            k = rng.choice(mutable(base.matrix))
            assert core_equal(mutate_seed(mutate_seed(s, k), k), s)
    report(1, f"matrix and seed mutation involutions ({done():.1f}s)")


def test_criterion_02_dimension_vectors(kronecker3):
    done = timed(1)
    cat = kronecker3
    for (i, a), tri in reference.HOM_TRIANGLES.items():
        lbl = L(i, a, cat.terminal.level(i))
        assert triangle_display(cat, projected_dimvec(cat, lbl)) == tri
    s = initial_seed(cat)
    k = cat.pos(reference.MUTATION_VERTEX) + 1
    s2 = mutate_seed(s, k)
    assert s2.dominated
    assert triangle_display(cat, s2.dim_trackers[k - 1]) == reference.MUTATED_DIM_TRIANGLE
    report(2, f"all seven hom triangles and the mutated vector ({done():.2f}s)")


def test_criterion_03_delta_vectors(kronecker3):
    done = timed(1)
    assert triangle_display(kronecker3, delta_dims(kronecker3)) == reference.D_DELTA
    s = initial_seed(kronecker3)
    k = kronecker3.pos(reference.MUTATION_VERTEX) + 1
    vec = mutate_seed(s, k).delta_trackers[k - 1]
    assert triangle_display(kronecker3, vec) == reference.MUTATED_DELTA_TRIANGLE
    report(3, f"d_Delta and the mutated Delta-vector ({done():.2f}s)")


def test_criterion_04_schedule(five_vertex):
    done = timed(10)
    rng = random.Random(104)
    from test_mesh import random_terminal

    for _ in range(50):
        td = random_terminal(rng)
        assert len(make_schedule(td).steps) == schedule_length(td)
    lengths = reference.SCHEDULE_LENGTHS
    assert len(make_schedule(reference.terminal("e8")).steps) == lengths["e8"]
    assert reference.category("e8").r == 120  # every indecomposable exists
    res = run_path(
        initial_seed(five_vertex, with_vars=False),
        make_schedule(five_vertex.terminal),
    )
    assert len(res.steps) == lengths["five_vertex"]
    final = sorted((l.i, l.a, l.b) for l in res.seed.labels)
    assert final == reference.final_labels(five_vertex)
    report(4, f"r(M) formula, 840 steps on E8, 19-step run ({done():.1f}s)")


def test_criterion_05_exchange_pbw(kronecker3):
    done = timed(1)
    cat = kronecker3
    res = run_path(initial_seed(cat), make_schedule(cat.terminal))
    from clusterknit.rigidpath import relation_texts

    texts = [relation for _, _, relation in relation_texts(res.steps)]
    for relation in reference.EXCHANGE_RELATIONS:
        assert relation in texts
    assert pbw_expand(cat, L(1, 0, 2)) == reference.pbw_expansion(cat)
    report(5, f"three exchange relations and the 5-term expansion ({done():.2f}s)")


def test_criterion_06_euler_series(kronecker3, kronecker3_ordering):
    done = timed(60)
    cat, ordering = kronecker3, kronecker3_ordering
    for k, terms in reference.G_SERIES.items():
        assert euler.g_module(cat, ordering, k) == euler.ShuffleSeries(terms), k
    assert len(euler.g_module(cat, ordering, 5).terms) == reference.G5_WORDS
    g6 = euler.g_module(cat, ordering, 6)
    assert not g6.is_zero()
    report(6, f"g-series including the 402-word and large cases ({done():.1f}s)")


def test_euler_series_sum_to_their_stage_dag_path_sums(kronecker3, kronecker3_ordering, five_vertex, triangle3):
    """Beside criterion 06: the coefficients of an expanded series add up to
    the path sum over its stage DAG, which one pass over the states gives.
    On g_6 of kronecker3 (1,652 states, 392,206 words) and on the benchmark's
    three Euler series, each along its canonical ordering."""
    edges, length = euler.stage_dag(kronecker3, kronecker3_ordering, 6)
    assert len(edges) == 1652
    total = euler.dag_coefficient_sum(edges, length)
    assert total == 8_619_907_645_440
    assert sum(c for _, c in euler.expand(edges, length, range(4), len)) == total
    kronecker2 = build_category(validate_terminal(validate_quiver(2, [(1, 2), (1, 2)]), (3, 2)))
    for cat, k in ((five_vertex, 8), (kronecker2, 6), (triangle3, 7)):
        ordering = adapted_orderings(cat)
        total = euler.dag_coefficient_sum(*euler.stage_dag(cat, ordering, k))
        assert total and total == sum(euler.g_module(cat, ordering, k).terms.values()), k


def test_slow_check_holds_g6_to_its_path_sum(monkeypatch):
    """``check --slow`` passes g_6 only if its coefficients add up to the
    path sum above; a one-word series of the right or wrong sum stands in
    for the 392,206-word expansion."""
    for total, passed in ((8_619_907_645_440, True), (8_619_907_645_441, False)):
        series = euler.ShuffleSeries({(1,): total})
        monkeypatch.setattr(euler, "g_module", lambda cat, ordering, k, s=series: s)
        assert reference.check_euler_g6_integral() is passed


def test_criterion_07_minors(linear_a4):
    done = timed(10)
    x = minors.unitriangular_minors(5)
    xv = lambda i: LaurentPoly.variable(i - 1, 10)
    key, value = reference.minor_example()
    assert x[minors.MinorKey((1, *key.rows), (1, *key.cols))] == value
    for (i, a), xi in reference.MINOR_TABLE.items():
        key = minors.interval_minor_key(i, a, a, 4)
        assert x[key] == xv(xi), (i, a)
    cat = linear_a4
    images = [x[minors.interval_minor_key(v.i, v.a, v.a, 4)] for v in cat.vertices]
    count = 0
    for i in range(1, 5):
        for b in range(0, i):
            for a in range(b + 1):
                lhs = substitute(pbw_expand(cat, L(i, a, b)), images)
                rhs = x[minors.interval_minor_key(i, a, b, 4)]
                assert lhs == rhs, (i, a, b)
                count += 1
    assert count == 20
    report(7, f"minor table and eta consistency on all 20 intervals ({done():.1f}s)")


def test_criterion_08_flag_identities():
    done = timed(1)
    for lhs, rhs in reference.flag_identities():
        assert lhs == rhs
    report(8, f"the acyclic A3 dual-PBW identities at the flag level ({done():.2f}s)")


def test_criterion_09_roots(kronecker3, fan_a3, triangle3, five_vertex):
    done = timed(1)
    for cat in (kronecker3, fan_a3, triangle3, five_vertex):
        word = adapted_word(cat, adapted_orderings(cat))
        roots = inversion_roots(word, cartan(cat.terminal.q))
        assert sorted(roots) == sorted(cat.dims[v] for v in cat.vertices)
    got = sorted(
        inversion_roots(
            adapted_word(triangle3, adapted_orderings(triangle3)),
            cartan(triangle3.terminal.q),
        )
    )
    assert got == reference.TRIANGLE3_ROOTS
    report(9, f"inversion roots equal knitted dimension vectors ({done():.2f}s)")


def test_criterion_10_hom_oracle():
    done = timed(5)
    quivers = [
        validate_quiver(3, [(1, 2), (2, 3)]),
        reference.quiver("fan_a3"),
        reference.quiver("linear_a4"),
        validate_quiver(4, [(1, 2), (2, 3), (3, 4)]),
    ]
    pairs = 0
    for q in quivers:
        cat = build_category(maximal_terminal(q))
        assert cat.r == q.n * (q.n + 1) // 2
        supp = {
            v: {j + 1 for j, c in enumerate(cat.dims[v]) if c}
            for v in cat.vertices
        }
        for x in cat.vertices:
            for z in cat.vertices:
                assert hom_dim(cat, x, z) == interval_hom_dim(q, supp[x], supp[z])
                pairs += 1
    report(10, f"hom knitting vs intertwiner oracle on {pairs} pairs ({done():.1f}s)")


def test_criterion_11_laurent_smoke(kronecker3, fan_a3, linear_a4):
    """Walks of full length 12 run on finite- and affine-type categories;
    the wild double-arrow category is exercised at depth 4, past which the
    exact Laurent supports grow exponentially and stop being desk-scale."""
    done = timed(60)
    rng = random.Random(111)
    a3 = build_category(
        validate_terminal(validate_quiver(3, [(1, 2), (2, 3)]), (2, 1, 0))
    )
    a4 = build_category(
        validate_terminal(
            validate_quiver(4, [(1, 2), (2, 3), (3, 4)]), (3, 2, 1, 0)
        )
    )
    d4 = build_category(
        validate_terminal(
            validate_quiver(4, [(4, 1), (4, 2), (4, 3)]), (1, 1, 1, 1)
        )
    )
    kron_affine = build_category(
        validate_terminal(validate_quiver(2, [(1, 2), (1, 2)]), (1, 1))
    )
    walks = 0
    for cat, count, depth in (
        (fan_a3, 34, 12),
        (a3, 34, 12),
        (a4, 33, 12),
        (d4, 33, 12),
        (linear_a4, 33, 12),
        (kron_affine, 23, 12),
        (kronecker3, 10, 4),
    ):
        base = initial_seed(cat)
        ks = mutable(base.matrix)
        for _ in range(count):
            s = base
            for _ in range(rng.randint(1, depth)):
                s = mutate_seed(s, rng.choice(ks))  # NotDivisible = fail
            walks += 1
    assert walks == 200
    report(11, f"200 random mutation walks, every division exact ({done():.1f}s)")


def test_criterion_12_max_dominance(
    kronecker3, fan_a3, linear_a4, triangle3, five_vertex
):
    done = timed(10)
    rng = random.Random(112)
    from test_mesh import random_terminal

    cats = [kronecker3, fan_a3, linear_a4, triangle3, five_vertex]
    cats += [build_category(random_terminal(rng)) for _ in range(20)]
    for cat in cats:
        res = run_path(
            initial_seed(cat, with_vars=False), make_schedule(cat.terminal)
        )
        assert all(st.dominated for st in res.steps)
    report(12, f"Max-dominance at every step of {len(cats)} schedules ({done():.1f}s)")
