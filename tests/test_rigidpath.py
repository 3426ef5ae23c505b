import random
from collections import Counter

import pytest
from oracles import core_equal, mutable

from clusterknit import reference, rigidpath
from clusterknit import cluster, exchange
from clusterknit.cluster import initial_seed, mutate_seed
from clusterknit.errors import ScheduleMismatchError
from clusterknit.exchange import arrows_at, b_matrix
from clusterknit.laurent import LaurentPoly, substitute
from clusterknit.mesh import (
    IntervalLabel,
    MeshVertex,
    build_category,
    delta_support,
    projected_dimvec,
    validate_terminal,
)
from clusterknit.quiver import Quiver, validate_quiver
from clusterknit.rigidpath import (
    det_identity,
    make_schedule,
    pbw_expand,
    qm_adapted_order,
    qm_op,
    result_to_json,
    run_path,
    schedule_length,
)

V = MeshVertex
L = IntervalLabel


def test_qm_op_five_vertex(five_vertex):
    op = qm_op(five_vertex.terminal)
    assert op.arrows == reference.FIVE_VERTEX_QM_OP
    assert qm_adapted_order(five_vertex.terminal) == [1, 2, 3, 4, 5]


def test_schedule_e8():
    td = reference.terminal("e8")
    assert schedule_length(td) == reference.SCHEDULE_LENGTHS["e8"]
    assert len(make_schedule(td)) == reference.SCHEDULE_LENGTHS["e8"]


def test_schedule_empty():
    q = validate_quiver(2, [(1, 2)])
    td = validate_terminal(q, (0, 0))
    assert len(make_schedule(td)) == 0
    cat = build_category(td)
    res = run_path(initial_seed(cat), make_schedule(td))
    assert core_equal(res.seed, initial_seed(cat))


def test_schedule_five_vertex(five_vertex):
    sch = make_schedule(five_vertex.terminal)
    assert len(sch) == reference.SCHEDULE_LENGTHS["five_vertex"]
    # step 1 starts with the full top-to-bottom sweep of orbit 1
    assert sch.steps[:3] == (L(1, 3, 3), L(1, 2, 3), L(1, 1, 3))


def test_schedule_length_random():
    rng = random.Random(47)
    from test_mesh import random_terminal

    for _ in range(50):
        td = random_terminal(rng)
        assert len(make_schedule(td)) == schedule_length(td)


def test_make_schedule_checks_its_length(monkeypatch, kronecker3):
    """The r(M) guard raises, so it also holds under ``python -O``."""
    monkeypatch.setattr(rigidpath, "schedule_length", lambda td: 0)
    with pytest.raises(ScheduleMismatchError):
        make_schedule(kronecker3.terminal)


def test_det_identity_kronecker(kronecker3):
    td = kronecker3.terminal
    ident = det_identity(td, 1, 1, 1)
    assert ident.left == (L(1, 0, 1), L(1, 1, 0))
    assert ident.main == (L(1, 1, 1), L(1, 0, 0))
    assert ident.factors == (L(2, 0, 0), L(2, 0, 0))
    ident3 = det_identity(td, 3, 1, 1)
    assert ident3.factors == (L(2, 1, 1),)
    ident2 = det_identity(td, 2, 1, 1)
    assert sorted(ident2.factors, key=repr) == [L(1, 1, 1), L(1, 1, 1), L(3, 0, 0)]


def test_det_identity_fan(fan_a3):
    td = fan_a3.terminal
    assert det_identity(td, 1, 1, 1).factors == (L(2, 1, 1),)
    assert det_identity(td, 2, 1, 1).factors == (L(1, 0, 0), L(3, 0, 0))
    assert det_identity(td, 3, 1, 1).factors == (L(2, 1, 1),)


def test_det_identity_a2():
    q = validate_quiver(2, [(1, 2)])
    td = validate_terminal(q, (1, 1))
    # the Q-arrow 1->2 with equal levels lands in-slice, giving the single
    # Q_M^op arrow 2->1: T_{2,[0,1]} = T_{2,[1,1]} T_{2,[0,0]} - T_{1,[1,1]}
    assert det_identity(td, 2, 1, 1).factors == (L(1, 1, 1),)
    assert det_identity(td, 1, 1, 1).factors == (L(2, 0, 0),)
    with pytest.raises(IndexError):
        det_identity(td, 1, 0, 1)


def test_run_path_visits_all_singles(fan_a3):
    sch = make_schedule(fan_a3.terminal)
    res = run_path(initial_seed(fan_a3), sch)
    seen = set(initial_seed(fan_a3).labels)
    for st in res.steps:
        seen.add(st.new_label)
    n = fan_a3.terminal.q.n
    for l in range(1, n + 1):
        for c in range(fan_a3.terminal.level(l) + 1):
            assert L(l, c, c) in seen


def _expected_final_matrix(cat, res):
    """B(Gamma_M^*) transported along the final labels T_{i,[0,b]} <-> (i,b)."""
    final_pos = {}
    for k, lbl in enumerate(res.seed.labels, start=1):
        assert lbl.a == 0
        final_pos[MeshVertex(lbl.i, lbl.b)] = k
    arrows = []
    for (s, t) in cat.gammaMStar.arrows:
        arrows.append(
            (final_pos[cat.vertices[s - 1]], final_pos[cat.vertices[t - 1]])
        )
    return b_matrix(Quiver(cat.r, tuple(sorted(arrows))), res.seed.matrix.frozen)


def test_final_quiver_matches_dual(kronecker3, fan_a3, five_vertex):
    """After the schedule the exchange matrix is B(Gamma_{T_M^vee}) up to
    the uncontrolled frozen-frozen entries."""
    for cat in (kronecker3, fan_a3, five_vertex):
        # tracker-only run: the wild five-vertex expansions are enormous
        # and the comparison only needs labels and the matrix
        res = run_path(
            initial_seed(cat, with_vars=cat.r <= 7), make_schedule(cat.terminal)
        )
        assert res.seed.matrix == _expected_final_matrix(cat, res)


def test_schedule_returns_dual_matrix_all_levels_one():
    """For 1 => 2 -> 3 with t = (1,1,1) the schedule carries B(Gamma^*)
    back to itself under the relabeling (i,b) <-> T_{i,[0,b]}, up to
    frozen-frozen entries."""
    q = reference.quiver("kronecker3")
    cat = build_category(validate_terminal(q, (1, 1, 1)))
    res = run_path(initial_seed(cat), make_schedule(cat.terminal))
    assert res.seed.matrix == _expected_final_matrix(cat, res)


def test_run_path_five_vertex(five_vertex):
    res = run_path(
        initial_seed(five_vertex, with_vars=False),
        make_schedule(five_vertex.terminal),
    )
    assert len(res.steps) == reference.SCHEDULE_LENGTHS["five_vertex"]
    final = sorted((l.i, l.a, l.b) for l in res.seed.labels)
    assert final == reference.final_labels(five_vertex)
    assert all(st.dominated for st in res.steps)


def test_run_path_tracker_consistency(kronecker3):
    """Along the schedule every new vertex's trackers coincide with the
    mesh predictions for its new interval label."""
    cat = kronecker3
    sch = make_schedule(cat.terminal)
    cur = initial_seed(cat)
    for target in sch.steps:
        k = cur.labels.index(target) + 1
        new_label = L(target.i, target.a - 1, target.b - 1)
        cur = mutate_seed(cur, k, new_label=new_label)
        assert cur.dim_trackers[k - 1] == projected_dimvec(cat, new_label)
        assert cur.delta_trackers[k - 1] == delta_support(cat, new_label)


def test_run_path_rejects_foreign_seed(kronecker3, fan_a3):
    sch = make_schedule(kronecker3.terminal)
    with pytest.raises(ScheduleMismatchError):
        run_path(initial_seed(fan_a3), sch)


def test_pbw_single(kronecker3):
    p = pbw_expand(kronecker3, L(1, 2, 2))
    assert p == LaurentPoly.variable(kronecker3.pos(V(1, 2)), kronecker3.r)
    assert pbw_expand(kronecker3, L(1, 1, 0)) == LaurentPoly.one(kronecker3.r)


def test_pbw_worked_expansions(kronecker3):
    cat = kronecker3
    z = lambda i, a: LaurentPoly.variable(cat.pos(V(i, a)), cat.r)
    assert pbw_expand(cat, L(1, 0, 1)) == z(1, 1) * z(1, 0) - z(2, 0) ** 2
    assert pbw_expand(cat, L(2, 0, 1)) == z(2, 1) * z(2, 0) - z(1, 1) ** 2 * z(3, 0)
    assert pbw_expand(cat, L(3, 0, 1)) == z(3, 1) * z(3, 0) - z(2, 1)
    assert pbw_expand(cat, L(1, 0, 2)) == reference.pbw_expansion(cat)


def test_pbw_polynomiality(kronecker3, five_vertex, linear_a4):
    """No negative exponents anywhere in a dual-PBW expansion."""
    for cat in (kronecker3, five_vertex, linear_a4):
        t_of = cat.terminal.level
        for i in range(1, cat.terminal.q.n + 1):
            for b in range(t_of(i) + 1):
                for a in range(b + 1):
                    p = pbw_expand(cat, L(i, a, b))
                    assert all(
                        e >= 0 for exps, _ in p.sorted_terms() for e in exps
                    ), (i, a, b)


def test_pbw_satisfies_identity(kronecker3, five_vertex):
    """Substituting expansions back into the determinantal identity gives a
    polynomial identity."""
    for cat in (kronecker3, five_vertex):
        td = cat.terminal
        for i in range(1, td.q.n + 1):
            for b in range(1, td.level(i) + 1):
                for a in range(1, b + 1):
                    ident = det_identity(td, i, a, b)
                    lhs = pbw_expand(cat, ident.left[0]) * pbw_expand(
                        cat, ident.left[1]
                    )
                    rhs = pbw_expand(cat, ident.main[0]) * pbw_expand(
                        cat, ident.main[1]
                    )
                    prod = LaurentPoly.one(cat.r)
                    for f in ident.factors:
                        prod = prod * pbw_expand(cat, f)
                    assert lhs == rhs - prod, (i, a, b)


def test_mutation_reaches_four_term_identity(fan_a3):
    """Mutating the initial seed at the vertex (2,1) produces the variable
    whose dual-PBW expansion is the printed four-term combination."""
    cat = fan_a3
    s = initial_seed(cat)
    k = cat.pos(V(2, 1)) + 1
    s2 = mutate_seed(s, k)
    images = [pbw_expand(cat, lbl) for lbl in s.labels]
    got = substitute(s2.vars[k - 1], images)
    z = lambda i, a: LaurentPoly.variable(cat.pos(V(i, a)), cat.r)
    want = (
        z(2, 1)
        + z(3, 1) * z(2, 0) * z(1, 1)
        - z(1, 1) * z(1, 0)
        - z(3, 1) * z(3, 0)
    )
    assert got == want


def test_total_rule_agrees_with_max_on_schedule(kronecker3, fan_a3, linear_a4):
    """The |d|-selection (pick the arrow-sum with larger total) agrees with
    the componentwise-Max selection at every schedule step."""
    for cat in (kronecker3, fan_a3, linear_a4):
        cur = initial_seed(cat, with_vars=False)
        for target in make_schedule(cat.terminal).steps:
            k = cur.labels.index(target) + 1
            tr = cur.dim_trackers
            out_sum, in_sum = (
                [sum(m * tr[i - 1][c] for i, m in side.items()) for c in range(cat.r)]
                for side in arrows_at(cur.matrix, k)
            )
            assert sum(out_sum) != sum(in_sum)
            by_total = out_sum if sum(out_sum) > sum(in_sum) else in_sum
            cmax = [max(a, b) for a, b in zip(out_sum, in_sum)]
            assert by_total == cmax
            cur = mutate_seed(
                cur, k, new_label=L(target.i, target.a - 1, target.b - 1)
            )


def test_run_path_reads_each_step_once(kronecker3, five_vertex, monkeypatch):
    """Each schedule step reads the exchange sides at most twice (the label
    check and the mutation) and applies the dimension rule once."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(exchange, "arrows_at", counted("sides", exchange.arrows_at))
    monkeypatch.setattr(cluster, "_dim_rule", counted("dim", cluster._dim_rule))
    for cat in (kronecker3, five_vertex):
        calls.clear()
        res = run_path(initial_seed(cat, with_vars=False), make_schedule(cat.terminal))
        assert calls["sides"] <= 2 * len(res.steps)
        assert calls["dim"] == len(res.steps)


def test_dominance_reported_off_schedule(kronecker3, fan_a3):
    """Off the explicit schedule nothing guarantees Max-dominance; the
    mutation reports the flag instead of assuming it.  On this fixed corpus
    of short random walks every sampled step happened to dominate; the
    assertion freezes that empirical observation."""
    rng = random.Random(77)
    flags = []
    for cat in (kronecker3, fan_a3):
        base = initial_seed(cat)
        for _ in range(40):
            s = base
            for _ in range(rng.randint(0, 4)):
                s = mutate_seed(s, rng.choice(mutable(base.matrix)))
            flags.append(mutate_seed(s, rng.choice(mutable(base.matrix))).dominated)
    assert all(isinstance(f, bool) for f in flags)
    assert all(flags)


def test_result_json(kronecker3):
    res = run_path(initial_seed(kronecker3), make_schedule(kronecker3.terminal))
    data = result_to_json(res)
    assert data["length"] == 5
    assert len(data["steps"]) == 5
    assert sorted(data["final_labels"]) == sorted(
        [[1, 0, 0], [1, 0, 1], [1, 0, 2], [2, 0, 0], [2, 0, 1], [3, 0, 0], [3, 0, 1]]
    )
