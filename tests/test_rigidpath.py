import json
import random
from collections import Counter

import oracles
import pytest
from oracles import core_equal, monomial, mutable, projected_dimvec, strictly_equal, substitute

from clusterknit import reference, rigidpath
from clusterknit import cluster, exchange
from clusterknit.cluster import initial_seed, mutate_seed
from clusterknit.errors import LabelRangeError, ScheduleMismatchError
from clusterknit.exchange import arrows_at, b_matrix, make_matrix, mutate_matrix
from clusterknit.laurent import LaurentPoly
from clusterknit.mesh import (
    IntervalLabel,
    MeshVertex,
    build_category,
    delta_support,
    validate_terminal,
)
from clusterknit.quiver import Quiver, validate_quiver
from clusterknit.rigidpath import (
    det_identity,
    make_schedule,
    pbw_expand,
    qm_adapted_order,
    qm_op,
    relation_texts,
    result_to_json,
    run_path,
    schedule_length,
)

V = MeshVertex
L = IntervalLabel


def test_qm_op_five_vertex(five_vertex):
    op = qm_op(five_vertex.terminal)
    assert op.arrows == reference.FIVE_VERTEX_QM_OP
    assert qm_adapted_order(op) == [1, 2, 3, 4, 5]


def test_schedule_e8():
    td = reference.terminal("e8")
    assert schedule_length(td) == reference.SCHEDULE_LENGTHS["e8"]
    assert len(make_schedule(td).steps) == reference.SCHEDULE_LENGTHS["e8"]


def test_schedule_empty():
    q = validate_quiver(2, [(1, 2)])
    td = validate_terminal(q, (0, 0))
    assert len(make_schedule(td).steps) == 0
    cat = build_category(td)
    res = run_path(initial_seed(cat), make_schedule(td))
    assert core_equal(res.seed, initial_seed(cat))


def test_schedule_five_vertex(five_vertex):
    sch = make_schedule(five_vertex.terminal)
    assert len(sch.steps) == reference.SCHEDULE_LENGTHS["five_vertex"]
    # step 1 starts with the full top-to-bottom sweep of orbit 1
    assert [s.main[0] for s in sch.steps[:3]] == [L(1, 3, 3), L(1, 2, 3), L(1, 1, 3)]


def test_schedule_length_random():
    rng = random.Random(47)
    from test_mesh import random_terminal

    for _ in range(50):
        td = random_terminal(rng)
        assert len(make_schedule(td).steps) == schedule_length(td)


def test_make_schedule_checks_its_length(monkeypatch, kronecker3):
    """The r(M) guard raises, so it also holds under ``python -O``."""
    monkeypatch.setattr(rigidpath, "schedule_length", lambda td: 0)
    with pytest.raises(ScheduleMismatchError):
        make_schedule(kronecker3.terminal)


def _identity(td, i, a, b):
    return det_identity(td, qm_op(td), i, a, b)


def test_det_identity_kronecker(kronecker3):
    td = kronecker3.terminal
    ident = _identity(td, 1, 1, 1)
    # the left pair T_{1,[0,1]} T_{1,[1,0]} keeps only its non-unit factor
    assert L(1, 1, 0).is_unit()
    assert ident.sides[0] == {L(1, 0, 1): 1}
    assert ident.main == (L(1, 1, 1), L(1, 0, 0))
    assert ident.sides[1] == {L(2, 0, 0): 2}
    assert _identity(td, 3, 1, 1).sides[1] == {L(2, 1, 1): 1}
    assert _identity(td, 2, 1, 1).sides[1] == {L(1, 1, 1): 2, L(3, 0, 0): 1}


def test_det_identity_fan(fan_a3):
    td = fan_a3.terminal
    assert _identity(td, 1, 1, 1).sides[1] == {L(2, 1, 1): 1}
    assert _identity(td, 2, 1, 1).sides[1] == {L(1, 0, 0): 1, L(3, 0, 0): 1}
    assert _identity(td, 3, 1, 1).sides[1] == {L(2, 1, 1): 1}


def test_det_identity_a2():
    q = validate_quiver(2, [(1, 2)])
    td = validate_terminal(q, (1, 1))
    # the Q-arrow 1->2 with equal levels lands in-slice, giving the single
    # Q_M^op arrow 2->1: T_{2,[0,1]} = T_{2,[1,1]} T_{2,[0,0]} - T_{1,[1,1]}
    assert _identity(td, 2, 1, 1).sides[1] == {L(1, 1, 1): 1}
    assert _identity(td, 1, 1, 1).sides[1] == {L(2, 0, 0): 1}
    with pytest.raises(LabelRangeError):
        _identity(td, 1, 0, 1)


def _oracle_terminals():
    """Every corpus instance and 40 seeded random terminals."""
    from test_mesh import random_terminal

    rng = random.Random(1101)
    return [reference.terminal(name) for name in reference.CORPUS] + [
        random_terminal(rng) for _ in range(40)
    ]


def test_det_identity_matches_the_oracle():
    """For every 1 <= a <= b <= t_i the identity built from one Q_M^op has
    the main pair and the two sides, as label maps, that the per-label
    oracle with its Counter sides gives; the schedule holds exactly these
    identities, one per label."""
    checked = 0
    for td in _oracle_terminals():
        op = qm_op(td)
        by_label = {s.main[0]: s for s in make_schedule(td).steps}
        for i in range(1, td.q.n + 1):
            for b in range(1, td.level(i) + 1):
                for a in range(1, b + 1):
                    got = det_identity(td, op, i, a, b)
                    want = oracles.det_identity(td, i, a, b)
                    assert got.main == want.main, (i, a, b)
                    assert got.sides == want.exchange_sides(), (i, a, b)
                    assert by_label.pop(L(i, a, b)) == got
                    checked += 1
        assert not by_label
    assert checked > 1000


def _oracle_relation(td, label) -> str:
    ident = oracles.det_identity(td, label.i, label.a, label.b)

    def fmt(counts):
        names = sorted((repr(l), m) for l, m in counts.items())
        return "*".join(n if m == 1 else f"{n}^{m}" for n, m in names) or "1"

    side1, side2 = ident.exchange_sides()
    return f"{ident.main[0]!r}*{ident.main[1]!r} = {fmt(side1)} + {fmt(side2)}"


def test_relation_text_matches_the_oracle(five_vertex):
    for cat in (five_vertex, reference.category("e8")):
        td = cat.terminal
        res = run_path(initial_seed(cat, with_vars=False), make_schedule(td))
        assert len(res.steps) == schedule_length(td)
        for st, (old, new, text) in zip(res.steps, relation_texts(res.steps), strict=True):
            assert (old, new) == tuple(map(repr, st.identity.main))
            assert text == _oracle_relation(td, st.identity.main[0])


def test_qm_op_is_built_once(monkeypatch, kronecker3):
    """One Q_M^op per schedule and one per dual-PBW expansion; running the
    path builds none."""
    calls = []
    monkeypatch.setattr(rigidpath, "qm_op", lambda td: calls.append(td) or qm_op(td))
    sch = make_schedule(kronecker3.terminal)
    assert len(calls) == 1
    run_path(initial_seed(kronecker3, with_vars=False), sch)
    assert len(calls) == 1
    assert pbw_expand(kronecker3, L(1, 0, 2)) == reference.pbw_expansion(kronecker3)
    assert len(calls) == 2


def test_run_path_visits_all_singles(fan_a3):
    sch = make_schedule(fan_a3.terminal)
    res = run_path(initial_seed(fan_a3), sch)
    seen = set(initial_seed(fan_a3).labels)
    for st in res.steps:
        seen.add(st.identity.main[1])
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
    for ident in sch.steps:
        target, new_label = ident.main
        k = cur.labels.index(target) + 1
        cur = mutate_seed(cur, k, new_label=new_label)
        assert cur.dim_trackers[k - 1] == projected_dimvec(cat, new_label)
        assert cur.delta_trackers[k - 1] == delta_support(cat, new_label)


def test_run_path_rejects_foreign_seed(kronecker3, fan_a3):
    sch = make_schedule(kronecker3.terminal)
    with pytest.raises(ScheduleMismatchError):
        run_path(initial_seed(fan_a3), sch)


def _negated(m):
    return make_matrix([[-x for x in row] for row in m.b], m.frozen)


def _with_matrix(seed, matrix):
    """``seed`` with its exchange matrix replaced."""
    return cluster.Seed(matrix, seed.vars, seed.labels, seed.dim_trackers, seed.delta_trackers, seed.d_delta)


def test_run_path_accepts_the_sides_in_either_order(kronecker3, five_vertex, fan_a3, linear_a4):
    """Negating B swaps the two exchange sides at every step, so the path
    runs through the branch where the emitted (out, in) pair equals the
    predicted sides as they stand.  Everything but B is the same, and B
    ends negated."""
    for cat in (kronecker3, five_vertex, fan_a3, linear_a4):
        seed = initial_seed(cat, with_vars=cat is not five_vertex)
        sch = make_schedule(cat.terminal)
        res = run_path(seed, sch)
        neg = run_path(_with_matrix(seed, _negated(seed.matrix)), sch)
        assert neg.steps == res.steps
        for field in ("labels", "vars", "dim_trackers", "delta_trackers", "d_delta"):
            assert getattr(neg.seed, field) == getattr(res.seed, field), field
        assert strictly_equal(neg.seed.matrix, _negated(res.seed.matrix))


def test_run_path_reports_a_mismatched_exchange(kronecker3):
    """B mutated at vertex 5 while the labels stay put: the first step
    finds its label at vertex 7 but emits sides the identity does not
    predict."""
    seed = initial_seed(kronecker3, with_vars=False)
    sch = make_schedule(kronecker3.terminal)
    assert seed.labels[6] == sch.steps[0].main[0]
    spoiled = _with_matrix(seed, mutate_matrix(seed.matrix, 5))
    with pytest.raises(ScheduleMismatchError, match="step 1: .* emitted .* predicted "):
        run_path(spoiled, sch)


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


def test_pbw_products_have_no_unit_operand(five_vertex, monkeypatch):
    """Each product of the expansion starts from its first factor: on
    five_vertex the four longest intervals expand with no product by 1
    (33 of 107 products had a unit operand when they started from 1)."""
    one = LaurentPoly.one(five_vertex.r)
    operands = []
    product = LaurentPoly.__mul__

    def recorded(a, b):
        operands.append((a, b))
        return product(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", recorded)
    for lbl in (L(1, 0, 3), L(3, 0, 3), L(5, 0, 2), L(2, 0, 2)):
        pbw_expand(five_vertex, lbl)
    assert operands and not [pair for pair in operands if one in pair]


def _random_image(rng, arity):
    """A unit monomial (exponents in -2..2) or a nonzero polynomial of one
    to three terms (exponents in 0..2, coefficients in +-1..3)."""
    if rng.random() < 0.5:
        return monomial(arity, [rng.randint(-2, 2) for _ in range(arity)], rng.choice((1, -1)))
    terms = {
        tuple(rng.randint(0, 2) for _ in range(arity)): rng.choice((1, 2, 3, -1, -2, -3))
        for _ in range(rng.randint(1, 3))
    }
    return LaurentPoly(arity, terms)


def test_pbw_at_images_matches_the_substitution_oracle(kronecker3, five_vertex):
    """Expanding at images equals substituting them into the expansion in
    the z variables: at the single-interval minors of linear type A for
    n = 3, 4, 5, where every interval gives its own minor, and at seeded
    random images, unit monomials and small polynomials of arity 1 to 3, on
    every interval of kronecker3 and five_vertex and on a unit.  A draw
    where some interval's image is 0 is skipped: a divisor of the recursion
    could be that interval."""
    for n in (3, 4, 5):
        cat, table = reference.linear_type_a(n), reference.interval_minors(n)
        images = [table[v.i, v.a, v.a][1] for v in cat.vertices]
        for iab, (_, minor) in table.items():
            got = pbw_expand(cat, L(*iab), images)
            assert got == substitute(pbw_expand(cat, L(*iab)), images) == minor, (n, iab)
    rng = random.Random(59)
    tested = skipped = 0
    for cat in (kronecker3, five_vertex):
        t_of = cat.terminal.level
        labels = [
            L(i, a, b) for i in range(1, cat.terminal.q.n + 1) for b in range(t_of(i) + 1) for a in range(b + 1)
        ] + [L(1, 1, 0)]
        expansions = [pbw_expand(cat, lbl) for lbl in labels]
        for _ in range(20):
            arity = rng.randint(1, 3)
            images = [_random_image(rng, arity) for _ in range(cat.r)]
            want = [substitute(p, images) for p in expansions]
            if any(w.is_zero() for w in want):
                skipped += 1
                continue
            assert [pbw_expand(cat, lbl, images) for lbl in labels] == want, cat.terminal
            tested += 1
    assert tested >= 30, (tested, skipped)


def test_pbw_satisfies_identity(kronecker3, five_vertex):
    """Substituting expansions back into the determinantal identity gives a
    polynomial identity."""
    for cat in (kronecker3, five_vertex):
        td = cat.terminal

        def product(side):
            prod = LaurentPoly.one(cat.r)
            for f, m in side.items():
                prod = prod * pbw_expand(cat, f) ** m
            return prod

        for i in range(1, td.q.n + 1):
            for b in range(1, td.level(i) + 1):
                for a in range(1, b + 1):
                    ident = _identity(td, i, a, b)
                    lhs = product(ident.sides[0])
                    rhs = pbw_expand(cat, ident.main[0]) * pbw_expand(
                        cat, ident.main[1]
                    )
                    assert lhs == rhs - product(ident.sides[1]), (i, a, b)


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
        for ident in make_schedule(cat.terminal).steps:
            target, new_label = ident.main
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
            cur = mutate_seed(cur, k, new_label=new_label)


def test_run_path_reads_each_step_once(kronecker3, five_vertex, monkeypatch):
    """Each schedule step reads the exchange sides once, for both the label
    check and the mutation, and applies the dimension rule once."""
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
        assert calls["sides"] == len(res.steps)
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


# Laurent-expanded instances where the corpus t is too costly to expand:
# five_vertex at the laurent-path t, and E8 at t = 2
EXPANDED_T = {"five_vertex": (2, 2, 2, 1, 2), "e8": (2,) * 8}


def path_cases():
    """(id, category, whether the seed carries variables): every corpus
    path with and without expansion (E8's labels reach index 14 without),
    and the linear A_11 path at t = (0, 1, ..., 1), whose vertex indices
    reach 11, expanded."""
    for name, (n, arrows, t) in reference.CORPUS.items():
        yield f"{name} --no-expand", reference.category(name), False
        q = validate_quiver(n, arrows)
        yield name, build_category(validate_terminal(q, EXPANDED_T.get(name, t))), True
    a11 = validate_quiver(11, [(i + 1, i) for i in range(1, 11)])
    yield "a11", build_category(validate_terminal(a11, (0,) + (1,) * 10)), True


@pytest.mark.parametrize("cat,with_vars", [c[1:] for c in path_cases()], ids=[c[0] for c in path_cases()])
def test_path_writer_matches_the_dict_report(cat, with_vars):
    """The JSON ``path`` report, written from its template pieces, is the
    text ``json.dumps(indent=1, sort_keys=True)`` writes of the dict
    report, and ``result_to_json`` reads it back as that dict."""
    res = run_path(initial_seed(cat, with_vars=with_vars), make_schedule(cat.terminal))
    want = oracles.result_to_json(res)
    assert "".join(rigidpath.result_json(res)) == json.dumps(want, indent=1, sort_keys=True)
    assert result_to_json(res) == want
    assert ("vars" in want["final_seed"]) == with_vars


def test_path_step_repr(kronecker3):
    step = rigidpath.PathStep(1, 7, make_schedule(kronecker3.terminal).steps[0], True)
    assert repr(step) == (
        "PathStep(index=1, position=7, identity=DetIdentity(main=(T_{1,[2,2]}, T_{1,[1,1]}), "
        "sides=({T_{1,[1,2]}: 1}, {T_{2,[1,1]}: 2})), dominated=True)"
    )
