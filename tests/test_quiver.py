import json
import random
import time

import pytest
from oracles import rescan_topological_order

from clusterknit import cli, reference
from clusterknit.errors import (
    CycleError,
    DisconnectedError,
    LoopError,
    NotAdaptedError,
    NotReducedError,
    TooSmallError,
    VertexIndexError,
)
from clusterknit.quiver import (
    ReducedWord,
    RootVec,
    Weight,
    _topological_order,
    adapted_word,
    cartan,
    fundamental_weight,
    inversion_roots,
    reflect,
    s_root,
    s_weight,
    simple_root,
    validate_quiver,
    validate_sink_sequence,
)
from clusterknit.mesh import adapted_orderings


def random_quiver(rng, nmax=6):
    """Random connected acyclic quiver: arrows only go up a random order."""
    n = rng.randint(2, nmax)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    arrows = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    for _ in range(rng.randint(0, n)):
        i, j = sorted(rng.sample(range(n), 2))
        arrows.append((perm[i], perm[j]))
    return validate_quiver(n, arrows)


def test_validate_smallest():
    q = validate_quiver(2, [(1, 2)])
    assert q.n == 2 and q.arrows == ((1, 2),)


def test_validate_kronecker_type():
    q = reference.quiver("kronecker3")
    assert q.arrows.count((1, 2)) == 2


def test_validate_rejects_two_cycle():
    with pytest.raises(CycleError):
        validate_quiver(2, [(1, 2), (2, 1)])


def test_validate_rejects_loop_disconnected_small():
    with pytest.raises(LoopError):
        validate_quiver(2, [(1, 1)])
    with pytest.raises(DisconnectedError):
        validate_quiver(4, [(1, 2), (3, 4)])
    with pytest.raises(TooSmallError):
        validate_quiver(1, [])


def test_too_few_arrows_are_disconnected_before_anything_else():
    """Fewer than n - 1 arrows cannot connect n vertices: that is refused
    before the cycle test, so a short cycle among many vertices is a
    DisconnectedError, and before any table of n entries is built."""
    with pytest.raises(DisconnectedError):
        validate_quiver(4, [(1, 2), (2, 1)])
    with pytest.raises(DisconnectedError):
        validate_quiver(2**70, [(1, 2)])
    with pytest.raises(CycleError):
        validate_quiver(3, [(1, 2), (2, 3), (3, 1)])


def test_topological_order_matches_the_rescanning_order():
    """The heap order is the rescanning oracle's, smallest ready vertex
    first, on seeded random DAGs with parallel arrows, and both give None
    on the same graphs with a back arrow added."""
    rng = random.Random(79)
    for _ in range(300):
        n = rng.randint(2, 12)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        arrows = []
        for _ in range(rng.randint(0, 3 * n)):
            i, j = sorted(rng.sample(range(n), 2))
            arrows += [(perm[i], perm[j])] * rng.randint(1, 3)
        rng.shuffle(arrows)
        order = _topological_order(n, arrows)
        assert order is not None and order == rescan_topological_order(n, arrows)
        if arrows:
            s, t = rng.choice(arrows)
            cyclic = arrows + [(t, s)]
            assert _topological_order(n, cyclic) is None is rescan_topological_order(n, cyclic)


def test_large_quivers_validate_in_linear_time(tmp_path, capsys):
    """A 320,000-vertex quiver without arrows is refused at once through
    the CLI, and a 20,000-vertex path quiver validates in well under a
    second."""
    path = tmp_path / "arrowless.json"
    path.write_text(json.dumps({"n": 320_000, "arrows": []}))
    start = time.perf_counter()
    assert cli.main(["build", str(path), "--t", "0"]) == 2
    assert time.perf_counter() - start < 1
    assert "DisconnectedError" in capsys.readouterr().err
    n = 20_000
    start = time.perf_counter()
    q = validate_quiver(n, [(i + 1, i) for i in range(1, n)])
    assert time.perf_counter() - start < 1
    assert len(q.arrows) == n - 1


def test_cartan_a2():
    assert cartan(validate_quiver(2, [(1, 2)])).entries == ((2, -1), (-1, 2))


def test_cartan_kronecker3():
    q = reference.quiver("kronecker3")
    assert cartan(q).entries == reference.CARTAN_KRONECKER3


def test_cartan_a3_tree():
    q = reference.quiver("fan_a3")
    assert cartan(q).entries == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_cartan_orientation_independent():
    rng = random.Random(7)
    for _ in range(50):
        q = random_quiver(rng)
        for k in range(1, q.n + 1):
            assert cartan(reflect(q, k)) == cartan(q)


def test_reflect_examples():
    q = validate_quiver(2, [(1, 2)])
    assert reflect(q, 2).arrows == ((2, 1),)
    q3 = reference.quiver("kronecker3")
    assert reflect(q3, 1).arrows == ((2, 1), (2, 1), (2, 3))
    with pytest.raises(IndexError):
        reflect(q, 5)


def test_vertex_out_of_range_is_typed():
    """An arrow end, a vertex to reflect at and a sink-sequence letter
    outside 1..n raise VertexIndexError, which is still an IndexError."""
    q = validate_quiver(2, [(1, 2)])
    for call in (
        lambda: validate_quiver(2, [(1, 5)]),
        lambda: reflect(q, 0),
        lambda: validate_sink_sequence(q, [2, 3]),
    ):
        with pytest.raises(VertexIndexError, match="out of range 1..2"):
            call()
    assert issubclass(VertexIndexError, IndexError)


def test_reflect_involution_random():
    rng = random.Random(11)
    for _ in range(1000):
        q = random_quiver(rng)
        k = rng.randint(1, q.n)
        assert reflect(reflect(q, k), k) == q


def test_s_weight_example():
    c = cartan(reference.quiver("kronecker3"))
    w = s_weight(fundamental_weight(2, 3), 2, c)
    assert w.pairings == (2, -1, 1)


def test_s_weight_fixed_and_involution():
    c = cartan(reference.quiver("kronecker3"))
    w2 = fundamental_weight(2, 3)
    assert s_weight(w2, 1, c) == w2
    rng = random.Random(3)
    for _ in range(1000):
        w = Weight(tuple(rng.randint(-5, 5) for _ in range(3)))
        i = rng.randint(1, 3)
        assert s_weight(s_weight(w, i, c), i, c) == w


def test_s_root_triangle_example():
    # arrows 1->2, 1->3, 2->3: s_1 s_2 s_3 (alpha_1) has coordinates (2,2,1)
    c = cartan(reference.quiver("triangle3"))
    r = simple_root(1, 3)
    for i in (3, 2, 1):
        r = s_root(r, i, c)
    assert r.coords == (2, 2, 1)


def test_s_root_negates_simple_and_involution():
    c = cartan(reference.quiver("triangle3"))
    assert s_root(simple_root(1, 3), 1, c).coords == (-1, 0, 0)
    rng = random.Random(5)
    for _ in range(1000):
        d = RootVec(tuple(rng.randint(-4, 4) for _ in range(3)))
        i = rng.randint(1, 3)
        assert s_root(s_root(d, i, c), i, c) == d


def test_adapted_word_worked_ordering(kronecker3, kronecker3_ordering):
    word = adapted_word(kronecker3, kronecker3_ordering)
    assert tuple(reversed(word.letters)) == reference.WORKED_WORD


def test_adapted_word_zero_levels():
    from clusterknit.mesh import build_category, validate_terminal

    q = validate_quiver(3, [(1, 2), (2, 3)])
    cat = build_category(validate_terminal(q, (0, 0, 0)))
    word = adapted_word(cat, adapted_orderings(cat))
    assert len(word) == 3 and sorted(word.letters) == [1, 2, 3]


def test_adapted_word_triangle(triangle3):
    # canonical ordering realizes w = s_1 s_3 s_2 s_1 s_3 s_2 s_1
    word = adapted_word(triangle3, adapted_orderings(triangle3))
    assert tuple(reversed(word.letters)) == (1, 3, 2, 1, 3, 2, 1)


def test_adapted_word_rejects_bad_ordering(kronecker3):
    bad = list(reversed(kronecker3.vertices))
    with pytest.raises(NotAdaptedError):
        adapted_word(kronecker3, bad)


def test_adapted_word_length_is_r(kronecker3, five_vertex):
    for cat in (kronecker3, five_vertex):
        word = adapted_word(cat, adapted_orderings(cat))
        assert len(word) == cat.r


def test_inversion_roots_triangle(triangle3):
    word = adapted_word(triangle3, adapted_orderings(triangle3))
    roots = inversion_roots(word, cartan(triangle3.terminal.q))
    got = sorted(r.coords for r in roots)
    assert got == reference.TRIANGLE3_ROOTS


def test_inversion_roots_single_letter():
    c = cartan(validate_quiver(2, [(1, 2)]))
    roots = inversion_roots(ReducedWord((1,)), c)
    assert [r.coords for r in roots] == [(1, 0)]


def test_inversion_roots_not_reduced():
    c = cartan(validate_quiver(2, [(1, 2)]))
    with pytest.raises(NotReducedError):
        inversion_roots(ReducedWord((1, 1)), c)


def test_inversion_roots_match_knitting(kronecker3, fan_a3, five_vertex):
    for cat in (kronecker3, fan_a3, five_vertex):
        word = adapted_word(cat, adapted_orderings(cat))
        roots = inversion_roots(word, cartan(cat.terminal.q))
        assert sorted(r.coords for r in roots) == sorted(
            cat.dims[v].coords for v in cat.vertices
        )


def test_quiver_repr():
    assert repr(validate_quiver(2, [(1, 2)])) == "Quiver(n=2, arrows=((1, 2),))"
