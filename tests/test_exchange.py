import json
import random

import pytest
from oracles import dense_mutate_matrix, matrix_to_quiver, mutable, strictly_equal

from clusterknit.errors import FrozenMutationError, TwoCycleError
from clusterknit.exchange import (
    arrows_at,
    b_matrix,
    from_json,
    make_matrix,
    mutate_matrix,
    to_json,
)
from clusterknit.quiver import Quiver, validate_quiver


def rand_skew(rng, r):
    b = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            v = rng.randint(-3, 3)
            b[i][j] = v
            b[j][i] = -v
    return make_matrix(b)


def test_b_matrix_a2():
    q = validate_quiver(2, [(1, 2)])
    assert b_matrix(q).b == ((0, -1), (1, 0))


def test_b_matrix_single_vertex():
    assert b_matrix(Quiver(1, ())).b == ((0,),)


def test_b_matrix_gamma_star(kronecker3):
    m = b_matrix(kronecker3.gammaMStar, frozen=(1, 2, 3))
    # the double-arrow pairs of Gamma^* give entries +-2
    flat = [x for row in m.b for x in row]
    assert 2 in flat and -2 in flat
    assert m.frozen == frozenset({1, 2, 3})


def test_b_matrix_rejects_two_cycle():
    q = Quiver(2, ((1, 2), (2, 1)))
    with pytest.raises(TwoCycleError):
        b_matrix(q)


def test_round_trip_quiver():
    rng = random.Random(13)
    from test_quiver import random_quiver

    for _ in range(100):
        q = random_quiver(rng)
        assert matrix_to_quiver(b_matrix(q)) == q


def test_mutate_sign_flip():
    m = make_matrix([[0, 1], [-1, 0]])
    assert mutate_matrix(m, 1).b == ((0, -1), (1, 0))


def test_mutate_involution_random():
    rng = random.Random(19)
    for _ in range(1000):
        m = rand_skew(rng, rng.randint(2, 8))
        k = rng.randint(1, m.r)
        assert strictly_equal(mutate_matrix(mutate_matrix(m, k), k), m)


def test_mutate_frozen_guard():
    m = make_matrix([[0, 1], [-1, 0]], frozen=(2,))
    for fn in (mutate_matrix, arrows_at):
        with pytest.raises(FrozenMutationError):
            fn(m, 2)
        with pytest.raises(IndexError):
            fn(m, 3)


def test_mutate_matches_dense_oracle():
    """Rebuilding only the rows of k and its neighbours agrees with the
    dense rule on every entry, frozen-frozen entries included, along
    seeded random walks."""
    rng = random.Random(47)
    for _ in range(100):
        r = rng.randint(2, 9)
        frozen = rng.sample(range(1, r + 1), rng.randint(0, r - 1))
        b = [list(row) for row in rand_skew(rng, r).b]
        for i in frozen:
            for j in frozen:
                b[i - 1][j - 1] = rng.randint(-3, 3)
        m = make_matrix(b, frozen)
        for _ in range(20):
            k = rng.choice(mutable(m))
            m, want = mutate_matrix(m, k), dense_mutate_matrix(m, k)
            assert strictly_equal(m, want)


def test_mutation_preserves_skew_symmetry():
    rng = random.Random(31)
    for _ in range(200):
        m = rand_skew(rng, rng.randint(2, 6))
        for _ in range(4):
            k = rng.randint(1, m.r)
            m = mutate_matrix(m, k)
        for i in range(1, m.r + 1):
            for j in range(1, m.r + 1):
                assert m.entry(i, j) == -m.entry(j, i)


def test_equality_ignores_frozen_frozen():
    a = make_matrix([[0, 1], [-1, 0]], frozen=(1, 2))
    b = make_matrix([[0, 5], [-5, 0]], frozen=(1, 2))
    assert a == b
    assert not strictly_equal(a, b)
    c = make_matrix([[0, 1], [-1, 0]], frozen=(2,))
    assert a != c


def test_arrows_at():
    q = validate_quiver(3, [(1, 2), (1, 2), (3, 1)])
    m = b_matrix(q)
    assert arrows_at(m, 1) == ({2: 2}, {3: 1})
    # sides list their positions in increasing order
    m = make_matrix([[0, 1, -2, 1], [-1, 0, 0, 0], [2, 0, 0, 0], [-1, 0, 0, 0]])
    out, inc = arrows_at(m, 1)
    assert list(out.items()) == [(3, 2)] and list(inc.items()) == [(2, 1), (4, 1)]


def test_json_round_trip():
    m = make_matrix([[0, 2, -1], [-2, 0, 0], [1, 0, 0]], frozen=(3,))
    blob = json.dumps(to_json(m))
    m2 = from_json(json.loads(blob))
    assert strictly_equal(m2, m) and m2.frozen == m.frozen
