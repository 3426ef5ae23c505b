import json
import random

import pytest
from oracles import dense_mutate_matrix, matrix_to_quiver, mutable, strictly_equal

from clusterknit.errors import FrozenMutationError, SeedFormatError, TwoCycleError, VertexIndexError
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
        for k in (0, 3):
            with pytest.raises(VertexIndexError):
                fn(m, k)


def test_malformed_matrices_raise_seed_format_errors():
    with pytest.raises(SeedFormatError, match="square"):
        make_matrix([[0, 1], [-1]])
    with pytest.raises(SeedFormatError, match="frozen"):
        make_matrix([[0, 1], [-1, 0]], frozen=(3,))
    with pytest.raises(SeedFormatError, match="frozen"):
        b_matrix(Quiver(2, ((1, 2),)), frozen=(0,))


def random_accepted_matrix(rng, r, density):
    """A matrix of the kind ``from_json`` accepts: skew-symmetric on the
    mutable indices, and independent entries (the diagonal included)
    wherever a frozen index is involved."""
    frozen = set(rng.sample(range(1, r + 1), rng.randint(0, r - 1)))

    def draw():
        return rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0

    b = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            if i + 1 in frozen or j + 1 in frozen:
                b[i][j] = draw()
            elif i < j:
                b[i][j] = draw()
                b[j][i] = -b[i][j]
    return make_matrix(b, frozen)


def dense_sides(b, k):
    """``arrows_at`` read off column k of a dense matrix."""
    col = [(i, row[k - 1]) for i, row in enumerate(b, 1) if row[k - 1]]
    return [(i, v) for i, v in col if v > 0], [(i, -v) for i, v in col if v < 0]


def test_mutate_matches_dense_oracle():
    """The sparse rule agrees with the dense rule on every entry, the
    frozen-frozen and non-skew frozen-mutable ones included, along seeded
    random walks of 30 to 40 steps; ``arrows_at`` agrees with the dense
    columns; rows and columns mirror each other and store no zeros."""
    rng = random.Random(47)
    for _ in range(150):
        r = rng.randint(2, 9)
        m = random_accepted_matrix(rng, r, rng.choice((0.3, 0.6, 1.0)))
        for _ in range(rng.randint(30, 40)):
            k = rng.choice(mutable(m))
            m, want = mutate_matrix(m, k), dense_mutate_matrix(m, k)
            assert strictly_equal(m, want) and m == want
            b = want.b
            for j in mutable(m):
                out, inc = arrows_at(m, j)
                assert (list(out.items()), list(inc.items())) == dense_sides(b, j)
            by_row = {(i, j): v for i, row in enumerate(m.rows, 1) for j, v in row.items()}
            by_col = {(i, j): v for j, col in enumerate(m.cols, 1) for i, v in col.items()}
            assert by_row == by_col and all(by_row.values())


def test_mutation_shares_rows_and_columns_outside_the_neighbourhood():
    """mu_k rebuilds only row and column k and those of k's neighbours:
    every other row and column is the parent's own dict, so a step works
    on the neighbourhood of k, not on all r indices."""
    rng = random.Random(53)
    shared = 0
    for _ in range(20):
        r = rng.randint(20, 60)
        m = random_accepted_matrix(rng, r, 3 / r)
        for _ in range(30):
            k = rng.choice(mutable(m))
            near = {k, *m.rows[k - 1], *m.cols[k - 1]}
            new = mutate_matrix(m, k)
            for p in set(range(1, r + 1)) - near:
                assert new.rows[p - 1] is m.rows[p - 1] and new.cols[p - 1] is m.cols[p - 1]
                shared += 1
            m = new
    assert shared > 10000


def test_mutation_preserves_skew_symmetry():
    rng = random.Random(31)
    for _ in range(200):
        m = rand_skew(rng, rng.randint(2, 6))
        for _ in range(4):
            k = rng.randint(1, m.r)
            m = mutate_matrix(m, k)
        b = m.b
        assert all(b[i][j] == -b[j][i] for i in range(m.r) for j in range(m.r))


def test_equality_ignores_frozen_frozen():
    a = make_matrix([[0, 1], [-1, 0]], frozen=(1, 2))
    b = make_matrix([[0, 5], [-5, 0]], frozen=(1, 2))
    assert a == b
    assert not strictly_equal(a, b)
    c = make_matrix([[0, 1], [-1, 0]], frozen=(2,))
    assert a != c
    # a changed frozen-mutable entry is seen, a changed frozen-frozen one is not
    rng = random.Random(29)
    for _ in range(300):
        m = random_accepted_matrix(rng, rng.randint(2, 7), 0.5)
        if not m.frozen:
            continue
        b = [list(row) for row in m.b]
        i = rng.choice(sorted(m.frozen))
        j = rng.randint(1, m.r)
        b[i - 1][j - 1] += 1
        other = make_matrix(b, m.frozen)
        assert not strictly_equal(other, m)
        assert (other == m) == (j in m.frozen)


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
