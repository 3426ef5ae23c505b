import random
from itertools import combinations

import pytest
from oracles import bareiss_det, matmul_product, minor, one_param_product, substitute, unitriangular

from clusterknit import reference
from clusterknit.errors import LabelRangeError, ShapeError, VertexIndexError
from clusterknit.laurent import LaurentPoly
from clusterknit.mesh import IntervalLabel, adapted_orderings
from clusterknit.minors import (
    MinorKey,
    flag_minors,
    interval_minor_key,
    product_minors,
    unitriangular_minors,
    w_minor,
)
from clusterknit.quiver import adapted_word
from clusterknit.rigidpath import pbw_expand

X10 = [f"x{i}" for i in range(1, 11)]


def xvar(i):
    return LaurentPoly.variable(i - 1, 10)


def is_one(p):
    return p == LaurentPoly.one(p.arity)


def row_initial_keys(size):
    """Every key on rows [1, j], 1 <= j < size, of a size x size matrix."""
    return [
        MinorKey(tuple(range(1, j + 1)), cols)
        for j in range(1, size)
        for cols in combinations(range(1, size + 1), j)
    ]


def test_unitriangular_layout():
    """The oracle matrix holds x_1, x_2, ... row-major above the diagonal,
    and the kernel's minors on row 1 and on rows [1, 2] with column 1 read
    its rows 1 and 2 back."""
    x = unitriangular(5)
    assert x[1][4] == xvar(7)
    assert x[0][1] == xvar(1)
    assert x[3][4] == xvar(10)
    assert is_one(x[2][2]) and x[3][1].is_zero()
    assert unitriangular(2)[0][1] == LaurentPoly.variable(0, 1)
    table = unitriangular_minors(5)
    for c in range(2, 6):
        assert table[MinorKey((1,), (c,))] == x[0][c - 1]
        if c > 2:
            assert table[MinorKey((1, 2), (1, c))] == x[1][c - 1]


def test_diagonal_minor_is_one():
    x = unitriangular(5)
    table = unitriangular_minors(5)
    for k in range(1, 6):
        assert is_one(minor(x, MinorKey((k,), (k,))))
        if k < 5:
            assert is_one(table[MinorKey(range(1, k + 1), range(1, k + 1))])


def test_minor_two_by_two():
    """Delta_{23,35} by cofactor expansion, and the kernel's row-initial
    Delta_{123,135} that ``check`` reads it as."""
    x = unitriangular(5)
    key, value = reference.minor_example()
    assert minor(x, key) == value
    assert minor(x, MinorKey((1,), (3,))) == xvar(2)
    assert unitriangular_minors(5)[MinorKey((1, 2, 3), (1, 3, 5))] == value


def test_minor_zero_block():
    x = unitriangular(5)
    assert minor(x, MinorKey((4, 5), (1, 2))).is_zero()


def test_minor_shape_errors():
    x = unitriangular(4)
    with pytest.raises(ShapeError):
        MinorKey((1, 2), (1,))
    with pytest.raises(ShapeError):
        minor(x, MinorKey((1,), (9,)))


def test_minor_key_sorts_and_compares_as_a_value():
    key = MinorKey((3, 1), (5, 2))
    assert (key.rows, key.cols) == ((1, 3), (2, 5))
    assert repr(key) == "MinorKey(rows=(1, 3), cols=(2, 5))"
    assert key == MinorKey([1, 3], range(2, 6, 3)) and not key != MinorKey((1, 3), (2, 5))
    assert hash(key) == hash(MinorKey((1, 3), (5, 2)))
    assert key != MinorKey((1, 3), (2, 4)) and not key == MinorKey((1, 3), (2, 4))
    assert key != ((1, 3), (2, 5))


def test_minor_table_n4():
    """The ten single-interval minors: x_i = Delta_... as printed."""
    table = reference.interval_minors(4)
    for (i, a), j in reference.MINOR_TABLE.items():
        assert table[i, a, a] == (interval_minor_key(i, a, a, 4), xvar(j))


def test_interval_minor_key_examples():
    assert interval_minor_key(2, 0, 0, 4) == MinorKey((1, 2), (1, 5))
    assert interval_minor_key(1, 0, 0, 4) == MinorKey((1,), (5,))
    assert interval_minor_key(4, 3, 3, 4) == MinorKey((1,), (2,))
    with pytest.raises(LabelRangeError):
        interval_minor_key(2, 0, 2, 4)
    with pytest.raises(IndexError):
        interval_minor_key(5, 0, 0, 4)


def test_prefix_stripping_random():
    """Delta_{[1,b] u I', [1,b] u J'} = Delta_{I',J'} for unitriangular X,
    the lift that reads Delta_{23,35} as a row-initial minor."""
    rng = random.Random(61)
    x = unitriangular(6)
    for _ in range(50):
        b = rng.randint(1, 3)
        rest = list(range(b + 1, 7))
        size = rng.randint(0, min(2, len(rest)))
        ip = tuple(sorted(rng.sample(rest, size)))
        jp = tuple(sorted(rng.sample(rest, size)))
        full = MinorKey(tuple(range(1, b + 1)) + ip, tuple(range(1, b + 1)) + jp)
        assert minor(x, full) == minor(x, MinorKey(ip, jp))


def test_eta_consistency_a4(linear_a4):
    """Substituting the single-interval minors into every dual-PBW
    expansion reproduces the interval's minor."""
    cat = linear_a4
    table = unitriangular_minors(5)
    images = [table[interval_minor_key(v.i, v.a, v.a, 4)] for v in cat.vertices]
    for i in range(1, 5):
        for b in range(0, i):
            for a in range(b + 1):
                lhs = substitute(pbw_expand(cat, IntervalLabel(i, a, b)), images)
                rhs = table[interval_minor_key(i, a, b, 4)]
                assert lhs == rhs, (i, a, b)


def test_eta_consistency_extrapolated_n3():
    """The same layout extrapolates below the verified size n = 4."""
    from clusterknit.mesh import build_category, validate_terminal
    from clusterknit.quiver import validate_quiver

    q = validate_quiver(3, [(3, 2), (2, 1)])
    cat = build_category(validate_terminal(q, (0, 1, 2)))
    table = unitriangular_minors(4)
    images = [table[interval_minor_key(v.i, v.a, v.a, 3)] for v in cat.vertices]
    for i in range(1, 4):
        for b in range(0, i):
            for a in range(b + 1):
                lhs = substitute(pbw_expand(cat, IntervalLabel(i, a, b)), images)
                assert lhs == table[interval_minor_key(i, a, b, 3)]


def test_one_param_product_basics():
    m = one_param_product((1,), 3)
    assert m[0][1] == LaurentPoly.variable(0, 1)
    m2 = one_param_product((1, 1), 3)
    assert m2[0][1] == LaurentPoly.variable(0, 2) + LaurentPoly.variable(1, 2)
    with pytest.raises(IndexError):
        one_param_product((3,), 3)


def test_one_param_product_unitriangular():
    word = reference.WORKED_WORD * 2
    m = one_param_product(word, 4)
    for i in range(4):
        assert is_one(m[i][i])
        for j in range(i):
            assert m[i][j].is_zero()


def test_w_minor_identity_prefix():
    key = w_minor((), 2, 5)
    assert key == MinorKey((1, 2), (1, 2))
    assert is_one(minor(unitriangular(5), key))
    assert is_one(unitriangular_minors(5)[key])


def test_w_minor_known_keys():
    # an A_4 word whose prefixes realize the projective-injectives and
    # the T^vee summands are prefix minors of w^{-1}
    word = (1, 2, 4, 3, 1, 2, 4, 3)
    assert w_minor(word, 1, 5) == MinorKey((1,), (3,))  # full word, j = 1
    assert w_minor(word[:1], 1, 5) == MinorKey((1,), (2,))
    assert w_minor(word[:2], 2, 5) == MinorKey((1, 2), (2, 3))
    assert w_minor(word[:3], 4, 5) == MinorKey((1, 2, 3, 4), (1, 2, 3, 5))
    assert w_minor(word[:4], 3, 5) == MinorKey((1, 2, 3), (2, 3, 5))
    # D_{123,234}: the key of the interval variable T_{3,[0,2]} seen from
    # the opposite-orientation word
    assert w_minor((1, 2, 3), 3, 5) == MinorKey((1, 2, 3), (2, 3, 4))


def test_w_minor_matches_eta_on_linear_a4(linear_a4):
    """For the linearly ordered A_4 category, the prefix minors coincide
    with the eta keys of the intervals T_{i,[0,b]}."""
    ordering = adapted_orderings(linear_a4)
    word = adapted_word(linear_a4, ordering)
    for k, v in enumerate(ordering, start=1):
        got = w_minor(word[:k], word[k - 1], 5)
        assert got == interval_minor_key(v.i, 0, v.a, 4)


def test_phi_minor_cross_check_a3():
    """evaluate_phi(g_{T_k}) equals the prefix minor of the one-parameter
    matrix product, on words twice the module dimension."""
    cat = reference.linear_type_a(3)
    assert all(passed for (_, passed) in reference.cross_checks(cat))


def test_phi_minor_cross_check_other_orientations():
    """The same identity on the A_3 orientation 1->2->3 (the single-arrow
    shadow of the running three-vertex example) and on ascending A_4."""
    from clusterknit.mesh import build_category, validate_terminal
    from clusterknit.quiver import validate_quiver

    q = validate_quiver(3, [(1, 2), (2, 3)])
    q4 = validate_quiver(4, [(1, 2), (2, 3), (3, 4)])
    for cat in (
        build_category(validate_terminal(q, (2, 1, 0))),
        build_category(validate_terminal(q4, (3, 2, 1, 0))),
    ):
        assert all(passed for (_, passed) in reference.cross_checks(cat))


def test_bareiss_matches_cofactor():
    """The cofactor ``minor`` (expansion at every size) agrees with the Bareiss
    elimination it replaced, on seeded random minors of every size up to 6
    of a 7x7 and of size 7 of an 8x8 unitriangular matrix."""
    rng = random.Random(67)
    for size, sizes in ((7, range(1, 7)), (8, (7,))):
        x = unitriangular(size)
        for k in sizes:
            for _ in range(3):
                rows = sorted(rng.sample(range(1, size + 1), k))
                cols = sorted(rng.sample(range(1, size + 1), k))
                sub = [[x[i - 1][j - 1] for j in cols] for i in rows]
                assert minor(x, MinorKey(rows, cols)) == bareiss_det(sub)


def test_one_param_product_matches_the_matrix_product():
    """Adding t_l times one column to the next equals multiplying in each
    factor I + t_l E_{i_l,i_l+1} as a full matrix, on seeded random words
    for matrices of size 2 to 7."""
    rng = random.Random(71)
    for size in range(2, 8):
        for _ in range(3):
            word = tuple(rng.randint(1, size - 1) for _ in range(rng.randint(1, 2 * size)))
            assert one_param_product(word, size) == matmul_product(word, size)


def test_flag_minors_match_the_cofactor_minors():
    """The column recurrence gives every minor on rows [1, j], 1 <= j < size,
    of the one-parameter product that cofactor expansion gives, on seeded
    random words for matrices of size 2 to 7; the zero minors are exactly
    the absent keys."""
    rng = random.Random(73)
    absent = 0
    for size in range(2, 8):
        for _ in range(3):
            word = tuple(rng.randint(1, size - 1) for _ in range(rng.randint(0, 2 * size)))
            got = flag_minors(word, size)
            prod = one_param_product(word, size)
            keys = row_initial_keys(size)
            assert set(got) <= set(keys)
            for key in keys:
                want = minor(prod, key)
                assert got.get(key, LaurentPoly.zero(len(word))) == want, (word, key)
                absent += want.is_zero()
                assert not (key in got and want.is_zero())
    assert absent > 100


def test_unitriangular_minors_match_the_cofactor_minors():
    """Every row-initial minor of the generic unitriangular matrix, for
    sizes 2 to 8, is the cofactor minor of the oracle matrix; none is zero,
    and the table holds exactly these keys."""
    for size in range(2, 9):
        got, x = unitriangular_minors(size), unitriangular(size)
        keys = row_initial_keys(size)
        assert set(got) == set(keys) and len(keys) == 2**size - 2
        for key in keys:
            assert got[key] == minor(x, key), (size, key)


def test_product_minors_sign_and_cancellation():
    """A non-adjacent factor I + t E_{1,3}, with one column strictly
    between: [[1, 0, t], [0, 1, 0], [0, 0, 1]] has Delta_{1,3} = t,
    Delta_{12,13} = 0 and Delta_{12,23} = -t.  Following it by
    I - t E_{1,3} gives the identity, whose minors with column 3 cancel
    away."""
    t, one, zero = LaurentPoly.variable(0, 1), LaurentPoly.one(1), LaurentPoly.zero(1)
    got = product_minors([(1, 3, t)], 3, 1)
    assert got == {
        MinorKey((1,), (1,)): one,
        MinorKey((1,), (3,)): t,
        MinorKey((1, 2), (1, 2)): one,
        MinorKey((1, 2), (2, 3)): -t,
    }
    rows = [[one, zero, t], [zero, one, zero], [zero, zero, one]]
    assert got == {key: minor(rows, key) for key in row_initial_keys(3) if not minor(rows, key).is_zero()}
    assert product_minors([(1, 3, t), (1, 3, -t)], 3, 1) == {
        MinorKey((1,), (1,)): one,
        MinorKey((1, 2), (1, 2)): one,
    }
    # two columns strictly between 1 and 4: the sign is +
    assert product_minors([(1, 4, t)], 4, 1)[MinorKey((1, 2, 3), (2, 3, 4))] == t


def test_minors_refuse_out_of_range_letters_and_rows():
    """A letter outside 1..size-1 or a row count j outside it is a
    VertexIndexError, which is still an IndexError."""
    for bad in (0, 4, -1):
        with pytest.raises(VertexIndexError):
            flag_minors((1, bad, 2), 4)
        with pytest.raises(VertexIndexError):
            w_minor((bad,), 1, 4)
        with pytest.raises(IndexError):
            w_minor((1,), bad, 4)
    with pytest.raises(VertexIndexError):
        w_minor((), 4, 4)
