import random
from math import factorial

import pytest

from clusterknit import euler, reference
from clusterknit.errors import NonIntegralError, NotThinError
from clusterknit.euler import (
    ShuffleSeries,
    ThinModule,
    b_exponents,
    direct_sum,
    divided_f,
    e_action,
    evaluate_phi,
    f_action,
    flag_oracle,
    from_json,
    g_module,
    shuffle,
    to_json,
    to_text,
)
from clusterknit.quiver import (
    ReducedWord,
    Weight,
    cartan,
    fundamental_weight,
    validate_quiver,
)

S = ShuffleSeries
T = ThinModule


@pytest.fixture(scope="module")
def kron_cartan():
    return cartan(reference.quiver("kronecker3"))


def rand_series(rng, n=2, maxlen=3, terms=3):
    data = {}
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(0, maxlen)))
        data[w] = rng.randint(-4, 4)
    return S(data)


def test_shuffle_basic():
    assert shuffle(S.word(1), S.word(2)) == S({(1, 2): 1, (2, 1): 1})
    assert shuffle(S.word(1), S.word(1)) == S({(1, 1): 2})


def test_shuffle_unit_commutative_associative():
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert shuffle(a, S.unit()) == a
        assert shuffle(a, b) == shuffle(b, a)
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def test_f_action_examples(kron_cartan):
    w2 = fundamental_weight(2, 3)
    assert f_action(S.unit(), 2, w2, kron_cartan) == S.word(2)
    assert f_action(S.word(2), 1, w2, kron_cartan) == S({(2, 1): 2})
    w1 = fundamental_weight(1, 3)
    assert f_action(S.unit(), 1, w1, kron_cartan) == S.word(1)


def test_e_action(kron_cartan):
    assert e_action(S.word(2, 1), 1) == S.word(2)
    assert e_action(S.word(2, 1), 2) == S.zero()
    # e then f is not the identity
    w2 = fundamental_weight(2, 3)
    s = S.word(2, 1)
    assert f_action(e_action(s, 1), 1, w2, kron_cartan) != s


def test_divided_f(kron_cartan):
    w2 = fundamental_weight(2, 3)
    two = divided_f(S.word(2), 1, 2, w2, kron_cartan)
    assert two == S(reference.G_SERIES[2])  # g_2 = f_1^(2) w[2]
    assert divided_f(S.word(2), 1, 0, w2, kron_cartan) == S.word(2)
    assert divided_f(S.word(2), 1, 1, w2, kron_cartan) == f_action(
        S.word(2), 1, w2, kron_cartan
    )


def test_divided_f_matches_repeated_f_action():
    """b! * f_i^(b) s equals f_i applied b times, for random integer series
    and weights; the caller's series is left as it was."""
    rng = random.Random(84)
    quivers = (
        reference.quiver("kronecker3"),
        validate_quiver(2, [(1, 2)] * 3),
        reference.quiver("triangle3"),
    )
    for q in quivers:
        c = cartan(q)
        for _ in range(60):
            s = rand_series(rng, n=c.n, maxlen=4, terms=5)
            before = dict(s.terms)
            lam = Weight(tuple(rng.randint(-3, 3) for _ in range(c.n)))
            i, b = rng.randint(1, c.n), rng.randint(0, 4)
            want = s
            for _ in range(b):
                want = f_action(want, i, lam, c)
            got = divided_f(s, i, b, lam, c)
            assert {w: factorial(b) * v for w, v in got.terms.items()} == want.terms
            assert s.terms == before


def test_divided_f_raises_on_a_remainder(monkeypatch, kron_cartan):
    monkeypatch.setattr(euler, "f_action", lambda s, i, lam, c: S({(2, 1): 3}))
    with pytest.raises(NonIntegralError):
        divided_f(S.word(2), 1, 2, fundamental_weight(2, 3), kron_cartan)


def test_b_exponents(kron_cartan):
    word = ReducedWord((1, 2, 1, 3, 2, 1, 3))
    assert b_exponents(word, 1, kron_cartan) == (1,)
    assert b_exponents(word, 2, kron_cartan) == (2, 1)
    assert b_exponents(word, 7, kron_cartan) == (4, 3, 2, 0, 1, 0, 1)
    with pytest.raises(IndexError):
        b_exponents(word, 8, kron_cartan)


def test_g_module_homogeneous_content(kronecker3, kronecker3_ordering):
    """The letter content of g_{T_k} is the dimension vector of the module
    T_{i,[0,b]} at position k: the sum of the knitted vectors tau^l(I_i)."""
    from clusterknit.mesh import MeshVertex

    cat = kronecker3
    for k in (1, 2, 3, 4, 5, 7):  # 6 is the very large series, covered once
        g = g_module(cat, kronecker3_ordering, k)
        content = g.content(3)
        assert content is not None
        v = kronecker3_ordering[k - 1]
        want = [0] * 3
        for l in range(v.a + 1):
            want = [
                a + b for a, b in zip(want, cat.dims[MeshVertex(v.i, l)].coords)
            ]
        assert list(content) == want


def test_evaluate_phi_examples():
    assert evaluate_phi(S.word(1), (1,)) == {(1,): 1}
    got = evaluate_phi(S(reference.G_SERIES[2]), (2, 1))
    assert got == {(1, 2): 1}
    # coefficient of prod t_l is the plain word coefficient
    got = evaluate_phi(S({(1, 2): 5, (2, 1): 7}), (1, 2))
    assert got[(1, 1)] == 5


def test_flag_oracle_examples():
    assert flag_oracle(T((("a", 1),))) == S.word(1)
    m = T((("u", 1), ("v", 2)), (("u", "v"),))
    assert flag_oracle(m) == S.word(2, 1)


def _small_thin_modules():
    """A family of thin modules with at most 3 slots on vertices 1..3."""
    mods = [
        T((("a", 1),)),
        T((("a", 2),)),
        T((("a", 3),)),
        T((("a", 1), ("b", 2)), (("a", "b"),)),
        T((("a", 2), ("b", 1)), (("a", "b"),)),
        T((("a", 2), ("b", 3)), (("a", "b"),)),
        T((("a", 1), ("b", 2), ("c", 3)), (("a", "b"), ("b", "c"))),
        T((("a", 1), ("c", 3), ("b", 2)), (("a", "b"), ("c", "b"))),
    ]
    return mods


def test_flag_oracle_multiplicative_on_sums():
    mods = _small_thin_modules()
    for x in mods:
        for y in mods:
            if len(x.slots) + len(y.slots) > 4:
                continue
            assert flag_oracle(direct_sum(x, y)) == shuffle(
                flag_oracle(x), flag_oracle(y)
            )


def test_thin_module_validation():
    with pytest.raises(NotThinError):
        T((("a", 1), ("a", 2)))
    with pytest.raises(NotThinError):
        T((("a", 1), ("b", 2)), (("a", "b"), ("b", "a")))
    with pytest.raises(NotThinError):
        T((("a", 1),), (("a", "zzz"),))


def test_series_text_and_json():
    s = S({(2, 1): 2, (1, 2): -1, (3,): 5})
    assert to_text(s) == "-w[1,2] + 2·w[2,1] + 5·w[3]"
    assert from_json(to_json(s)) == s
    assert to_text(S.zero()) == "0"
    with pytest.raises(ValueError):
        from_json({"3": "1/2"})


def test_g_module_rejects_bad_ordering(kronecker3):
    from clusterknit.errors import NotAdaptedError

    bad = list(reversed(kronecker3.vertices))
    with pytest.raises(NotAdaptedError):
        g_module(kronecker3, bad, 1)
