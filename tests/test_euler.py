import json
import random
from fractions import Fraction
from math import factorial, prod

import pytest
import oracles
from oracles import (
    direct_sum,
    divided_f,
    dag_words,
    divided_f_chain,
    e_action,
    evaluate_phi_per_leaf,
    f_action,
    series_from_json,
    series_to_text,
    split_g_module,
)

from clusterknit import euler, reference
from clusterknit.mesh import adapted_orderings, build_category, validate_terminal
from clusterknit.errors import NotThinError
from clusterknit.euler import (
    ShuffleSeries,
    ThinModule,
    b_exponents,
    evaluate_phi,
    flag_oracle,
    g_module,
    json_text,
    shuffle,
    to_json,
)
from clusterknit.quiver import (
    cartan,
    adapted_word,
    fundamental_weight,
    validate_quiver,
)

S = ShuffleSeries
T = ThinModule


def word(*letters):
    return S({letters: 1})


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
    assert shuffle(word(1), word(2)) == S({(1, 2): 1, (2, 1): 1})
    assert shuffle(word(1), word(1)) == S({(1, 1): 2})


def test_shuffle_unit_commutative_associative():
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert shuffle(a, S.unit()) == a
        assert shuffle(a, b) == shuffle(b, a)
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def test_f_action_examples(kron_cartan):
    w2 = fundamental_weight(2, 3)
    assert f_action(S.unit(), 2, w2, kron_cartan) == word(2)
    assert f_action(word(2), 1, w2, kron_cartan) == S({(2, 1): 2})
    w1 = fundamental_weight(1, 3)
    assert f_action(S.unit(), 1, w1, kron_cartan) == word(1)


def test_e_action(kron_cartan):
    assert e_action(word(2, 1), 1) == word(2)
    assert e_action(word(2, 1), 2) == S()
    # e then f is not the identity
    w2 = fundamental_weight(2, 3)
    s = word(2, 1)
    assert f_action(e_action(s, 1), 1, w2, kron_cartan) != s


def test_divided_f(kron_cartan):
    w2 = fundamental_weight(2, 3)
    two = divided_f(word(2), 1, 2, w2, kron_cartan)
    assert two == S(reference.G_SERIES[2])  # g_2 = f_1^(2) w[2]
    assert divided_f(word(2), 1, 0, w2, kron_cartan) == word(2)
    assert divided_f(word(2), 1, 1, w2, kron_cartan) == f_action(
        word(2), 1, w2, kron_cartan
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
            s = rand_series(rng, n=q.n, maxlen=4, terms=5)
            before = dict(s.terms)
            lam = tuple(rng.randint(-3, 3) for _ in range(q.n))
            i, b = rng.randint(1, q.n), rng.randint(0, 4)
            want = s
            for _ in range(b):
                want = f_action(want, i, lam, c)
            got = divided_f(s, i, b, lam, c)
            assert {w: factorial(b) * v for w, v in got.terms.items()} == want.terms
            assert s.terms == before


def test_divided_f_raises_on_a_remainder(monkeypatch, kron_cartan):
    monkeypatch.setattr(oracles, "f_action", lambda s, i, lam, c: S({(2, 1): 3}))
    with pytest.raises(ArithmeticError):
        divided_f(word(2), 1, 2, fundamental_weight(2, 3), kron_cartan)


def test_b_exponents(kron_cartan):
    word = (1, 2, 1, 3, 2, 1, 3)
    assert b_exponents(word, 1, kron_cartan) == (1,)
    assert b_exponents(word, 2, kron_cartan) == (2, 1)
    assert b_exponents(word, 7, kron_cartan) == (4, 3, 2, 0, 1, 0, 1)
    with pytest.raises(IndexError):
        b_exponents(word, 8, kron_cartan)


def test_g_module_matches_the_divided_f_chain():
    """The path sum over stage counts gives the series that the chain of
    divided powers gives, word for word."""
    kron = reference.category("kronecker3")
    cases = [(kron, reference.WORKED_ORDERING, k) for k in range(1, 6)]
    wild = build_category(validate_terminal(validate_quiver(2, [(1, 2)] * 3), (3, 2)))
    cases += [(wild, adapted_orderings(wild), k) for k in range(1, 4)]  # k=4 has 746,685 words
    for name in ("five_vertex", "triangle3", "linear_a4", "fan_a3"):
        cat = reference.category(name)
        ks = range(1, 8) if name == "five_vertex" else range(1, cat.r + 1)
        cases += [(cat, adapted_orderings(cat), k) for k in ks]
    for cat, ordering, k in cases:
        want = divided_f_chain(cat, ordering, k)
        assert g_module(cat, ordering, k) == want and not want.is_zero(), (cat.terminal, k)


def test_g_module_matches_the_split_expansion(kronecker3, kronecker3_ordering):
    """The single-state fast path gives the series that splitting every
    vector by letter gave, on every summand of the worked kronecker3
    example (g_6 has 392,206 words) and on five_vertex's g_5."""
    five = reference.category("five_vertex")
    cases = [(kronecker3, kronecker3_ordering, k) for k in range(1, kronecker3.r + 1)]
    cases.append((five, adapted_orderings(five), 5))
    for cat, ordering, k in cases:
        got = g_module(cat, ordering, k)
        assert got == split_g_module(cat, ordering, k) and not got.is_zero(), k
        assert list(got.terms) == sorted(got.terms)  # ascending letter order


def linear_a11():
    """Linear A_11 (i+1 -> i) at t = (0, 1, ..., 1): letters past 9, so
    word order and key-string order differ ("1,10" < "1,2")."""
    q = validate_quiver(11, [(i + 1, i) for i in range(1, 11)])
    return build_category(validate_terminal(q, (0,) + (1,) * 10))


def test_json_text_is_what_json_dumps_wrote():
    """The JSON writer gives the text of json.dumps(..., indent=0,
    sort_keys=True) over euler.to_json, on the instances of the
    euler-series benchmark (five_vertex below its k = 8) and on linear
    A_11, where a writer that kept letter order instead of sorting key
    strings would fail."""
    wild = build_category(validate_terminal(validate_quiver(2, [(1, 2)] * 2), (3, 2)))
    a11 = linear_a11()
    five = reference.category("five_vertex")
    cases = [(five, 6), (five, 7), (wild, 6), (reference.category("triangle3"), 7), (a11, 16)]
    for cat, k in cases:
        ordering = adapted_orderings(cat)
        want = json.dumps(to_json(g_module(cat, ordering, k)), indent=0, sort_keys=True)
        assert json_text(cat, ordering, k) == want, (cat.terminal, k)
    g16 = g_module(a11, adapted_orderings(a11), 16)
    keys = [",".join(map(str, w)) for w in sorted(g16.terms)]
    assert len(keys) == 42 and keys != sorted(keys)


def test_json_text_of_the_zero_series(monkeypatch, kronecker3, kronecker3_ordering):
    """A stage DAG with no path to the full state expands to no word:
    the writer prints {} as json.dumps did."""
    monkeypatch.setattr(euler, "stage_dag", lambda cat, ordering, k: ({0: ()}, 1))
    assert g_module(kronecker3, kronecker3_ordering, 1).is_zero()
    assert json_text(kronecker3, kronecker3_ordering, 1) == "{}" == json.dumps({}, indent=0, sort_keys=True)
    assert euler.text(kronecker3, kronecker3_ordering, 1) == "0"


def test_text_is_what_to_text_wrote(kronecker3, kronecker3_ordering):
    """The text writer gives ``series_to_text(g_module(...))`` on the worked
    series, the euler-series instances below their largest k, and linear
    A_11, whose letter 10 must sort after letter 2 as words do."""
    wild = build_category(validate_terminal(validate_quiver(2, [(1, 2)] * 2), (3, 2)))
    five = reference.category("five_vertex")
    cases = [(kronecker3, kronecker3_ordering, k) for k in (1, 2, 5)]
    cases += [(cat, adapted_orderings(cat), k) for cat, k in ((five, 6), (wild, 6), (linear_a11(), 16))]
    for cat, ordering, k in cases:
        assert euler.text(cat, ordering, k) == series_to_text(g_module(cat, ordering, k)), (cat.terminal, k)


def test_g_module_homogeneous_content(kronecker3, kronecker3_ordering):
    """The letter content of g_{T_k} is the dimension vector of the module
    T_{i,[0,b]} at position k: the sum of the knitted vectors tau^l(I_i)."""
    from clusterknit.mesh import MeshVertex

    cat = kronecker3
    for k in (1, 2, 3, 4, 5, 7):  # 6 is the very large series, covered once
        g = g_module(cat, kronecker3_ordering, k)
        contents = {tuple(w.count(i) for i in (1, 2, 3)) for w in g.terms}
        assert len(contents) == 1
        content = contents.pop()
        v = kronecker3_ordering[k - 1]
        want = [0] * 3
        for l in range(v.a + 1):
            want = [
                a + b for a, b in zip(want, cat.dims[MeshVertex(v.i, l)])
            ]
        assert list(content) == want


def test_evaluate_phi_examples():
    assert evaluate_phi(word(1), (1,)) == {(1,): 1}
    got = evaluate_phi(S(reference.G_SERIES[2]), (2, 1))
    assert got == {(1, 2): 1}
    # coefficient of prod t_l is the plain word coefficient
    got = evaluate_phi(S({(1, 2): 5, (2, 1): 7}), (1, 2))
    assert got[(1, 1)] == 5


def test_evaluate_phi_matches_the_per_leaf_oracle():
    """One division by a! per exponent key gives the exact rationals that
    one division per leaf gave: on seeded random series whose words are
    drawn from the evaluation word, and on the linear A_4 series of the
    minor cross-checks."""
    rng = random.Random(61)
    cases = []
    for _ in range(150):
        seq = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 7)))
        terms = {}
        for _ in range(rng.randint(1, 6)):
            w = tuple(x for x in seq for _ in range(rng.randint(0, 2)))
            terms[w] = rng.choice((-3, -1, 1, 2, 5))
        cases.append((S(terms), seq))
    cat = reference.linear_type_a(4)
    ordering = adapted_orderings(cat)
    seq = adapted_word(cat, ordering) * 2
    cases += [(g_module(cat, ordering, k), seq) for k in range(1, cat.r + 1)]
    fractional = 0
    for s, seq in cases:
        got = evaluate_phi(s, seq)
        assert got and got == evaluate_phi_per_leaf(s, seq)
        assert all(type(v) is Fraction for v in got.values())
        fractional += any(v.denominator != 1 for v in got.values())
    assert fractional > 50


def test_evaluate_phi_skips_words_seq_cannot_read():
    """Words that are not runs of the evaluation word add nothing: on seeded
    random series mixing words drawn from seq with free words over the same
    letters, the pruned walk agrees with the per-leaf oracle, and a series
    none of whose words can be read evaluates to {}."""
    rng = random.Random(67)
    unread = 0
    for _ in range(200):
        seq = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 7)))
        terms = {}
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                w = tuple(x for x in seq for _ in range(rng.randint(0, 2)))
            else:
                w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 8)))
            terms[w] = rng.choice((-3, -1, 1, 2, 5))
        s = S(terms)
        got = evaluate_phi(s, seq)
        assert got == evaluate_phi_per_leaf(s, seq)
        readable = {w: c for w, c in s.terms.items() if evaluate_phi_per_leaf(S({w: c}), seq)}
        unread += len(s.terms) - len(readable)
        assert got == evaluate_phi(S(readable), seq)
    assert unread > 100
    for s, seq in (
        (S({(2, 1, 2): 3, (1, 2, 1, 2): -2, (3,): 1}), (1, 2, 1)),
        (S({(1,): 1}), ()),
        (S({(1, 2): 4}), (2, 1)),
    ):
        assert evaluate_phi(s, seq) == evaluate_phi_per_leaf(s, seq) == {}


def test_flag_oracle_examples():
    assert flag_oracle(T((("a", 1),))) == word(1)
    m = T((("u", 1), ("v", 2)), (("u", "v"),))
    assert flag_oracle(m) == word(2, 1)


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
    assert series_to_text(s) == "-w[1,2] + 2·w[2,1] + 5·w[3]"
    assert series_from_json(to_json(s)) == s
    assert series_to_text(S()) == "0"
    signs = S({(1,): -3, (2,): 1, (3,): -1, (4,): 4, (5,): -2})
    assert series_to_text(signs) == "-3·w[1] + w[2] - w[3] + 4·w[4] - 2·w[5]"
    with pytest.raises(ValueError):
        series_from_json({"3": "1/2"})


def test_g_module_rejects_bad_ordering(kronecker3):
    from clusterknit.errors import NotAdaptedError

    bad = list(reversed(kronecker3.vertices))
    with pytest.raises(NotAdaptedError):
        g_module(kronecker3, bad, 1)


# Hand-built stage DAGs (state 9 is full): in the first, the prefix (1,)
# reaches states 1 and 2, which both read letters 2 and 3 into the full
# state, and letter 3 cancels (2*3 + 3*(-2)); in the second, the prefix
# (1,) carries two states into a second letter before they merge.
HAND_DAGS = [
    (
        {
            0: ((2, 3, 2), (1, None, ((1, 2), (2, 3)))),
            1: ((3, 9, 3), (2, 9, 5)),
            2: ((3, 9, -2), (2, 9, 7), (1, 9, 4)),
            3: ((1, 9, 6),),
        },
        2,
        [((1, 1), 12), ((1, 2), 31), ((2, 1), 12)],
    ),
    (
        {
            0: ((1, None, ((1, 1), (2, 1))),),
            1: ((2, 3, 1),),
            2: ((2, 4, 1),),
            3: ((1, 9, 2),),
            4: ((1, 9, 5),),
        },
        3,
        [((1, 2, 1), 7)],
    ),
]


LETTERS = [(i,) for i in range(4)]  # expand's tokens of tuple words over 0..3


@pytest.mark.parametrize("edges,length,want", HAND_DAGS)
def test_expand_merges_states_at_the_last_letter(edges, length, want):
    """A prefix one letter short of the end that reaches several states
    sums their paths into the full state per last letter and drops a sum
    that cancels.  ``expand`` takes its edges as given, so the DAGs are
    built by hand and checked against enumerating every path."""
    got = list(euler.expand(edges, length, LETTERS))
    assert got == sorted(dag_words(edges, length).items()) == want


def small_stage_dags():
    """(category, ordering, k) for the summands of the corpus instances and
    of 40 seeded random terminal data whose stage DAG has at most 4,000
    states (the product of the b_s + 1) and at most 20,000 paths, counted
    as the path sum with every weight 1."""
    from test_mesh import random_terminal

    rng = random.Random(2201)
    cats = [reference.category(name) for name in reference.CORPUS]
    cats += [build_category(random_terminal(rng)) for _ in range(40)]
    for cat in cats:
        ordering = adapted_orderings(cat)
        word, c = adapted_word(cat, ordering), cartan(cat.terminal.q)
        for k in range(1, cat.r + 1):
            if prod(b + 1 for b in b_exponents(word, k, c)) > 4000:
                continue
            edges, length = euler.stage_dag(cat, ordering, k)
            ones = {
                s: tuple((i, t, 1) if t is not None else (i, None, tuple((u, 1) for u, _ in w)) for i, t, w in out)
                for s, out in edges.items()
            }
            if euler.dag_coefficient_sum(ones, length) <= 20000:
                yield cat, ordering, k


def expansions(edges, length, n):
    """``expand``'s three forms over letters 0..n: tuple words, comma-joined
    words and JSON lines."""
    text_tokens = euler._word_tokens(n)
    return (
        list(euler.expand(edges, length, [(i,) for i in range(n + 1)])),
        list(euler.expand(edges, length, *text_tokens)),
        list(euler.expand(edges, length, *text_tokens, lines=True)),
    )


def oracle_expansions(walk, edges, length, n):
    """The same three forms from an oracle walk that takes a key."""
    words = list(walk(edges, length, [str(i) for i in range(n + 1)], ",".join))
    return (
        list(walk(edges, length, range(n + 1), tuple)),
        words,
        [f'"{w}": "{c}"' for w, c in words],
    )


def test_stage_dag_and_expand_match_their_oracles():
    """The carried-weight ``stage_dag`` builds the edges the rescanning one
    built, and ``expand``, which carries each prefix's text, yields the
    words, coefficients and order of the trie walk and of the forced-run
    walk that joined each word at its end, as tuples, as strings and as
    JSON lines."""
    cases = 0
    for cat, ordering, k in small_stage_dags():
        edges, length = euler.stage_dag(cat, ordering, k)
        assert (edges, length) == oracles.rescan_stage_dag(cat, ordering, k), (cat.terminal, k)
        n = cat.terminal.q.n
        got = expansions(edges, length, n)
        for walk in (oracles.trie_expand, oracles.forced_run_expand):
            assert got == oracle_expansions(walk, edges, length, n), (cat.terminal, k, walk)
        cases += 1
    assert cases > 200
    for edges, length, _ in HAND_DAGS + list(RUN_DAGS.values()):
        edges = dict.fromkeys(range(10), ()) | edges
        for walk in (oracles.trie_expand, oracles.forced_run_expand):
            assert expansions(edges, length, 3) == oracle_expansions(walk, edges, length, 3)


# Hand-built stage DAGs with forced runs (state 9 is full, and left out of
# the edges unless named): a run from state 1 ends at state 7, a dead end
# missing from the edges, while state 2's run reaches the full state; the
# full state given with no out-edges, each branch a run into it; a forced
# letter into state 1, whose one letter has a vector edge that the run must
# not enter.
RUN_DAGS = {
    "run into a missing dead end": (
        {0: ((2, 1, 3), (1, 2, 5)), 1: ((1, 7, 2),), 2: ((3, 5, -2),), 5: ((1, 9, 4),)},
        3,
        [((1, 3, 1), -40)],
    ),
    "run ending at the full state": (
        {0: ((2, 2, 7), (1, 1, 2)), 1: ((2, 3, 3),), 3: ((3, 9, 5),), 2: ((1, 4, -1),), 4: ((1, 9, 6),), 9: ()},
        3,
        [((1, 2, 3), 30), ((2, 1, 1), -42)],
    ),
    "run into a vector edge": (
        {0: ((1, 1, 2),), 1: ((2, None, ((2, 3), (3, 5))),), 2: ((1, 9, 1), (3, 9, 4)), 3: ((1, 9, 2),)},
        3,
        [((1, 2, 1), 26), ((1, 2, 3), 24)],
    ),
}


@pytest.mark.parametrize("edges,length,want", RUN_DAGS.values(), ids=RUN_DAGS)
def test_expand_jumps_forced_runs(edges, length, want):
    """Each run's letters and weight enter the word, a run stops at a
    missing state, at the full state and before a vector edge."""
    got = list(euler.expand(edges, length, LETTERS))
    assert got == sorted(dag_words(dict.fromkeys(range(10), ()) | edges, length).items()) == want


def test_expand_jumps_a_chain_longer_than_the_recursion_limit():
    """A single chain of 5,000 forced letters yields its one word with the
    product of its weights, and the run is followed without recursion."""
    length = 5000
    edges = {s: ((1 + s % 3, s + 1, -1 if s % 1000 == 999 else 2 if s % 500 == 0 else 1),) for s in range(length)}
    want = (tuple(1 + s % 3 for s in range(length)), 2**10 * (-1) ** 5)
    assert list(euler.expand(edges, length, LETTERS)) == [want]
    assert list(oracles.trie_expand(edges, length, range(4), tuple)) == [want]
