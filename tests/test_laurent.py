import json
import random
import signal

import pytest
from oracles import TupleLaurent, mutable, tuple_exact_div, tuple_mutate_vars

from clusterknit import cluster, reference
from clusterknit.errors import (
    ArityMismatchError,
    NegativeExponentSubstitutionError,
    NotDivisibleError,
)
from clusterknit.laurent import (
    LaurentPoly,
    exact_div,
    from_json_terms,
    substitute,
    to_json_terms,
    to_text,
)


def y(i, arity=2):
    return LaurentPoly.variable(i, arity)


def rand_poly(rng, arity, nterms=4, deg=3, allow_neg=False):
    lo = -deg if allow_neg else 0
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exps = tuple(rng.randint(lo, deg) for _ in range(arity))
        terms[exps] = rng.randint(-9, 9)
    return LaurentPoly(arity, terms)


def test_difference_of_squares():
    y1, y2 = y(0), y(1)
    assert (y1 + y2) * (y1 - y2) == y1 * y1 - y2 * y2


def test_mul_unit():
    p = y(0) + y(1) * y(1)
    assert p * LaurentPoly.one(2) == p


def test_inverse_monomial():
    y1 = y(0)
    inv = LaurentPoly.monomial(2, (-1, 0))
    assert inv * y1 == LaurentPoly.one(2)


def test_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        y(0, 2) + y(0, 3)
    with pytest.raises(ArityMismatchError):
        LaurentPoly(2, {(1,): 1})


def test_exact_div_monomial_denominator():
    num = y(1) + LaurentPoly.one(2)
    q = exact_div(num, y(0))
    assert q == LaurentPoly(2, {(-1, 1): 1, (-1, 0): 1})


def test_exact_div_polynomial():
    y1, y2 = y(0), y(1)
    assert exact_div(y1 * y1 - y2 * y2, y1 - y2) == y1 + y2


def test_exact_div_failure():
    with pytest.raises(NotDivisibleError):
        exact_div(y(0) + LaurentPoly.one(2), y(1) + LaurentPoly.one(2))


def test_exact_div_refuses_by_the_value_at_one():
    """q * den = num at y = 1 reads q(1) * den(1) = num(1).  Here num(1) = 3
    and den(1) is 0 or 2, so both divisions are refused before any of the
    10^9 quotient terms a long division would emit."""
    def too_slow(signum, frame):
        raise TimeoutError("exact_div ran for more than one second")

    num = LaurentPoly(1, {(10**9,): 1, (0,): 2})
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        for den in (y(0, 1) - LaurentPoly.one(1), y(0, 1) + LaurentPoly.one(1)):
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(NotDivisibleError):
                exact_div(num, den)
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_exact_div_round_trip_random():
    rng = random.Random(17)
    for _ in range(10_000):
        arity = rng.randint(1, 3)
        p = rand_poly(rng, arity, allow_neg=True)
        q = rand_poly(rng, arity, allow_neg=True)
        if q.is_zero():
            continue
        assert exact_div(p * q, q) == p


def test_pow_squares_only_while_bits_remain(monkeypatch):
    calls = []
    mul = LaurentPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    p = LaurentPoly.variable(0, 2) + LaurentPoly.one(2)
    for k, muls in ((1, 1), (2, 2), (4, 3)):
        calls.clear()
        p ** k
        assert len(calls) == muls, k


def test_pow_and_negative_pow():
    y1 = y(0)
    assert y1 ** 3 == LaurentPoly(2, {(3, 0): 1})
    assert y1 ** -2 == LaurentPoly(2, {(-2, 0): 1})
    p = y(0) + y(1)
    assert p ** 0 == LaurentPoly.one(2)
    assert p ** 3 == p * p * p


def test_substitute_identity():
    rng = random.Random(23)
    for _ in range(100):
        p = rand_poly(rng, 3, allow_neg=True)
        images = [y(i, 3) for i in range(3)]
        assert substitute(p, images) == p


def test_substitute_composition():
    # y1 -> a 2x2 minor in arity-10 target
    p = y(0, 1)
    img = reference.minor_example()[1]
    assert substitute(p, [img]) == img


def test_substitute_collapse_to_one():
    p = y(0) * y(1) + y(1)
    ones = [LaurentPoly.one(2)] * 2
    assert substitute(p, ones) == LaurentPoly.const(2, 2)


def test_substitute_negative_exponent_guard():
    p = LaurentPoly.monomial(1, (-1,))
    with pytest.raises(NegativeExponentSubstitutionError):
        substitute(p, [y(0, 1) + LaurentPoly.one(1)])
    # a unit monomial image is fine
    assert substitute(p, [LaurentPoly.monomial(1, (2,), -1)]) == LaurentPoly.monomial(
        1, (-2,), -1
    )


def test_text_form_canonical():
    p = y(1) - y(0) * y(0) + LaurentPoly.const(2, 3)
    assert to_text(p) == "-y1^2 + y2 + 3"
    assert to_text(LaurentPoly.zero(2)) == "0"
    assert to_text(y(0) ** -1) == "y1^-1"


def test_json_round_trip_random():
    rng = random.Random(29)
    for _ in range(200):
        p = rand_poly(rng, rng.randint(1, 4), allow_neg=True)
        blob = json.dumps(to_json_terms(p))
        assert from_json_terms(p.arity, json.loads(blob)) == p


def test_canonicalization_drops_zeros():
    p = LaurentPoly(2, {(1, 0): 0, (0, 1): 2})
    assert p.sorted_terms() == [((0, 1), 2)]
    assert p - p == LaurentPoly.zero(2)


# Exponents are drawn around these centres, so that products and quotients
# land on both sides of the first slot width's limit 2**14 and far past it.
CENTRES = (0, 0, 0, 1 << 13, (1 << 14) - 2, 1 << 14, 3 << 14, 1 << 40)


def wide_poly(rng, arity, nterms=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exps = tuple(
            rng.choice((1, -1)) * rng.choice(CENTRES) + rng.randint(-2, 2)
            for _ in range(arity)
        )
        terms[exps] = rng.randint(-9, 9)
    return LaurentPoly(arity, terms)


def test_packed_kernel_matches_the_tuple_oracle():
    rng = random.Random(41)
    wide = refused = 0
    for _ in range(600):
        arity = rng.randint(1, 14)
        p, q = wide_poly(rng, arity), wide_poly(rng, arity)
        op, oq = TupleLaurent.of(p), TupleLaurent.of(q)
        assert p.sorted_terms() == op.sorted_terms()
        got = [(p * q).sorted_terms(), (p + q).sorted_terms(), (p - q).sorted_terms()]
        want = [(op * oq).sorted_terms(), (op + oq).sorted_terms(), (op - oq).sorted_terms()]
        assert got == want
        k = rng.randint(0, 3)
        assert (p ** k).sorted_terms() == (op ** k).sorted_terms()
        wide += any(abs(e) >= 1 << 14 for exps, _ in (p * q).sorted_terms() for e in exps)
        if q.is_zero():
            continue
        assert exact_div(p * q, q).sorted_terms() == p.sorted_terms()
        assert exact_div(p * q, q) == p
        # a perturbed numerator: both kernels divide it or both refuse
        num, onum = p * q + y(0, arity), op * oq + TupleLaurent.of(y(0, arity))
        try:
            want = tuple_exact_div(onum, oq).sorted_terms()
        except NotDivisibleError:
            refused += 1
            with pytest.raises(NotDivisibleError):
                exact_div(num, q)
        else:
            assert exact_div(num, q).sorted_terms() == want
    assert wide > 100 and refused > 100, (wide, refused)


def test_wide_results_compare_equal_to_narrow_ones():
    """A result whose exponents fit the first slot width again equals, and
    hashes like, the same polynomial built directly."""
    big, small = LaurentPoly.monomial(2, (40000, 0)), y(0) + y(1)
    assert big * LaurentPoly.monomial(2, (-40000, 1)) == y(1)
    assert exact_div(big * small, big) == small
    assert hash(exact_div(big * small, big)) == hash(small)
    assert (big + small) - big == small
    assert (big ** -1) * big == LaurentPoly.one(2)


def widened_seed(cat, rng):
    """The initial seed of ``cat`` with each variable y_i replaced by the
    unit monomial y_i * prod_j y_j^(a_ij), a_ij in {0, +-20000}: a ring map
    of Laurent rings, so every division along a walk stays exact while the
    exponents cross the first slot width."""
    s = cluster.initial_seed(cat)
    r = s.r
    images = []
    for i in range(r):
        exps = [rng.choice((0, 0, 20000, -20000)) for _ in range(r)]
        exps[i] += 1
        images.append(LaurentPoly.monomial(r, exps))
    return cluster.Seed(matrix=s.matrix, vars=tuple(images))


def test_mutation_walks_match_the_tuple_oracle():
    rng = random.Random(43)
    for name, steps in (("fan_a3", 60), ("linear_a4", 60), ("kronecker3", 5)):
        cat = reference.category(name)
        for start in (cluster.initial_seed(cat), widened_seed(cat, rng)):
            s = start
            oracle = tuple(TupleLaurent.of(v) for v in s.vars)
            prev = None
            for _ in range(steps):
                k = rng.choice([m for m in mutable(s.matrix) if m != prev])
                oracle = tuple_mutate_vars(s.matrix, oracle, k)
                s = cluster.mutate_seed(s, k)
                assert [v.sorted_terms() for v in s.vars] == [
                    o.sorted_terms() for o in oracle
                ], (name, k)
                prev = k
