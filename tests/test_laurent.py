import json
import random
import signal
from collections import Counter

import pytest
from oracles import (
    NegativeExponentError,
    TupleLaurent,
    monomial,
    mutable,
    sorted_json_terms,
    substitute,
    tuple_exact_div,
    tuple_mutate_vars,
)

from clusterknit import cluster, laurent, packing, reference
from clusterknit.errors import (
    ArityMismatchError,
    NotDivisibleError,
    VertexIndexError,
)
from clusterknit.laurent import (
    LaurentPoly,
    exact_div,
    from_json_terms,
    json_term_lines,
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
    inv = monomial(2, (-1, 0))
    assert inv * y1 == LaurentPoly.one(2)


def test_variable_index_out_of_range_is_typed():
    """A variable index outside 0..arity-1 raises VertexIndexError, which
    is still an IndexError."""
    for idx in (-1, 3):
        with pytest.raises(VertexIndexError, match=r"out of range 0\.\.2"):
            LaurentPoly.variable(idx, 3)
    with pytest.raises(IndexError):
        LaurentPoly.variable(3, 3)


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
    """q * den = num at y = 1 reads q(1) * den(1) = num(1).  For
    y^(10^9) + 2, num(1) = 3 and den(1) is 0 or 2, so both divisions are
    refused before any of the 10^9 quotient terms a long division would
    emit.  y^(10^9) + 1 over y + 1 passes at y = 1 (2 = 2) and is refused
    at y = -1, where num(-1) = 2 and den(-1) = 0."""
    def too_slow(signum, frame):
        raise TimeoutError("exact_div ran for more than one second")

    one, y0 = LaurentPoly.one(1), y(0, 1)
    pairs = [
        (LaurentPoly(1, {(10**9,): 1, (0,): 2}), y0 - one),
        (LaurentPoly(1, {(10**9,): 1, (0,): 2}), y0 + one),
        (LaurentPoly(1, {(10**9,): 1, (0,): 1}), y0 + one),
    ]
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        for num, den in pairs:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(NotDivisibleError):
                exact_div(num, den)
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_exact_div_refuses_by_the_value_at_i():
    """(y^n + 1) / (y^2 + 1) with 4 | n passes at y = 1 (2 = 2 * 1) and at
    y = -1 (the same), and is refused at y = i, where den(i) = 0 and
    num(i) = 2; a long division would run n/2 steps first."""
    def too_slow(signum, frame):
        raise TimeoutError("exact_div ran for more than one second")

    one, y0 = LaurentPoly.one(1), y(0, 1)
    num = LaurentPoly(1, {(4 * 10**5,): 1, (0,): 1})
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(NotDivisibleError):
            exact_div(num, y0 * y0 + one)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # divisible numerators with den(i) = 0 still divide
    assert exact_div(y0 ** 4 - one, y0 * y0 + one) == y0 * y0 - one


def test_exact_div_refuses_by_the_value_at_a_primitive_8th_root(monkeypatch):
    """(y^n + 1) / (y^4 + 1) with 8 | n has the values 2 and 2 at y = 1,
    -1 and i alike, and is refused at y = z, z**4 = -1, where den(z) = 0
    and num(z) = 2; a long division would run n/4 steps first."""
    def too_slow(signum, frame):
        raise TimeoutError("exact_div ran for more than one second")

    def no_long_division(*args):
        raise AssertionError("the division was not refused before it ran")

    one, y0 = LaurentPoly.one(1), y(0, 1)
    num = LaurentPoly(1, {(8 * 10**5,): 1, (0,): 1})
    den = y0 ** 4 + one
    assert laurent._values(num)[:3] == laurent._values(den)[:3] == ((2, 0),) * 3
    long_division = laurent._divide
    monkeypatch.setattr(laurent, "_divide", no_long_division)
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(NotDivisibleError):
            exact_div(num, den)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    monkeypatch.setattr(laurent, "_divide", long_division)
    # divisible numerators with den(z) = 0 still divide
    assert exact_div(y0 ** 8 - one, den) == y0 ** 4 - one


def z8_mul(a, b):
    """Product in Z[z], z**4 = -1, of coordinate lists on 1, z, z**2, z**3."""
    out = [0] * 4
    for i, x in enumerate(a):
        for j, v in enumerate(b):
            out[(i + j) % 4] += x * v if i + j < 4 else -x * v
    return out


def z8_conjugate(a, j):
    """The image of a under z -> z**j."""
    out = [0] * 4
    for m, x in enumerate(a):
        e = m * j % 8
        out[e % 4] += x if e < 4 else -x
    return out


def test_zeta8_division_matches_the_norm_over_q():
    """The test through the norm over Z[i] agrees with the one through the
    norm over Q, the product of the four conjugates z -> z**j, j odd."""
    rng = random.Random(71)

    def pair(a):  # coordinates on 1, z, z**2, z**3 -> (A, B) with A + B z
        return (a[0], a[2]), (a[1], a[3])

    seen = {True: 0, False: 0}
    for _ in range(2000):
        d = [rng.randint(-3, 3) for _ in range(4)]
        n = [rng.randint(-3, 3) for _ in range(4)]
        if rng.random() < 0.5:
            n = z8_mul(d, n)
        others = z8_mul(z8_mul(z8_conjugate(d, 3), z8_conjugate(d, 5)), z8_conjugate(d, 7))
        norm = z8_mul(d, others)
        assert norm[1:] == [0, 0, 0]
        want = not any(n) if not norm[0] else all(x % norm[0] == 0 for x in z8_mul(n, others))
        assert laurent._zeta8_divides(pair(d), pair(n)) == want, (d, n)
        seen[want] += 1
    assert min(seen.values()) > 500


def test_values_at_z_match_evaluation():
    """The fourth value of ``_values`` is the polynomial at y = (z, ..., z),
    evaluated term by term with z**-1 = -z**3."""
    rng = random.Random(67)
    for _ in range(300):
        arity = rng.randint(1, 5)
        p = rand_poly(rng, arity, nterms=6, deg=9, allow_neg=True)
        want = [0] * 4
        for exps, c in p.sorted_terms():
            at_z = [c, 0, 0, 0]
            for e in exps:
                for _ in range(abs(e)):
                    at_z = z8_mul(at_z, [0, 1, 0, 0] if e > 0 else [0, 0, 0, -1])
            want = [a + b for a, b in zip(want, at_z)]
        assert laurent._values(p)[3] == ((want[0], want[2]), (want[1], want[3]))


def gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def test_values_at_the_three_points_match_evaluation():
    """``_values`` reads a term's value off its total degree; here each
    term is evaluated factor by factor in the Gaussian integers."""
    rng = random.Random(53)
    unit = {1: (0, 1), -1: (0, -1)}  # i and 1/i = -i
    for _ in range(300):
        arity = rng.randint(1, 5)
        p = rand_poly(rng, arity, nterms=6, deg=6, allow_neg=True)
        want = [[0, 0], [0, 0], [0, 0]]
        for exps, c in p.sorted_terms():
            at_i = (c, 0)
            for e in exps:
                for _ in range(abs(e)):
                    at_i = gauss_mul(at_i, unit[1 if e > 0 else -1])
            for acc, (re, im) in zip(want, [(c, 0), (c * (-1) ** sum(exps), 0), at_i]):
                acc[0] += re
                acc[1] += im
        assert list(map(list, laurent._values(p)[:3])) == want


def test_single_term_division_matches_the_oracle():
    """Division by c * y^e runs through the value gate and the heap
    division like any other divisor: q * den == num, a coefficient that c
    does not divide is refused, and a shift past the slot range widens."""
    rng = random.Random(47)
    widths, refused = set(), 0
    for _ in range(800):
        arity = rng.randint(1, 9)
        num = wide_poly(rng, arity, nterms=6)
        c = rng.choice((1, -1, 2, -3, 7))
        den = monomial(arity, [rng.choice(CENTRES) * rng.choice((1, -1)) for _ in range(arity)], c)
        if num.is_zero():
            continue
        widths.add(num._lay.w)
        if all(v % c == 0 for v in num.terms.values()):
            q = exact_div(num, den)
            assert q * den == num
            assert q.sorted_terms() == tuple_exact_div(TupleLaurent.of(num), TupleLaurent.of(den)).sorted_terms()
        else:
            refused += 1
            with pytest.raises(NotDivisibleError):
                exact_div(num, den)
    assert len(widths) > 2 and refused > 100, (widths, refused)
    # 2**13 - (-2**13) = 2**14 leaves the 16-bit slot range [-2**14, 2**14):
    # the quotient is packed wider, never wrapped into a neighbouring slot
    num = monomial(2, (1 << 13, 5), 6)
    den = monomial(2, (-(1 << 13), 0), -3)
    q = exact_div(num, den)
    assert q.sorted_terms() == [((1 << 14, 5), -2)] and q._lay.w > 16
    assert q * den == num


def test_min_key_matches_slot_bounds():
    """The one-pass componentwise-minimum key equals the packed per-slot
    minima, at every width and across the whole stored exponent range."""
    rng = random.Random(59)
    for w in (16, 32, 64, 128):
        edge = 1 << (w - 2)
        for _ in range(300):
            r = rng.randint(1, 12)
            lay = packing.layout(r, w, 2)
            keys = [
                laurent._key(lay, [rng.choice((-edge, edge - 1, 0, rng.randrange(-edge, edge))) for _ in range(r)])
                for _ in range(rng.randint(1, 8))
            ]
            assert laurent._min_key(lay, keys) == laurent._key(lay, laurent._slot_bounds(lay, keys, min))


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
    """Binary powering: one square per bit of k below the top one, and one
    product per set bit after the first."""
    calls = []
    mul, square = LaurentPoly.__mul__, laurent._square

    def counted_mul(a, b):
        calls.append("mul")
        return mul(a, b)

    def counted_square(lay, a):
        calls.append("square")
        return square(lay, a)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
    monkeypatch.setattr(laurent, "_square", counted_square)
    p = LaurentPoly.variable(0, 2) + LaurentPoly.one(2)
    for k, squares, muls in ((1, 0, 0), (2, 1, 0), (3, 1, 1), (4, 2, 0), (7, 2, 2)):
        calls.clear()
        p ** k
        assert (calls.count("square"), calls.count("mul")) == (squares, muls), k
    assert p ** 1 is p  # the first factor is taken as it is


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
    p = monomial(1, (-1,))
    with pytest.raises(NegativeExponentError):
        substitute(p, [y(0, 1) + LaurentPoly.one(1)])
    # a unit monomial image is fine
    assert substitute(p, [monomial(1, (2,), -1)]) == monomial(
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
        blob = "{" + ",".join(json_term_lines(p)) + "}"
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


def test_square_matches_the_product_of_a_distinct_copy():
    """``p ** 2`` runs ``_square`` over the pairs i <= j of p's terms and
    ``p * copy`` runs ``_mul`` over all pairs: the two agree term for term
    and layout for layout, also where the square overflows 16-bit slots and
    is redone wider, and where square and cross terms cancel."""
    rng = random.Random(61)
    redone = 0
    for _ in range(600):
        arity = rng.randint(1, 14)
        p = wide_poly(rng, arity, nterms=rng.choice((1, 4, 12)))
        copy = LaurentPoly(arity, dict(p.sorted_terms()))
        assert copy is not p and copy.terms is not p.terms
        square, product = p ** 2, p * copy
        assert square.terms == product.terms and square._lay is product._lay
        redone += p._lay.w == 16 and square._lay.w > 16
    assert redone > 20, redone
    # (y^2 + 2y - 2)^2: the y^2 term 2 * 1 * (-2) + 2^2 cancels
    p = LaurentPoly(1, {(2,): 1, (1,): 2, (0,): -2})
    assert (p ** 2).sorted_terms() == [((4,), 1), ((3,), 4), ((1,), -8), ((0,), 4)]
    assert p ** 2 == p * LaurentPoly(1, dict(p.sorted_terms()))


def test_long_division_matches_the_tuple_oracle():
    """The long division alone, with no value test in front, against the
    tuple oracle: both divide alike or both refuse.  Small dense factors make
    remainder terms cancel and come back; unit monomials around the slot
    limits move both sides across layouts."""
    rng = random.Random(71)
    exact = refused = 0
    for _ in range(1500):
        arity = rng.randint(1, 4)
        den = rand_poly(rng, arity, nterms=6, allow_neg=True)
        f = rand_poly(rng, arity, nterms=8, allow_neg=True)
        num = f * den
        if rng.random() < 0.5:
            num = num + rand_poly(rng, arity, nterms=2, allow_neg=True)
        for side in range(rng.randint(0, 2)):
            unit = monomial(arity, [rng.choice((1, -1)) * rng.choice(CENTRES) for _ in range(arity)])
            num, den = (num * unit, den) if side else (num, den * unit)
        if num.is_zero() or den.is_zero():
            continue
        try:
            want = tuple_exact_div(TupleLaurent.of(num), TupleLaurent.of(den)).sorted_terms()
        except NotDivisibleError:
            refused += 1
            with pytest.raises(NotDivisibleError):
                laurent._redo_wider(laurent._divide, num, den)
        else:
            exact += 1
            assert laurent._redo_wider(laurent._divide, num, den).sorted_terms() == want
    assert exact > 500 and refused > 300, (exact, refused)


def test_a_divisor_spanning_its_slot_range_is_divided_wider():
    """y^(-L) + y^(L-1) at 24 bits (L = 2**22) spans 2L - 1 in y, so shifted
    by its minimum it does not fit its slots, and the division is redone
    wider.  Run at 24 bits, (1 - y^8) / (y^(-L) + y^(L-1)), which passes
    all four value tests, would read a wrapped negative quotient slot as in
    range and step down through about L remainder terms before refusing."""
    def too_slow(signum, frame):
        raise TimeoutError("exact_div ran for more than one second")

    big = 1 << 22
    y0, one = y(0, 2), LaurentPoly.one(2)
    den = LaurentPoly(2, {(-big, 0): 1, (big - 1, 0): 1})
    num = one - y0 ** 8
    assert den._lay.w == num._lay.w + 8 == 24
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(NotDivisibleError):
            exact_div(num, den)
        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    f = y(1, 2) - LaurentPoly.const(2, 3)
    assert exact_div(den * f, den) == f


def test_json_terms_match_the_sorted_oracle_at_every_slot_width():
    """The term-map entries formatted straight from the packed slots are
    the sorted oracle's map, written in key order (negative exponents and
    coefficients included), and read back as the polynomial: 16- and
    32-bit slots are read through struct, 24- and 40-bit ones through
    bytes."""
    rng = random.Random(67)
    for w in (16, 24, 32, 40):
        edge = 1 << (w - 2)
        for _ in range(60):
            arity = rng.randint(1, 9)
            terms = {(-edge,) + (0,) * (arity - 1): rng.randint(1, 9)}
            for _ in range(rng.randint(0, 12)):
                exps = tuple(rng.choice((-edge, edge - 1, 0, 1, -1, rng.randrange(-edge, edge))) for _ in range(arity))
                terms[exps] = rng.choice((1, -1)) * rng.randint(1, 10**30)
            p = LaurentPoly(arity, terms)
            assert p._lay.w == w
            want = sorted_json_terms(p)
            assert json_term_lines(p) == [f'"{k}": "{c}"' for k, c in sorted(want.items())]
            assert from_json_terms(arity, want) == p


def test_wide_results_compare_equal_to_narrow_ones():
    """A result whose exponents fit the first slot width again equals, and
    hashes like, the same polynomial built directly."""
    big, small = monomial(2, (40000, 0)), y(0) + y(1)
    assert big * monomial(2, (-40000, 1)) == y(1)
    assert exact_div(big * small, big) == small
    assert hash(exact_div(big * small, big)) == hash(small)
    assert (big + small) - big == small
    assert (big ** -1) * big == LaurentPoly.one(2)


def test_hash_is_kept_and_follows_the_value():
    """The hash is computed once and kept, and it is the hash of the value:
    one polynomial built by the constructor, by ``*``, by ``exact_div``,
    and by a product widened past the first slot width and divided back
    hashes and compares alike, before and after it is first hashed."""
    want = LaurentPoly(3, {(1, 0, -1): 2, (0, 2, 0): -1, (0, 0, 0): 5})
    a, b = LaurentPoly(3, {(1, 0, -1): 2, (0, 0, 0): 5}), y(1, 3) ** 2
    den = y(0, 3) + y(2, 3) ** -1
    big = monomial(3, (40000, -1, 0))
    widened = want * big
    assert widened._lay.w > want._lay.w
    builds = [
        LaurentPoly(3, {(0, 0, 0): 5, (0, 2, 0): -1, (1, 0, -1): 2}),
        a - b,
        (a - b) * LaurentPoly.one(3),
        exact_div(want * den, den),
        exact_div(widened, big),
    ]
    first = hash(want)
    assert want._hash == first
    for p in builds:
        assert p == want and p._lay is want._lay
        assert hash(p) == first == hash(want) == hash(p)
    assert len({want: None, **dict.fromkeys(builds)}) == 1
    assert hash(want - y(0, 3)) != first


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
        images.append(monomial(r, exps))
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


def test_a_zero_from_a_wide_operand_is_the_zero():
    """A zero made from a polynomial held at a wide layout is held at the
    base layout like every other zero, so it equals ``LaurentPoly.zero``,
    hashes as it does and finds its entry in a dict."""
    p = LaurentPoly(2, {(20000, 0): 1, (0, 1): 3})
    zero = LaurentPoly.zero(2)
    assert p._lay.w > 16
    for z in (p - p, p.scale(0), p * zero, zero * p, -p + p):
        assert z == zero and hash(z) == hash(zero) and {zero: 1}.get(z) == 1


def _oracle_exchange(first, second, den, sign, arity):
    """``laurent.exchange`` term by term: each side a product from 1, the
    quotient by ``tuple_exact_div``."""
    prods = []
    for side in first, second:
        p = TupleLaurent.one(arity)
        for f, m in side:
            p = p * TupleLaurent.of(f) ** m
        prods.append(p)
    num = prods[0] + prods[1] if sign > 0 else prods[0] - prods[1]
    return num if den is None else tuple_exact_div(num, TupleLaurent.of(den))


def test_exchange_matches_the_tuple_oracle():
    """Random factored sides, given as lists or as ``dict.items()``: the
    exchange kernel equals the tuple oracle's product, sum and exact
    quotient, or both refuse the division.  A divisor is most often a
    factor put into both sides, so the division is exact; wide exponents
    come only where it is, since the oracle has no value gate and would
    step through a refused wide division term by term."""
    rng = random.Random(32)
    seen = Counter()
    for _ in range(400):
        arity, pick = rng.randint(1, 3), rng.random()

        def factor():
            while True:
                wide = pick < 0.85 and rng.random() < 0.2
                f = wide_poly(rng, arity, 2) if wide else rand_poly(rng, arity, 3, 2, True)
                if not f.is_zero():
                    return f

        sides = [[(factor(), rng.randint(1, 3)) for _ in range(rng.choice((0, 1, 1, 2, 3)))] for _ in "ab"]
        for side in sides:
            if side and rng.random() < 0.3:
                side.append((side[0][0], rng.randint(1, 2)))
                seen["repeated factor"] += 1
        if pick < 0.5:
            den = factor()
            for side in sides:
                side.insert(rng.randint(0, len(side)), (den, rng.randint(1, 2)))
        elif pick < 0.7:
            den = monomial(arity, [rng.randint(-3, 3) for _ in range(arity)], rng.choice((1, -1)))
        elif pick < 0.85 and any(sides):
            den = None
        else:
            den = factor()
        first, second = (side if rng.random() < 0.5 else dict(side).items() for side in sides)
        sign = rng.choice((1, -1))
        seen["empty side"] += not (first and second)
        seen["multiplicity > 1"] += any(m > 1 for f, m in [*first, *second])
        seen["sign -1"] += sign < 0
        seen["no divisor"] += den is None
        try:
            want = _oracle_exchange(first, second, den, sign, arity).sorted_terms()
        except NotDivisibleError:
            seen["refused"] += 1
            with pytest.raises(NotDivisibleError):
                laurent.exchange(first, second, den, sign)
        else:
            assert laurent.exchange(first, second, den, sign).sorted_terms() == want
    assert len(seen) == 6 and min(seen.values()) >= 20, seen
