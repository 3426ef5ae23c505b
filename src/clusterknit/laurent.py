"""Exact multivariate Laurent polynomials with integer coefficients.

Terms live in a sparse map from packed exponent vectors (ints) to
arbitrary-precision ints.  Zero coefficients are never stored and the
monomial order is graded lexicographic, so structural equality is
mathematical equality and printing is canonical.

Packed monomials.  The exponents sit in the slots of a ``packing.Layout``
with two guard bits, so each lies in [-2**(w-2), 2**(w-2)), and the total
degree d sits above them, unbounded and possibly negative:

    key = d * 2**(r*w) + layout.pack(exponents)

With e_0 in the highest slot, int order is graded-lex order, the monomial
1 is ``layout.lows`` and a monomial product is ``k1 + k2 - lows``.  A
product's slots read e1 + e2 + L in [-L, 3L), inside their w bits, so it is
exact even when an exponent leaves its range; every result is checked, and
when a check fails the operation is redone at a wider layout.  A
polynomial is held at the narrowest layout that holds its exponents, so
equal polynomials have equal keys.

Kernels.  A product adds the keys of every pair of terms into one dict.
A square (``__pow__``) takes only the pairs i <= j and doubles the cross
terms, so it makes half the pairs; redone wider, it is still a square.
Exact division is long division over a heap of the remainder's keys
(``_divide``).  Term maps are kept in no order: text output sorts them,
and a JSON report sorts its keys.
"""

from __future__ import annotations

import heapq

from .errors import (
    ArityMismatchError,
    NotDivisibleError,
    SeedFormatError,
    VertexIndexError,
    strict_int,
)
from .packing import Layout, fitting, layout

_GUARD = 2  # guard bits per exponent slot
_BASE_WIDTH = 16


class _Overflow(Exception):
    """A result exponent does not fit its slot; redo the operation wider."""


def _key(lay: Layout, exps) -> int:
    """The key of the monomial with these exponents."""
    return (sum(exps) << lay.r * lay.w) + lay.pack(exps)


def _fits(lay: Layout, keys) -> bool:
    """Whether every slot of every key holds an exponent in range."""
    return not any(map(lay.high.__and__, keys))


def _slot_bounds(lay: Layout, keys, bound) -> list[int]:
    """Per-variable ``bound`` (min or max) exponent over nonempty keys."""
    return [bound(col) - lay.low for col in zip(*map(lay.slots, keys))]


def _min_key(lay: Layout, keys) -> int:
    """``_key(lay, _slot_bounds(lay, keys, min))`` for nonempty keys, in
    one pass over them."""
    m = lay.min(keys)
    return (sum(lay.unpack(m)) << lay.r * lay.w) + m


def _new(lay: Layout, terms: dict) -> "LaurentPoly":
    """The polynomial with these packed terms (no zero coefficients),
    re-packed at the narrowest width that holds them."""
    if lay.w > _BASE_WIDTH and terms:
        lo = min(_slot_bounds(lay, terms, min))
        hi = max(_slot_bounds(lay, terms, max))
        narrow = fitting(lay.r, lo, hi, _GUARD)
        if narrow is not lay:
            terms = _repack(terms, lay, narrow)
            lay = narrow
    p = object.__new__(LaurentPoly)
    p.arity, p._lay, p.terms, p._hash = lay.r, lay, terms, None
    return p


def _repack(terms: dict, old: Layout, lay: Layout) -> dict:
    if old is lay:
        return terms
    return {_key(lay, old.unpack(k)): c for k, c in terms.items()}


def _redo_wider(op, *polys: "LaurentPoly") -> "LaurentPoly":
    """``op(layout, *term maps)`` at the widest of the polynomials' widths,
    widened until no result exponent overflows its slot."""
    lay = polys[0]._lay
    for p in polys:
        if p._lay.w > lay.w:
            lay = p._lay
    while True:
        try:
            return _new(lay, op(lay, *[_repack(p.terms, p._lay, lay) for p in polys]))
        except _Overflow:
            lay = lay.wider()


def _add(lay: Layout, a: dict, b: dict) -> dict:
    terms = dict(a)
    get = terms.get
    for k, c in b.items():
        terms[k] = get(k, 0) + c
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    return terms


def _mul(lay: Layout, a: dict, b: dict) -> dict:
    terms: dict = {}
    get = terms.get
    b_items = [(k - lay.lows, c) for k, c in b.items()]
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
            terms[k] = get(k, 0) + c1 * c2
    return _product(lay, terms)


def _square(lay: Layout, a: dict) -> dict:
    """``_mul(lay, a, a)`` from the pairs i <= j of a's terms: each term's
    own square once and each cross term once, doubled, so half of
    ``_mul``'s pairs."""
    terms: dict = {}
    get = terms.get
    lows = lay.lows
    items = [(k - lows, c) for k, c in a.items()]
    for i, (k1, c1) in enumerate(a.items()):
        k = k1 + k1 - lows
        terms[k] = get(k, 0) + c1 * c1
        c1 += c1
        for k2, c2 in items[i + 1 :]:
            k = k1 + k2
            terms[k] = get(k, 0) + c1 * c2
    return _product(lay, terms)


def _product(lay: Layout, terms: dict) -> dict:
    """A product's terms without its cancelled ones; _Overflow where an
    exponent left its slot."""
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    if not _fits(lay, terms):
        raise _Overflow
    return terms


class LaurentPoly:
    __slots__ = ("arity", "terms", "_lay", "_hash")

    def __init__(self, arity: int, terms=None):
        """The polynomial sum coeff * y^exps over a map from exponent
        tuples to coefficients; zero coefficients are dropped."""
        clean = {tuple(e): c for e, c in terms.items() if c} if terms else {}
        if any(len(e) != arity for e in clean):
            raise ArityMismatchError(f"an exponent vector does not have {arity} entries")
        flat = [x for e in clean for x in e]
        lay = fitting(arity, min(flat, default=0), max(flat, default=0), _GUARD)
        self.arity, self._lay, self._hash = arity, lay, None
        self.terms = {_key(lay, e): c for e, c in clean.items()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "LaurentPoly":
        return _new(layout(arity, _BASE_WIDTH, _GUARD), {})

    @staticmethod
    def const(arity: int, c: int) -> "LaurentPoly":
        lay = layout(arity, _BASE_WIDTH, _GUARD)
        return _new(lay, {lay.lows: c} if c else {})

    @staticmethod
    def one(arity: int) -> "LaurentPoly":
        return LaurentPoly.const(arity, 1)

    @staticmethod
    def variable(idx: int, arity: int) -> "LaurentPoly":
        """The variable y_{idx}, 0-based index."""
        if not (0 <= idx < arity):
            raise VertexIndexError(f"variable index {idx} out of range 0..{arity - 1}")
        lay = layout(arity, _BASE_WIDTH, _GUARD)
        return _new(lay, {lay.lows + (1 << arity * lay.w) + (1 << (arity - 1 - idx) * lay.w): 1})

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.arity == other.arity
            and self._lay.w == other._lay.w
            and self.terms == other.terms
        )

    def __hash__(self):
        # the terms are never changed after construction, so the hash of
        # the first call holds for good
        h = self._hash
        if h is None:
            h = self._hash = hash((self.arity, frozenset(self.terms.items())))
        return h

    def _check_arity(self, other: "LaurentPoly") -> None:
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity {self.arity} vs {other.arity}")

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_arity(other)
        return _redo_wider(_add, self, other)

    def __neg__(self) -> "LaurentPoly":
        return _new(self._lay, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_arity(other)
        return _redo_wider(_mul, self, other)

    def scale(self, c: int) -> "LaurentPoly":
        return _new(self._lay, {k: c * v for k, v in self.terms.items()} if c else {})

    def __pow__(self, k: int) -> "LaurentPoly":
        """Binary powering: each squaring runs ``_square`` over the pairs
        i <= j of the base's terms, and each product that takes in a set
        bit of k is a ``*``; the first factor is taken as it is, not times
        1."""
        if k < 0:
            return exact_div(LaurentPoly.one(self.arity), self ** (-k))
        if not k:
            return LaurentPoly.one(self.arity)
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = _redo_wider(_square, base)

    # -- inspection --------------------------------------------------------

    def exponent_map(self) -> dict:
        """exponent tuple -> coefficient, in the polynomial's own term order."""
        terms = self.terms
        return dict(zip(map(self._lay.unpack, terms), terms.values()))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponent tuple, coefficient) pairs in descending graded-lex order."""
        unpack = self._lay.unpack
        return [(unpack(k), c) for k, c in sorted(self.terms.items(), reverse=True)]

    def __repr__(self) -> str:
        return f"LaurentPoly({to_text(self)})"


def _divide(lay: Layout, num: dict, den: dict) -> dict:
    """The quotient num / den in the Laurent ring; NotDivisibleError if
    there is none.

    Both sides are shifted by their componentwise minimum exponents, so
    the question becomes polynomial long division: the remainder lives in
    a mutable dict, and a heap of negated keys holds each of its keys
    exactly once.  Every term an update creates is graded-lex smaller than
    the term just popped, so the popped key is the leading term; a term
    that cancels stays in the dict at 0 until it is popped and skipped.
    The popped term is divided out whole, so the update for the divisor's
    leading term is never made, and each other update probes the dict once.

    Remainder exponents lie in [0, 2L) and the shifted divisor's in
    [0, L), so a quotient term's slot reads its exponent + L in [1, 3L)
    and borrows from no other: its top two bits read 00 for a negative
    exponent, 01 for one in range and 10 for one that overflows.  So a
    divisor that spans L or more in some variable is redone wider.  Kept
    here, its quotient slots could wrap below 0, borrow from their
    neighbour and read 11, which passes as in range: the keys stay exact as
    integers, so the division would still end right, but only after
    stepping down through negative exponents for about L pops.  A
    single-term divisor needs no special case: each popped term is divided
    out and nothing else changes."""
    lows = lay.lows
    num_shift = lows - _min_key(lay, num)
    den_shift = lows - _min_key(lay, den)
    den = {k + den_shift: c for k, c in den.items()}
    if not _fits(lay, den):
        raise _Overflow
    lead = max(den)
    lead_c = den.pop(lead)
    rest = [(k - lows, -c) for k, c in den.items()]
    rem = {k + num_shift: c for k, c in num.items()}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    heappop, heappush, get, pop = heapq.heappop, heapq.heappush, rem.get, rem.pop
    quot = {}
    while heap:
        k = -heappop(heap)
        c = pop(k)
        if not c:
            continue
        q = k - lead + lows
        if q & lows != lows:  # a slot reads 00 or 10
            if (q | q >> 1) & lows != lows:  # an exponent of the quotient term is negative
                raise NotDivisibleError("nonzero remainder in exact division")
            raise _Overflow
        q_c, r = divmod(c, lead_c)
        if r:
            raise NotDivisibleError("nonzero remainder in exact division")
        quot[q] = q_c
        for dk, dc in rest:
            t = q + dk
            v = get(t)
            if v is None:
                heappush(heap, -t)
                rem[t] = q_c * dc
            else:
                rem[t] = v + q_c * dc
    # Shifting back can push a slot past its range, a negative one with a
    # borrow from its upper neighbour; the lowest such slot shows it.
    back = den_shift - num_shift
    quot = {k + back: c for k, c in quot.items()}
    if not _fits(lay, quot):
        raise _Overflow
    return quot


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Return q with q * den == num, allowing negative exponents.

    A failure is NotDivisibleError: in this package that always means a
    violated Laurent-phenomenon expectation, i.e. a bug or bad input.
    """
    num._check_arity(den)
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.arity)
    # At y = (1, ..., 1), (-1, ..., -1), (i, ..., i) and (z, ..., z) with z a
    # primitive 8th root of unity, q * den = num reads q(y) * den(y) = num(y)
    # in Z[z], since q has integer coefficients: cheap necessary tests, so a
    # hopeless long division is refused before it runs.
    n1, n2, n3, n4 = _values(num)
    d1, d2, d3, d4 = _values(den)
    if not (
        _gauss_divides(d1, n1) and _gauss_divides(d2, n2) and _gauss_divides(d3, n3) and _zeta8_divides(d4, n4)
    ):
        raise NotDivisibleError("nonzero remainder in exact division")
    return _redo_wider(_divide, num, den)


def _values(p: LaurentPoly) -> tuple:
    """p at y = (1, ..., 1), (-1, ..., -1), (i, ..., i) and (z, ..., z),
    z = exp(2 pi i / 8).  A term's value at each point is its coefficient
    times 1, (-1)**d, i**d or z**d, where d is its total degree, the top
    of its packed key: so summing the coefficients by d mod 8 gives all
    four.  The first three are Gaussian integers (re, im); the last is
    A + B z as the Gaussian integers (A, B), since z**2 = i and z**4 = -1."""
    shift = p.arity * p._lay.w
    s = [0] * 8
    for k, c in p.terms.items():
        s[k >> shift & 7] += c
    s0, s1, s2, s3, s4, s5, s6, s7 = s
    t0, t1, t2, t3 = s0 + s4, s1 + s5, s2 + s6, s3 + s7
    return (
        (t0 + t1 + t2 + t3, 0),
        (t0 - t1 + t2 - t3, 0),
        (t0 - t2, t1 - t3),
        ((s0 - s4, s2 - s6), (s1 - s5, s3 - s7)),
    )


def _gauss_divides(d: tuple, n: tuple) -> bool:
    """Whether d divides n in the Gaussian integers: n * conj(d) is a
    multiple of the norm of d, or both are 0."""
    (a, b), (x, y) = d, n
    norm = a * a + b * b
    if not norm:
        return not (x or y)
    return not ((x * a + y * b) % norm or (y * a - x * b) % norm)


def _zeta8_divides(d: tuple, n: tuple) -> bool:
    """Whether d = A + B z divides n = C + E z in Z[z], z**2 = i, all four
    given as Gaussian integers (re, im).  The conjugate A - B z (z -> -z
    fixes i) takes d to its norm over the Gaussian integers,
    D = A**2 - i B**2, and n to (CA - i EB) + (EA - CB) z; since 1, z is a
    basis of Z[z] over Z[i], d divides n exactly where D divides both parts
    (or d and n are both 0)."""
    ((a0, a1), (b0, b1)), ((c0, c1), (e0, e1)) = d, n
    norm = (a0 * a0 - a1 * a1 + 2 * b0 * b1, 2 * a0 * a1 - b0 * b0 + b1 * b1)
    if norm in ((1, 0), (-1, 0), (0, 1), (0, -1)):  # d is a unit
        return True
    if norm == (0, 0):
        return not (c0 or c1 or e0 or e1)
    part = (c0 * a0 - c1 * a1 + e0 * b1 + e1 * b0, c0 * a1 + c1 * a0 - e0 * b0 + e1 * b1)
    other = (e0 * a0 - e1 * a1 - c0 * b0 + c1 * b1, e0 * a1 + e1 * a0 - c0 * b1 - c1 * b0)
    return _gauss_divides(norm, part) and _gauss_divides(norm, other)


# -- text / json forms ---------------------------------------------------


def _format_term(exps: tuple[int, ...], coeff: int, names) -> str:
    factors = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = names[i]
        factors.append(name if e == 1 else f"{name}^{e}")
    mono = "*".join(factors)
    a = abs(coeff)
    if not mono:
        return str(a)
    if a == 1:
        return mono
    return f"{a}*{mono}"


def to_text(p: LaurentPoly, names=None) -> str:
    """Canonical text form, terms in descending graded-lex order."""
    if names is None:
        names = [f"y{i + 1}" for i in range(p.arity)]
    if p.is_zero():
        return "0"
    parts = []
    for pos, (exps, coeff) in enumerate(p.sorted_terms()):
        body = _format_term(exps, coeff, names)
        if pos == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def json_term_lines(p: LaurentPoly) -> list:
    """The entries ``"key": "coefficient"`` of the JSON term map of ``p``,
    whose keys are the ','-joined exponent vectors and whose values are the
    coefficients as strings: each formatted from one template and sorted as
    their keys sort, since the '"' that closes a key sorts before ',', '-'
    and every digit."""
    lay = p._lay
    line, unpack = '"' + ",".join(["%d"] * lay.r) + '": "%d"', lay.unpack
    return sorted([line % (*unpack(k), c) for k, c in p.terms.items()])


def from_json_terms(arity: int, data: dict) -> LaurentPoly:
    """The polynomial of a JSON term map; SeedFormatError where a
    key is not ','-joined integers or a coefficient is not an integer, each
    spelled ``-?[0-9]+`` (a coefficient may also be a JSON integer), or
    where two keys spell one exponent vector ("0,1" and "00,1")."""
    terms = {}
    for key, val in data.items():
        try:
            exps = tuple(map(strict_int, key.split(","))) if key else ()
            coeff = val if type(val) is int else strict_int(val)
        except ValueError as exc:
            raise SeedFormatError(f"a term is not integer exponents and coefficient: {exc}") from None
        if len(exps) != arity:
            raise ArityMismatchError(f"exponent vector {key!r} has wrong length")
        if exps in terms:
            raise SeedFormatError(f"two terms spell the exponent vector {key!r}")
        terms[exps] = coeff
    return LaurentPoly(arity, terms)
