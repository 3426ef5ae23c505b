"""Exact multivariate Laurent polynomials with integer coefficients.

Terms live in a sparse map from packed exponent vectors (ints) to
arbitrary-precision ints.  Zero coefficients are never stored and the
monomial order is graded lexicographic, so structural equality is
mathematical equality and printing is canonical.

Packed monomials.  With r variables and w-bit slots, the exponent vector
(e_0, ..., e_{r-1}) of total degree d is the int

    d * 2**(r*w) + sum_i (e_i + 2**(w-1)) * 2**((r-1-i)*w)

The degree on top is unbounded (and may be negative) and e_0 sits in the
highest slot, so int order is graded-lex order and a monomial product is
``k1 + k2 - bias``, where ``bias`` is the key of the monomial 1.  A stored
exponent lies in [-2**(w-2), 2**(w-2)), which is the case exactly when the
two top bits of its slot (its guard bits) differ.  A sum or difference of
two such slots stays inside its w bits, so a result is exact even when an
exponent leaves that range; every result is checked, and when a check fails
the operation is redone with its operands re-packed at twice the width.  A
polynomial is held at the narrowest of 16, 32, 64, ... bits that holds its
exponents, so equal polynomials have equal keys.
"""

from __future__ import annotations

import heapq
from functools import cache

from .errors import (
    ArityMismatchError,
    NegativeExponentSubstitutionError,
    NotDivisibleError,
)

_BASE_WIDTH = 16


class _Overflow(Exception):
    """A result exponent does not fit its slot; redo the operation wider."""


class _Layout:
    """The packing of exponent vectors of one arity in slots of one width."""

    __slots__ = ("r", "w", "half", "bias", "guard", "guards", "slots")

    def __init__(self, r: int, w: int):
        self.r, self.w = r, w
        self.half = 1 << (w - 1)  # slot value of exponent 0
        shifts = [(r - 1 - i) * w for i in range(r)]
        self.bias = sum(self.half << s for s in shifts)
        # the top bit of every slot, and the top two bits of every slot
        self.guard = sum(1 << (s + w - 1) for s in shifts)
        self.guards = self.guard | (self.guard >> 1)
        self.slots = tuple((s, ((1 << w) - 1) << s) for s in shifts)

    def pack(self, exps) -> int:
        k = sum(exps)
        for e in exps:
            k = (k << self.w) + e + self.half
        return k

    def unpack(self, k: int) -> tuple[int, ...]:
        half = self.half
        return tuple([((k & m) >> s) - half for s, m in self.slots])


@cache
def _layout(r: int, w: int) -> _Layout:
    return _Layout(r, w)


def _width_for(lo: int, hi: int) -> int:
    """The narrowest slot width holding every exponent in [lo, hi]."""
    need = max(-lo, hi + 1, 1) - 1
    w = _BASE_WIDTH
    while need.bit_length() > w - 2:
        w *= 2
    return w


def _fits(lay: _Layout, keys) -> bool:
    """Whether every slot of every key holds an exponent in
    [-2**(w-2), 2**(w-2)), i.e. its two guard bits differ."""
    g = lay.guard
    for k in keys:
        if (k ^ (k << 1)) & g != g:
            return False
    return True


def _slot_bounds(lay: _Layout, keys, bound) -> list[int]:
    """Per-variable ``bound`` (min or max) exponent over nonempty keys."""
    return [(bound(map(m.__and__, keys)) >> s) - lay.half for s, m in lay.slots]


def _new(lay: _Layout, terms: dict) -> "LaurentPoly":
    """The polynomial with these packed terms (no zero coefficients),
    re-packed at the narrowest width that holds them."""
    if lay.w > _BASE_WIDTH and terms:
        lo = min(_slot_bounds(lay, terms, min))
        hi = max(_slot_bounds(lay, terms, max))
        narrow = _layout(lay.r, _width_for(lo, hi))
        if narrow is not lay:
            terms = _repack(terms, lay, narrow)
            lay = narrow
    p = object.__new__(LaurentPoly)
    p.arity, p._lay, p.terms = lay.r, lay, terms
    return p


def _repack(terms: dict, old: _Layout, lay: _Layout) -> dict:
    if old is lay:
        return terms
    return {lay.pack(old.unpack(k)): c for k, c in terms.items()}


def _redo_wider(op, a: "LaurentPoly", b: "LaurentPoly") -> "LaurentPoly":
    """``op(layout, a_terms, b_terms)`` at the wider of the two widths,
    doubled until no result exponent overflows its slot."""
    lay = a._lay if a._lay.w >= b._lay.w else b._lay
    while True:
        try:
            return _new(lay, op(lay, _repack(a.terms, a._lay, lay), _repack(b.terms, b._lay, lay)))
        except _Overflow:
            lay = _layout(lay.r, 2 * lay.w)


def _add(lay: _Layout, a: dict, b: dict) -> dict:
    terms = dict(a)
    get = terms.get
    for k, c in b.items():
        terms[k] = get(k, 0) + c
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    return terms


def _mul(lay: _Layout, a: dict, b: dict) -> dict:
    terms: dict = {}
    get = terms.get
    b_items = [(k - lay.bias, c) for k, c in b.items()]
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
            terms[k] = get(k, 0) + c1 * c2
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    if not _fits(lay, terms):
        raise _Overflow
    return terms


class LaurentPoly:
    __slots__ = ("arity", "terms", "_lay")

    def __init__(self, arity: int, terms=None):
        """The polynomial sum coeff * y^exps over a map from exponent
        tuples to coefficients; zero coefficients are dropped."""
        clean = {tuple(e): c for e, c in terms.items() if c} if terms else {}
        if any(len(e) != arity for e in clean):
            raise ArityMismatchError(f"an exponent vector does not have {arity} entries")
        flat = [x for e in clean for x in e]
        lay = _layout(arity, _width_for(min(flat, default=0), max(flat, default=0)))
        self.arity, self._lay = arity, lay
        self.terms = {lay.pack(e): c for e, c in clean.items()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "LaurentPoly":
        return _new(_layout(arity, _BASE_WIDTH), {})

    @staticmethod
    def const(arity: int, c: int) -> "LaurentPoly":
        lay = _layout(arity, _BASE_WIDTH)
        return _new(lay, {lay.bias: c} if c else {})

    @staticmethod
    def one(arity: int) -> "LaurentPoly":
        return LaurentPoly.const(arity, 1)

    @staticmethod
    def variable(idx: int, arity: int) -> "LaurentPoly":
        """The variable y_{idx}, 0-based index."""
        if not (0 <= idx < arity):
            raise IndexError(f"variable index {idx} out of range 0..{arity - 1}")
        lay = _layout(arity, _BASE_WIDTH)
        return _new(lay, {lay.bias + (1 << arity * lay.w) + (1 << lay.slots[idx][0]): 1})

    @staticmethod
    def monomial(arity: int, exps, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(arity, {tuple(exps): coeff})

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_monomial(self) -> bool:
        """A single term with coefficient +-1 (invertible over Z)."""
        return len(self.terms) == 1 and next(iter(self.terms.values())) in (1, -1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.arity == other.arity
            and self._lay.w == other._lay.w
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

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
        if k < 0:
            return exact_div(LaurentPoly.one(self.arity), self ** (-k))
        result = LaurentPoly.one(self.arity)
        base = self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- inspection --------------------------------------------------------

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Leading (exponent, coefficient) in graded-lex order."""
        k = max(self.terms)
        return self._lay.unpack(k), self.terms[k]

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (0 if empty)."""
        if not self.terms:
            return (0,) * self.arity
        return tuple(_slot_bounds(self._lay, self.terms, min))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponent tuple, coefficient) pairs in descending graded-lex order."""
        unpack = self._lay.unpack
        return [(unpack(k), c) for k, c in sorted(self.terms.items(), reverse=True)]

    def __repr__(self) -> str:
        return f"LaurentPoly({to_text(self)})"


def _divide(lay: _Layout, num: dict, den: dict) -> dict:
    """The quotient num / den in the Laurent ring; NotDivisibleError if
    there is none.

    Both sides are shifted by their componentwise minimum exponents, so
    the question becomes polynomial long division: the remainder lives in
    a mutable dict with a lazy max-heap of negated keys over its monomials,
    and every term a subtraction creates is graded-lex smaller than the
    term just cancelled, so a popped key with a live coefficient is the
    true leading term.  Remainder exponents lie in [0, 2**(w-1)) and the
    shifted divisor's and each quotient term's in [0, 2**(w-2)), so no sum
    or difference below leaves its slot."""
    bias, guard, guards = lay.bias, lay.guard, lay.guards
    num_shift = bias - lay.pack(_slot_bounds(lay, num, min))
    den_shift = bias - lay.pack(_slot_bounds(lay, den, min))
    den = {k + den_shift: c for k, c in den.items()}
    if not _fits(lay, den):
        raise _Overflow
    lead = max(den)
    lead_c = den[lead]
    den_items = [(k - bias, c) for k, c in den.items()]
    rem = {k + num_shift: c for k, c in num.items()}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.get(k)
        if c is None:
            continue
        q = k - lead + bias
        if q & guards != guard:
            if q & guard != guard:  # an exponent of the quotient term is negative
                raise NotDivisibleError("nonzero remainder in exact division")
            raise _Overflow
        q_c, r = divmod(c, lead_c)
        if r:
            raise NotDivisibleError("nonzero remainder in exact division")
        quot[q] = q_c
        for dk, dc in den_items:
            t = q + dk
            if t in rem:
                v = rem[t] - q_c * dc
                if v:
                    rem[t] = v
                else:
                    del rem[t]
            else:
                heapq.heappush(heap, -t)
                rem[t] = -q_c * dc
    # Shifting back can push a slot past its range, even into its upper
    # neighbour; such a slot then reads 00 or 11 in its guard bits.
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
    # At y = (1, ..., 1) and y = (-1, ..., -1), q * den = num reads
    # q(y) * den(y) = num(y): cheap necessary tests, so a hopeless division
    # is refused before it runs.
    for num_y, den_y in zip(_values_at_pm_one(num), _values_at_pm_one(den)):
        if (num_y % den_y if den_y else num_y):
            raise NotDivisibleError("nonzero remainder in exact division")
    return _redo_wider(_divide, num, den)


def _values_at_pm_one(p: LaurentPoly) -> tuple[int, int]:
    """p(1, ..., 1) and p(-1, ..., -1).  A term's sign at -1 is the parity
    of its total degree, the top of its packed key."""
    shift = p.arity * p._lay.w
    at_1 = sum(p.terms.values())
    odd = sum([c for k, c in p.terms.items() if k >> shift & 1])
    return at_1, at_1 - 2 * odd


def substitute(p: LaurentPoly, images: list[LaurentPoly]) -> LaurentPoly:
    """Substitute variable i by images[i] for every i, exactly.

    Variables occurring with negative exponents must map to unit monomials.
    All images share one target arity.
    """
    if len(images) != p.arity:
        raise ArityMismatchError(
            f"need {p.arity} images, got {len(images)}"
        )
    target = images[0].arity
    for img in images:
        if img.arity != target:
            raise ArityMismatchError("images have mixed arities")
    mins = p.min_exponents()
    for i, m in enumerate(mins):
        if m < 0 and not images[i].is_unit_monomial():
            raise NegativeExponentSubstitutionError(
                f"variable {i} occurs with negative exponent but its image "
                "is not a unit monomial"
            )
    result = LaurentPoly.zero(target)
    for exps, coeff in p.sorted_terms():
        term = LaurentPoly.const(target, coeff)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            if e > 0:
                term = term * images[i] ** e
            else:
                m_exps, m_coeff = images[i].leading()
                inv = LaurentPoly.monomial(target, tuple(-x for x in m_exps), m_coeff)
                term = term * inv ** (-e)
        result = result + term
    return result


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


def to_json_terms(p: LaurentPoly) -> dict:
    """JSON term map: ','-joined exponent vector -> coefficient string."""
    return {
        ",".join(map(str, exps)): str(coeff)
        for exps, coeff in p.sorted_terms()
    }


def from_json_terms(arity: int, data: dict) -> LaurentPoly:
    terms = {}
    for key, val in data.items():
        exps = tuple(int(x) for x in key.split(",")) if key else ()
        if len(exps) != arity:
            raise ArityMismatchError(f"exponent vector {key!r} has wrong length")
        terms[exps] = int(val)
    return LaurentPoly(arity, terms)
