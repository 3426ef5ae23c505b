"""Exact multivariate Laurent polynomials with integer coefficients.

Terms live in a sparse map from dense exponent tuples (entries may be
negative) to arbitrary-precision ints.  Zero coefficients are never stored
and the monomial order is graded lexicographic, so structural equality is
mathematical equality and printing is canonical.
"""

from __future__ import annotations

import heapq

from .errors import (
    ArityMismatchError,
    NegativeExponentSubstitutionError,
    NotDivisibleError,
)


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class LaurentPoly:
    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "LaurentPoly":
        return LaurentPoly(arity, {})

    @staticmethod
    def const(arity: int, c: int) -> "LaurentPoly":
        return LaurentPoly(arity, {(0,) * arity: c})

    @staticmethod
    def one(arity: int) -> "LaurentPoly":
        return LaurentPoly.const(arity, 1)

    @staticmethod
    def variable(idx: int, arity: int) -> "LaurentPoly":
        """The variable y_{idx}, 0-based index."""
        if not (0 <= idx < arity):
            raise IndexError(f"variable index {idx} out of range 0..{arity - 1}")
        exps = tuple(1 if i == idx else 0 for i in range(arity))
        return LaurentPoly(arity, {exps: 1})

    @staticmethod
    def monomial(arity: int, exps, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(arity, {tuple(exps): coeff})

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.arity: 1}

    def is_unit_monomial(self) -> bool:
        """A single term with coefficient +-1 (invertible over Z)."""
        return len(self.terms) == 1 and next(iter(self.terms.values())) in (1, -1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.arity == other.arity
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
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return LaurentPoly(self.arity, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_arity(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return LaurentPoly(self.arity, terms)

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly(self.arity, {e: c * v for e, v in self.terms.items()})

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
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (0 if empty)."""
        if not self.terms:
            return (0,) * self.arity
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return f"LaurentPoly({to_text(self)})"


def _shift(p: LaurentPoly, offsets: tuple[int, ...]) -> LaurentPoly:
    return LaurentPoly(
        p.arity,
        {tuple(a + b for a, b in zip(e, offsets)): c for e, c in p.terms.items()},
    )


def _heap_key(exps: tuple[int, ...]):
    # min-heap entry that pops graded-lex-largest first
    return (-sum(exps), tuple(-x for x in exps), exps)


def _poly_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Long division of genuine polynomials; exact or NotDivisibleError.

    The remainder lives in a mutable dict with a lazy max-heap over its
    monomials: every term created by a subtraction is graded-lex smaller
    than the term just cancelled, so popped entries with a live coefficient
    are true leading terms."""
    den_lead_exps, den_lead_coeff = den.leading()
    den_items = list(den.terms.items())
    rem = dict(num.terms)
    quot: dict = {}
    heap = [_heap_key(e) for e in rem]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[2]
        c = rem.get(e, 0)
        if not c:
            continue
        q_exps = tuple(a - b for a, b in zip(e, den_lead_exps))
        if any(x < 0 for x in q_exps) or c % den_lead_coeff != 0:
            raise NotDivisibleError("nonzero remainder in exact division")
        q_c = c // den_lead_coeff
        quot[q_exps] = q_c
        for (de, dc) in den_items:
            te = tuple(a + b for a, b in zip(q_exps, de))
            nv = rem.get(te, 0) - q_c * dc
            if nv:
                if te not in rem:
                    heapq.heappush(heap, _heap_key(te))
                rem[te] = nv
            else:
                rem.pop(te, None)
    return LaurentPoly(num.arity, quot)


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
    # strip full monomial content; q is Laurent-divisible iff the stripped
    # parts divide in the plain polynomial ring
    num_min = num.min_exponents()
    den_min = den.min_exponents()
    quot = _poly_divide(
        _shift(num, tuple(-m for m in num_min)),
        _shift(den, tuple(-m for m in den_min)),
    )
    return _shift(quot, tuple(n - d for n, d in zip(num_min, den_min)))


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
    # precompute powers lazily per variable
    result = LaurentPoly.zero(target)
    for exps, coeff in p.terms.items():
        term = LaurentPoly.const(target, coeff)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            if e > 0:
                term = term * images[i] ** e
            else:
                (m_exps, m_coeff) = next(iter(images[i].terms.items()))
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
        ",".join(str(e) for e in exps): str(coeff)
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
