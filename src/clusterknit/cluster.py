"""Seeds, seed mutation, and the two dimension-vector mutation calculi.

A seed carries r cluster variables (exact Laurent polynomials in the r
initial variables), the exchange matrix, and optional per-vertex trackers:
the interval label, the dimension vector of Hom(-, T_M) and the
Delta-dimension vector.  Seeds are immutable; mutation returns a new seed.

Tracker rows are held packed, one int per row (``_RowLayout``), so that a
mutation step sums, compares and subtracts whole rows with a few int
operations; ``Seed.dim_trackers`` and ``Seed.delta_trackers`` read them
back as tuples of tuples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cache
from operator import mul

from . import exchange as ex
from . import mesh
from .errors import AmbiguityError, SeedFormatError
from .laurent import (
    LaurentPoly,
    exact_div,
    from_json_terms,
    to_json_terms,
    to_text,
)
from .quiver import Quiver


_ROW_GUARD = 8  # guard bits per slot of a packed tracker row


class _RowLayout:
    """The packing of tracker rows of r entries into one int each, in w-bit
    slots (w a multiple of 8), entry 0 highest.  With g guard bits and
    L = 2**(w-g), an entry e in [-L, L) is stored as e + L: every stored
    slot lies in [0, 2L), so its top g - 1 bits are clear.

    A sum of rows of total multiplicity m <= 2**(g-2) (``span``) holds each
    slot's sum in [0, 2mL), below the slot's top bit, so it is exact with
    no check, and two such sums, brought to the same offset, compare slot by
    slot in one subtraction (``_at_least``).  A result whose slots should
    read e + L is exact when each lies in [0, 2L), which ``fits`` reads from
    the bits above 2L: the lowest slot outside that range takes no borrow
    from below, so its own bits show it there, a negative one wrapped to
    just under 2**w."""

    __slots__ = ("r", "w", "g", "low", "span", "lows", "top", "high", "size", "words")

    def __init__(self, r: int, w: int, g: int):
        self.r, self.w, self.g = r, w, g
        self.low = 1 << (w - g)  # L
        self.span = 1 << (g - 2)
        ones = sum(1 << (i * w) for i in range(r))
        self.lows = ones << (w - g)  # L in every slot: the packed zero row
        self.top = ones << (w - 1)  # the top bit of every slot
        self.high = ((1 << w) - (1 << (w - g + 1))) * ones  # the bits above 2L
        self.size = w // 8  # bytes per slot
        # slots of 2, 4 or 8 bytes are machine words that struct reads and writes
        fmt = {2: "H", 4: "I", 8: "Q"}.get(self.size)
        self.words = struct.Struct(f">{r}{fmt}") if fmt else None

    def pack(self, row) -> int:
        low = self.low
        if self.words:
            data = self.words.pack(*[e + low for e in row])
        else:
            data = b"".join([(e + low).to_bytes(self.size, "big") for e in row])
        return int.from_bytes(data, "big")

    def slots(self, p: int):
        """The stored slot values of a packed row, entry 0 first."""
        size, data = self.size, p.to_bytes(self.r * self.size, "big")
        if self.words:
            return self.words.unpack(data)
        return [int.from_bytes(data[i : i + size], "big") for i in range(0, len(data), size)]

    def unpack(self, p: int) -> tuple:
        return tuple(map(self.low.__rsub__, self.slots(p)))

    def fits(self, p: int) -> bool:
        return not p & self.high

    def wider(self) -> "_RowLayout":
        """Half again as many bits per slot, for values that outgrew these."""
        return _row_layout(self.r, -(-self.w * 3 // 16) * 8, self.g)

    def spanning(self, m: int) -> "_RowLayout":
        """Enough guard bits to sum sides of total multiplicity m, added to
        the slots, so that the stored values still fit."""
        g = 2 + (m - 1).bit_length()
        return _row_layout(self.r, -(-(self.w + g - self.g) // 8) * 8, g)


@cache
def _row_layout(r: int, w: int, g: int) -> _RowLayout:
    return _RowLayout(r, w, g)


class _Rows:
    """Tracker rows packed by one layout, read back as a tuple of tuples on
    demand.  Delta rows also keep each row's dot product with d_Delta, once
    the Delta rule has needed them."""

    __slots__ = ("lay", "ints", "dots", "_view")

    def __init__(self, lay: _RowLayout, ints: tuple, dots=None, view=None):
        self.lay, self.ints, self.dots, self._view = lay, ints, dots, view

    @staticmethod
    def of(rows) -> "_Rows":
        rows = tuple(map(tuple, rows))
        r = len(rows[0]) if rows else 0
        if any(len(row) != r for row in rows):
            raise SeedFormatError("tracker rows must have equal lengths")
        need = max(-min(map(min, rows), default=0), max(map(max, rows), default=0) + 1, 1)
        w = max(16, -(-((need - 1).bit_length() + _ROW_GUARD) // 8) * 8)
        lay = _row_layout(r, w, _ROW_GUARD)
        return _Rows(lay, tuple(map(lay.pack, rows)), view=rows)

    def view(self) -> tuple:
        if self._view is None:
            self._view = tuple(map(self.lay.unpack, self.ints))
        return self._view

    def row(self, k: int) -> tuple:
        """Row k (1-based), unpacked alone."""
        return self.lay.unpack(self.ints[k - 1]) if self._view is None else self._view[k - 1]

    def spanning(self, m: int) -> "_Rows":
        """These rows, repacked if a side of total multiplicity m needs
        more guard bits."""
        return self if m <= self.lay.span else self.at(self.lay.spanning(m))

    def at(self, lay: _RowLayout) -> "_Rows":
        """These rows repacked by a wider layout."""
        return _Rows(lay, tuple(lay.pack(row) for row in self.view()), self.dots, self._view)

    def replaced(self, k: int, p: int, dot=None) -> "_Rows":
        """These rows with row k replaced by the packed row p, and its dot
        product by ``dot`` where they are kept."""
        ints = self.ints[: k - 1] + (p,) + self.ints[k:]
        dots = None if dot is None else self.dots[: k - 1] + (dot,) + self.dots[k:]
        return _Rows(self.lay, ints, dots)


class _Trackers:
    """A ``Seed`` field of tracker rows: held as ``_Rows`` in the attribute
    named with a leading underscore, set from ``_Rows`` or from a tuple of
    tuples, and read as a tuple of tuples."""

    def __set_name__(self, owner, name):
        self.packed = "_" + name

    def __get__(self, s, owner=None):
        if s is None:
            return None  # the field's default
        rows = getattr(s, self.packed)
        return None if rows is None else rows.view()

    def __set__(self, s, value):
        if value is not None and not isinstance(value, _Rows):
            value = _Rows.of(value)
        object.__setattr__(s, self.packed, value)


@dataclass(frozen=True)
class Seed:
    matrix: ex.ExchangeMatrix
    vars: tuple | None = None
    labels: tuple | None = None
    dim_trackers: tuple | None = _Trackers()
    delta_trackers: tuple | None = _Trackers()
    d_delta: tuple | None = None
    # Whether the mutation that made this seed was Max-dominated: one
    # dimension arrow-sum dominated the other componentwise.  True for a
    # seed that no mutation made and for a seed without dimension trackers.
    dominated: bool = field(default=True, compare=False)

    @property
    def r(self) -> int:
        return self.matrix.r

    def var_name(self, p: int) -> str:
        """The name of the variable at position p (1-based): its label, or
        ``y<p>`` where it has none."""
        label = None if self.labels is None else self.labels[p - 1]
        return f"y{p}" if label is None else repr(label)


def initial_seed(cat: mesh.CategoryModel, ordering=None, with_vars: bool = True) -> Seed:
    """Seed of T_M: fresh indeterminates labeled T_{i,[a,t_i]}, exchange
    matrix B(Gamma_M^*), frozen at the n vertices with a = 0, and both
    trackers filled from the mesh data.  Seed position s holds the vertex
    ``ordering[s]`` (canonical when omitted)."""
    positions = mesh.validate_ordering(cat, cat.vertices if ordering is None else ordering)
    r = cat.r
    seat = sorted(range(r), key=positions.__getitem__)  # canonical position -> seed position
    arrows = tuple(sorted((seat[u - 1] + 1, seat[v - 1] + 1) for (u, v) in cat.gammaMStar.arrows))
    ordered = [cat.vertices[p] for p in positions]
    frozen = frozenset(s for s, (_, a) in enumerate(ordered, 1) if a == 0)
    t_of = cat.terminal.level
    labels = tuple(mesh.IntervalLabel(i, a, t_of(i)) for i, a in ordered)
    variables = (
        tuple(LaurentPoly.variable(k, r) for k in range(r)) if with_vars else None
    )
    dims = mesh.top_dimvecs(cat, positions)
    return Seed(
        matrix=ex.b_matrix(Quiver(r, arrows), frozen),
        vars=variables,
        labels=labels,
        dim_trackers=tuple(dims[p] for p in positions),
        delta_trackers=tuple(mesh.delta_support(cat, l, positions) for l in labels),
        d_delta=mesh.delta_dims(cat, positions),
    )


def _replace_at(values: tuple, k: int, value) -> tuple:
    """``values`` with entry k (1-based) replaced by ``value``."""
    return values[: k - 1] + (value,) + values[k:]


def _side_sum(ints, side) -> int:
    """The packed rows at the positions of an exchange side, summed with
    their multiplicities: each slot holds the entries' sum plus mL, for the
    side's total multiplicity m.  A lone row of multiplicity 1 is returned
    as it is."""
    total = None
    for i, m in side.items():
        row = ints[i - 1] if m == 1 else m * ints[i - 1]
        total = row if total is None else total + row
    return 0 if total is None else total


def _side_sums(lay: _RowLayout, ints, out, inc, m_out: int, m_in: int):
    """Both side sums at the offset mL of the larger total multiplicity."""
    a, b = _side_sum(ints, out), _side_sum(ints, inc)
    if m_out < m_in:
        a += (m_in - m_out) * lay.lows
    elif m_in < m_out:
        b += (m_out - m_in) * lay.lows
    return a, b


def _at_least(lay: _RowLayout, a: int, b: int) -> bool:
    """Whether every slot of a is at least that of b, for slots below their
    top bit: then ``(a | top) - b`` borrows across no slot, and keeps a
    slot's top bit exactly where a's slot is at least b's."""
    return (a | lay.top) - b & lay.top == lay.top


def _max(lay: _RowLayout, a: int, b: int) -> int:
    """The slotwise maximum of a and b, for slots below their top bit."""
    ge = (a | lay.top) - b & lay.top
    return b ^ (a ^ b) & (ge << 1) - (ge >> lay.w - 1)


def _dim_rule(rows: _Rows, k: int, out, inc):
    """d_k* = -d_k + max(out-sum, in-sum), componentwise, and whether one
    arrow-sum dominates the other componentwise, i.e. whether Max could
    replace max.  A dominating side that differs from the other has the
    larger total, so only an undominated pair can tie.  Redone at a wider
    layout while d_k* does not fit its slots."""
    m_out, m_in = sum(out.values()), sum(inc.values())
    m = max(m_out, m_in)
    rows = rows.spanning(m)
    while True:
        lay, ints = rows.lay, rows.ints
        a, b = _side_sums(lay, ints, out, inc, m_out, m_in)
        dominated = True
        if _at_least(lay, a, b):
            cmax = a
        elif _at_least(lay, b, a):
            cmax = b
        elif sum(lay.slots(a)) == sum(lay.slots(b)):
            raise AmbiguityError(f"tied arrow-sums at vertex {k} disagree")
        else:
            cmax, dominated = _max(lay, a, b), False
        new = cmax - ints[k - 1] - (m - 2) * lay.lows
        if lay.fits(new):
            return rows.replaced(k, new), dominated
        rows = rows.at(lay.wider())


def _delta_rule(rows: _Rows, d_delta, k: int, out, inc) -> _Rows:
    """Delta*_k = -Delta_k + the arrow-sum whose dot product with d_Delta
    is larger (equivalently, the branch keeping every entry nonnegative).
    A side's dot product is the sum of its rows' own, which the rows keep;
    equal dot products need equal sums.  Redone at a wider layout while
    Delta*_k does not fit its slots."""
    if d_delta is None:
        raise SeedFormatError("no d_Delta vector available")
    if rows.dots is None:
        rows.dots = tuple(sum(map(mul, row, d_delta)) for row in rows.view())
    dots = rows.dots
    dot_out = sum([m * dots[i - 1] for i, m in out.items()])
    dot_in = sum([m * dots[i - 1] for i, m in inc.items()])
    m_out, m_in = sum(out.values()), sum(inc.values())
    rows = rows.spanning(max(m_out, m_in))
    if dot_out > dot_in:
        side, dot, m = out, dot_out, m_out
    elif dot_in > dot_out:
        side, dot, m = inc, dot_in, m_in
    else:
        a, b = _side_sums(rows.lay, rows.ints, out, inc, m_out, m_in)
        if a != b:
            raise AmbiguityError(f"tied Delta arrow-sums at vertex {k} disagree")
        side, dot, m = out, dot_out, m_out
    while True:
        lay, ints = rows.lay, rows.ints
        new = _side_sum(ints, side) - ints[k - 1] - (m - 2) * lay.lows
        if lay.fits(new):
            return rows.replaced(k, new, dot - dots[k - 1])
        rows = rows.at(lay.wider())


def _exchange_quotient(s: Seed, k: int, out, inc) -> LaurentPoly:
    """(prod_out + prod_in) / y_k, divided exactly."""

    def product(side):
        p = None
        for i, m in side.items():
            f = s.vars[i - 1] ** m
            p = f if p is None else p * f
        return LaurentPoly.one(s.r) if p is None else p

    return exact_div(product(out) + product(inc), s.vars[k - 1])


class ExchangeMemo:
    """The exchange relations one walk has divided out, and the text of
    each variable and tracker row it has printed, all keyed by value (a
    packed row with its layout).

    A relation's key is the old variable at k and both sides as
    ``((variable, multiplicity), ...)`` in position order; its value is the
    new variable, which the key determines.  Mutation is an involution, so
    the quotient y_k' of (y_k, out, in) also gives the exact entry
    (y_k', in, out) -> y_k, the relation that mutating back at k meets.
    A memo lives as long as the walk that owns it."""

    __slots__ = ("quotients", "variables", "texts")

    def __init__(self):
        self.quotients: dict = {}
        self.variables: dict = {}
        self.texts: dict = {}

    def quotient(self, s: Seed, k: int, out, inc) -> LaurentPoly:
        old = s.vars[k - 1]
        out_key = tuple((s.vars[i - 1], m) for i, m in out.items())
        in_key = tuple((s.vars[i - 1], m) for i, m in inc.items())
        new = self.quotients.get((old, out_key, in_key))
        if new is None:
            # one object per value, so later keys mostly match by identity
            new = _exchange_quotient(s, k, out, inc)
            new = self.variables.setdefault(new, new)
            self.quotients[old, out_key, in_key] = new
            self.quotients[new, in_key, out_key] = old
        return new

    def text(self, p: LaurentPoly) -> str:
        text = self.texts.get(p)
        if text is None:
            text = self.texts[p] = to_text(p)
        return text

    def row_text(self, rows: _Rows, k: int) -> str:
        key = rows.lay, rows.ints[k - 1]
        text = self.texts.get(key)
        if text is None:
            text = self.texts[key] = str(list(rows.row(k)))
        return text


def mutate_seed(s: Seed, k: int, new_label=None, sides=None, memo: ExchangeMemo | None = None) -> Seed:
    """Replace y_k by (prod_out + prod_in) / y_k, mutate the matrix and the
    trackers, and record in ``dominated`` whether the dimension rule was
    Max-dominated.  The label at k becomes ``new_label`` (callers walking
    the explicit schedule pass the shifted interval; off schedule the new
    label is unknown).  ``sides`` are the exchange sides at k, where the
    caller has read them already; a walk's ``memo`` supplies each relation
    it has met before."""
    out, inc = ex.arrows_at(s.matrix, k) if sides is None else sides
    matrix = ex.mutate_matrix(s.matrix, k)
    variables, dim, delta, dominated = s.vars, s._dim_trackers, s._delta_trackers, True
    if variables is not None:
        new_var = (
            _exchange_quotient(s, k, out, inc) if memo is None else memo.quotient(s, k, out, inc)
        )
        variables = _replace_at(variables, k, new_var)
    if dim is not None:
        dim, dominated = _dim_rule(dim, k, out, inc)
    if delta is not None:
        delta = _delta_rule(delta, s.d_delta, k, out, inc)
    labels = None if s.labels is None else _replace_at(s.labels, k, new_label)
    return Seed(
        matrix=matrix,
        vars=variables,
        labels=labels,
        dim_trackers=dim,
        delta_trackers=delta,
        d_delta=s.d_delta,
        dominated=dominated,
    )


def to_json(s: Seed) -> dict:
    data: dict = {"r": s.r, "matrix": ex.to_json(s.matrix)}
    if s.vars is not None:
        data["vars"] = [to_json_terms(v) for v in s.vars]
    if s.labels is not None:
        data["labels"] = [None if l is None else list(l) for l in s.labels]
    if s.dim_trackers is not None:
        data["dim_trackers"] = [list(v) for v in s.dim_trackers]
    if s.delta_trackers is not None:
        data["delta_trackers"] = [list(v) for v in s.delta_trackers]
    if s.d_delta is not None:
        data["d_delta"] = list(s.d_delta)
    return data


def _sized(value, r: int, what: str):
    if not isinstance(value, (list, tuple)) or len(value) != r:
        raise SeedFormatError(f"{what} must be a list of {r} entries")
    return value


def _ints(value, r: int, what: str) -> tuple:
    """``value`` as a tuple of r ints (JSON true and false are not ints)."""
    if any(type(x) is not int for x in _sized(value, r, what)):
        raise SeedFormatError(f"{what} must hold integers")
    return tuple(value)


def from_json(data: dict) -> Seed:
    """The seed of ``to_json``, checked: it is an object with ``matrix`` and
    an integer ``r``, the matrix has square integer rows and frozen indices
    in range, r is its size, ``vars``, ``labels`` and both trackers have r
    entries, each variable is a nonzero term map with
    integer coefficients, each tracker row and ``d_delta`` are r integers,
    each label is three integers, and Delta trackers come with
    ``d_delta``."""
    if not isinstance(data, dict) or "matrix" not in data or type(data.get("r")) is not int:
        raise SeedFormatError("a seed must be an object with a matrix and an integer r")
    matrix = ex.from_json(data["matrix"])
    r = data["r"]
    if r != matrix.r:
        raise SeedFormatError(f"r = {r!r}, but the matrix is {matrix.r} x {matrix.r}")
    if "delta_trackers" in data and "d_delta" not in data:
        raise SeedFormatError("delta_trackers given without d_delta")
    variables = None
    if "vars" in data:
        term_maps = _sized(data["vars"], r, "vars")
        # int() would truncate a float coefficient
        if any(
            not isinstance(v, dict) or any(type(c) not in (str, int) for c in v.values())
            for v in term_maps
        ):
            raise SeedFormatError("each of vars must map exponent strings to integer coefficients")
        variables = tuple(from_json_terms(r, v) for v in term_maps)
        if any(v.is_zero() for v in variables):
            raise SeedFormatError("a cluster variable is zero")
    labels = None
    if "labels" in data:
        labels = tuple(
            mesh.IntervalLabel(*_ints(l, 3, "a label")) if l is not None else None
            for l in _sized(data["labels"], r, "labels")
        )
    trackers = {
        key: tuple(_ints(v, r, f"a row of {key}") for v in _sized(data[key], r, key))
        for key in ("dim_trackers", "delta_trackers")
        if key in data
    }
    d_delta = _ints(data["d_delta"], r, "d_delta") if "d_delta" in data else None
    return Seed(matrix=matrix, vars=variables, labels=labels, d_delta=d_delta, **trackers)


def monomial_text(factors) -> str:
    """(name, multiplicity) pairs, in order, as ``a*b^m``; ``1`` if none."""
    text = "*".join(name if m == 1 else f"{name}^{m}" for name, m in factors)
    return text or "1"


def relation_monomials(s: Seed, k: int, sides=None) -> str:
    """The exchange relation at k, written in the seed's variable names;
    ``sides`` as for ``mutate_seed``."""
    out, inc = ex.arrows_at(s.matrix, k) if sides is None else sides

    def fmt(side):
        return monomial_text((s.var_name(i), m) for i, m in side.items())

    name = s.var_name(k)
    return f"{name}' * {name} = {fmt(out)} + {fmt(inc)}"


def trace_line(s: Seed, k: int, new_s: Seed, sides=None, memo: ExchangeMemo | None = None) -> str:
    """One mutation-trace line: vertex, relation, new trackers; ``sides``
    and ``memo`` as for ``mutate_seed``."""
    parts = [f"mu_{k}", relation_monomials(s, k, sides)]
    if new_s.vars is not None:
        var = new_s.vars[k - 1]
        parts.append(f"var = {to_text(var) if memo is None else memo.text(var)}")
    for name, rows in (("d", new_s._dim_trackers), ("dDelta", new_s._delta_trackers)):
        if rows is not None:
            parts.append(f"{name} = {list(rows.row(k)) if memo is None else memo.row_text(rows, k)}")
    return "  ".join(parts)
