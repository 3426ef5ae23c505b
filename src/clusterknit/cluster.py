"""Seeds, seed mutation, and the two dimension-vector mutation calculi.

A seed carries r cluster variables (exact Laurent polynomials in the r
initial variables), the exchange matrix, and optional per-vertex trackers:
the interval label, the dimension vector of Hom(-, T_M) and the
Delta-dimension vector.  Seeds are immutable; mutation returns a new seed.

Tracker rows are held packed, one int per row (a ``packing.Layout``), so
that a mutation step sums, compares and subtracts whole rows with a few int
operations; ``Seed.dim_trackers`` and ``Seed.delta_trackers`` read them
back as tuples of tuples.  A sum of rows of total multiplicity
m <= 2**(g-2) holds each slot's sum in [0, 2mL), below the slot's top bit,
so it is exact with no check, and two such sums, brought to the same
offset, compare slot by slot.  A side of larger total multiplicity first
takes more guard bits (``_Rows.spanning``).
"""

from __future__ import annotations

from operator import mul

from . import exchange as ex
from .errors import AmbiguityError, SeedFormatError
from .labels import IntervalLabel, LabelTexts
from .packing import Layout, fitting, layout


_ROW_GUARD = 8  # guard bits per slot of a packed tracker row


class _Rows:
    """Tracker rows packed by one layout, read back as a tuple of tuples on
    demand.  Delta rows also keep each row's dot product with d_Delta, once
    the Delta rule has needed them."""

    __slots__ = ("lay", "ints", "dots", "_view")

    def __init__(self, lay: Layout, ints: tuple, dots=None, view=None):
        self.lay, self.ints, self.dots, self._view = lay, ints, dots, view

    @staticmethod
    def of(rows) -> "_Rows":
        rows = tuple(map(tuple, rows))
        r = len(rows[0]) if rows else 0
        if any(len(row) != r for row in rows):
            raise SeedFormatError("tracker rows must have equal lengths")
        lay = fitting(r, min(map(min, rows), default=0), max(map(max, rows), default=0), _ROW_GUARD)
        return _Rows(lay, tuple(map(lay.pack, rows)), view=rows)

    def view(self) -> tuple:
        if self._view is None:
            self._view = tuple(map(self.lay.unpack, self.ints))
        return self._view

    def row(self, k: int) -> tuple:
        """Row k (1-based), unpacked alone."""
        return self.lay.unpack(self.ints[k - 1]) if self._view is None else self._view[k - 1]

    def spanning(self, m: int) -> "_Rows":
        """These rows, repacked with more guard bits, added to the slots so
        that the stored values still fit, if a side of total multiplicity m
        needs them."""
        lay = self.lay
        if m <= 1 << lay.g - 2:
            return self
        g = 2 + (m - 1).bit_length()
        return self.at(layout(lay.r, -(-(lay.w + g - lay.g) // 8) * 8, g))

    def at(self, lay: Layout) -> "_Rows":
        """These rows repacked by a wider layout."""
        return _Rows(lay, tuple(lay.pack(row) for row in self.view()), self.dots, self._view)

    def replaced(self, k: int, p: int, dot=None) -> "_Rows":
        """These rows with row k replaced by the packed row p, and its dot
        product by ``dot`` where they are kept."""
        ints = self.ints[: k - 1] + (p,) + self.ints[k:]
        dots = None if dot is None else self.dots[: k - 1] + (dot,) + self.dots[k:]
        return _Rows(self.lay, ints, dots)


def _packed(rows):
    """Tracker rows given as ``_Rows`` or as a tuple of tuples, as ``_Rows``."""
    return rows if rows is None or isinstance(rows, _Rows) else _Rows.of(rows)


class _Trackers:
    """A ``Seed`` field of tracker rows: held as ``_Rows`` in the attribute
    named with a leading underscore, and read as a tuple of tuples."""

    def __set_name__(self, owner, name):
        self.packed = "_" + name

    def __get__(self, s, owner=None):
        rows = getattr(s, self.packed)
        return None if rows is None else rows.view()


class Seed:
    """``dominated`` records whether the mutation that made this seed was
    Max-dominated: one dimension arrow-sum dominated the other
    componentwise.  It is True for a seed that no mutation made and for a
    seed without dimension trackers, and equality ignores it."""

    __slots__ = ("matrix", "vars", "labels", "_dim_trackers", "_delta_trackers", "d_delta", "dominated")
    dim_trackers = _Trackers()
    delta_trackers = _Trackers()

    def __init__(self, matrix: ex.ExchangeMatrix, vars=None, labels=None, dim_trackers=None,
                 delta_trackers=None, d_delta=None, dominated: bool = True):
        self.matrix, self.vars, self.labels, self.d_delta = matrix, vars, labels, d_delta
        self._dim_trackers, self._delta_trackers = _packed(dim_trackers), _packed(delta_trackers)
        self.dominated = dominated

    def _key(self) -> tuple:
        return (self.matrix, self.vars, self.labels, self.dim_trackers, self.delta_trackers,
                self.d_delta)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, Seed) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def r(self) -> int:
        return self.matrix.r


def initial_seed(cat: mesh.CategoryModel, ordering=None, with_vars: bool = True) -> Seed:
    """Seed of T_M: fresh indeterminates labeled T_{i,[a,t_i]}, exchange
    matrix B(Gamma_M^*), frozen at the n vertices with a = 0, and both
    trackers filled from the mesh data.  Seed position s holds the vertex
    ``ordering[s]`` (canonical when omitted)."""
    from . import mesh
    from .quiver import Quiver

    positions = mesh.validate_ordering(cat, cat.vertices if ordering is None else ordering)
    r = cat.r
    seat = sorted(range(r), key=positions.__getitem__)  # canonical position -> seed position
    arrows = tuple(sorted((seat[u - 1] + 1, seat[v - 1] + 1) for (u, v) in cat.gammaMStar.arrows))
    ordered = [cat.vertices[p] for p in positions]
    frozen = frozenset(s for s, (_, a) in enumerate(ordered, 1) if a == 0)
    t_of = cat.terminal.level
    labels = tuple(IntervalLabel(i, a, t_of(i)) for i, a in ordered)
    variables = None
    if with_vars:
        from .laurent import LaurentPoly

        variables = tuple(LaurentPoly.variable(k, r) for k in range(r))
    dims = mesh.top_dimvecs(cat, positions)
    return Seed(matrix=ex.b_matrix(Quiver(r, arrows), frozen), vars=variables, labels=labels,
                dim_trackers=tuple(dims[p] for p in positions),
                delta_trackers=tuple(mesh.delta_support(cat, l, positions) for l in labels),
                d_delta=mesh.delta_dims(cat, positions))


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


def _side_sums(lay: Layout, ints, out, inc, m_out: int, m_in: int):
    """Both side sums at the offset mL of the larger total multiplicity."""
    a, b = _side_sum(ints, out), _side_sum(ints, inc)
    if m_out < m_in:
        a += (m_in - m_out) * lay.lows
    elif m_in < m_out:
        b += (m_out - m_in) * lay.lows
    return a, b


def _dim_rule(rows: _Rows, k: int, out, inc, m_out: int, m_in: int):
    """d_k* = -d_k + max(out-sum, in-sum), componentwise, and whether one
    arrow-sum dominates the other componentwise, i.e. whether Max could
    replace max.  A dominating side that differs from the other has the
    larger total, so only an undominated pair can tie.  Redone at a wider
    layout while d_k* does not fit its slots."""
    m = max(m_out, m_in)
    rows = rows.spanning(m)
    while True:
        lay, ints = rows.lay, rows.ints
        a, b = _side_sums(lay, ints, out, inc, m_out, m_in)
        dominated = True
        if lay.at_least(a, b):
            cmax = a
        elif lay.at_least(b, a):
            cmax = b
        elif sum(lay.slots(a)) == sum(lay.slots(b)):
            raise AmbiguityError(f"tied arrow-sums at vertex {k} disagree")
        else:
            cmax, dominated = lay.max(a, b), False
        new = cmax - ints[k - 1] - (m - 2) * lay.lows
        if lay.fits(new):
            return rows.replaced(k, new), dominated
        rows = rows.at(lay.wider())


def _delta_rule(rows: _Rows, d_delta, k: int, out, inc, m_out: int, m_in: int) -> _Rows:
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
    from .laurent import LaurentPoly, exact_div

    def product(side):
        p = None
        for i, m in side.items():
            f = s.vars[i - 1] ** m
            p = f if p is None else p * f
        return LaurentPoly.one(s.r) if p is None else p

    return exact_div(product(out) + product(inc), s.vars[k - 1])


def side_counts(values, side) -> dict:
    """An exchange side {position: multiplicity} as {value: total
    multiplicity}, each position read as its entry of ``values`` (the
    variables or the labels): equal values at two positions add up."""
    counts: dict = {}
    for i, m in side.items():
        v = values[i - 1]
        counts[v] = counts.get(v, 0) + m
    return counts


class ExchangeMemo:
    """The exchange relations one walk has divided out, and the text of
    each variable, tracker row and position name it has printed, all keyed
    by value (a packed row with its layout).

    A relation's key is the old variable at k and both sides as multisets
    (``side_counts`` as a ``frozenset``), so a relation met again with its
    variables at other positions is not divided again; its value is the new
    variable, which the key determines.  Mutation is an involution, so the
    quotient y_k' of (y_k, out, in) also gives the exact entry
    (y_k', in, out) -> y_k, the relation that mutating back at k meets: each
    exchange pair is divided once.  A memo lives as long as the walk that
    owns it."""

    __slots__ = ("quotients", "variables", "texts", "names")

    def __init__(self):
        self.quotients: dict = {}
        self.variables: dict = {}
        self.texts: dict = {}
        self.names = LabelTexts()  # position names, keyed by label or by unlabelled position

    def quotient(self, s: Seed, k: int, out, inc) -> LaurentPoly:
        old = s.vars[k - 1]
        out_key = frozenset(side_counts(s.vars, out).items())
        in_key = frozenset(side_counts(s.vars, inc).items())
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
            from .laurent import to_text

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
    m_out, m_in = sum(out.values()), sum(inc.values())  # the sides' total multiplicities
    if variables is not None:
        new_var = (
            _exchange_quotient(s, k, out, inc) if memo is None else memo.quotient(s, k, out, inc)
        )
        variables = _replace_at(variables, k, new_var)
    if dim is not None:
        dim, dominated = _dim_rule(dim, k, out, inc, m_out, m_in)
    if delta is not None:
        delta = _delta_rule(delta, s.d_delta, k, out, inc, m_out, m_in)
    labels = None if s.labels is None else _replace_at(s.labels, k, new_label)
    return Seed(matrix=matrix, vars=variables, labels=labels, dim_trackers=dim, delta_trackers=delta,
                d_delta=s.d_delta, dominated=dominated)


def to_json(s: Seed) -> dict:
    data: dict = {"r": s.r, "matrix": ex.to_json(s.matrix)}
    if s.vars is not None:
        from .laurent import to_json_terms

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
        from .laurent import from_json_terms

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
            IntervalLabel(*_ints(l, 3, "a label")) if l is not None else None
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
    return "*".join([name if m == 1 else f"{name}^{m}" for name, m in factors]) or "1"


def trace_line(s: Seed, k: int, new_s: Seed, sides=None, memo: ExchangeMemo | None = None) -> str:
    """One mutation-trace line: vertex, the exchange relation at k in the
    seed's position names, new trackers; ``sides`` and ``memo`` as for
    ``mutate_seed``, a fresh memo where it is omitted."""
    memo = ExchangeMemo() if memo is None else memo
    out, inc = ex.arrows_at(s.matrix, k) if sides is None else sides
    names, labels = memo.names, s.labels or (None,) * s.r
    out_text, in_text = [monomial_text([(names[labels[i - 1] or i], m) for i, m in side.items()])
                         for side in (out, inc)]
    name = names[labels[k - 1] or k]
    parts = [f"mu_{k}", f"{name}' * {name} = {out_text} + {in_text}"]
    if new_s.vars is not None:
        parts.append(f"var = {memo.text(new_s.vars[k - 1])}")
    for tag, rows in (("d", new_s._dim_trackers), ("dDelta", new_s._delta_trackers)):
        if rows is not None:
            parts.append(f"{tag} = {memo.row_text(rows, k)}")
    return "  ".join(parts)


def walk(s: Seed, vertices, as_json: bool = False):
    """The ``mutate`` report of mutating ``s`` at each of ``vertices`` in
    turn: a trace line per step, or with ``as_json`` each step's vertex and
    seed and the final seed.  Each step's output is made as the walk goes,
    so no old seed is kept; the walk's ``ExchangeMemo`` is dropped on
    return."""
    memo, steps = ExchangeMemo(), []
    for k in vertices:
        sides = ex.arrows_at(s.matrix, k)
        new = mutate_seed(s, k, sides=sides, memo=memo)
        steps.append({"vertex": k, "seed": to_json(new)} if as_json else trace_line(s, k, new, sides, memo))
        s = new
    return {"steps": steps, "final": to_json(s)} if as_json else "\n".join(steps)
