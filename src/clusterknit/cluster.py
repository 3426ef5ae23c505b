"""Seeds, seed mutation, and the two dimension-vector mutation calculi.

A seed carries r cluster variables (exact Laurent polynomials in the r
initial variables), the exchange matrix, and optional per-vertex trackers:
the interval label, the dimension vector of Hom(-, T_M) and the
Delta-dimension vector.  Seeds are immutable; mutation returns a new seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import add, mul, sub

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


@dataclass(frozen=True)
class Seed:
    matrix: ex.ExchangeMatrix
    vars: tuple | None = None
    labels: tuple | None = None
    dim_trackers: tuple | None = None
    delta_trackers: tuple | None = None
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
    frozen = frozenset(s for s, v in enumerate(ordered, 1) if v.a == 0)
    t_of = cat.terminal.level
    labels = tuple(mesh.IntervalLabel(v.i, v.a, t_of(v.i)) for v in ordered)
    variables = (
        tuple(LaurentPoly.variable(k, r) for k in range(r)) if with_vars else None
    )
    return Seed(
        matrix=ex.b_matrix(Quiver(r, arrows), frozen),
        vars=variables,
        labels=labels,
        dim_trackers=tuple(mesh.projected_dimvec(cat, l, positions) for l in labels),
        delta_trackers=tuple(mesh.delta_support(cat, l, positions) for l in labels),
        d_delta=mesh.delta_dims(cat, positions),
    )


def _replace_at(values: tuple, k: int, value) -> tuple:
    """``values`` with entry k (1-based) replaced by ``value``."""
    return values[: k - 1] + (value,) + values[k:]


def _side_sum(tracker, side) -> tuple:
    """The tracker rows at the positions of an exchange side, summed with
    their multiplicities.  A lone row of multiplicity 1 is returned as it
    is."""
    vec = None
    for i, m in side.items():
        row = tracker[i - 1] if m == 1 else tuple(map(m.__mul__, tracker[i - 1]))
        vec = row if vec is None else tuple(map(add, vec, row))
    return (0,) * len(tracker[0]) if vec is None else vec


def _dim_rule(s: Seed, k: int, out, inc):
    """d_k* = -d_k + max(out-sum, in-sum), componentwise, and whether one
    arrow-sum dominates the other componentwise, i.e. whether Max could
    replace max.  A dominating side that differs from the other has the
    larger total, so only an undominated pair can tie."""
    out_sum, in_sum = _side_sum(s.dim_trackers, out), _side_sum(s.dim_trackers, inc)
    cmax = tuple(map(max, out_sum, in_sum))
    dominated = cmax == out_sum or cmax == in_sum
    if not dominated and sum(out_sum) == sum(in_sum):
        raise AmbiguityError(f"tied arrow-sums at vertex {k} disagree")
    return tuple(map(sub, cmax, s.dim_trackers[k - 1])), dominated


def _delta_rule(s: Seed, k: int, out, inc):
    """Delta*_k = -Delta_k + the arrow-sum whose dot product with d_Delta
    is larger (equivalently, the branch keeping every entry nonnegative)."""
    if s.d_delta is None:
        raise SeedFormatError("no d_Delta vector available")
    out_sum, in_sum = _side_sum(s.delta_trackers, out), _side_sum(s.delta_trackers, inc)
    dot_out = sum(map(mul, out_sum, s.d_delta))
    dot_in = sum(map(mul, in_sum, s.d_delta))
    if dot_out > dot_in:
        branch = out_sum
    elif dot_in > dot_out:
        branch = in_sum
    elif out_sum == in_sum:
        branch = out_sum
    else:
        raise AmbiguityError(f"tied Delta arrow-sums at vertex {k} disagree")
    return tuple(map(sub, branch, s.delta_trackers[k - 1]))


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
    each variable it has printed, both keyed by value.

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


def mutate_seed(s: Seed, k: int, new_label=None, sides=None, memo: ExchangeMemo | None = None) -> Seed:
    """Replace y_k by (prod_out + prod_in) / y_k, mutate the matrix and the
    trackers, and record in ``dominated`` whether the dimension rule was
    Max-dominated.  The label at k becomes ``new_label`` (callers walking
    the explicit schedule pass the shifted interval; off schedule the new
    label is unknown).  ``sides`` are the exchange sides at k, where the
    caller has read them already; a walk's ``memo`` supplies each relation
    it has met before."""
    out, inc = ex.arrows_at(s.matrix, k) if sides is None else sides
    new = {"matrix": ex.mutate_matrix(s.matrix, k), "dominated": True}
    if s.vars is not None:
        new_var = (
            _exchange_quotient(s, k, out, inc) if memo is None else memo.quotient(s, k, out, inc)
        )
        new["vars"] = _replace_at(s.vars, k, new_var)
    if s.dim_trackers is not None:
        vec, new["dominated"] = _dim_rule(s, k, out, inc)
        new["dim_trackers"] = _replace_at(s.dim_trackers, k, vec)
    if s.delta_trackers is not None:
        new["delta_trackers"] = _replace_at(
            s.delta_trackers, k, _delta_rule(s, k, out, inc)
        )
    if s.labels is not None:
        new["labels"] = _replace_at(s.labels, k, new_label)
    return replace(s, **new)


def to_json(s: Seed) -> dict:
    data: dict = {"r": s.r, "matrix": ex.to_json(s.matrix)}
    if s.vars is not None:
        data["vars"] = [to_json_terms(v) for v in s.vars]
    if s.labels is not None:
        data["labels"] = [
            [l.i, l.a, l.b] if l is not None else None for l in s.labels
        ]
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
    if new_s.dim_trackers is not None:
        parts.append(f"d = {list(new_s.dim_trackers[k - 1])}")
    if new_s.delta_trackers is not None:
        parts.append(f"dDelta = {list(new_s.delta_trackers[k - 1])}")
    return "  ".join(parts)
