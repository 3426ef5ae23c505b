"""Seeds, seed mutation, and the two dimension-vector mutation calculi.

A seed carries r cluster variables (exact Laurent polynomials in the r
initial variables), the exchange matrix, and optional per-vertex trackers:
the interval label, the dimension vector of Hom(-, T_M) and the
Delta-dimension vector.  Seeds are immutable; mutation returns a new seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import exchange as ex
from . import mesh
from .errors import AmbiguityError, FrozenMutationError
from .laurent import (
    LaurentPoly,
    exact_div,
    from_json_terms,
    substitute,
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

    @property
    def r(self) -> int:
        return self.matrix.r

    def var_names(self):
        if self.labels is not None:
            return [
                repr(l) if l is not None else f"y{k + 1}"
                for k, l in enumerate(self.labels)
            ]
        return [f"y{k + 1}" for k in range(self.r)]

    def core_equal(self, other: "Seed") -> bool:
        """Equality of variables, matrix and trackers; labels excluded."""
        return (
            self.matrix == other.matrix
            and self.vars == other.vars
            and self.dim_trackers == other.dim_trackers
            and self.delta_trackers == other.delta_trackers
        )


def initial_seed(cat: mesh.CategoryModel, ordering=None, with_vars: bool = True) -> Seed:
    """Seed of T_M: fresh indeterminates labeled T_{i,[a,t_i]}, exchange
    matrix B(Gamma_M^*), frozen at the n vertices with a = 0, and both
    trackers filled from the mesh data."""
    if ordering is None:
        ordering = mesh.adapted_orderings(cat)
    else:
        mesh.validate_ordering(cat, ordering)
    r = cat.r
    pos = {v: k for k, v in enumerate(ordering)}
    arrows = []
    for (s, t) in cat.gammaMStar.arrows:
        arrows.append((pos[cat.vertices[s - 1]] + 1, pos[cat.vertices[t - 1]] + 1))
    gamma = Quiver(r, tuple(sorted(arrows)))
    frozen = frozenset(k + 1 for k, v in enumerate(ordering) if v.a == 0)
    matrix = ex.b_matrix(gamma, frozen)

    t_of = cat.terminal.level
    labels = tuple(mesh.IntervalLabel(v.i, v.a, t_of(v.i)) for v in ordering)
    dim_trackers = tuple(
        mesh.projected_dimvec(cat, lbl, ordering) for lbl in labels
    )
    delta_trackers = tuple(
        mesh.delta_support(cat, lbl, ordering) for lbl in labels
    )
    variables = (
        tuple(LaurentPoly.variable(k, r) for k in range(r)) if with_vars else None
    )
    return Seed(
        matrix=matrix,
        vars=variables,
        labels=labels,
        dim_trackers=dim_trackers,
        delta_trackers=delta_trackers,
        d_delta=mesh.delta_dims(cat, ordering),
    )


def exchange_monomials(s: Seed, k: int):
    """The two sides of the exchange relation at k, as position lists with
    multiplicity: (targets of arrows out of k, sources of arrows into k)."""
    return ex.arrows_at(s.matrix, k)


def _vector_sums(tracker, out, inc):
    r = len(tracker[0]) if tracker else 0
    out_sum = [0] * r
    in_sum = [0] * r
    for i in out:
        out_sum = [a + b for a, b in zip(out_sum, tracker[i - 1])]
    for j in inc:
        in_sum = [a + b for a, b in zip(in_sum, tracker[j - 1])]
    return tuple(out_sum), tuple(in_sum)


def mutate_dimvec(s: Seed, k: int):
    """New dimension vector at k: d_k* = -d_k + max(out-sum, in-sum),
    componentwise.  Returns (vector, dominated) where ``dominated`` records
    whether one arrow-sum dominates the other componentwise, i.e. whether
    Max could replace max."""
    if k in s.matrix.frozen:
        raise FrozenMutationError(f"index {k} is frozen")
    if s.dim_trackers is None:
        raise ValueError("seed carries no dimension trackers")
    out, inc = exchange_monomials(s, k)
    out_sum, in_sum = _vector_sums(s.dim_trackers, out, inc)
    if sum(out_sum) == sum(in_sum) and out_sum != in_sum:
        raise AmbiguityError(f"tied arrow-sums at vertex {k} disagree")
    cmax = tuple(max(a, b) for a, b in zip(out_sum, in_sum))
    dominated = cmax == out_sum or cmax == in_sum
    d = s.dim_trackers[k - 1]
    return tuple(m - x for m, x in zip(cmax, d)), dominated


def mutate_delta_dimvec(s: Seed, k: int):
    """New Delta-dimension vector at k: take the arrow-sum whose dot
    product with d_Delta is larger (equivalently, the branch keeping every
    entry nonnegative)."""
    if k in s.matrix.frozen:
        raise FrozenMutationError(f"index {k} is frozen")
    if s.delta_trackers is None:
        raise ValueError("seed carries no Delta trackers")
    d_delta = s.d_delta
    if d_delta is None:
        raise ValueError("no d_Delta vector available")
    out, inc = exchange_monomials(s, k)
    out_sum, in_sum = _vector_sums(s.delta_trackers, out, inc)
    dot_out = sum(a * b for a, b in zip(out_sum, d_delta))
    dot_in = sum(a * b for a, b in zip(in_sum, d_delta))
    if dot_out > dot_in:
        branch = out_sum
    elif dot_in > dot_out:
        branch = in_sum
    elif out_sum == in_sum:
        branch = out_sum
    else:
        raise AmbiguityError(f"tied Delta arrow-sums at vertex {k} disagree")
    d = s.delta_trackers[k - 1]
    return tuple(m - x for m, x in zip(branch, d))


def mutate_seed(s: Seed, k: int, new_label=None) -> Seed:
    """Replace y_k by (prod_out + prod_in) / y_k, mutate the matrix and the
    trackers.  The label at k becomes ``new_label`` (callers walking the
    explicit schedule pass the shifted interval; off schedule the new label
    is unknown)."""
    if k in s.matrix.frozen:
        raise FrozenMutationError(f"index {k} is frozen")
    if not (1 <= k <= s.r):
        raise IndexError(f"index {k} out of range 1..{s.r}")

    new_vars = s.vars
    if s.vars is not None:
        out, inc = exchange_monomials(s, k)
        plus = LaurentPoly.one(s.r)
        for i in out:
            plus = plus * s.vars[i - 1]
        minus = LaurentPoly.one(s.r)
        for j in inc:
            minus = minus * s.vars[j - 1]
        new_var = exact_div(plus + minus, s.vars[k - 1])
        new_vars = tuple(
            new_var if idx == k - 1 else v for idx, v in enumerate(s.vars)
        )

    new_dim = s.dim_trackers
    if s.dim_trackers is not None:
        vec, _ = mutate_dimvec(s, k)
        new_dim = tuple(
            vec if idx == k - 1 else v for idx, v in enumerate(s.dim_trackers)
        )
    new_delta = s.delta_trackers
    if s.delta_trackers is not None and s.d_delta is not None:
        dvec = mutate_delta_dimvec(s, k)
        new_delta = tuple(
            dvec if idx == k - 1 else v for idx, v in enumerate(s.delta_trackers)
        )
    new_labels = s.labels
    if s.labels is not None:
        new_labels = tuple(
            new_label if idx == k - 1 else l for idx, l in enumerate(s.labels)
        )
    return replace(
        s,
        matrix=ex.mutate_matrix(s.matrix, k),
        vars=new_vars,
        labels=new_labels,
        dim_trackers=new_dim,
        delta_trackers=new_delta,
    )


def specialize_frozen(p: LaurentPoly, frozen, arity: int) -> LaurentPoly:
    """Send the frozen variables to 1 (coefficient specialization)."""
    images = []
    for idx in range(arity):
        if idx + 1 in frozen:
            images.append(LaurentPoly.one(arity))
        else:
            images.append(LaurentPoly.variable(idx, arity))
    return substitute(p, images)


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


def from_json(data: dict) -> Seed:
    r = data["r"]
    matrix = ex.from_json(data["matrix"])
    variables = None
    if "vars" in data:
        variables = tuple(from_json_terms(r, v) for v in data["vars"])
    labels = None
    if "labels" in data:
        labels = tuple(
            mesh.IntervalLabel(*l) if l is not None else None for l in data["labels"]
        )
    dim_trackers = (
        tuple(tuple(v) for v in data["dim_trackers"])
        if "dim_trackers" in data
        else None
    )
    delta_trackers = (
        tuple(tuple(v) for v in data["delta_trackers"])
        if "delta_trackers" in data
        else None
    )
    d_delta = tuple(data["d_delta"]) if "d_delta" in data else None
    return Seed(
        matrix=matrix,
        vars=variables,
        labels=labels,
        dim_trackers=dim_trackers,
        delta_trackers=delta_trackers,
        d_delta=d_delta,
    )


def monomial_text(factors) -> str:
    """(name, multiplicity) pairs, in order, as ``a*b^m``; ``1`` if none."""
    text = "*".join(name if m == 1 else f"{name}^{m}" for name, m in factors)
    return text or "1"


def relation_monomials(s: Seed, k: int) -> str:
    """The exchange relation at k, written in the seed's variable names."""
    names = s.var_names()
    out, inc = exchange_monomials(s, k)

    def fmt(side):
        counts: dict = {}
        for i in side:
            counts[i] = counts.get(i, 0) + 1
        return monomial_text((names[i - 1], m) for i, m in sorted(counts.items()))

    return f"{names[k - 1]}' * {names[k - 1]} = {fmt(out)} + {fmt(inc)}"


def trace_line(s: Seed, k: int, new_s: Seed) -> str:
    """One mutation-trace line: vertex, relation, new trackers."""
    parts = [f"mu_{k}", relation_monomials(s, k)]
    if new_s.vars is not None:
        parts.append(f"var = {to_text(new_s.vars[k - 1])}")
    if new_s.dim_trackers is not None:
        parts.append(f"d = {list(new_s.dim_trackers[k - 1])}")
    if new_s.delta_trackers is not None:
        parts.append(f"dDelta = {list(new_s.delta_trackers[k - 1])}")
    return "  ".join(parts)
