"""Independent brute-force oracles used by the tests.

These never touch the code paths they check: hom dimensions come from
solving intertwiner equations on explicit interval representations, over
the rationals, matrix mutation is the dense entry-by-entry rule, and
Laurent arithmetic is the tuple-keyed kernel the packed one replaced.
The Bareiss determinant, the cofactor minor of a matrix given by its rows
with the unitriangular matrix it was taken of, the column-update and the
matrix-product forms of the one-parameter product, the per-leaf
``evaluate_phi``, the
letter-insertion action with its divided powers, the split-dict Euler word
expansion, the Euler trie walk that pops every prefix and the one that
builds each word from per-letter tokens at its end, the rescanning
stage DAG, the upward dimension-vector knitting and per-row hom knitting,
the zero-started tracker side sums, the dense arrow-count exchange matrix
and the scanned Delta support of the initial seed, the per-label
determinantal identity
with its ``Counter`` sides, the per-label projected dimension vector, the
sorted series text, the sorted Laurent JSON term map, the per-factor
relation text and trace line, the seed and the ``mutate`` and ``path``
JSON reports as dicts, the term-by-term Laurent substitution that
``rigidpath.pbw_expand``'s evaluation at images replaced, and the
rescanning topological order are the
kernels that ``minors``, ``euler``, ``mesh``, ``cluster``, ``rigidpath``,
``laurent`` and ``quiver`` replaced; they live on here as differential
oracles, beside small helpers that only the tests call.
"""

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from clusterknit.errors import (AmbiguityError, ArityMismatchError, NotDivisibleError, SeedFormatError, ShapeError,
                               TwoCycleError)
from clusterknit.euler import ShuffleSeries, ThinModule, b_exponents, stage_dag
from clusterknit.exchange import ExchangeMatrix, arrows_at, make_matrix
from clusterknit.laurent import LaurentPoly, exact_div, to_text
from clusterknit.mesh import IntervalLabel, MeshVertex, TerminalData, validate_label, validate_ordering
from clusterknit.quiver import (
    Quiver,
    adapted_word,
    cartan,
    fundamental_weight,
    topological_order,
)
from clusterknit import cluster
from clusterknit.rigidpath import qm_op, relation_texts


def rank(rows):
    """Rank of a small integer matrix, exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rk = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col] / m[row][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        rk += 1
        row += 1
    return rk


def interval_hom_dim(q: Quiver, supp_m, supp_n) -> int:
    """dim Hom between two interval representations of a type-A quiver.

    An interval module has a 1-dimensional space on every vertex of its
    support and identity maps on the arrows inside; the hom space is the
    solution space of the commuting-square equations."""
    supp_m, supp_n = set(supp_m), set(supp_n)
    unknowns = sorted(supp_m & supp_n)
    if not unknowns:
        return 0
    idx = {v: k for k, v in enumerate(unknowns)}
    rows = []
    for (s, t) in q.arrows:
        if s not in supp_m or t not in supp_n:
            continue
        row = [0] * len(unknowns)
        if s in supp_m and t in supp_m and t in supp_n:
            row[idx[t]] += 1
        if s in supp_n and t in supp_n and s in supp_m:
            row[idx[s]] -= 1
        if any(row):
            rows.append(row)
    return len(unknowns) - rank(rows)


def _path_counts_into(q: Quiver, i: int) -> list[int]:
    """Number of directed paths j -> i in Q for every j (entry j-1)."""
    counts = [0] * q.n
    counts[i - 1] = 1
    for v in reversed(topological_order(q)):
        if v == i:
            continue
        counts[v - 1] = sum(counts[t - 1] for t in q.arrows_out(v))
    return counts


def knit_dims(td: TerminalData):
    """Knit dimension vectors on all slices up to max(t), upward from the
    injectives (the knitting ``build_category`` replaced).

    Returns a dict (i, z) -> tuple.  A tau-orbit ends at the first slice
    whose mesh candidate fails to be nonnegative and nonzero; in Dynkin
    type this truncation is what makes vertices disappear.
    """
    q = td.q
    n = q.n
    maxt = max(td.t) if td.t else 0
    order = topological_order(q)
    dims: dict = {}
    for i in range(1, n + 1):
        dims[(i, 0)] = tuple(_path_counts_into(q, i))
    for z in range(1, maxt + 1):
        for i in order:
            if (i, z - 1) not in dims:
                continue
            vec = [-x for x in dims[(i, z - 1)]]
            alive = True
            for j in q.arrows_out(i):
                prev = dims.get((j, z - 1))
                if prev is None:
                    alive = False
                    break
                vec = [a + b for a, b in zip(vec, prev)]
            if not alive:
                continue
            for k in q.arrows_in(i):
                cur = dims.get((k, z))
                if cur is not None:
                    vec = [a + b for a, b in zip(vec, cur)]
            if all(x >= 0 for x in vec) and any(vec):
                dims[(i, z)] = tuple(vec)
    return dims


def knit_hom_row(td: TerminalData, model: set, x: MeshVertex) -> dict:
    """dim Hom(M_x, -) on the model, by knitting the covariant hom functor
    slice by slice toward slice 0, through vertex-keyed dicts (the
    knitting ``build_category`` replaced):
        h(Y) = sum_{mid -> Y} h(mid) - h(tau Y) + [Y == x],
    with h = 0 above the slice of x and outside the model (successor
    closure kills every hom landing off the model)."""
    q = td.q
    rev = list(reversed(topological_order(q)))
    h: dict = {}
    for z in range(x.a, -1, -1):
        for i in rev:
            y = MeshVertex(i, z)
            if y not in model:
                continue
            val = 1 if y == x else 0
            for j in q.arrows_out(i):
                val += h.get(MeshVertex(j, z), 0)
            for k in q.arrows_in(i):
                val += h.get(MeshVertex(k, z + 1), 0)
            val -= h.get(MeshVertex(i, z + 1), 0)
            h[y] = val
    return h


def hom_dim(cat, x: MeshVertex, z: MeshVertex) -> int:
    """dim Hom(M_x, M_z), looked up vertex by vertex in the hom table."""
    return cat.hom_table[cat.pos(x)][cat.pos(z)]


def projected_dimvec(cat, lbl: IntervalLabel):
    """Dimension vector of Hom(T_{i,[a,b]}, T_M) in canonical coordinates:
    entry p is sum_{l=a}^{b} dim Hom(tau^l I_i, M_p), read label by label
    from the hom table."""
    validate_label(cat, lbl)
    rows = [cat.hom_table[cat.pos(MeshVertex(lbl.i, l))] for l in range(lbl.a, lbl.b + 1)]
    return tuple(sum(row[p] for row in rows) for p in range(cat.r))


def maximal_terminal(q: Quiver) -> TerminalData:
    """The largest valid level vector: in Dynkin type every tau-orbit is
    followed to its end."""
    probe = TerminalData(q, (q.n * q.n + 2,) * q.n)
    raw = knit_dims(probe)
    t = tuple(max(a for (i, a) in raw if i == v) for v in range(1, q.n + 1))
    return TerminalData(q, t)


def seed_by_vertex(cat, ordering) -> dict:
    """The initial seed of T_M along ``ordering``, keyed by vertex and read
    entry by entry from ``hom_dim`` and the arrows of Gamma_M^*: seed
    position s holds ordering[s], labelled T_{i,[a,t_i]}."""
    at = {v: s for s, v in enumerate(ordering)}
    b = [[0] * len(ordering) for _ in ordering]
    for (u, v) in cat.gammaMStar.arrows:
        x, z = at[cat.vertices[u - 1]], at[cat.vertices[v - 1]]
        b[z][x] += 1
        b[x][z] -= 1
    tops = [cat.terminal.level(x.i) for x in ordering]
    return {
        "b": tuple(map(tuple, b)),
        "frozen": frozenset(s + 1 for s, x in enumerate(ordering) if x.a == 0),
        "labels": tuple(IntervalLabel(x.i, x.a, top) for x, top in zip(ordering, tops)),
        "dim_trackers": tuple(
            tuple(
                sum(hom_dim(cat, MeshVertex(x.i, l), z) for l in range(x.a, top + 1))
                for z in ordering
            )
            for x, top in zip(ordering, tops)
        ),
        "delta_trackers": tuple(
            tuple(int(z.i == x.i and x.a <= z.a) for z in ordering) for x in ordering
        ),
        "d_delta": tuple(
            sum(hom_dim(cat, x, ordering[jp]) for jp in range(j + 1))
            for j, x in enumerate(ordering)
        ),
    }


@dataclass(frozen=True)
class DetIdentity:
    """T_{i,[a-1,b]} T_{i,[a,b-1]} = T_{i,[a,b]} T_{i,[a-1,b-1]}
    - prod_{i->j} T_{j,[a+d_j, b+d_j]} prod_{k->i} T_{k,[a-1+d_k, b-1+d_k]}
    with d_x = t_x - t_i over the arrows of Q_M^op, units kept in ``left``
    and the product as a sorted tuple with repeats."""

    i: int
    a: int
    b: int
    left: tuple[IntervalLabel, IntervalLabel]
    main: tuple[IntervalLabel, IntervalLabel]
    factors: tuple[IntervalLabel, ...]

    def exchange_sides(self):
        """The two sides of the exchange relation for mutating T_{i,[a,b]}
        into T_{i,[a-1,b-1]}, as label multisets (units dropped)."""
        side1 = Counter(l for l in self.left if not l.is_unit())
        side2 = Counter(self.factors)
        return side1, side2


def _keep(lbl: IntervalLabel):
    """Negative indices drop the symbol; c > d is the unit, also dropped."""
    if lbl.a < 0 or lbl.b < 0:
        return None
    if lbl.is_unit():
        return None
    return lbl


def det_identity(td: TerminalData, i: int, a: int, b: int) -> DetIdentity:
    """The identity at T_{i,[a,b]}, building Q_M^op afresh."""
    if not (1 <= a <= b <= td.level(i)):
        raise IndexError(f"need 1 <= a <= b <= t_{i}, got a={a}, b={b}")
    op = qm_op(td)
    ti = td.level(i)
    factors = []
    for j in op.arrows_out(i):
        d = td.level(j) - ti
        f = _keep(IntervalLabel(j, a + d, b + d))
        if f is not None:
            factors.append(f)
    for k in op.arrows_in(i):
        d = td.level(k) - ti
        f = _keep(IntervalLabel(k, a - 1 + d, b - 1 + d))
        if f is not None:
            factors.append(f)
    return DetIdentity(
        i=i,
        a=a,
        b=b,
        left=(IntervalLabel(i, a - 1, b), IntervalLabel(i, a, b - 1)),
        main=(IntervalLabel(i, a, b), IntervalLabel(i, a - 1, b - 1)),
        factors=tuple(sorted(factors, key=lambda l: (l.i, l.a, l.b))),
    )


def dense_mutate_matrix(m: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """mu_k entry by entry over all r^2 entries: flip row/column k, and
    elsewhere b'_ij = b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    old = m.b
    kk = k - 1
    rows = []
    for i in range(m.r):
        row = []
        for j in range(m.r):
            if i == kk or j == kk:
                row.append(-old[i][j])
            else:
                row.append(
                    old[i][j]
                    + (abs(old[i][kk]) * old[kk][j] + old[i][kk] * abs(old[kk][j])) // 2
                )
        rows.append(row)
    return make_matrix(rows, m.frozen)


def dense_b_matrix(g: Quiver, frozen=()) -> ExchangeMatrix:
    """B(Gamma) read off a dense (r+1)^2 table of arrow counts, with the
    refusals and messages of ``exchange.b_matrix`` in the same order."""
    frozen = frozenset(frozen)
    r = g.n
    if any(not (1 <= k <= r) for k in frozen):
        raise SeedFormatError(f"frozen must be a list of indices in 1..{r}")
    counts = [[0] * (r + 1) for _ in range(r + 1)]
    for (s, t) in g.arrows:
        if s == t:
            raise TwoCycleError(f"loop at vertex {s}")
        counts[s][t] += 1
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            if counts[i][j] and counts[j][i] and not (i in frozen and j in frozen):
                raise TwoCycleError(f"2-cycle between {i} and {j}")
    return make_matrix([[counts[j][i] - counts[i][j] for j in range(1, r + 1)] for i in range(1, r + 1)], frozen)


def scanned_delta_support(cat, lbl: IntervalLabel, positions=None) -> tuple:
    """The Delta-dimension vector of T_{i,[a,b]}, every vertex tested
    against the interval: entry s for the vertex at canonical position
    ``positions[s]``."""
    validate_label(cat, lbl)
    if positions is None:
        positions = range(cat.r)
    zs = (cat.vertices[p] for p in positions)
    return tuple(1 if (z.i == lbl.i and lbl.a <= z.a <= lbl.b) else 0 for z in zs)


def _grlex_key(exps):
    return (sum(exps), exps)


class TupleLaurent:
    """Laurent polynomial as a map from exponent tuples to nonzero ints,
    with term-by-term tuple arithmetic."""

    def __init__(self, arity, terms=None):
        self.arity = arity
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c}

    @staticmethod
    def of(p):
        """The oracle copy of a ``LaurentPoly``, read through its public
        tuple view."""
        return TupleLaurent(p.arity, dict(p.sorted_terms()))

    @staticmethod
    def one(arity):
        return TupleLaurent(arity, {(0,) * arity: 1})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return TupleLaurent(self.arity, terms)

    def __neg__(self):
        return TupleLaurent(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return TupleLaurent(self.arity, terms)

    def __pow__(self, k):
        if k < 0:
            return tuple_exact_div(TupleLaurent.one(self.arity), self ** (-k))
        result = TupleLaurent.one(self.arity)
        for _ in range(k):
            result = result * self
        return result

    def leading(self):
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def min_exponents(self):
        return tuple(min(col) for col in zip(*self.terms))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)


def _tuple_shift(p, offsets):
    return TupleLaurent(
        p.arity,
        {tuple(a + b for a, b in zip(e, offsets)): c for e, c in p.terms.items()},
    )


def _heap_key(exps):
    return (-sum(exps), tuple(-x for x in exps), exps)


def _tuple_poly_divide(num, den):
    """Long division of genuine polynomials with a lazy max-heap over the
    remainder; exact or NotDivisibleError."""
    den_lead_exps, den_lead_coeff = den.leading()
    den_items = list(den.terms.items())
    rem = dict(num.terms)
    quot = {}
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
        for de, dc in den_items:
            te = tuple(a + b for a, b in zip(q_exps, de))
            nv = rem.get(te, 0) - q_c * dc
            if nv:
                if te not in rem:
                    heapq.heappush(heap, _heap_key(te))
                rem[te] = nv
            else:
                rem.pop(te, None)
    return TupleLaurent(num.arity, quot)


def tuple_exact_div(num, den):
    """q with q * den == num in the Laurent ring, or NotDivisibleError:
    strip the monomial content of both sides and divide the rest as
    polynomials."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return TupleLaurent(num.arity)
    num_min = num.min_exponents()
    den_min = den.min_exponents()
    quot = _tuple_poly_divide(
        _tuple_shift(num, tuple(-m for m in num_min)),
        _tuple_shift(den, tuple(-m for m in den_min)),
    )
    return _tuple_shift(quot, tuple(n - d for n, d in zip(num_min, den_min)))


def sorted_json_terms(p: LaurentPoly) -> dict:
    """The JSON term map of p built from its terms in descending graded-lex
    order, each exponent tuple unpacked and joined."""
    return {
        ",".join(map(str, exps)): str(coeff)
        for exps, coeff in p.sorted_terms()
    }


class NegativeExponentError(ValueError):
    """``substitute`` met a variable with a negative exponent whose image
    is not a unit monomial, so it has no inverse to take."""


def monomial(arity: int, exps, c: int = 1) -> LaurentPoly:
    """The single term c * y^exps."""
    return LaurentPoly(arity, {tuple(exps): c})


def substitute(p: LaurentPoly, images) -> LaurentPoly:
    """p with each variable y_i replaced by images[i], term by term.  A
    variable with a negative exponent must map to a unit monomial c * y^e
    (c = +-1), whose inverse is c * y^-e; all images share one arity."""
    if len(images) != p.arity:
        raise ArityMismatchError(f"need {p.arity} images, got {len(images)}")
    target = images[0].arity
    if any(img.arity != target for img in images):
        raise ArityMismatchError("images have mixed arities")
    terms = p.sorted_terms()
    inverses = {}
    for i, img in enumerate(images):
        if any(exps[i] < 0 for exps, _ in terms):
            img_terms = img.sorted_terms()
            if len(img_terms) != 1 or img_terms[0][1] not in (1, -1):
                raise NegativeExponentError(
                    f"variable {i} occurs with a negative exponent but its image is not a unit monomial"
                )
            ((unit_exps, c),) = img_terms
            inverses[i] = monomial(target, [-x for x in unit_exps], c)
    result = LaurentPoly.zero(target)
    for exps, coeff in terms:
        term = LaurentPoly.const(target, coeff)
        for i, e in enumerate(exps):
            if e > 0:
                term = term * images[i] ** e
            elif e < 0:
                term = term * inverses[i] ** -e
        result = result + term
    return result


def tuple_mutate_vars(m: ExchangeMatrix, variables, k: int):
    """The variables after mutation at k: y_k' = (prod_out + prod_in) / y_k."""
    out, inc = arrows_at(m, k)

    def product(side):
        p = TupleLaurent.one(variables[0].arity)
        for i, mult in side.items():
            p = p * variables[i - 1] ** mult
        return p

    new = tuple_exact_div(product(out) + product(inc), variables[k - 1])
    return variables[: k - 1] + (new,) + variables[k:]


def var_name(s, p: int) -> str:
    """The name of the variable at position p (1-based): its label, or
    ``y<p>`` where it has none."""
    label = None if s.labels is None else s.labels[p - 1]
    return f"y{p}" if label is None else repr(label)


def relation_monomials(s, k: int) -> str:
    """The exchange relation at k, written in the seed's variable names,
    one name lookup per factor."""
    out, inc = arrows_at(s.matrix, k)

    def fmt(side):
        factors = ((var_name(s, i), m) for i, m in side.items())
        return "*".join(name if m == 1 else f"{name}^{m}" for name, m in factors) or "1"

    name = var_name(s, k)
    return f"{name}' * {name} = {fmt(out)} + {fmt(inc)}"


def trace_line(s, k: int, new_s) -> str:
    """One mutation-trace line, with every text made afresh: vertex,
    relation, new variable and trackers."""
    parts = [f"mu_{k}", relation_monomials(s, k)]
    if new_s.vars is not None:
        parts.append(f"var = {to_text(new_s.vars[k - 1])}")
    for name, rows in (("d", new_s.dim_trackers), ("dDelta", new_s.delta_trackers)):
        if rows is not None:
            parts.append(f"{name} = {list(rows[k - 1])}")
    return "  ".join(parts)


def seed_to_json(s) -> dict:
    """A seed as the JSON object ``cluster.to_json`` built field by field
    before it read back the text of ``seedtext``, which writes this
    object's ``json.dumps(indent=1, sort_keys=True)`` text."""
    data: dict = {"r": s.r, "matrix": {"b": [list(row) for row in s.matrix.b], "frozen": sorted(s.matrix.frozen)}}
    if s.vars is not None:
        data["vars"] = [sorted_json_terms(v) for v in s.vars]
    if s.labels is not None:
        data["labels"] = [None if l is None else list(l) for l in s.labels]
    if s.dim_trackers is not None:
        data["dim_trackers"] = [list(v) for v in s.dim_trackers]
    if s.delta_trackers is not None:
        data["delta_trackers"] = [list(v) for v in s.delta_trackers]
    if s.d_delta is not None:
        data["d_delta"] = list(s.d_delta)
    return data


def walk_report(s, vertices) -> dict:
    """The ``mutate --format json`` report as a dict, whose
    ``json.dumps(indent=1, sort_keys=True)`` text the walk writes: each
    step's vertex and seed, and the final seed."""
    steps = []
    for k in vertices:
        s = cluster.mutate_seed(s, k)
        steps.append({"vertex": k, "seed": seed_to_json(s)})
    return {"steps": steps, "final": seed_to_json(s)}


def result_to_json(res) -> dict:
    """The ``path --format json`` report as a dict, whose
    ``json.dumps(indent=1, sort_keys=True)`` text ``rigidpath.result_json``
    writes."""
    return {
        "length": len(res.schedule.steps),
        "qm_order": list(res.schedule.qm_order),
        "steps": [
            {
                "index": s.index,
                "position": s.position,
                "old": list(s.identity.main[0]),
                "new": list(s.identity.main[1]),
                "relation": relation,
                "dominated": s.dominated,
            }
            for s, (_, _, relation) in zip(res.steps, relation_texts(res.steps))
        ],
        "final_labels": [list(l) for l in res.seed.labels],
        "final_seed": seed_to_json(res.seed),
    }


# -- helpers only the tests need --------------------------------------------


def mutable(m: ExchangeMatrix):
    """The mutable indices of m, ascending."""
    return [k for k in range(1, m.r + 1) if k not in m.frozen]


def strictly_equal(a: ExchangeMatrix, b: ExchangeMatrix) -> bool:
    """Equality including the frozen-frozen entries that ``==`` ignores."""
    return a.b == b.b and a.frozen == b.frozen


def matrix_to_quiver(m: ExchangeMatrix) -> Quiver:
    """Quiver with b_ij arrows j -> i for b_ij > 0.  Inverse of b_matrix up
    to arrows between frozen vertices (where net counts lose information)."""
    arrows = []
    for i, row in enumerate(m.b, 1):
        for j, v in enumerate(row, 1):
            arrows.extend([(j, i)] * max(v, 0))
    return Quiver(m.r, tuple(sorted(arrows)))


def core_equal(a, b) -> bool:
    """Equality of two seeds' variables, matrices and trackers; labels
    excluded."""
    return (
        a.matrix == b.matrix
        and a.vars == b.vars
        and a.dim_trackers == b.dim_trackers
        and a.delta_trackers == b.delta_trackers
    )


def _column_sides(m: ExchangeMatrix, k: int):
    """(outgoing, incoming) sides at k read entry by entry from column k,
    through the rows of B."""
    out, inc = {}, {}
    for i, row in enumerate(m.rows, 1):
        v = row.get(k, 0)
        if v:
            (out if v > 0 else inc)[i] = abs(v)
    return out, inc


def side_sum(tracker, side) -> tuple:
    """The tracker rows at the positions of a side, summed with their
    multiplicities, one zero-started list at a time."""
    vec = [0] * len(tracker[0])
    for i, m in side.items():
        vec = [a + m * b for a, b in zip(vec, tracker[i - 1])]
    return tuple(vec)


def dim_rule(s, k: int):
    """The dimension vector at k after mutation and whether one arrow-sum
    dominated the other, read entry by entry from column k of B:
    d_k' = -d_k + max(sum over arrows k -> i, sum over arrows i -> k).
    Raises AmbiguityError when the two sums have equal totals but differ."""
    rows = s.dim_trackers
    sums = [[0] * len(rows[0]), [0] * len(rows[0])]
    for i, b_row in enumerate(s.matrix.rows, 1):
        v = b_row.get(k, 0)
        if not v:
            continue
        side = sums[0] if v > 0 else sums[1]
        for c, x in enumerate(rows[i - 1]):
            side[c] += abs(v) * x
    if sum(sums[0]) == sum(sums[1]) and sums[0] != sums[1]:
        raise AmbiguityError(f"tied arrow-sums at vertex {k} disagree")
    cmax = [max(a, c) for a, c in zip(*sums)]
    return tuple(m - x for m, x in zip(cmax, rows[k - 1])), cmax in sums


def delta_rule(s, k: int):
    """Delta_k' = -Delta_k + the side sum with the larger dot product with
    d_Delta; equal dot products are allowed only for equal sums."""
    if s.d_delta is None:
        raise SeedFormatError("no d_Delta vector available")
    out_sum, in_sum = (side_sum(s.delta_trackers, side) for side in _column_sides(s.matrix, k))
    dot_out = sum(a * b for a, b in zip(out_sum, s.d_delta))
    dot_in = sum(a * b for a, b in zip(in_sum, s.d_delta))
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


def specialize_frozen(p: LaurentPoly, frozen) -> LaurentPoly:
    """Send the frozen variables (1-based) to 1: the specialization of
    coefficients."""
    images = [
        LaurentPoly.one(p.arity) if idx + 1 in frozen else LaurentPoly.variable(idx, p.arity)
        for idx in range(p.arity)
    ]
    return substitute(p, images)


def quiver_to_json(q: Quiver) -> dict:
    """The quiver file that ``quiver.from_json`` reads."""
    return {"n": q.n, "arrows": [[s, t] for (s, t) in q.arrows]}


def f_action(s: ShuffleSeries, i: int, lam: tuple, c: tuple) -> ShuffleSeries:
    """Letter insertion realizing the lowering operator: w[j_1..j_k] goes to
    sum_r (lam - alpha_{j_1} - ... - alpha_{j_r})(alpha_i^vee)
    w[j_1..j_r, i, j_{r+1}..j_k]."""
    col = [0] + [row[i - 1] for row in c]
    lam_i = lam[i - 1]
    ins = (i,)
    terms: dict = defaultdict(int)
    for word, coeff in s.terms.items():
        pairing = lam_i
        length = len(word)
        acc = 0
        # slots inside a run of the letter i all produce the same word;
        # accumulate their pairings and emit once per run boundary
        for r in range(length + 1):
            acc += pairing
            if r == length or word[r] != i:
                if acc:
                    terms[word[:r] + ins + word[r:]] += coeff * acc
                acc = 0
            if r < length:
                pairing -= col[word[r]]
    return ShuffleSeries(terms)


def divided_f(s: ShuffleSeries, i: int, b: int, lam: tuple, c: tuple) -> ShuffleSeries:
    """Apply f_i b times and divide by b!: after the m-th application every
    coefficient is divided by m, so each stage is the divided power f_i^(m)
    of the input.  On an integer series each stage is integral, so a
    remainder raises ``ArithmeticError``."""
    if b < 0:
        raise ValueError("divided power needs b >= 0")
    out = s
    for m in range(1, b + 1):
        out = f_action(out, i, lam, c)
        if m == 1:
            continue
        terms = out.terms
        for w, v in terms.items():
            if v % m:
                raise ArithmeticError(f"divided power f_{i}^({b}) left a remainder at stage {m}")
            terms[w] = v // m
    return out


def divided_f_chain(cat, ordering, k: int) -> ShuffleSeries:
    """``euler.g_module`` as the chain f_{i_1}^(b_1) ... f_{i_k}^(b_k) of
    divided powers applied to the empty word, rightmost factor first."""
    word = adapted_word(cat, ordering)
    c = cartan(cat.terminal.q)
    bs = b_exponents(word, k, c)
    lam = fundamental_weight(word[k - 1], len(c))
    series = ShuffleSeries.unit()
    for j in range(k, 0, -1):
        series = divided_f(series, word[j - 1], bs[j - 1], lam, c)
    return series


def split_g_module(cat, ordering, k: int) -> ShuffleSeries:
    """``euler.g_module`` with the word expansion it first had: a
    recursion over prefixes that splits every {state: coefficient} vector
    into one dict per next letter, single states included."""
    edges, length = stage_dag(cat, ordering, k)
    terms: dict = {}
    path: list = []

    def expand(vector: dict) -> None:
        split: dict = {}
        for state, coeff in vector.items():
            if coeff:
                for i, target, weight in edges[state]:
                    row = split.setdefault(i, {})
                    for target, weight in weight if target is None else [(target, weight)]:
                        row[target] = row.get(target, 0) + coeff * weight
        last = len(path) + 1 == length
        for i, row in split.items():
            path.append(i)
            if not last:
                expand(row)
            elif coeff := row.popitem()[1]:
                terms[tuple(path)] = coeff
            path.pop()

    expand({0: 1})
    return ShuffleSeries(terms)


def rescan_stage_dag(cat, ordering, k: int) -> tuple:
    """``euler.stage_dag`` as it first was: each popped state re-derives its
    counts from the mixed-radix int and sums each stage's weight from the
    Cartan entries, and a state is pushed once per in-edge."""
    validate_ordering(cat, ordering)
    word = adapted_word(cat, ordering)
    c = cartan(cat.terminal.q)
    bs = b_exponents(word, k, c)
    lam = fundamental_weight(word[k - 1], len(c))
    stages = [(word[j - 1], bs[j - 1]) for j in range(k, 0, -1) if bs[j - 1]]
    radix = [prod(b + 1 for _, b in stages[:s]) for s in range(len(stages))]
    edges: dict = {}
    todo = [0]
    while todo:
        state = todo.pop()
        if state in edges:
            continue
        xs = [state // r % (b + 1) for r, (_, b) in zip(radix, stages)]
        out: dict = defaultdict(list)
        for s, (i, b) in enumerate(stages):
            if xs[s] < b:
                weight = lam[i - 1] - xs[s] - sum(x * c[j - 1][i - 1] for (j, _), x in zip(stages[:s], xs))
                if weight:
                    out[i].append((state + radix[s], weight))
                    todo.append(state + radix[s])
        edges[state] = tuple(
            (i, *out[i][0]) if len(out[i]) == 1 else (i, None, tuple(out[i]))
            for i in sorted(out, reverse=True)
        )
    return edges, sum(bs)


def trie_expand(edges: dict, length: int, tokens, key):
    """``euler.expand`` before forced runs: one depth-first walk over the
    prefix trie that pushes and pops every prefix, a forced letter too,
    carrying a single state and its coefficient or a sparse vector."""
    last = length - 1
    path = [None] * length
    stack = [(0, None, 0, 1)]  # (depth, token, state, coefficient) or (depth, token, None, vector)
    pop, push = stack.pop, stack.append
    while stack:
        depth, token, state, coeff = pop()
        if depth:
            path[depth - 1] = token
        if state is not None:
            if depth == last:  # each letter has one edge, into the full state
                for i, _, weight in reversed(edges[state]):
                    path[last] = tokens[i]
                    yield key(path), coeff * weight
                continue
            depth += 1
            for i, target, weight in edges[state]:
                if target is None:
                    push((depth, tokens[i], None, {t: coeff * w for t, w in weight}))
                else:
                    push((depth, tokens[i], target, coeff * weight))
            continue
        split: dict = {}  # next letter -> {state: coefficient}
        for state, c in coeff.items():
            if c:
                for i, target, weight in edges[state]:
                    row = split.get(i)
                    if row is None:
                        split[i] = row = {}
                    if target is None:
                        for target, w in weight:
                            row[target] = row.get(target, 0) + c * w
                    else:
                        row[target] = row.get(target, 0) + c * weight
        if depth == last:  # each row holds the full state alone
            for i in sorted(split):
                if c := split[i].popitem()[1]:
                    path[last] = tokens[i]
                    yield key(path), c
            continue
        for i in sorted(split, reverse=True):
            row = split[i]
            if len(row) > 1:
                push((depth + 1, tokens[i], None, row))
            else:
                [(target, c)] = row.items()
                if c:
                    push((depth + 1, tokens[i], target, c))


def _letter_run(edges: dict, state, tokens) -> tuple:
    """The forced run from ``state`` as ``(its letters' tokens, their count,
    end state, the end's edges, product of weights)``: followed while a
    state has one out-letter into one state, in a loop, since a run can be
    a whole word.  A state missing from ``edges`` has no out-edges."""
    run, weight = [], 1
    out = edges.get(state, ())
    while len(out) == 1 and out[0][1] is not None:
        i, state, w = out[0]
        run.append(tokens[i])
        weight *= w
        out = edges.get(state, ())
    return run, len(run), state, out, weight


def forced_run_expand(edges: dict, length: int, tokens, key):
    """``euler.expand`` before it carried each prefix's text: yield
    ``(key(word), coefficient)`` for every word of nonzero coefficient, in
    ascending letter order, where ``word`` is the list of
    ``tokens[letter]`` and the coefficient is the sum over the paths that
    spell it from the empty state to the full one.

    One depth-first walk over the prefix trie, carrying what each prefix
    reaches: a single state and its coefficient (almost every prefix: its
    children scale that state's edges), or a sparse {state: coefficient}
    vector whose zero entries are skipped as they are read.  Children are
    pushed in descending letter order, so they pop in ascending order.  A
    single state jumps its forced run (found on its first pop) in one step:
    the run's letters go into the word by one slice assignment and its
    weight into the coefficient, so the walk only stops where a word
    branches."""
    last = length - 1
    path = [None] * length
    runs: dict = {}
    stack = [(0, None, 0, 1)]  # (depth, token, state, coefficient) or (depth, token, None, vector)
    pop, push = stack.pop, stack.append
    while stack:
        depth, token, state, coeff = pop()
        if depth:
            path[depth - 1] = token
        if state is not None:
            run = runs.get(state)
            if run is None:
                run = runs[state] = _letter_run(edges, state, tokens)
            letters, forced, state, out, weight = run
            if forced:
                path[depth:depth + forced] = letters
                depth += forced
                coeff *= weight
                if depth == length:
                    yield key(path), coeff
                    continue
            if depth == last:  # each letter has one edge, into the full state
                for i, _, weight in reversed(out):
                    path[last] = tokens[i]
                    yield key(path), coeff * weight
                continue
            depth += 1
            for i, target, weight in out:
                if target is None:
                    push((depth, tokens[i], None, {t: coeff * w for t, w in weight}))
                else:
                    push((depth, tokens[i], target, coeff * weight))
            continue
        split: dict = {}  # next letter -> {state: coefficient}
        for state, c in coeff.items():
            if c:
                for i, target, weight in edges[state]:
                    row = split.get(i)
                    if row is None:
                        split[i] = row = {}
                    if target is None:
                        for target, w in weight:
                            row[target] = row.get(target, 0) + c * w
                    else:
                        row[target] = row.get(target, 0) + c * weight
        if depth == last:  # each row holds the full state alone
            for i in sorted(split):
                if c := split[i].popitem()[1]:
                    path[last] = tokens[i]
                    yield key(path), c
            continue
        for i in sorted(split, reverse=True):
            row = split[i]
            if len(row) > 1:
                push((depth + 1, tokens[i], None, row))
            else:
                [(target, c)] = row.items()
                if c:
                    push((depth + 1, tokens[i], target, c))


def dag_words(edges: dict, length: int) -> dict:
    """{word: coefficient} of the nonzero words a ``stage_dag`` spells, by
    enumerating every path of ``length`` letters from the empty state."""
    words: dict = defaultdict(int)

    def walk(state, word, coeff):
        if len(word) == length:
            words[word] += coeff
            return
        for i, target, weight in edges[state]:
            for target, w in weight if target is None else [(target, weight)]:
                walk(target, word + (i,), coeff * w)

    walk(0, (), 1)
    return {w: c for w, c in words.items() if c}


def e_action(s: ShuffleSeries, i: int) -> ShuffleSeries:
    """Drop the last letter when it equals i, else kill the word."""
    terms: dict = {}
    for word, coeff in s.terms.items():
        if word and word[-1] == i:
            terms[word[:-1]] = terms.get(word[:-1], 0) + coeff
    return ShuffleSeries(terms)


def direct_sum(a: ThinModule, b: ThinModule) -> ThinModule:
    """The thin module a + b, slots tagged "L" and "R"."""
    slots = tuple((("L", s), v) for (s, v) in a.slots)
    slots += tuple((("R", s), v) for (s, v) in b.slots)
    arrows = tuple((("L", u), ("L", v)) for (u, v) in a.arrows)
    arrows += tuple((("R", u), ("R", v)) for (u, v) in b.arrows)
    return ThinModule(slots, arrows)


def series_to_text(s: ShuffleSeries) -> str:
    """Terms c·w[...] sorted lexicographically by word, joined by their
    signs; ``0`` if there are none."""
    terms = []
    for w in sorted(s.terms):
        c = s.terms[w]
        coeff = "" if c in (1, -1) else f"{abs(c)}·"
        terms.append(f"{'-' if c < 0 else '+'} {coeff}w[{','.join(map(str, w))}]")
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def series_from_json(data: dict) -> ShuffleSeries:
    """The series of ``euler.to_json``."""
    return ShuffleSeries(
        {tuple(int(x) for x in key.split(",")) if key else (): int(v) for key, v in data.items()}
    )


def evaluate_phi_per_leaf(s: ShuffleSeries, seq) -> dict:
    """``euler.evaluate_phi`` as it was first written: a walk into every
    branch, whether or not it can finish the word, and one division by a!
    for every leaf of the expansion."""
    seq = tuple(seq)
    poly: dict = {}

    def walk(word, l, exps, coeff):
        if l == len(seq):
            if not word:
                contribution = Fraction(1)
                for e in exps:
                    contribution /= factorial(e)
                poly[tuple(exps)] = poly.get(tuple(exps), 0) + coeff * contribution
            return
        run = 0
        while run < len(word) and word[run] == seq[l]:
            run += 1
        for a in range(run + 1):
            walk(word[a:], l + 1, exps + [a], coeff)

    for word, coeff in s.terms.items():
        walk(word, 0, [], coeff)
    return {k: v for k, v in poly.items() if v}


def bareiss_det(rows) -> LaurentPoly:
    """Fraction-free Gaussian elimination with exact division by the
    previous pivot."""
    m = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = LaurentPoly.one(rows[0][0].arity)
    for k in range(m - 1):
        if a[k][k].is_zero():
            pivot = next((i for i in range(k + 1, m) if not a[i][k].is_zero()), None)
            if pivot is None:
                return LaurentPoly.zero(prev.arity)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = exact_div(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    return a[m - 1][m - 1] if sign == 1 else -a[m - 1][m - 1]


def unitriangular(size: int) -> list:
    """The rows of the unitriangular matrix with fresh variables x_1, x_2,
    ... filling the strictly-upper entries row-major (row 1 first)."""
    arity = size * (size - 1) // 2
    idx = 0
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == j:
                row.append(LaurentPoly.one(arity))
            elif i < j:
                row.append(LaurentPoly.variable(idx, arity))
                idx += 1
            else:
                row.append(LaurentPoly.zero(arity))
        rows.append(row)
    return rows


def _det_cofactor(rows) -> LaurentPoly:
    m = len(rows)
    arity = rows[0][0].arity
    if m == 1:
        return rows[0][0]
    total = LaurentPoly.zero(arity)
    for j in range(m):
        if rows[0][j].is_zero():
            continue
        sub = [[row[jj] for jj in range(m) if jj != j] for row in rows[1:]]
        term = rows[0][j] * _det_cofactor(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def minor(rows, key) -> LaurentPoly:
    """Exact determinant of the submatrix of a square matrix, given by its
    rows, on the key's rows and columns (1-based), by cofactor expansion
    along the first row, with no memo."""
    for x in key.rows + key.cols:
        if not (1 <= x <= len(rows)):
            raise ShapeError(f"index {x} out of range 1..{len(rows)}")
    if not key.rows:
        return LaurentPoly.one(rows[0][0].arity)
    return _det_cofactor([[rows[i - 1][j - 1] for j in key.cols] for i in key.rows])


def one_param_product(word, size: int) -> list:
    """The rows of the exact product of elementary unitriangular factors:
    the l-th factor is the identity plus t_l in entry (i_l, i_l + 1).
    Multiplying by it on the right adds t_l times column i_l to column
    i_l + 1."""
    word = tuple(word)
    arity = len(word)
    for letter in word:
        if not (1 <= letter < size):
            raise IndexError(f"letter {letter} needs 1 <= letter < {size}")
    prod = [
        [LaurentPoly.one(arity) if i == j else LaurentPoly.zero(arity) for j in range(size)]
        for i in range(size)
    ]
    for l, letter in enumerate(word):
        t = LaurentPoly.variable(l, arity)
        for row in prod:
            if not row[letter - 1].is_zero():
                row[letter] = row[letter] + row[letter - 1] * t
    return prod


def matmul_product(word, size: int):
    """The rows of the one-parameter product, each factor I + t_l E_{i_l,i_l+1}
    multiplied in as a full matrix product."""
    arity = len(word)
    one, zero = LaurentPoly.one(arity), LaurentPoly.zero(arity)
    prod = [[one if i == j else zero for j in range(size)] for i in range(size)]
    for l, letter in enumerate(word):
        factor = [[one if i == j else zero for j in range(size)] for i in range(size)]
        factor[letter - 1][letter] = LaurentPoly.variable(l, arity)
        new = []
        for i in range(size):
            row = []
            for j in range(size):
                acc = zero
                for k in range(size):
                    if not prod[i][k].is_zero() and not factor[k][j].is_zero():
                        acc = acc + prod[i][k] * factor[k][j]
                row.append(acc)
            new.append(row)
        prod = new
    return prod


def rescan_topological_order(n: int, arrows) -> list[int] | None:
    """Sources-first topological order, or None if there is a cycle: pop
    the smallest ready vertex, scan every arrow for its successors and sort
    the ready list again."""
    indeg = {v: 0 for v in range(1, n + 1)}
    for (_, t) in arrows:
        indeg[t] += 1
    order: list[int] = []
    ready = sorted(v for v in indeg if indeg[v] == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        for (s, t) in arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0 and t not in ready:
                    ready.append(t)
        ready.sort()
    return order if len(order) == n else None
