"""Shuffle algebra, generating functions of Euler characteristics as path
sums over divided-power stages, their evaluation, and a brute-force
flag-counting oracle on thin modules."""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import factorial, prod
from operator import sub

from . import mesh
from .errors import NotThinError, SummandIndexError
from .quiver import acyclic_order, adapted_word, cartan, fundamental_weight, s_weight


class ShuffleSeries:
    """Finite linear combination of words over {1..n} with integer
    coefficients: the values of the Euler layer count flags."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    clean[tuple(word)] = coeff
        self.terms = clean

    @staticmethod
    def unit() -> "ShuffleSeries":
        return ShuffleSeries({(): 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, ShuffleSeries) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "ShuffleSeries") -> "ShuffleSeries":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return ShuffleSeries(terms)

    def __neg__(self) -> "ShuffleSeries":
        return ShuffleSeries({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "ShuffleSeries") -> "ShuffleSeries":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"ShuffleSeries({self.terms})"


@lru_cache(maxsize=None)
def _shuffle_words(u: tuple, v: tuple) -> tuple:
    """Multiset of shuffles of two words, as ((word, multiplicity), ...)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict = {}
    for w, m in _shuffle_words(u[1:], v):
        key = (u[0],) + w
        out[key] = out.get(key, 0) + m
    for w, m in _shuffle_words(u, v[1:]):
        key = (v[0],) + w
        out[key] = out.get(key, 0) + m
    return tuple(sorted(out.items()))


def shuffle(a: ShuffleSeries, b: ShuffleSeries) -> ShuffleSeries:
    """Commutative, associative shuffle product with unit w[]."""
    terms: dict = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            c = cu * cv
            for w, m in _shuffle_words(u, v):
                terms[w] = terms.get(w, 0) + c * m
    return ShuffleSeries(terms)


def b_exponents(letters: tuple, k: int, c: tuple):
    """(b_1, ..., b_k) for the word (i_1, ..., i_r): b_k = 1 and
    b_j = (s_{i_{j+1}} ... s_{i_k}(w_{i_k}))(alpha_{i_j}^vee)."""
    if not (1 <= k <= len(letters)):
        raise SummandIndexError(f"k={k} out of range 1..{len(letters)}")
    bs = [0] * k
    bs[k - 1] = 1
    lam = fundamental_weight(letters[k - 1], len(c))
    for j in range(k - 1, 0, -1):
        lam = s_weight(lam, letters[j], c)
        bs[j - 1] = lam[letters[j - 1] - 1]
    return tuple(bs)


def stage_dag(cat: mesh.CategoryModel, ordering, k: int) -> tuple:
    """The divided-power stage DAG of the k-th summand of T_M^vee along the
    ordering, as ``(edges, length)``.

    The stages (i_s, b_s) are the factors of f_{i_1}^{(b_1)} ... f_{i_k}^{(b_k)}
    with b_s > 0, in the order they act on the empty word (rightmost factor
    first), in weight lam = w_{i_k}.  A state counts the letters x_s read so
    far from each stage, as one mixed-radix int; reading the next letter of
    stage s weighs lam(alpha_{i_s}^vee) - sum_{t<s} x_t c(i_t, i_s) - x_s,
    which is the divided power's b_s! folded into its letters.  ``edges``
    maps each reachable state to its out-edges by letter, in descending
    letter order (the order a depth-first stack pushes them), zero weights
    dropped: ``(letter, next state, weight)`` for a letter with one edge,
    ``(letter, None, ((next state, weight), ...))`` otherwise.  ``length``
    is the number of letters of every word, b_1 + ... + b_k.

    Each state carries its counts and its stage weights: a letter of stage
    s lowers stage s's weight by 1 and each later stage t's by c(i_s, i_t),
    one drop vector per stage.  A state is pushed once, when first seen,
    and maps to None in ``edges`` until it is built."""
    mesh.validate_ordering(cat, ordering)
    letters = adapted_word(cat, ordering)
    c = cartan(cat.terminal.q)
    bs = b_exponents(letters, k, c)
    lam = fundamental_weight(letters[k - 1], len(c))
    stages = [(letters[j - 1], bs[j - 1]) for j in range(k, 0, -1) if bs[j - 1]]
    drops = [
        tuple(0 if t < s else 1 if t == s else c[i - 1][j - 1] for t, (j, _) in enumerate(stages))
        for s, (i, _) in enumerate(stages)
    ]
    # (stage, letter, radix, b_s), letters descending, stages ascending within a letter
    order = [
        (s, i, prod(b + 1 for _, b in stages[:s]), b)
        for s, (i, b) in sorted(enumerate(stages), key=lambda e: (-e[1][0], e[0]))
    ]
    edges: dict = {0: None}
    todo = [(0, (0,) * len(stages), tuple(lam[i - 1] for i, _ in stages))]
    while todo:
        state, xs, weights = todo.pop()
        out = []
        for s, i, radix, b in order:
            x = xs[s]
            if x < b and (weight := weights[s]):
                target = state + radix
                if target not in edges:
                    edges[target] = None
                    todo.append((target, xs[:s] + (x + 1,) + xs[s + 1:], tuple(map(sub, weights, drops[s]))))
                if out and out[-1][0] == i:  # a second stage of this letter
                    _, single, w = out[-1]
                    out[-1] = (i, None, (w if single is None else ((single, w),)) + ((target, weight),))
                else:
                    out.append((i, target, weight))
        edges[state] = tuple(out)
    return edges, sum(bs)


def _forced_run(edges: dict, state, tokens) -> tuple:
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


def expand(edges: dict, length: int, tokens, key):
    """Yield ``(key(word), coefficient)`` for every word of nonzero
    coefficient, in ascending letter order, where ``word`` is the list of
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
                run = runs[state] = _forced_run(edges, state, tokens)
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


def dag_coefficient_sum(edges: dict, length: int) -> int:
    """The sum of the coefficients of the series a ``stage_dag`` spells: the
    weights of all paths of ``length`` letters from the empty state, summed
    level by level without expanding a word (a dead end adds 0)."""
    level = {0: 1}
    for _ in range(length):
        following: dict = defaultdict(int)
        for state, coeff in level.items():
            for _, target, weight in edges[state]:
                for target, weight in weight if target is None else [(target, weight)]:
                    following[target] += coeff * weight
        level = following
    return sum(level.values())


def g_module(cat: mesh.CategoryModel, ordering, k: int) -> ShuffleSeries:
    """Generating function of flag Euler characteristics of the k-th
    summand of T_M^vee along the ordering: the divided lowering operators
    f_{i_1}^{(b_1)} ... f_{i_k}^{(b_k)} applied to the empty word, read as
    a path sum over the stage DAG.  Nothing is divided."""
    edges, length = stage_dag(cat, ordering, k)
    series = ShuffleSeries()  # the expansion yields tuple words, no zeros: nothing to clean
    series.terms = dict(expand(edges, length, range(cat.terminal.q.n + 1), tuple))
    return series


def evaluate_phi(s: ShuffleSeries, seq):
    """Evaluate on x_{i_1}(t_1) ... x_{i_m}(t_m): the polynomial
    sum_a coeff(i^a) t^a / a!, returned as a map from exponent tuples to
    exact rationals.  A walk reads each word as runs of seq, entering a
    branch only if ``ok[l][j]``: word[j:] reads as runs of seq[l:].  Leaves
    add integer coefficients per exponent key, divided by a! once at the end."""
    from fractions import Fraction

    seq = tuple(seq)
    m = len(seq)
    poly: dict = {}

    def walk(j, l, exps):
        if l == m:
            key = tuple(exps)
            poly[key] = poly.get(key, 0) + coeff
            return
        a = 0
        while True:
            if ok[l + 1][j + a]:
                walk(j + a, l + 1, exps + [a])
            if j + a == len(word) or word[j + a] != seq[l]:
                break
            a += 1

    for word, coeff in s.terms.items():
        ok = [[False] * len(word) + [True] for _ in range(m + 1)]
        for l in range(m - 1, -1, -1):
            row, later, letter = ok[l], ok[l + 1], seq[l]
            for j in range(len(word) - 1, -1, -1):
                row[j] = later[j] or (word[j] == letter and row[j + 1])
        if ok[0][0]:
            walk(0, 0, [])
    return {k: Fraction(v, prod(map(factorial, k))) for k, v in poly.items() if v}


class ThinModule:
    """Slots carrying a vertex label each, with an acyclic arrow relation:
    an arrow u -> v means every submodule containing slot u contains slot v.

    Only the zero/nonzero arrow pattern enters the chain count; whether a
    scalar assignment satisfies the defining relation of the algebra is the
    caller's responsibility."""

    __slots__ = ("slots", "arrows")

    def __init__(self, slots: tuple, arrows: tuple = ()):
        self.slots, self.arrows = slots, arrows
        index = {name: pos for pos, (name, _) in enumerate(slots, 1)}
        if len(index) != len(slots):
            raise NotThinError("duplicate slot names")
        for (u, v) in arrows:
            if u not in index or v not in index:
                raise NotThinError(f"arrow ({u},{v}) references unknown slot")
        if acyclic_order(len(index), [(index[u], index[v]) for (u, v) in arrows]) is None:
            raise NotThinError("arrow relation has a cycle")

def flag_oracle(m: ThinModule) -> ShuffleSeries:
    """Enumerate all maximal chains of arrow-closed slot subsets, ascending,
    and emit the sum over chains of the word of added vertex labels."""
    vertex_of = dict(m.slots)
    targets = {s: set() for s in vertex_of}
    for (u, v) in m.arrows:
        targets[u].add(v)
    all_slots = frozenset(vertex_of)
    memo: dict = {}

    def complete(done: frozenset) -> ShuffleSeries:
        if done == all_slots:
            return ShuffleSeries.unit()
        if done in memo:
            return memo[done]
        terms: dict = {}
        for s in all_slots - done:
            if targets[s] <= done:
                rest = complete(done | {s})
                for w, c in rest.terms.items():
                    key = (vertex_of[s],) + w
                    terms[key] = terms.get(key, 0) + c
        res = ShuffleSeries(terms)
        memo[done] = res
        return res

    return complete(frozenset())


# -- text / json forms -------------------------------------------------------


def _series_text(terms) -> str:
    """(comma-joined word, coefficient) pairs, in order, as
    ``c·w[...]`` terms joined by their signs; ``0`` if there are none."""
    parts = []
    for word, c in terms:
        body = f"w[{word}]" if c in (1, -1) else f"{abs(c)}·w[{word}]"
        parts.append(f"- {body}" if c < 0 else f"+ {body}")
    if not parts:
        return "0"
    head = parts[0]
    parts[0] = head[2:] if head[0] == "+" else "-" + head[2:]
    return " ".join(parts)


def to_json(s: ShuffleSeries) -> dict:
    """Words as comma-joined keys, unsorted: JSON writers sort the keys."""
    return {",".join(map(str, word)): str(coeff) for word, coeff in s.terms.items()}


def json_text(cat: mesh.CategoryModel, ordering, k: int) -> str:
    """The text ``json.dumps(to_json(g_module(cat, ordering, k)), indent=0,
    sort_keys=True)`` gives, written from one expansion: each word's key is
    joined from per-letter strings, and the lines, already in letter order,
    are sorted as strings (a nearly linear sort).  String order differs
    from letter order past letter 9 ("1,10" < "1,2"); a line sorts as its
    key does, since the '"' that closes a key sorts before ',' and every
    digit."""
    edges, length = stage_dag(cat, ordering, k)
    tokens = [str(i) for i in range(cat.terminal.q.n + 1)]
    lines = sorted([f'"{w}": "{c}"' for w, c in expand(edges, length, tokens, ",".join)])
    return "{\n" + ",\n".join(lines) + "\n}" if lines else "{}"


def text(cat: mesh.CategoryModel, ordering, k: int) -> str:
    """The terms c·w[...] of ``g_module(cat, ordering, k)``, sorted
    lexicographically by word, written from one expansion: its words come
    in letter order, each joined once from per-letter strings."""
    edges, length = stage_dag(cat, ordering, k)
    tokens = [str(i) for i in range(cat.terminal.q.n + 1)]
    return _series_text(expand(edges, length, tokens, ",".join))
