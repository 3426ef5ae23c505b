"""Quivers, Cartan matrices, reflections and reduced words.

Vertices are the integers 1..n.  Arrows form a multiset: parallel arrows
are allowed and tracked with multiplicity, loops are not.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

from .errors import (
    CycleError,
    DisconnectedError,
    InputFormatError,
    LoopError,
    NotAdaptedError,
    NotReducedError,
    TooSmallError,
    VertexIndexError,
)


class Quiver(NamedTuple):
    n: int
    arrows: tuple[tuple[int, int], ...]

    def arrows_out(self, v: int) -> list[int]:
        """Targets of arrows starting at v, with multiplicity."""
        return [t for (s, t) in self.arrows if s == v]

    def arrows_in(self, v: int) -> list[int]:
        """Sources of arrows ending at v, with multiplicity."""
        return [s for (s, t) in self.arrows if t == v]

    def is_sink(self, v: int) -> bool:
        return not self.arrows_out(v)

    def opposite(self) -> "Quiver":
        return Quiver(self.n, tuple(sorted((t, s) for (s, t) in self.arrows)))


class CartanMatrix(NamedTuple):
    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i - 1][j - 1]


class Weight(NamedTuple):
    """A weight stored purely through its pairings lambda(alpha_j^vee)."""

    pairings: tuple[int, ...]

    def __getitem__(self, j: int) -> int:
        return self.pairings[j - 1]


class RootVec(NamedTuple):
    """Element of the root lattice in simple-root coordinates."""

    coords: tuple[int, ...]

    def __getitem__(self, j: int) -> int:
        return self.coords[j - 1]

    def is_positive(self) -> bool:
        return any(self.coords) and all(c >= 0 for c in self.coords)


class ReducedWord(NamedTuple):
    """Letters (i_1, ..., i_r), read right-to-left as w = s_{i_r} ... s_{i_1}."""

    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)


def fundamental_weight(i: int, n: int) -> Weight:
    return Weight(tuple(1 if j == i else 0 for j in range(1, n + 1)))


def simple_root(i: int, n: int) -> RootVec:
    return RootVec(tuple(1 if j == i else 0 for j in range(1, n + 1)))


def _topological_order(n: int, arrows) -> list[int] | None:
    """Sources-first topological order, or None if there is a cycle: Kahn's
    algorithm with a heap, so the smallest ready vertex goes first."""
    indeg = [0] * (n + 1)
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for (s, t) in arrows:
        indeg[t] += 1
        succ[s].append(t)
    ready = [v for v in range(1, n + 1) if not indeg[v]]  # ascending, so a heap
    order: list[int] = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for t in succ[v]:
            indeg[t] -= 1
            if not indeg[t]:
                heappush(ready, t)
    return order if len(order) == n else None


def topological_order(q: Quiver) -> list[int]:
    order = _topological_order(q.n, q.arrows)
    if order is None:
        raise CycleError("quiver has a directed cycle")
    return order


def validate_quiver(n: int, arrows) -> Quiver:
    """Check the Quiver invariants and return the validated value."""
    if n < 2:
        raise TooSmallError(f"need at least 2 vertices, got {n}")
    arrs = []
    for (s, t) in arrows:
        if not (1 <= s <= n and 1 <= t <= n):
            raise VertexIndexError(f"arrow ({s},{t}) out of range 1..{n}")
        if s == t:
            raise LoopError(f"loop at vertex {s}")
        arrs.append((s, t))
    if len(arrs) < n - 1:  # refused before any table of n entries is built
        raise DisconnectedError(f"{len(arrs)} arrows cannot connect {n} vertices")
    if _topological_order(n, arrs) is None:
        raise CycleError("quiver has a directed cycle")
    # undirected connectivity
    adj = {v: set() for v in range(1, n + 1)}
    for (s, t) in arrs:
        adj[s].add(t)
        adj[t].add(s)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        raise DisconnectedError("underlying graph is not connected")
    return Quiver(n, tuple(sorted(arrs)))


def int_pairs(value, what: str) -> list[tuple[int, int]]:
    """``value`` as a list of integer pairs (JSON true and false are not
    integers, and a float is never truncated)."""
    if not isinstance(value, list) or any(
        not isinstance(p, list) or len(p) != 2 or any(type(x) is not int for x in p)
        for p in value
    ):
        raise InputFormatError(f"{what} must be a list of integer pairs")
    return [tuple(p) for p in value]


def from_json(data: dict) -> Quiver:
    """The quiver of ``{"n": n, "arrows": [[s, t], ...]}``, checked: ``n``
    and both ends of every arrow are JSON integers."""
    if not isinstance(data, dict) or type(data.get("n")) is not int:
        raise InputFormatError("n must be an integer")
    return validate_quiver(data["n"], int_pairs(data.get("arrows"), "arrows"))


def cartan(q: Quiver) -> CartanMatrix:
    """Symmetric generalized Cartan matrix of the underlying graph."""
    n = q.n
    edges = [[0] * (n + 1) for _ in range(n + 1)]
    for (s, t) in q.arrows:
        edges[s][t] += 1
        edges[t][s] += 1
    rows = []
    for i in range(1, n + 1):
        rows.append(tuple(2 if i == j else -edges[i][j] for j in range(1, n + 1)))
    return CartanMatrix(tuple(rows))


def reflect(q: Quiver, k: int) -> Quiver:
    """Reverse all arrows incident to vertex k (the operation sigma_k)."""
    if not (1 <= k <= q.n):
        raise VertexIndexError(f"vertex {k} out of range 1..{q.n}")
    flipped = tuple(
        sorted((t, s) if k in (s, t) else (s, t) for (s, t) in q.arrows)
    )
    return Quiver(q.n, flipped)


def s_weight(w: Weight, i: int, c: CartanMatrix) -> Weight:
    """Simple reflection s_i on pairing vectors:
    (s_i w)_j = w_j - w_i * c_ij."""
    wi = w[i]
    return Weight(tuple(w[j] - wi * c[i, j] for j in range(1, c.n + 1)))


def s_root(d: RootVec, i: int, c: CartanMatrix) -> RootVec:
    """Simple reflection s_i on root coordinates: only the i-th coordinate
    moves, by d_i -> d_i - sum_j d_j c_ji."""
    pairing = sum(d[j] * c[j, i] for j in range(1, c.n + 1))
    coords = list(d.coords)
    coords[i - 1] -= pairing
    return RootVec(tuple(coords))


def validate_sink_sequence(q: Quiver, letters) -> None:
    """Check that (i_1, ..., i_r) is a sink sequence for q: i_1 is a sink of
    q and each i_{k+1} is a sink of sigma_{i_k} ... sigma_{i_1}(q)."""
    cur = q
    for pos, letter in enumerate(letters):
        if not (1 <= letter <= q.n):
            raise VertexIndexError(f"letter {letter} out of range 1..{q.n}")
        if not cur.is_sink(letter):
            raise NotAdaptedError(
                f"letter {letter} at position {pos + 1} is not a sink"
            )
        cur = reflect(cur, letter)


def adapted_word(cat, ordering) -> ReducedWord:
    """Reduced word of the Weyl group element attached to a terminal module.

    ``ordering`` is a Gamma_M-adapted list of mesh vertices; the j-th letter
    is the Q-vertex of the j-th mesh vertex.  The result is validated by the
    sink-sequence test on Q^op and has length r = sum(t_i + 1).
    """
    q = cat.terminal.q
    letters = tuple(v.i for v in ordering)
    if len(letters) != len(cat.vertices):
        raise NotAdaptedError(
            f"ordering has {len(letters)} entries, expected {len(cat.vertices)}"
        )
    validate_sink_sequence(q.opposite(), letters)
    return ReducedWord(letters)


def inversion_roots(word: ReducedWord, c: CartanMatrix) -> list[RootVec]:
    """The roots alpha_{i_1}, s_{i_1}(alpha_{i_2}), ...,
    s_{i_1}...s_{i_{r-1}}(alpha_{i_r}).

    All must come out positive and pairwise distinct, otherwise the word is
    not reduced.  This positivity test works uniformly for infinite Weyl
    groups, where a length comparison is unavailable.
    """
    n = c.n
    roots: list[RootVec] = []
    for j, letter in enumerate(word.letters):
        root = simple_root(letter, n)
        for k in range(j - 1, -1, -1):
            root = s_root(root, word.letters[k], c)
        if not root.is_positive():
            raise NotReducedError(
                f"inversion root {j + 1} of {word.letters} is not positive"
            )
        if root in roots:
            raise NotReducedError(
                f"inversion root {j + 1} of {word.letters} is duplicated"
            )
        roots.append(root)
    return roots
