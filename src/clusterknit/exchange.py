"""Exchange matrices and Fomin-Zelevinsky matrix mutation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FrozenMutationError, SeedFormatError, TwoCycleError
from .quiver import Quiver


@dataclass(frozen=True)
class ExchangeMatrix:
    """Full r x r signed arrow-count matrix plus the frozen index set.

    Mutation does not control the entries between two frozen indices; they
    are carried along but equality ignores them.
    """

    b: tuple[tuple[int, ...], ...]
    frozen: frozenset = field(default_factory=frozenset)

    @property
    def r(self) -> int:
        return len(self.b)

    def entry(self, i: int, j: int) -> int:
        return self.b[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        if self.r != other.r or self.frozen != other.frozen:
            return False
        for i in range(1, self.r + 1):
            for j in range(1, self.r + 1):
                if i in self.frozen and j in self.frozen:
                    continue
                if self.entry(i, j) != other.entry(i, j):
                    return False
        return True

    def __hash__(self):
        return hash((self.r, self.frozen))


def _check_skew_principal(b, frozen) -> None:
    r = len(b)
    for i in range(r):
        for j in range(r):
            if (i + 1) in frozen or (j + 1) in frozen:
                continue
            if b[i][j] != -b[j][i]:
                raise ValueError("principal part is not skew-symmetric")


def make_matrix(rows, frozen=()) -> ExchangeMatrix:
    b = tuple(tuple(int(x) for x in row) for row in rows)
    frozen = frozenset(frozen)
    if any(len(row) != len(b) for row in b):
        raise ValueError("matrix must be square")
    if any(not (1 <= k <= len(b)) for k in frozen):
        raise IndexError("frozen index out of range")
    _check_skew_principal(b, frozen)
    return ExchangeMatrix(b, frozen)


def b_matrix(g: Quiver, frozen=()) -> ExchangeMatrix:
    """B(Gamma): b_ij = #arrows(j -> i) - #arrows(i -> j).

    Rejects loops and 2-cycles touching a mutable vertex: those are not
    valid exchange quivers.
    """
    frozen = frozenset(frozen)
    r = g.n
    if any(not (1 <= k <= r) for k in frozen):
        raise IndexError("frozen index out of range")
    counts = [[0] * (r + 1) for _ in range(r + 1)]
    for (s, t) in g.arrows:
        if s == t:
            raise TwoCycleError(f"loop at vertex {s}")
        counts[s][t] += 1
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            if counts[i][j] and counts[j][i] and not (i in frozen and j in frozen):
                raise TwoCycleError(f"2-cycle between {i} and {j}")
    rows = tuple(
        tuple(counts[j][i] - counts[i][j] for j in range(1, r + 1))
        for i in range(1, r + 1)
    )
    return ExchangeMatrix(rows, frozen)


def _check_mutable(m: ExchangeMatrix, k: int) -> None:
    if k in m.frozen:
        raise FrozenMutationError(f"index {k} is frozen")
    if not (1 <= k <= m.r):
        raise IndexError(f"index {k} out of range 1..{m.r}")


def mutate_matrix(m: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """mu_k: flip row/column k, and elsewhere
    b'_ij = b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2.  A row with b_ik = 0 is
    left as it is, so only the rows of k and its neighbours are rebuilt."""
    _check_mutable(m, k)
    kk = k - 1
    row_k = m.b[kk]
    rows = list(m.b)
    for i, row in enumerate(m.b):
        c = row[kk]
        if i == kk:
            rows[i] = tuple(-x for x in row)
        elif c:
            rows[i] = tuple(
                -c if j == kk else x + (abs(c) * y + c * abs(y)) // 2
                for j, (x, y) in enumerate(zip(row, row_k))
            )
    return ExchangeMatrix(tuple(rows), m.frozen)


def arrows_at(m: ExchangeMatrix, k: int):
    """(outgoing, incoming) sides of the exchange relation at the mutable
    index k, as {position: multiplicity} in position order: b_ik > 0 means
    b_ik arrows k -> i, b_ik < 0 means |b_ik| arrows i -> k."""
    _check_mutable(m, k)
    out = {}
    inc = {}
    for i, row in enumerate(m.b, 1):
        v = row[k - 1]
        if v > 0:
            out[i] = v
        elif v < 0:
            inc[i] = -v
    return out, inc


def to_json(m: ExchangeMatrix) -> dict:
    return {"b": [list(row) for row in m.b], "frozen": sorted(m.frozen)}


def from_json(data: dict) -> ExchangeMatrix:
    """The matrix of ``to_json``, checked: square rows of integers (JSON
    true and false are not integers) and frozen indices in 1..r."""
    rows = data.get("b") if isinstance(data, dict) else None
    if not isinstance(rows, list) or any(
        not isinstance(row, list) or len(row) != len(rows) or any(type(x) is not int for x in row)
        for row in rows
    ):
        raise SeedFormatError("matrix b must be a square list of integer rows")
    frozen = data.get("frozen", [])
    if not isinstance(frozen, list) or any(
        type(k) is not int or not 1 <= k <= len(rows) for k in frozen
    ):
        raise SeedFormatError(f"frozen must be a list of indices in 1..{len(rows)}")
    return make_matrix(rows, frozen)
