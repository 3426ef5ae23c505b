"""Exchange matrices and Fomin-Zelevinsky matrix mutation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FrozenMutationError, SeedFormatError, TwoCycleError, VertexIndexError
from .quiver import Quiver


@dataclass(frozen=True)
class ExchangeMatrix:
    """The r x r signed arrow-count matrix B as mirrored sparse rows and
    columns, ``rows[i - 1] = {j: b_ij}`` and ``cols[j - 1] = {i: b_ij}``
    with no zeros stored, plus the frozen index set.  The dicts are shared
    between matrices and never changed in place.

    Mutation does not control the entries between two frozen indices; they
    are carried along but equality ignores them.
    """

    rows: tuple
    cols: tuple
    frozen: frozenset = field(default_factory=frozenset)

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def b(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix, as a tuple of rows."""
        r, dense = self.r, []
        for row in self.rows:
            line = [0] * r
            for j, v in row.items():
                line[j - 1] = v
            dense.append(tuple(line))
        return tuple(dense)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        if self.r != other.r or self.frozen != other.frozen:
            return False

        def unfrozen(row):
            return {j: v for j, v in row.items() if j not in self.frozen}

        return all(
            unfrozen(x) == unfrozen(y) if i in self.frozen else x == y
            for i, (x, y) in enumerate(zip(self.rows, other.rows), 1)
        )

    def __hash__(self):
        return hash((self.r, self.frozen))


def _from_dense(b, frozen: frozenset) -> ExchangeMatrix:
    def sparse(line):
        return {j: v for j, v in enumerate(line, 1) if v}

    return ExchangeMatrix(tuple(map(sparse, b)), tuple(map(sparse, zip(*b))), frozen)


def _check_skew_principal(b, frozen) -> None:
    r = len(b)
    for i in range(r):
        for j in range(r):
            if (i + 1) in frozen or (j + 1) in frozen:
                continue
            if b[i][j] != -b[j][i]:
                raise SeedFormatError("principal part is not skew-symmetric")


def _check_frozen(frozen: frozenset, r: int) -> None:
    if any(not (1 <= k <= r) for k in frozen):
        raise SeedFormatError(f"frozen index out of range 1..{r}")


def make_matrix(rows, frozen=()) -> ExchangeMatrix:
    b = tuple(tuple(int(x) for x in row) for row in rows)
    frozen = frozenset(frozen)
    if any(len(row) != len(b) for row in b):
        raise SeedFormatError("matrix must be square")
    _check_frozen(frozen, len(b))
    _check_skew_principal(b, frozen)
    return _from_dense(b, frozen)


def b_matrix(g: Quiver, frozen=()) -> ExchangeMatrix:
    """B(Gamma): b_ij = #arrows(j -> i) - #arrows(i -> j).

    Rejects loops and 2-cycles touching a mutable vertex: those are not
    valid exchange quivers.
    """
    frozen = frozenset(frozen)
    r = g.n
    _check_frozen(frozen, r)
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
    return _from_dense(rows, frozen)


def _check_mutable(m: ExchangeMatrix, k: int) -> None:
    if k in m.frozen:
        raise FrozenMutationError(f"index {k} is frozen")
    if not (1 <= k <= m.r):
        raise VertexIndexError(f"index {k} out of range 1..{m.r}")


def mutate_matrix(m: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """mu_k: flip row and column k, and b'_ij = b_ij + b_ik |b_kj| where
    b_ik and b_kj have the same sign.  Only the rows i with b_ik != 0 and
    the columns j with b_kj != 0 are rebuilt; every other row and column is
    the parent's own dict."""
    _check_mutable(m, k)
    col_k, row_k = m.cols[k - 1], m.rows[k - 1]
    rows, cols = list(m.rows), list(m.cols)
    rows[k - 1] = {j: -v for j, v in row_k.items()}
    cols[k - 1] = {i: -v for i, v in col_k.items()}
    for j, v in row_k.items():
        cols[j - 1] = col = dict(cols[j - 1])
        col[k] = -v
    for i, c in col_k.items():
        rows[i - 1] = row = dict(rows[i - 1])
        row[k] = -c
        for j, v in row_k.items():
            if (c > 0) == (v > 0):
                col = cols[j - 1]
                x = row.get(j, 0) + c * abs(v)
                if x:
                    row[j] = col[i] = x
                else:
                    del row[j], col[i]
    return ExchangeMatrix(tuple(rows), tuple(cols), m.frozen)


def arrows_at(m: ExchangeMatrix, k: int):
    """(outgoing, incoming) sides of the exchange relation at the mutable
    index k, as {position: multiplicity} in position order: b_ik > 0 means
    b_ik arrows k -> i, b_ik < 0 means |b_ik| arrows i -> k."""
    _check_mutable(m, k)
    out = {}
    inc = {}
    for i, v in sorted(m.cols[k - 1].items()):
        if v > 0:
            out[i] = v
        else:
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
