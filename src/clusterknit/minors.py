"""Symbolic minors of unitriangular matrices and the interval-to-minor
dictionary for linearly ordered type A."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LabelRangeError, ShapeError, VertexIndexError
from .laurent import LaurentPoly


@dataclass(frozen=True)
class SymbolicMatrix:
    size: int
    arity: int
    entries: tuple

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i - 1][j - 1]


@dataclass(frozen=True)
class MinorKey:
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(sorted(self.rows)))
        object.__setattr__(self, "cols", tuple(sorted(self.cols)))
        if len(self.rows) != len(self.cols):
            raise ShapeError(
                f"row set {self.rows} and column set {self.cols} differ in size"
            )


def unitriangular(size: int) -> SymbolicMatrix:
    """Unitriangular matrix with fresh variables x_1, x_2, ... filling the
    strictly-upper entries row-major (row 1 first)."""
    if size < 2:
        raise ShapeError("need size >= 2")
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
        rows.append(tuple(row))
    return SymbolicMatrix(size, arity, tuple(rows))


def _det_cofactor(rows) -> LaurentPoly:
    m = len(rows)
    arity = rows[0][0].arity
    if m == 1:
        return rows[0][0]
    total = LaurentPoly.zero(arity)
    for j in range(m):
        if rows[0][j].is_zero():
            continue
        sub = [
            [row[jj] for jj in range(m) if jj != j] for row in rows[1:]
        ]
        term = rows[0][j] * _det_cofactor(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def minor(mtx: SymbolicMatrix, key: MinorKey) -> LaurentPoly:
    """Exact determinant of the submatrix on the given rows and columns, by
    cofactor expansion along the first row."""
    for x in key.rows + key.cols:
        if not (1 <= x <= mtx.size):
            raise ShapeError(f"index {x} out of range 1..{mtx.size}")
    rows = [
        [mtx[i, j] for j in key.cols] for i in key.rows
    ]
    if not rows:
        return LaurentPoly.one(mtx.arity)
    return _det_cofactor(rows)


def interval_minor_key(i: int, a: int, b: int, n: int) -> MinorKey:
    """Rows [1, i-a], columns [1, i-b-1] + [n-b+1, n-a+1], the key whose
    minor realizes the interval variable T_{i,[a,b]} on the linearly
    ordered type A_n quiver (t_i = i - 1).  [1,0] is empty."""
    if not (1 <= i <= n and 0 <= a <= b <= i - 1):
        raise LabelRangeError(f"need 1 <= i <= {n} and 0 <= a <= b <= i-1")
    rows = tuple(range(1, i - a + 1))
    cols = tuple(range(1, i - b)) + tuple(range(n - b + 1, n - a + 2))
    return MinorKey(rows, cols)


def flag_minors(word, size: int) -> dict:
    """The nonzero minors on rows [1, j], 1 <= j < size, of the product of
    elementary unitriangular factors: the l-th factor is the identity plus
    t_l in entry (i_l, i_l + 1).  Multiplying by it on the right adds t_l
    times column i_l to column i_l + 1, so only a minor whose columns hold
    i_l + 1 but not i_l changes: it gains t_l times the minor with i_l in
    place of i_l + 1.  Keys are ``MinorKey``s; an absent key is zero."""
    word = tuple(word)
    if not all(1 <= letter < size for letter in word):
        raise VertexIndexError(f"word {word} needs letters in 1..{size - 1}")
    arity = len(word)
    deltas = {tuple(range(1, j + 1)): LaurentPoly.one(arity) for j in range(1, size)}
    for l, letter in enumerate(word):
        t = LaurentPoly.variable(l, arity)
        for cols, value in list(deltas.items()):
            if letter in cols and letter + 1 not in cols:
                moved = tuple(c + (c == letter) for c in cols)
                old = deltas.get(moved)
                deltas[moved] = value * t if old is None else old + value * t
    return {MinorKey(tuple(range(1, len(cols) + 1)), cols): v for cols, v in deltas.items()}


def w_minor(prefix, j: int, size: int) -> MinorKey:
    """Key of the extremal minor for a word prefix: rows [1, j], columns the
    image of [1, j] under s_{i_1} ... s_{i_k} acting as adjacent
    transpositions of [1, size]."""
    prefix = tuple(prefix)
    if not (1 <= j < size and all(1 <= letter < size for letter in prefix)):
        raise VertexIndexError(f"need 1 <= j < {size} and prefix {prefix} in 1..{size - 1}")

    def act(x: int) -> int:
        for letter in reversed(prefix):
            if x == letter:
                x = letter + 1
            elif x == letter + 1:
                x = letter
        return x

    cols = tuple(sorted(act(x) for x in range(1, j + 1)))
    return MinorKey(tuple(range(1, j + 1)), cols)
