"""Row-initial minors of products of elementary unipotent factors, by one
column recurrence, and the interval-to-minor dictionary for linearly
ordered type A.  The generic unitriangular matrix and the one-parameter
products x_{i_1}(t_1) ... x_{i_m}(t_m) are both products of factors
I + t E_{r,c} with r < c: their minors on rows [1, j] are the chamber
minors of Berenstein-Fomin-Zelevinsky."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import LabelRangeError, ShapeError, VertexIndexError
from .laurent import LaurentPoly


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


def product_minors(factors, size: int, arity: int) -> dict:
    """The nonzero minors on rows [1, j], 1 <= j < size, of the product of
    the factors I + t E_{r,c} (r < c, t of the given arity) taken left to
    right.  Multiplying by a factor on the right adds t times column r to
    column c, so only a minor whose columns hold c but not r changes: it
    gains t times the minor with r in place of c, negated when an odd
    number of its columns lie strictly between r and c.  Keys are
    ``MinorKey``s; a sum that cancels is dropped, so absent means zero."""
    deltas = {tuple(range(1, j + 1)): LaurentPoly.one(arity) for j in range(1, size)}
    for r, c, t in factors:
        for cols, value in list(deltas.items()):
            if r in cols and c not in cols:
                moved = tuple(sorted(c if x == r else x for x in cols))
                gain = -(value * t) if sum(r < x < c for x in cols) % 2 else value * t
                old = deltas.get(moved)
                total = gain if old is None else old + gain
                if total.is_zero():
                    del deltas[moved]
                else:
                    deltas[moved] = total
    return {MinorKey(tuple(range(1, len(cols) + 1)), cols): v for cols, v in deltas.items()}


def flag_minors(word, size: int) -> dict:
    """``product_minors`` of the one-parameter product whose l-th factor is
    the identity plus t_l in entry (i_l, i_l + 1)."""
    word = tuple(word)
    if not all(1 <= letter < size for letter in word):
        raise VertexIndexError(f"word {word} needs letters in 1..{size - 1}")
    arity = len(word)
    factors = ((i, i + 1, LaurentPoly.variable(l, arity)) for l, i in enumerate(word))
    return product_minors(factors, size, arity)


def unitriangular_minors(size: int) -> dict:
    """``product_minors`` of the unitriangular matrix whose strictly-upper
    entries are fresh variables x_1, x_2, ... row-major (row 1 first): the
    product over c = size, ..., 2 of the factors I + x_{rc} E_{r,c}, r < c,
    since every column r < c is still e_r when column c is filled."""
    arity = size * (size - 1) // 2
    x = {rc: LaurentPoly.variable(k, arity) for k, rc in enumerate(combinations(range(1, size + 1), 2))}
    return product_minors(((r, c, x[r, c]) for c in range(size, 1, -1) for r in range(1, c)), size, arity)


def interval_minor_key(i: int, a: int, b: int, n: int) -> MinorKey:
    """Rows [1, i-a], columns [1, i-b-1] + [n-b+1, n-a+1], the key whose
    minor realizes the interval variable T_{i,[a,b]} on the linearly
    ordered type A_n quiver (t_i = i - 1).  [1,0] is empty."""
    if not (1 <= i <= n and 0 <= a <= b <= i - 1):
        raise LabelRangeError(f"need 1 <= i <= {n} and 0 <= a <= b <= i-1")
    rows = tuple(range(1, i - a + 1))
    cols = tuple(range(1, i - b)) + tuple(range(n - b + 1, n - a + 2))
    return MinorKey(rows, cols)


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
