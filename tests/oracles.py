"""Independent brute-force oracles used by the tests.

These never touch the code paths they check: hom dimensions come from
solving intertwiner equations on explicit interval representations, over
the rationals, and matrix mutation is the dense entry-by-entry rule.
"""

from fractions import Fraction

from clusterknit.exchange import ExchangeMatrix
from clusterknit.mesh import TerminalData, _knit_dims
from clusterknit.quiver import Quiver


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


def maximal_terminal(q: Quiver) -> TerminalData:
    """The largest valid level vector: in Dynkin type every tau-orbit is
    followed to its end."""
    probe = TerminalData(q, (q.n * q.n + 2,) * q.n)
    raw = _knit_dims(probe)
    t = tuple(max(a for (i, a) in raw if i == v) for v in range(1, q.n + 1))
    return TerminalData(q, t)


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
        rows.append(tuple(row))
    return ExchangeMatrix(tuple(rows), m.frozen)
