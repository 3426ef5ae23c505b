"""A fixed amount of pure-Python work, run as its own process beside the
benchmark's jobs to measure how fast the machine is at that moment.

    python3 perfbench/yardstick.py

It imports nothing from clusterknit, so a change to the program cannot move
it.  The work is of the two kinds the program does: products of small
sparse polynomials held as dicts from exponent tuples to integers, and
letter insertion into a dict of some 76,000 words, larger than a core's
private caches.  It prints nothing and exits 0 when both results
have the expected size.
"""

import sys

POLY_ROUNDS = 8
POLY_TERMS = 969  # terms of (x + y + z + 1)^16 in three variables
WORDS = 20000
SERIES_TERMS = 76323  # distinct words after inserting the letter 9


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b, c), u in p.items():
        for (d, e, f), v in q.items():
            key = (a + d, b + e, c + f)
            out[key] = out.get(key, 0) + u * v
    return out


def poly() -> int:
    base = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1}
    for _ in range(POLY_ROUNDS):
        p = {(0, 0, 0): 1}
        for _ in range(16):
            p = mul(p, base)
    return len(p)


def series() -> int:
    words: dict = {}
    for i in range(WORDS):
        word = (i % 7, i * 31 % 11, i * 17 % 13, i % 5, i // 1000)
        words[word] = words.get(word, 0) + i
    out: dict = {}
    for word, c in words.items():
        for pos in range(4):
            longer = word[:pos] + (9,) + word[pos:]
            out[longer] = out.get(longer, 0) + c
    return len(out)


def main() -> int:
    return 0 if poly() == POLY_TERMS and series() == SERIES_TERMS else 1


if __name__ == "__main__":
    sys.exit(main())
