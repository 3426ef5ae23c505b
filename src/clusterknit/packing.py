"""Integer vectors packed one to an int, in slots guarded against overflow.

A ``Layout(r, w, g)`` packs vectors of r entries into w-bit slots (w a
multiple of 8), entry 0 in the highest slot.  With g guard bits and
L = 2**(w-g), an entry e in [-L, L) is stored as e + L, so every stored
slot lies in [0, 2L) and its top g - 1 bits are clear.

Sums and differences of packed vectors act on every slot at once.  A
result whose slots should read e + L is exact when each lies in [0, 2L),
which ``fits`` reads from the bits above 2L: the lowest slot outside that
range takes no borrow from below, so its own bits show it there, a
negative one wrapped to just under 2**w.  Values whose slots lie below
their top bit compare slot by slot in one subtraction: ``(a | top) - b``
borrows across no slot and keeps a slot's top bit exactly where a's slot
is at least b's.  An operation whose result does not fit is redone at a
``wider`` layout (packed exponent vectors with guard bits, after
Monagan and Pearce, 2007).
"""

from __future__ import annotations

import struct
from functools import cache


class Layout:
    __slots__ = ("r", "w", "g", "low", "lows", "top", "high", "mask", "size", "words")

    def __init__(self, r: int, w: int, g: int):
        self.r, self.w, self.g = r, w, g
        self.low = 1 << (w - g)  # L
        ones = sum(1 << (i * w) for i in range(r))
        self.lows = ones << (w - g)  # L in every slot: the packed zero vector
        self.top = ones << (w - 1)  # the top bit of every slot
        self.high = ((1 << w) - (1 << (w - g + 1))) * ones  # the bits above 2L
        self.mask = (1 << r * w) - 1  # every slot, and nothing above them
        self.size = w // 8  # bytes per slot
        # slots of 2, 4 or 8 bytes are machine words that struct reads and writes
        fmt = {2: "H", 4: "I", 8: "Q"}.get(self.size)
        self.words = struct.Struct(f">{r}{fmt}") if fmt else None

    def pack(self, vec) -> int:
        low = self.low
        if self.words:
            data = self.words.pack(*[e + low for e in vec])
        else:
            data = b"".join([(e + low).to_bytes(self.size, "big") for e in vec])
        return int.from_bytes(data, "big")

    def slots(self, p: int):
        """The slot values of p, entry 0 first; bits above the slots are
        ignored."""
        size, data = self.size, (p & self.mask).to_bytes(self.r * self.size, "big")
        if self.words:
            return self.words.unpack(data)
        return [int.from_bytes(data[i : i + size], "big") for i in range(0, len(data), size)]

    def unpack(self, p: int) -> tuple:
        return tuple(map(self.low.__rsub__, self.slots(p)))

    def fits(self, p: int) -> bool:
        return not p & self.high

    def at_least(self, a: int, b: int) -> bool:
        """Whether every slot of a is at least that of b, for slots below
        their top bit."""
        top = self.top
        return (a | top) - b & top == top

    def max(self, a: int, b: int) -> int:
        """The slotwise maximum of a and b, for slots below their top bit."""
        ge = (a | self.top) - b & self.top
        return b ^ (a ^ b) & (ge << 1) - (ge >> self.w - 1)

    def min(self, values) -> int:
        """The slotwise minimum of nonempty values, in one pass, for slots
        below their top bit; bits above the slots are dropped."""
        mask, top, shift = self.mask, self.top, self.w - 1
        values = iter(values)
        m = next(values) & mask
        for u in values:  # u's bits above the slots never reach m
            ge = (m | top) - u & top
            m ^= (m ^ u) & (ge << 1) - (ge >> shift)
        return m

    def wider(self) -> "Layout":
        """Half again as many bits per slot, for values that outgrew these."""
        return layout(self.r, -(-self.w * 3 // 16) * 8, self.g)


@cache
def layout(r: int, w: int, g: int) -> Layout:
    return Layout(r, w, g)


def fitting(r: int, lo: int, hi: int, g: int) -> Layout:
    """The layout of the narrowest slots, a multiple of 8 bits and at least
    16, that hold every entry in [lo, hi]."""
    need = max(-lo, hi + 1, 1) - 1
    return layout(r, max(16, -(-(need.bit_length() + g) // 8) * 8), g)
