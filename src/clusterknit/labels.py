"""The two label records of the category model, a vertex (i, a) of the
translation quiver and an interval label T_{i,[a,b]}, the cache of their
texts and the text of a monomial in them.  They live apart from ``mesh`` so
that a seed can carry labels without loading the knitting."""

from __future__ import annotations

from typing import NamedTuple


class MeshVertex(NamedTuple):
    i: int
    a: int

    def __repr__(self) -> str:
        return f"({self.i},{self.a})"


class IntervalLabel(NamedTuple):
    """The label T_{i,[a,b]}; a > b encodes the unit by convention."""

    i: int
    a: int
    b: int

    def is_unit(self) -> bool:
        return self.a > self.b

    def __repr__(self) -> str:
        return f"T_{{{self.i},[{self.a},{self.b}]}}"


class LabelTexts(dict):
    """Each label's text, formatted on its first lookup; an int p stands
    for the unlabelled seed position p and reads ``y<p>``."""

    def __missing__(self, key):
        text = self[key] = f"y{key}" if type(key) is int else repr(key)
        return text


def monomial_text(factors) -> str:
    """(name, multiplicity) pairs, in order, as ``a*b^m``; ``1`` if none."""
    return "*".join([name if m == 1 else f"{name}^{m}" for name, m in factors]) or "1"
