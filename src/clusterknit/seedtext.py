"""JSON report text written from pieces made once, byte for byte as
``json.dumps(indent=1, sort_keys=True)`` writes the same report as a dict:
lists of ints, and seeds.  ``nl`` is the newline and indentation of the
line a value starts on.

The ``mutate`` and ``path`` JSON reports load this module, and
``cluster.to_json`` reads a seed's text back; a text walk compiles none of
it.
"""

from __future__ import annotations

from .exchange import dense_row


def int_list_template(n: int, nl: str) -> str:
    """The %-template of a list of n ints written on a line indented as ``nl``."""
    if not n:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join(["%d"] * n) + nl + "]"


def list_text(items, nl: str) -> str:
    """A list of value texts, each already written at the indentation of
    nl + " "."""
    if not items:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


class SeedText:
    """The JSON text of the seeds of rank r that one walk passes through,
    each written on a line indented as ``nl``, as pieces: the text of each
    list item (variable, tracker row, label and matrix row), with the
    separator before it, is kept by position and made again only where a
    step put another object there, so the seeds of a walk share the
    pieces of what their steps left alone.  A variable's term map is also
    kept by value for the whole walk."""

    __slots__ = ("nl", "key", "item", "row", "d_row", "b_row", "label", "seps", "kept", "terms")

    def __init__(self, r: int, nl: str):
        key, item = nl + " ", nl + "  "  # the seed's keys; the items of its lists
        self.nl, self.key, self.item = nl, key, item
        self.row = int_list_template(r, item)  # a tracker row
        self.d_row = int_list_template(r, key)  # d_delta
        self.b_row = int_list_template(r, item + " ")  # a matrix row
        self.label = int_list_template(3, item)
        # the separators before the items of a list on a line indented as
        # key (trackers, labels, vars) or as item (the matrix rows)
        self.seps = {
            line: ["[" + line + " "] + ["," + line + " "] * (r - 1) if r else [] for line in (key, item)
        }
        self.kept: dict = {}  # field -> (its values, their item texts)
        self.terms: dict = {}  # variable -> its term-map text

    def _list(self, field: str, values, make, line: str, out: list) -> None:
        """Append the list of ``values`` on a line indented as ``line``,
        each item made by ``make`` where it is not kept."""
        old, texts = self.kept.get(field, ((), ()))
        seps = self.seps[line]
        if len(old) == len(values):
            texts = [t if v is o else sep + make(v) for v, o, t, sep in zip(values, old, texts, seps)]
        else:
            texts = [sep + make(v) for v, sep in zip(values, seps)]
        self.kept[field] = values, texts
        out += texts
        out.append(line + "]" if texts else "[]")

    def _term_text(self, p) -> str:
        text = self.terms.get(p)
        if text is None:
            from .laurent import json_term_lines

            item, inner = self.item, self.item + " "
            terms = json_term_lines(p)
            text = self.terms[p] = "{" + inner + ("," + inner).join(terms) + item + "}" if terms else "{}"
        return text

    def write(self, s, out: list) -> None:
        """Append the pieces of the text of the seed ``s`` to ``out``."""
        key, item = self.key, self.item
        sep = "{" + key
        if s.d_delta is not None:
            out.append(f'{sep}"d_delta": ' + self.d_row % s.d_delta)
            sep = "," + key
        for name, rows in (("delta_trackers", s._delta_trackers), ("dim_trackers", s._dim_trackers)):
            if rows is not None:
                out.append(f'{sep}"{name}": ')
                row, unpack = self.row, rows.lay.unpack
                self._list(name, rows.ints, lambda p: row % unpack(p), key, out)
                sep = "," + key
        if s.labels is not None:
            out.append(f'{sep}"labels": ')
            label = self.label
            self._list("labels", s.labels, lambda l: "null" if l is None else label % l, key, out)
            sep = "," + key
        m = s.matrix
        b_row, r = self.b_row, m.r
        out.append(f'{sep}"matrix": {{{item}"b": ')
        self._list("b", m.rows, lambda row: b_row % dense_row(row, r), item, out)
        frozen = int_list_template(len(m.frozen), item) % tuple(sorted(m.frozen))
        out.append(f',{item}"frozen": {frozen}{key}}},{key}"r": {r}')
        if s.vars is not None:
            out.append(f',{key}"vars": ')
            self._list("vars", s.vars, self._term_text, key, out)
        out.append(self.nl + "}")
