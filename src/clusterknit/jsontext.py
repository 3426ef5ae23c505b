"""JSON report text, byte for byte as ``json.dumps(obj, indent=1,
sort_keys=True)`` writes it, for reports built of dicts with string keys,
lists and tuples, strings, ints, booleans and None: the report dicts of
``build``, ``minors`` and ``check``.  (``mutate``, ``path`` and ``euler``
write their JSON from the texts their walks make.)

A list of ints, the bulk of a report (matrix and tracker rows), is written
with one join; strings go through the encoder's own ASCII escaping.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(obj) -> str:
    parts: list = []
    _write(obj, parts, "\n")
    return "".join(parts)


def _write(obj, parts: list, nl: str) -> None:
    """Append the text of ``obj`` to ``parts``; ``nl`` is the newline and
    indentation of the line it starts on."""
    if obj is None or obj is True or obj is False:
        parts.append(_CONSTANTS[obj])
    elif type(obj) is int:
        parts.append(int.__repr__(obj))
    elif type(obj) is str:
        parts.append(encode_basestring_ascii(obj))
    elif type(obj) is dict:
        if not obj:
            parts.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], parts, inner)
            sep = "," + inner
        parts.append(nl + "}")
    elif type(obj) in (list, tuple):
        if not obj:
            parts.append("[]")
            return
        inner = nl + " "
        if set(map(type, obj)) == {int}:
            parts.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _write(item, parts, inner)
            sep = "," + inner
        parts.append(nl + "]")
    else:
        raise TypeError(f"{type(obj).__name__} is not a report value")
