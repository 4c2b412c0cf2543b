"""Runtime values and their canonical total order.

A value is one of:

* the unit value, represented as ``None``;
* a boolean;
* an arbitrary-precision integer;
* a finite tuple of values.

The canonical order puts unit first, then the booleans (``False < True``),
then the integers, then tuples ordered lexicographically by the same order.
It is used everywhere a "smallest" element must be chosen deterministically
and to sort distribution supports for stable output.
"""

from __future__ import annotations

from typing import Union

Value = Union[None, bool, int, tuple]

#: A row is the tuple of per-wire values travelling on a wire bundle.
Row = tuple


def is_value(v) -> bool:
    if v is None or isinstance(v, (bool, int)):
        return True
    if isinstance(v, tuple):
        return all(is_value(x) for x in v)
    return False


def value_key(v: Value):
    """Sort key realizing the canonical order. Total on values."""
    if v is None:
        return (0,)
    if isinstance(v, bool):  # bool before int; bool IS an int in Python
        return (1, v)
    if isinstance(v, int):
        return (2, v)
    if isinstance(v, tuple):
        return (3, tuple(value_key(x) for x in v))
    raise TypeError(f"not a value: {v!r}")


def value_str(v: Value) -> str:
    """Compact canonical text form, used as JSON object keys."""
    if v is None:
        return "()"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return "(" + ",".join(value_str(x) for x in v) + ")"
    raise TypeError(f"not a value: {v!r}")


def value_to_json(v: Value):
    """JSON-encodable form: unit becomes null, tuples become arrays."""
    if v is None:
        return None
    if isinstance(v, bool) or isinstance(v, int):
        return v
    if isinstance(v, tuple):
        return [value_to_json(x) for x in v]
    raise TypeError(f"not a value: {v!r}")
