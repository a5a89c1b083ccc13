"""JSON text exactly as the standard ``json`` module writes it with
``indent=2``.

json's ``indent`` mode runs its pure-Python encoder, several calls per
value.  This writer fills one ``%``-template per homogeneous list
instead: a list of numbers, a list of equal-length number lists (the
``[re, im]`` pairs of a report) and a `Table`, flat dicts given as
columns (the eigenvalue rows).  Floats go through ``%r``, which is
``float.__repr__``, json's own float encoder; ints through ``%r`` or
``%d`` (both ``int.__repr__``); strings and keys through json's own
``encode_basestring_ascii``.  Anything else is written value by value
in json's order and layout.  Every part of the text is appended to one
list, which is joined once, so a large report is copied once rather
than once per nesting level.

Every float must be finite.  json would write ``NaN`` or ``Infinity``,
which is not JSON, so the writer raises NumericalError instead.
"""

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

from .errors import NumericalError

_STEP = "  "
_NUMBERS = {float, int}  # exact types: bool and numpy scalars take the general path
_SEQUENCES = {list, tuple}
_NON_FINITE = "a non-finite number cannot be written as JSON"


def dumps(obj):
    """The text json's ``dumps(obj, indent=2)`` returns, for str-keyed
    dicts, lists, tuples, str, int, float, bool, None, PairTable lists
    and Tables."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


class PairTable:
    """Complex values whose ``[re, im]`` texts many lists share.

    ``table.list(index)`` is a value that ``dumps`` writes as the list
    ``[[z.real, z.imag] for z in (values[i] for i in index)]``.  Each
    entry of the table is formatted once per indent, however many lists
    and positions repeat it, and the lists are written as references to
    those texts.
    """

    __slots__ = ("_pairs", "_texts")

    def __init__(self, values):
        self._pairs = [(z.real, z.imag) for z in map(complex, values)]
        self._texts = {}

    def list(self, index):
        """A dumps value: the pairs of the entries at `index`, a list of
        ints."""
        return _PairList(self, index)

    def _write(self, index, nl, out):
        if not index:
            out.append("[]")
            return
        inner = nl + _STEP
        texts = self._texts.get(nl)
        if texts is None:
            deeper = inner + _STEP
            pair = "[" + deeper + "%r," + deeper + "%r" + inner + "]"
            last = [_checked(pair % p) for p in self._pairs]
            sep = "," + inner
            texts = self._texts[nl] = ([t + sep for t in last], last)
        followed, last = texts
        out.append("[" + inner)
        out += map(followed.__getitem__, index[:-1])
        out += (last[index[-1]], nl + "]")


class _PairList:
    __slots__ = ("table", "index")

    def __init__(self, table, index):
        self.table = table
        self.index = index


class Table:
    """Flat dicts given as columns: ``dumps`` writes ``Table({key:
    column, ...})``, columns of equal length, as the list of dicts
    ``{key: column[i], ...}``, every row from one template.  Floats are
    written with %r, ints with %d, and any other column with %s from
    per-value texts, made once per distinct value where equal values
    cannot have different texts."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns

    def _write(self, nl, out):
        fields, texts = [], []
        for key, column in self.columns.items():
            types = set(map(type, column))
            form = "%s"
            if types == {float}:
                # checked here, since _checked cannot test a text with strings
                if not all(map(math.isfinite, column)):
                    raise NumericalError(_NON_FINITE)
                form = "%r"
            elif types == {int}:
                form = "%d"
            elif float in types or {bool, int} <= types:
                # True == 1 == 1.0 and 0.0 == -0.0, but their texts differ
                column = list(map(_scalar, column))
            else:  # equal values have equal texts: format each once
                once = {x: _scalar(x) for x in set(column)}
                column = list(map(once.__getitem__, column))
            fields.append(_key(key).replace("%", "%%") + ": " + form)
            texts.append(column)
        values = tuple(chain.from_iterable(zip(*texts)))
        if not values:
            out.append("[]")
            return
        inner = nl + _STEP
        deeper = inner + _STEP
        row = "{" + deeper + ("," + deeper).join(fields) + inner + "}"
        text = _template(row, inner, len(values) // len(fields)) % values
        out += ("[" + inner, text, nl + "]")


def _checked(numbers):
    """`numbers` holds only numbers and punctuation, so an "n" is part of
    "nan" or "inf"."""
    if "n" in numbers:
        raise NumericalError(_NON_FINITE)
    return numbers


def _write(obj, nl, out):
    """Append the text of `obj`, at the indent after newline `nl`, to the
    list `out`."""
    if isinstance(obj, (list, tuple)):
        _list(obj, nl, out)
    elif isinstance(obj, dict):
        _dict(obj, nl, out)
    elif type(obj) is _PairList:
        obj.table._write(obj.index, nl, out)
    elif type(obj) is Table:
        obj._write(nl, out)
    else:
        out.append(_scalar(obj))


def _scalar(obj):
    # the order of json.encoder's _iterencode: str before int, bool before int
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _checked(float.__repr__(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key):
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _string(key)


def _dict(obj, nl, out):
    if not obj:
        out.append("{}")
        return
    inner = nl + _STEP
    sep = "{" + inner
    for key, value in obj.items():
        out.append(sep + _key(key) + ": ")
        _write(value, inner, out)
        sep = "," + inner
    out.append(nl + "}")


def _list(items, nl, out):
    if not items:
        out.append("[]")
        return
    inner = nl + _STEP
    types = set(map(type, items))
    text = None
    if types <= _NUMBERS:
        text = _checked(_template("%r", inner, len(items)) % tuple(items))
    elif types <= _SEQUENCES:
        text = _number_rows(items, inner)
    if text is not None:
        out += ("[" + inner, text, nl + "]")
        return
    sep = "[" + inner
    for x in items:
        out.append(sep)
        _write(x, inner, out)
        sep = "," + inner
    out.append(nl + "]")


def _template(item, inner, count):
    return ("," + inner).join([item] * count)


def _number_rows(rows, inner):
    """Text of equal-length, nonempty number lists, or None."""
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    flat = tuple(chain.from_iterable(rows))
    if not set(map(type, flat)) <= _NUMBERS:
        return None
    deeper = inner + _STEP
    row = "[" + deeper + _template("%r", deeper, widths.pop()) + inner + "]"
    return _checked(_template(row, inner, len(rows)) % flat)

