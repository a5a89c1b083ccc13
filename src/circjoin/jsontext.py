"""JSON text exactly as the standard ``json`` module writes it with
``indent=2``.

json's ``indent`` mode runs its pure-Python encoder, several calls per
value.  This writer fills one ``%``-template per list of numbers and
per list of equal-length number lists (the ``[re, im]`` pairs of a
report) instead.  A `Table`, flat dicts given as columns (the
eigenvalue rows), is gathered from its columns' texts: each column's
texts are made once, and its rows are written by interleaving them
with one shared key text per column.  The eigenvector rows of a report,
`FourierModes` and `LiftedChains`, are given by the few arrays their
vectors are built from: each row is filled in from one template per
section, and each vector is written from its runs, a run of equal
entries as one repeated text and a Fourier mode's nonzero entries as
one gather of its block's formatted roots.  Floats go through ``%r``,
which is ``float.__repr__``, json's own float encoder, and a float64
array column of a `Table` through ``float.__repr__`` once per run of
equal magnitudes, a negative value taking "-" before its magnitude's
text, as ``repr`` writes it; ints through ``%r``, ``%d`` or
``int.__repr__``; strings and keys through json's own
``encode_basestring_ascii``.  Anything else is written value by value
in json's order and layout.  Every part of the text is appended to one
list, which is joined once, so a large report is copied once rather
than once per nesting level, per row or per vector.

Every float must be finite.  json would write ``NaN`` or ``Infinity``,
which is not JSON, so the writer raises NumericalError instead.
"""

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from operator import mul

import numpy as np

from .errors import NumericalError

_STEP = "  "
_NUMBERS = {float, int}  # exact types: bool and numpy scalars take the general path
_SEQUENCES = {list, tuple}
_NON_FINITE = "a non-finite number cannot be written as JSON"
# the gather indices of a block's Fourier modes are made this many at a
# time (or one vector's, when more), so that they take O(k) memory
_CHUNK = 1 << 16


def dumps(obj):
    """The text json's ``dumps(obj, indent=2)`` returns, for str-keyed
    dicts, lists, tuples, str, int, float, bool, None, Tables,
    FourierModes and LiftedChains."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


class FourierModes:
    """Zero-padded Fourier modes as report rows: ``dumps`` writes
    ``FourierModes(n, blocks)`` as the list of dicts ``{"block": b,
    "fourier_index": j, "eigenvalue": [re, im], "vector": v}``, for each
    ``(b, start, eigenvalues, roots)`` of `blocks`, with k = len(roots),
    and j = 1..k-1: the eigenvalue is ``eigenvalues[j - 1]``, and v is
    the n-vector of [re, im] pairs that holds ``roots[(m * j) % k]`` at
    row ``start + m``, m < k, and 0 elsewhere.  `b` is an int, and
    `eigenvalues` and `roots` are complex arrays.

    Every row is written from one template.  A block's roots are
    formatted once, and each of its vectors is written as two zero runs,
    each one repeated text that the block's rows share, and one gather
    of the root texts, whose indices (m * j) % k are made by one
    broadcast product for up to `_CHUNK` entries of vectors at a time.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        self.n = n
        self.blocks = blocks

    def _write(self, nl, out):
        inner = nl + _STEP
        field = inner + _STEP
        entry = field + _STEP
        sep = "," + entry
        head = _row_head(field, ("block", "%d"), ("fourier_index", "%d"),
                         ("eigenvalue", "%s"), ("vector", "[" + entry))
        close = field + "]" + inner + "}"
        zero = _pairs(np.zeros(1, np.complex128), entry)[0]
        empty = len(out)
        before = "[" + inner
        for b, start, eigenvalues, roots in self.blocks:
            k = len(roots)
            last = _pairs(roots, entry)
            followed = [t + sep for t in last]
            lead = (zero + sep) * start
            rest = self.n - start - k
            # the last entry of a vector is a zero, or a root when the
            # block ends the vector
            m = np.arange(k if rest else k - 1)
            tail = (zero + sep) * (rest - 1) + zero + close if rest else None
            values = _pairs(eigenvalues, field)
            step = max(1, _CHUNK // k)
            for first in range(1, k, step):
                end = min(first + step, k)
                rows = (np.arange(first, end)[:, None] * m % k).tolist()
                for j, row in zip(range(first, end), rows):
                    out += (before, head % (b, j, values[j - 1]), lead)
                    out += map(followed.__getitem__, row)
                    out.append(tail or last[k - j] + close)
                    before = "," + inner
        out.append("[]" if len(out) == empty else nl + "]")


class LiftedChains:
    """Condensed chains lifted to a join as report rows: ``dumps`` writes
    ``LiftedChains(sizes, eigenvalues, chains)`` as the list of dicts
    ``{"eigenvalue": [re, im], "chain": [v, ...]}``, one per entry of the
    complex array `eigenvalues`, whose chain is the matching
    ``(length, d)`` complex array of `chains`: each link x is written as
    the n-vector of [re, im] pairs that repeats x[i] sizes[i] times,
    `sizes` a list of d ints >= 1.

    Every row is written from one template.  A chain's links are
    formatted once, and each lifted vector is written as d runs, each
    one repeated text.
    """

    __slots__ = ("sizes", "eigenvalues", "chains")

    def __init__(self, sizes, eigenvalues, chains):
        self.sizes = sizes
        self.eigenvalues = eigenvalues
        self.chains = chains

    def _write(self, nl, out):
        inner = nl + _STEP
        field = inner + _STEP
        link = field + _STEP
        entry = link + _STEP
        sep = "," + entry
        head = _row_head(field, ("eigenvalue", "%s"), ("chain", "["))
        close = field + "]" + inner + "}"
        d = len(self.sizes)
        runs, last_run = self.sizes[:-1], self.sizes[-1] - 1
        empty = len(out)
        before = "[" + inner
        for value, links in zip(_pairs(self.eigenvalues, field), self.chains):
            last = _pairs(links.ravel(), entry)
            followed = [t + sep for t in last]
            out += (before, head % value)
            opening = link + "[" + entry
            for end in range(d, len(last) + 1, d):
                out.append(opening)
                out += map(mul, followed[end - d : end - 1], runs)
                out += (followed[end - 1] * last_run, last[end - 1], link + "]")
                opening = "," + link + "[" + entry
            out.append(close)
            before = "," + inner
        out.append("[]" if len(out) == empty else nl + "]")


def _row_head(nl, *fields):
    """The %-template of a dict's opening up to its last value's opening,
    at the indent after newline `nl`: `fields` are (key, value text)."""
    return "{" + nl + ("," + nl).join(_key(k) + ": " + v for k, v in fields)


def _pairs(values, nl):
    """The texts of the [re, im] lists of the complex array `values`, at
    the indent after newline `nl`."""
    re, im = values.real.tolist(), values.imag.tolist()
    if not all(map(math.isfinite, chain(re, im))):
        raise NumericalError(_NON_FINITE)
    inner = nl + _STEP
    return list(map(("[" + inner + "%r," + inner + "%r" + nl + "]").__mod__, zip(re, im)))


class Table:
    """Flat dicts given as columns: ``dumps`` writes ``Table({key:
    column, ...})``, columns of equal length, as the list of dicts
    ``{key: column[i], ...}``.  Each column's texts are made once: a
    float64 array column's by `_float_texts`, all such columns in one
    pass; a float list's by ``float.__repr__``; and any other list's per
    value, once per distinct value where equal values cannot have
    different texts (ints, strings, None).  The rows are then gathered,
    with no per-row formatting, into one list of parts that alternates
    each column's one key text with its values' texts."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns

    def _write(self, nl, out):
        arrays = {k: c for k, c in self.columns.items() if type(c) is np.ndarray}
        floats = {}
        if arrays:
            flat = _float_texts(np.concatenate(list(arrays.values())))
            step = len(flat) // len(arrays)
            floats = {k: flat[i * step : (i + 1) * step] for i, k in enumerate(arrays)}
        keys, texts = [], []
        for key, column in self.columns.items():
            if key in floats:
                column = floats[key]
            else:
                types = set(map(type, column))
                if types == {float}:
                    if not all(map(math.isfinite, column)):
                        raise NumericalError(_NON_FINITE)
                    column = list(map(float.__repr__, column))
                elif {bool, int} <= types or any(issubclass(t, float) for t in types):
                    # True == 1 == 1.0 and 0.0 == -0.0, but their texts differ
                    column = list(map(_scalar, column))
                else:  # equal values have equal texts: format each once
                    once = {x: _scalar(x) for x in set(column)}
                    column = list(map(once.__getitem__, column))
            keys.append(_key(key) + ": ")
            texts.append(column)
        rows = len(texts[0]) if texts else 0
        if not rows:
            out.append("[]")
            return
        inner = nl + _STEP
        deeper = inner + _STEP
        # part 2i of a row is column i's key after the separator that ends
        # the field before it, column 0's ending the row before; part
        # 2i + 1 is the column's text
        width = 2 * len(keys)
        parts = [None] * (width * rows)
        sep = inner + "}," + inner + "{" + deeper
        for i, (key, column) in enumerate(zip(keys, texts)):
            parts[i * 2 :: width] = [sep + key] * rows
            parts[i * 2 + 1 :: width] = column
            sep = "," + deeper
        parts[0] = "[" + inner + "{" + deeper + keys[0]
        out += parts
        out.append(inner + "}" + nl + "]")


def _float_texts(values):
    """The %r texts of the float64 array `values`, with each run of equal
    magnitudes formatted once: repr(-x) is "-" + repr(x), -0.0 included.
    A real join's eigenvalue table, in (Re, Im) order, holds each
    conjugate pair's equal real parts and opposite imaginary parts side
    by side, so its runs halve the floats to format.  Raises
    NumericalError when a value is not finite."""
    if not np.isfinite(values).all():
        raise NumericalError(_NON_FINITE)
    size = np.abs(values)
    new = np.empty(len(size), dtype=bool)
    new[:1] = True
    np.not_equal(size[1:], size[:-1], out=new[1:])
    texts = list(map(float.__repr__, size[new].tolist()))
    index = new.cumsum() - 1
    index[np.signbit(values)] += len(texts)
    texts += ["-" + t for t in texts]
    return list(map(texts.__getitem__, index.tolist()))


_SECTIONS = {FourierModes, LiftedChains, Table}


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
    elif type(obj) in _SECTIONS:
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

