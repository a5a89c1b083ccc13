"""Reports do not depend on the input's scale: every default tolerance is
relative to a norm of the input, so scaling a join by a power of two
scales its eigenvalues and leaves multiplicities, provenance and the
diagonalizable verdict unchanged."""

import io
import json
import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from circjoin import JoinSpec, full_spectrum
from circjoin.cli import main, report_rows
from circjoin.errors import NumericalError


def test_k8_document_scaled_by_1e_minus_10(monkeypatch, capsys):
    doc = {
        "blocks": [[0, 1e-10, 0], [0, 1e-10, 1e-10, 1e-10, 1e-10]],
        "couplings": [[0, 1e-10], [1e-10, 0]],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["spectrum", "-", "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagonalizable"] is True
    rows = [
        (complex(e["re"], e["im"]), e["multiplicity"], e["provenance"])
        for e in report["eigenvalues"]
    ]
    root = math.sqrt(69.0)
    third = complex(-0.5, math.sqrt(3.0) / 2.0)
    expected = [
        ((5.0 - root) / 2.0, 1, "condensed"),
        (-1.0, 4, 2),
        (third.conjugate(), 1, 1),
        (third, 1, 1),
        ((5.0 + root) / 2.0, 1, "condensed"),
    ]
    assert len(rows) == len(expected)
    for (v, mult, prov), (want, want_mult, want_prov) in zip(rows, expected):
        assert (mult, prov) == (want_mult, want_prov)
        assert abs(v - 1e-10 * want) <= 1e-12 * 1e-10


def report_of(spec):
    """(diagonalizable, report rows as (mean, multiplicity, provenance)
    tuples), or the error type it raises."""
    try:
        dec = full_spectrum(spec)
    except NumericalError as exc:
        return type(exc)
    return dec.diagonalizable, list(zip(*report_rows(dec)))


def assert_same_report(plain, scaled, scale):
    if isinstance(plain, type) or isinstance(scaled, type):
        assert plain == scaled
        return
    assert plain[0] == scaled[0]
    rows, pool = plain[1], list(scaled[1])
    assert len(rows) == len(pool)
    tol = 1e-12 * max(abs(v) for v, _, _ in rows)
    for v, mult, prov in rows:
        dist = [
            abs(w / scale - v) if (m, p) == (mult, prov) else np.inf
            for w, m, p in pool
        ]
        best = int(np.argmin(dist))
        assert dist[best] <= tol, (v, mult, prov, pool)
        pool.pop(best)


# entries on a dyadic grid: small integers come up often, so repeated
# and defective condensed eigenvalues are exercised, and no entry is
# small enough to lose bits when scaled by 2^-60
dyadic = st.integers(-(2**12), 2**12).map(lambda v: v / 2**10)
entry = st.one_of(dyadic, st.builds(complex, dyadic, dyadic))


@st.composite
def joins(draw):
    """(blocks, couplings) as complex arrays, with d <= 6 and k <= 6."""
    d = draw(st.integers(1, 6))
    blocks = [
        np.array(draw(st.lists(entry, min_size=1, max_size=6)), dtype=np.complex128)
        for _ in range(d)
    ]
    couplings = np.array(
        draw(st.lists(entry, min_size=d * d, max_size=d * d)), dtype=np.complex128
    ).reshape(d, d)
    if draw(st.booleans()):
        # triangular condensed matrix: repeated row sums make it defective
        couplings = np.triu(couplings)
    return blocks, couplings


@settings(max_examples=300)
@given(joins(), st.integers(-60, 60))
def test_report_is_invariant_under_power_of_two_scaling(join, s):
    blocks, couplings = join
    scale = 2.0**s
    plain = report_of(JoinSpec(blocks, couplings))
    scaled = report_of(JoinSpec([b * scale for b in blocks], couplings * scale))
    assert_same_report(plain, scaled, scale)
