import argparse
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circjoin import cli
from circjoin.cli import (
    _csv_rows,
    build_parser,
    emit_join_document,
    main,
    parse_join_document,
)
from circjoin import JoinSpec, ParseError, PreconditionError, full_spectrum, join
from circjoin import remove_cycle_from_complete, ring_graph


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


K8_DOC = json.dumps(
    {
        "blocks": [[0, 1, 0], [0, 1, 1, 1, 1]],
        "couplings": [[0, 1], [1, 0]],
    }
)


def test_spectrum_k8_document(tmp_path, capsys):
    path = write(tmp_path, "k8.json", K8_DOC)
    code, out, err = run(["spectrum", path], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["n"] == 8
    assert report["diagonalizable"] is True
    condensed = [
        complex(e["re"], e["im"])
        for e in report["eigenvalues"]
        if e["provenance"] == "condensed"
    ]
    hi = (5.0 + math.sqrt(69.0)) / 2.0
    lo = (5.0 - math.sqrt(69.0)) / 2.0
    assert min(abs(c - hi) for c in condensed) < 1e-9
    assert min(abs(c - lo) for c in condensed) < 1e-9
    assert sum(e["multiplicity"] for e in report["eigenvalues"]) == 8
    np.testing.assert_allclose(
        [c[0] for c in report["reduced_char_poly"]], [1.0, -5.0, -11.0], atol=1e-12
    )


def test_spectrum_output_is_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "k8.json", K8_DOC)
    code1, out1, _ = run(["spectrum", path, "--verify"], capsys)
    code2, out2, _ = run(["spectrum", path, "--verify"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_spectrum_single_block_document(tmp_path, capsys):
    path = write(tmp_path, "k3.json", json.dumps({"blocks": [[0, 1, 1]]}))
    code, out, _ = run(["spectrum", path], capsys)
    assert code == 0
    rows = json.loads(out)["eigenvalues"]
    assert {(round(r["re"], 9), r["multiplicity"], r["provenance"]) for r in rows} == {
        (2.0, 1, "condensed"),
        (-1.0, 2, 1),
    }


def test_spectrum_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(K8_DOC))
    code, out, _ = run(["spectrum"], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 8


def test_spectrum_csv_output(tmp_path, capsys):
    path = write(tmp_path, "k8.json", K8_DOC)
    code, out, _ = run(["spectrum", path, "--output", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eigenvalue,multiplicity,provenance"
    for line in lines[1:]:
        value, mult, prov = line.split(",")
        assert value.endswith("i")
        complex(value[:-1] + "j")  # parses as a complex literal
        assert mult.isdigit()
        assert prov in {"1", "2", "condensed"}


def test_csv_output_builds_no_eigenvectors(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "k8.json", K8_DOC)
    argv = ["spectrum", path, "--output", "csv"]
    plain = run(argv, capsys)
    assert plain[0] == 0
    # the JSON report has the section; the CSV report never builds it
    code, out, _ = run(["spectrum", path, "--eigenvectors"], capsys)
    assert code == 0 and "eigenvectors" in json.loads(out)

    def no_vectors(decomposition):
        raise AssertionError("eigenvector section built for CSV output")

    monkeypatch.setattr(cli, "_eigenvectors", no_vectors)
    assert run(argv + ["--eigenvectors"], capsys) == plain
    assert run(argv + ["--eigenvectors", "--verify"], capsys) == run(
        argv + ["--verify"], capsys
    )


def test_eigenvector_section_keeps_no_dense_vectors():
    # the section of a 2 x 512 join stands for 1022 vectors of 1024
    # pairs; it holds their runs, a few kilobytes
    rng = np.random.default_rng(512)
    spec = JoinSpec([rng.uniform(-1.0, 1.0, 512) for _ in range(2)],
                    rng.uniform(-1.0, 1.0, (2, 2)))
    decomposition = full_spectrum(spec)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        section = cli._eigenvectors(decomposition)  # held while measured
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2**20, kept


@pytest.mark.parametrize("where", ["build", "write"])
def test_a_report_that_cannot_be_allocated_exits_3(where, tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 298. GiB")

    if where == "build":
        monkeypatch.setattr(cli, "_eigenvectors", no_memory)
    else:
        monkeypatch.setattr(cli.jsontext.FourierModes, "_write", no_memory)
    path = write(tmp_path, "k8.json", K8_DOC)
    code, out, err = run(["spectrum", path, "--eigenvectors"], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "circjoin: precondition error: the report of a join of size 8 does not fit"
        " in memory: Unable to allocate 298. GiB"
    ]


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "garbage{")
    code, _, err = run(["spectrum", bad], capsys)
    assert code == 2
    assert "line 1" in err
    ragged = write(
        tmp_path,
        "ragged.json",
        json.dumps({"blocks": [[0, 1], [0, 1]], "couplings": [[0, 1], [1]]}),
    )
    code, _, err = run(["spectrum", ragged], capsys)
    assert code == 2
    assert "ragged" in err
    missing = write(tmp_path, "missing.json", json.dumps({"couplings": []}))
    assert run(["spectrum", missing], capsys)[0] == 2
    unknown = write(
        tmp_path, "unknown.json", json.dumps({"blocks": [[0]], "banana": 1})
    )
    assert run(["spectrum", unknown], capsys)[0] == 2
    assert run(["spectrum", str(tmp_path / "absent.json")], capsys)[0] == 2


# ---------------------------------------------------------------------------
# document parsing against the per-entry parser
# ---------------------------------------------------------------------------

def per_entry_entry(entry, where):
    try:
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            return complex(entry)
        if (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and all(
                isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry
            )
        ):
            return complex(entry[0], entry[1])
    except OverflowError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {entry!r}")


def per_entry_parse(text):
    """The parser that converted one entry at a time, kept as the oracle
    of `parse_join_document`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    unknown = set(doc) - {"blocks", "couplings", "labels"}
    if unknown:
        raise ParseError(f"unknown document keys: {sorted(unknown)}")
    if "blocks" not in doc:
        raise ParseError("document is missing 'blocks'")
    raw_blocks = doc["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise ParseError("'blocks' must be a nonempty list of defining vectors")
    blocks = []
    for bi, raw in enumerate(raw_blocks):
        if not isinstance(raw, list) or not raw:
            raise ParseError(f"blocks[{bi}] must be a nonempty list")
        blocks.append(
            [per_entry_entry(e, f"blocks[{bi}][{ei}]") for ei, e in enumerate(raw)]
        )
    d = len(blocks)
    raw_couplings = doc.get("couplings")
    if raw_couplings is None:
        if d > 1:
            raise ParseError("document is missing 'couplings'")
        couplings = np.zeros((1, 1), dtype=np.complex128)
    else:
        if not isinstance(raw_couplings, list) or len(raw_couplings) != d:
            raise ParseError(f"'couplings' must be a {d}x{d} table")
        couplings = np.zeros((d, d), dtype=np.complex128)
        for i, row in enumerate(raw_couplings):
            if not isinstance(row, list) or len(row) != d:
                raise ParseError(
                    f"couplings[{i}] has {len(row) if isinstance(row, list) else '?'}"
                    f" entries, expected {d} (ragged table)"
                )
            for j, e in enumerate(row):
                couplings[i, j] = per_entry_entry(e, f"couplings[{i}][{j}]")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(
            isinstance(s, str) for s in labels
        ):
            raise ParseError("'labels' must be a list of strings")
    try:
        spec = JoinSpec(blocks, couplings)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc
    return spec, labels


def parse_outcome(parse, text):
    """The parse error message, or the parsed arrays' bytes (so that the
    sign of a zero counts) and the labels.  Any other exception fails."""
    try:
        spec, labels = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    vectors = [b.tobytes() for b in spec.blocks]
    return "ok", vectors, spec.couplings.tobytes(), labels


REAL_ENTRIES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 2**53 + 1, 10**308, -(2**1023)]),
)
ENTRIES = st.one_of(REAL_ENTRIES, st.lists(REAL_ENTRIES, min_size=2, max_size=2))
BAD_ENTRIES = st.one_of(
    st.sampled_from(
        [
            True,
            False,
            None,
            "1.0",
            "",
            {},
            {"re": 1.0, "im": 0.0},
            [],
            [1.0],
            [1.0, 2.0, 3.0],
            [[1.0, 2.0]],
            [[1.0, 2.0], [3.0, 4.0]],
            [1.0, [2.0]],
            [True, 1.0],
            [1.0, False],
            [1.0, None],
            ["1", 2.0],
            10**400,
            -(10**400),
            [10**400, 0.0],
            [0.0, -(10**400)],
            [10**400, 10**400],
            float("nan"),
            float("inf"),
            [1.0, float("-inf")],
        ]
    ),
    st.lists(REAL_ENTRIES, min_size=3, max_size=4),
).map(copy.deepcopy)  # the document is mutated in place after the draw
BAD_LISTS = st.sampled_from([None, 1.0, True, "row", {}, [], [[]], [[[1.0]]]]).map(
    copy.deepcopy
)
BAD_LABELS = st.sampled_from(["k8", 1, {}, [1], ["a", None], [["a"]], [True]])


def document_list(doc, key, i):
    """doc[key][i] when that is a list, else None (an earlier mutation
    may have replaced it)."""
    table = doc.get(key)
    if isinstance(table, list) and i < len(table) and isinstance(table[i], list):
        return table[i]
    return None


@st.composite
def join_documents(draw, entries=ENTRIES, labels=st.text("ab", max_size=3)):
    """A valid join document as a dict: d <= 3 blocks of 1 to 4 entries,
    a d x d coupling table and, half the time, labels."""
    d = draw(st.integers(1, 3))
    doc = {
        "blocks": [
            draw(st.lists(entries, min_size=1, max_size=4)) for _ in range(d)
        ],
        "couplings": [
            draw(st.lists(entries, min_size=d, max_size=d)) for _ in range(d)
        ],
    }
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(labels, max_size=d))
    return doc


@st.composite
def mutated_documents(draw):
    """A valid join document with up to three slots replaced by a bad
    entry, a bad or ragged list, or bad labels."""
    doc = draw(join_documents())
    d = len(doc["blocks"])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(
                ["entry", "extra entry", "list", "ragged", "table", "labels"]
            )
        )
        key = draw(st.sampled_from(["blocks", "couplings"]))
        i = draw(st.integers(0, d - 1))
        row = document_list(doc, key, i)
        if kind == "entry" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_ENTRIES)
        elif kind == "extra entry" and row is not None:
            row.insert(draw(st.integers(0, len(row))), draw(BAD_ENTRIES))
        elif kind == "list" and row is not None:
            doc[key][i] = draw(BAD_LISTS)
        elif kind == "ragged" and row is not None:
            doc[key][i] = row[:-1] if draw(st.booleans()) else row + [0]
        elif kind == "table":
            table = doc[key]
            shorter = table[:-1] if isinstance(table, list) else []
            doc[key] = draw(st.one_of(BAD_LISTS, st.just(shorter)))
        elif kind == "labels":
            doc["labels"] = draw(BAD_LABELS)
    return json.dumps(doc)


@settings(max_examples=500)
@given(mutated_documents())
def test_parse_matches_the_per_entry_parser(text):
    assert parse_outcome(parse_join_document, text) == parse_outcome(
        per_entry_parse, text
    )


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([[1.0, 10**400]], "blocks[0][1]: int too large to convert to float"),
        ([[[0.0, 10**400]]], "blocks[0][0]: int too large to convert to float"),
        ([[[10**400, 1]]], "blocks[0][0]: int too large to convert to float"),
        ([[1.0, True]], "blocks[0][1]: expected a number or [re, im] pair, got True"),
        ([[[1.0, 2.0, 3.0]]], "blocks[0][0]: expected a number or [re, im] pair, "
         "got [1.0, 2.0, 3.0]"),
    ],
)
def test_parse_error_messages_name_the_entry(blocks, message):
    with pytest.raises(ParseError) as info:
        parse_join_document(json.dumps({"blocks": blocks}))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "argv, d",
    [
        (["spectrum", "-"], 2),
        (["spectrum", "-", "--verify", "--eigenvectors"], 2),
        (["spectrum", "-", "--output", "csv"], 2),
        (["graph", "join", "complete:3", "ring:6:1", "--emit", "spectrum"], 2),
    ],
)
def test_spectrum_commands_run_one_eig(argv, d, monkeypatch, capsys):
    # the report's reduced_char_poly comes from full_spectrum's eig
    shapes = []
    lapack_eig = np.linalg.eig
    monkeypatch.setattr(
        np.linalg, "eig", lambda a: shapes.append(a.shape) or lapack_eig(a)
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(K8_DOC))
    assert run(argv, capsys)[0] == 0
    assert shapes == [(d, d)]


def test_verify_failure_exits_4(tmp_path, capsys):
    path = write(tmp_path, "k8.json", K8_DOC)
    code, _, err = run(
        ["spectrum", path, "--verify", "--verify-tol", "1e-300"], capsys
    )
    assert code == 4
    assert "residual" in err


def test_overflowing_document_exits_4(tmp_path, capsys):
    # the K8 document with every entry 1e300: c_2 of the reduced
    # characteristic polynomial is about 1e601
    doc = json.dumps(
        {"blocks": [[1e300] * 3, [1e300] * 5], "couplings": [[1e300] * 2] * 2}
    )
    path = write(tmp_path, "big.json", doc)
    for flags in ([], ["--verify"], ["--output", "csv"]):
        code, out, err = run(["spectrum", path, *flags], capsys)
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "circjoin: numerical error: a reduced_char_poly coefficient overflows"
        ]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"blocks": [[1e308, 1e308]]}, "a block row sum overflows"),
        (
            {"blocks": [[1e308, 1e308], [1.0]], "couplings": [[0, 1], [1, 0]]},
            "a block row sum overflows",
        ),
        (
            {"blocks": [[1.0], [1.0, 1.0]], "couplings": [[0, 1e308], [1, 0]]},
            "a coupling times a block size overflows",
        ),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--verify"]])
def test_overflowing_condensed_matrix_exits_4(tmp_path, capsys, doc, message, flags):
    # every entry is finite, but a condensed-matrix entry is not
    path = write(tmp_path, "sum.json", json.dumps(doc))
    code, out, err = run(["spectrum", path, *flags], capsys)
    assert (code, out) == (4, "")
    assert err.splitlines() == [f"circjoin: numerical error: {message}"]


def test_eigenvalues_beyond_the_float_range_in_modulus_stay_apart(tmp_path, capsys):
    # every part is finite, but |1.5e308 + 1.5e308i| is not: the merge
    # distance 1e-9 * max |eigenvalue| once overflowed to inf and printed
    # the block's two eigenvalues as one row of multiplicity 2
    c = 3.0 * np.fft.ifft(np.array([0.0, 1.5e308 + 1.5e308j, -1e307]) / 3.0)
    doc = {"blocks": [[[z.real, z.imag] for z in c]]}
    path = write(tmp_path, "big.json", json.dumps(doc))
    code, out, err = run(["spectrum", path], capsys)
    assert (code, err) == (0, "")
    rows = json.loads(out)["eigenvalues"]
    assert [(r["multiplicity"], r["provenance"]) for r in rows] == [
        (1, 1), (1, "condensed"), (1, 1)
    ]
    assert rows[0]["re"] == pytest.approx(-1e307)
    assert (rows[2]["re"], rows[2]["im"]) == pytest.approx((1.5e308, 1.5e308))
    code, out, err = run(["spectrum", path, "--output", "csv"], capsys)
    assert (code, err) == (0, "")
    assert [line.split(",")[1:] for line in out.splitlines()[1:]] == [
        ["1", "1"], ["1", "condensed"], ["1", "1"]
    ]


def test_lapack_failure_exits_4(tmp_path, capsys, monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    path = write(tmp_path, "k8.json", K8_DOC)
    code, out, err = run(["spectrum", path], capsys)
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1 and "did not converge" in err


def test_sweep_budget_flag_is_gone(tmp_path, capsys):
    path = write(tmp_path, "k8.json", K8_DOC)
    assert run(["spectrum", "--sweep-budget", "5", path], capsys)[0] == 2


def test_cap_flag_is_gone(tmp_path, capsys):
    path = write(tmp_path, "k8.json", K8_DOC)
    assert run(["spectrum", path, "--verify", "--cap", "4"], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv, size",
    [
        (["kuramoto", "simulate", "--j", "1", "--steps", str(2**62)], 2**62),
        (["kuramoto", "simulate", "--j", "1", "--steps", str(10**20)], 10**20),
        (["graph", "ring", "--k", str(10**20), "--m", "1"], 10**20),
        (["graph", "cycle", "--k", str(10**20)], 10**20),
        (["graph", "join", f"complete:{10**20}"], 10**20),
        (["kuramoto", "simulate", "--j", "1", "--steps", str(2**55)], 2**55),
        (["graph", "complete", "--n", str(2**55)], 2**55),
        (["graph", "join", f"ring:{2**55}:1"], 2**55),
    ],
)
def test_sizes_numpy_refuses_exit_3(argv, size, monkeypatch, capsys):
    # numpy refuses these sizes before it allocates anything, or fails
    # to allocate them at once: 2**55 int64 or float64 entries are 2**58
    # bytes, beyond any x86-64 address space
    monkeypatch.setattr(sys, "stdin", io.StringIO(ring_doc()))
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("circjoin: precondition error: ") and str(size) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "-", "--verify", "--verify-tol"],
        ["spectrum", "-", "--sigma-tol"],
        ["spectrum", "-", "--cluster-delta"],
        ["kuramoto", "equilibrium", "-", "--j", "1", "--tol"],
    ],
)
def test_negative_tolerances_exit_2(argv, monkeypatch, capsys):
    flag = argv[-1]
    monkeypatch.setattr(sys, "stdin", io.StringIO(ring_doc()))
    code, out, err = run(argv + ["-1"], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"argument {flag}: negative tolerance: '-1'")
    dest = flag[2:].replace("-", "_")
    assert vars(build_parser().parse_args(argv + ["0"]))[dest] == 0.0


def test_round_trip_is_byte_identical(capsys):
    code, first, _ = run(["graph", "ring", "--k", "7", "--m", "2"], capsys)
    assert code == 0
    spec, labels = parse_join_document(first)
    assert emit_join_document(spec, labels) == first
    spec2, labels2 = parse_join_document(emit_join_document(spec, labels))
    assert emit_join_document(spec2, labels2) == first


ROUND_TRIP_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.integers(-(2**64), 2**64),
)


@settings(max_examples=300)
@given(
    join_documents(
        st.one_of(ROUND_TRIP_REALS, st.lists(ROUND_TRIP_REALS, min_size=2, max_size=2)),
        st.text(max_size=4),
    )
)
def test_parse_emit_round_trip_is_byte_stable(doc):
    spec, labels = parse_join_document(json.dumps(doc))
    text = emit_join_document(spec, labels)
    again, back = parse_join_document(text)
    assert (again, back) == (spec, labels)
    assert emit_join_document(again, back) == text


def test_graph_ring_spec_document(capsys):
    code, out, _ = run(["graph", "ring", "--k", "7", "--m", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == [[0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]]
    assert doc["couplings"] == [[0.0]]
    assert doc["labels"] == ["ring:7:2"]


def test_graph_join_ring_spectrum(capsys):
    code, out, _ = run(
        ["graph", "join", "ring:5:1", "ring:6:1", "--emit", "spectrum"], capsys
    )
    assert code == 0
    rows = json.loads(out)["eigenvalues"]
    condensed = [
        complex(e["re"], e["im"]) for e in rows if e["provenance"] == "condensed"
    ]
    expected = [2.0 + math.sqrt(30.0), 2.0 - math.sqrt(30.0)]
    for want in expected:
        assert min(abs(c - want) for c in condensed) < 1e-9


def condensed_rows(out):
    return [
        (e["re"], e["im"], e["multiplicity"])
        for e in json.loads(out)["eigenvalues"]
        if e["provenance"] == "condensed"
    ]


def test_twin_rings_print_exact_condensed_values(monkeypatch, capsys):
    # 64 equal rings are twins: -4 = 2 - 6 on 63 Helmert vectors and the
    # quotient [2 + 63 * 6]; the char poly is (x + 4)^63 (x - 380)
    doc = json.dumps({"blocks": [[0, 1, 0, 0, 0, 1]] * 64, "couplings": [[1] * 64] * 64})
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run(["spectrum", "-", "--verify"], capsys)
    assert code == 0, err
    assert condensed_rows(out) == [(-4.0, 0.0, 63), (380.0, 0.0, 1)]
    exact = [
        math.comb(63, i) * 4**i - (380 * math.comb(63, i - 1) * 4 ** (i - 1) if i else 0)
        for i in range(7)
    ]
    assert exact[2:4] == [-64512, -9332736]
    assert json.loads(out)["reduced_char_poly"][:7] == [[float(c), 0.0] for c in exact]


def test_twin_graph_parts_print_exact_condensed_values(capsys):
    # the two complete:4 parts are twins with the exact eigenvalue 3 - 4
    code, out, _ = run(
        ["graph", "join", "ring:5:1", "ring:6:1", "complete:4", "complete:4",
         "cycle:5", "--emit", "spectrum"],
        capsys,
    )
    assert code == 0
    assert (-1.0, 0.0, 1) in condensed_rows(out)


def test_graph_remove_cycle_matches_spectrum_command(tmp_path, capsys):
    code, via_graph, _ = run(
        ["graph", "remove-cycle", "--n", "8", "--k", "3", "--directed",
         "--emit", "spectrum"],
        capsys,
    )
    assert code == 0
    doc = emit_join_document(remove_cycle_from_complete(8, 3, True))
    path = write(tmp_path, "doc.json", doc)
    code, via_spectrum, _ = run(["spectrum", path], capsys)
    assert code == 0
    assert via_graph == via_spectrum


def test_graph_complement_part(capsys):
    code, out, _ = run(["graph", "complement", "cycle:5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == [[0.0, 1.0, 1.0, 1.0, 0.0]]


def test_graph_errors(capsys):
    assert run(["graph", "ring"], capsys)[0] == 3  # missing --k/--m
    assert run(["graph", "join", "pentagon:5"], capsys)[0] == 2  # bad part
    assert run(["graph", "remove-cycle", "--n", "3", "--k", "3"], capsys)[0] == 3
    assert run(["graph", "banana"], capsys)[0] == 2  # argparse rejects


@pytest.mark.parametrize(
    "flags, part",
    [
        (["complete", "--n", "0"], "complete:0"),
        (["cycle", "--k", "1"], "cycle:1"),
        (["ring", "--k", "0", "--m", "1"], "ring:0:1"),
    ],
)
def test_out_of_range_part_is_a_precondition_error_on_every_route(flags, part, capsys):
    # a size out of range is well-formed text, so it exits 3 with the
    # constructor's message whether it comes from flags or a part spec
    expected = run(["graph", *flags], capsys)
    assert expected[0] == 3 and expected[2].startswith("circjoin: precondition error")
    assert run(["graph", "join", part], capsys) == expected
    assert run(["graph", "complement", part], capsys) == expected


def ring_doc():
    return emit_join_document(
        parse_join_document(
            json.dumps({"blocks": [[0, 1, 0, 0, 0, 1]], "couplings": [[0]]})
        )[0]
    )


def test_kuramoto_equilibrium_and_simulate(tmp_path, capsys):
    path = write(tmp_path, "ring.json", ring_doc())
    code, out, _ = run(
        ["kuramoto", "equilibrium", path, "--j", "1", "--phi", "0"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["equilibrium"] is True
    assert report["residual"] <= 1e-9
    assert len(report["theta0"]) == 6

    code, out, _ = run(
        ["kuramoto", "simulate", path, "--j", "1", "--steps", "1000",
         "--dt", "0.01", "--drift"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t," + ",".join(f"theta_{i}" for i in range(1, 7))
    assert len(lines) == 1 + 1001 + 1
    drift = float(lines[-1].split("=", 1)[1])
    assert drift <= 1e-6


def test_kuramoto_simulate_from_state_file(tmp_path, capsys):
    path = write(tmp_path, "ring.json", ring_doc())
    state = write(tmp_path, "state.json", json.dumps([0.0] * 6))
    code, out, _ = run(
        ["kuramoto", "simulate", path, "--state", state, "--steps", "3"], capsys
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 5
    assert all(float(v) == 0.0 for v in rows[-1].split(",")[1:])


def test_kuramoto_check(tmp_path, capsys):
    path = write(tmp_path, "ring.json", ring_doc())
    state = write(tmp_path, "zeros.json", json.dumps([0.0] * 6))
    code, out, _ = run(["kuramoto", "check", path, "--state", state], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["equilibrium"] is True
    assert report["residual"] == 0.0

    random_state = write(tmp_path, "rand.json", json.dumps([0.3, 1.2, -2.0, 0.1, 2.5, -1.4]))
    code, out, _ = run(["kuramoto", "check", path, "--state", random_state], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["equilibrium"] is False
    assert report["residual"] > 1e-3


def test_kuramoto_commands_build_no_dense_matrix(tmp_path, capsys):
    doc = emit_join_document(
        JoinSpec(
            [[0.0, 1.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0, 1.0]],
            [[0.0, 0.2, 0.1], [0.3, 0.0, 0.2], [0.1, 0.4, 0.0]],
        )
    )
    path = write(tmp_path, "net.json", doc)
    state = write(tmp_path, "state.json", json.dumps([0.1 * i for i in range(11)]))
    commands = [
        ["kuramoto", "simulate", path, "--state", state, "--steps", "5", "--drift"],
        ["kuramoto", "check", path, "--state", state],
        ["kuramoto", "equilibrium", write(tmp_path, "ring.json", ring_doc()), "--j", "1"],
    ]
    expected = [run(argv, capsys) for argv in commands]
    # the package has no dense expansion to build; a second run must
    # print the same bytes
    for argv, (code, out, err) in zip(commands, expected):
        assert code == 0, err
        assert run(argv, capsys) == (code, out, err)


def test_kuramoto_equilibrium_has_no_size_cap(tmp_path, capsys):
    network = join(*[ring_graph(2048, 3)] * 8)
    assert network.n > 4096
    path = write(tmp_path, "big.json", emit_join_document(network))
    code, out, err = run(["kuramoto", "equilibrium", path, "--j", "1"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["equilibrium"] is True


def test_simulate_rows_match_per_value_formatting():
    times = np.array([0.0, 0.1, 0.1, 0.2, 1e-300, 2.0, 3.0, 3.0, 4.0])
    values = np.array(
        [
            [0.0, -0.0, np.pi],
            [0.0, -0.0, np.pi],  # repeats the row above, whose text it reuses
            [-0.0, -0.0, np.pi],  # equal to the row above, but not bit for bit
            [-0.0, -0.0, np.pi],
            [1e-300, -1e-300, -np.pi],
            [np.nextafter(np.pi, 4.0), 1.0 / 3.0, 2.5e-310],
            [np.nan, 1.0 / 3.0, 2.5e-310],
            [np.nan, 1.0 / 3.0, 2.5e-310],
            [-0.0, 0.0, 123456789.125],
        ]
    )
    expected = [
        ",".join(format(x, ".17g") for x in [t, *row])
        for t, row in zip(times, values)
    ]
    assert _csv_rows(times, values) == expected


def test_spectrum_eigenvectors_flag(tmp_path, capsys):
    path = write(tmp_path, "k3.json", json.dumps({"blocks": [[0, 1, 1]]}))
    code, out, _ = run(["spectrum", path, "--eigenvectors"], capsys)
    assert code == 0
    vecs = json.loads(out)["eigenvectors"]
    assert len(vecs["circulant"]) == 2
    assert len(vecs["condensed"]) == 1
    assert all(len(e["vector"]) == 3 for e in vecs["circulant"])
    chain = vecs["condensed"][0]["chain"]
    assert len(chain) == 1 and len(chain[0]) == 3


def test_kuramoto_uniform_omega(tmp_path, capsys):
    path = write(tmp_path, "ring.json", ring_doc())
    state = write(tmp_path, "zeros.json", json.dumps([0.0] * 6))
    code, out, _ = run(
        ["kuramoto", "simulate", path, "--state", state, "--epsilon", "0",
         "--omega", "0.5", "--dt", "0.1", "--steps", "10"],
        capsys,
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)
    assert all(float(v) == pytest.approx(0.5) for v in last[1:])


def test_kuramoto_errors(tmp_path, capsys):
    complex_doc = write(
        tmp_path,
        "complex.json",
        json.dumps({"blocks": [[0, [0.0, 1.0]]], "couplings": [[0]]}),
    )
    assert run(["kuramoto", "check", complex_doc, "--state", complex_doc], capsys)[0] == 3
    path = write(tmp_path, "ring.json", ring_doc())
    assert run(["kuramoto", "equilibrium", path, "--j", "9"], capsys)[0] == 3
    assert run(["kuramoto", "simulate", path], capsys)[0] == 3
    short = write(tmp_path, "short.json", json.dumps([0.0] * 3))
    for command in ("check", "simulate"):
        assert run(["kuramoto", command, path, "--state", short], capsys) == (
            3, "", "circjoin: precondition error: state has 3 phases, network has 6\n"
        )
    bad_state = write(tmp_path, "bad_state.json", "[1, 2")
    assert run(["kuramoto", "check", path, "--state", bad_state], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "BAD"],
        ["kuramoto", "check", "RING", "--state", "BAD"],
        ["kuramoto", "simulate", "RING", "--state", "BAD", "--steps", "1"],
        ["spectrum", "-"],
        ["kuramoto", "check", "RING", "--state", "-"],
    ],
)
def test_non_utf8_file_is_a_parse_error(argv, tmp_path, monkeypatch, capsys):
    # a UTF-16 file with its byte-order mark, as some editors save JSON
    data = b"\xff\xfe" + K8_DOC.encode("utf-16-le")
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    paths = {"BAD": str(bad), "RING": write(tmp_path, "ring.json", ring_doc())}
    source = "stdin" if "-" in argv else bad
    # stdin as a strict UTF-8 stream, as with PYTHONIOENCODING=utf-8, and
    # as the surrogateescape stream Python reads in a C or POSIX locale
    for errors in ("strict", "surrogateescape"):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run([paths.get(a, a) for a in argv], capsys)
        assert (code, out) == (2, ""), errors
        assert err == (
            f"circjoin: parse error: cannot read {source}: 'utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte\n"
        ), errors


@pytest.mark.parametrize("encoding", ["ascii", "utf-8"])
def test_utf8_stdin_reads_as_the_file_does(encoding, tmp_path, monkeypatch, capsys):
    # a label outside ASCII, on stdin decoded with surrogateescape in the
    # locale's encoding, parses as it does from the file
    data = json.dumps({**json.loads(K8_DOC), "labels": ["é", "ü"]}, ensure_ascii=False)
    path = tmp_path / "labels.json"
    path.write_bytes(data.encode("utf-8"))
    expected = run(["spectrum", str(path)], capsys)
    assert expected[0] == 0
    stdin = io.TextIOWrapper(
        io.BytesIO(data.encode("utf-8")), encoding=encoding, errors="surrogateescape"
    )
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run(["spectrum", "-"], capsys) == expected


# Non-finite input: every case below once printed NaN or Infinity, or
# passed a check it never made, with exit 0 (or, for huge integers, a
# traceback).  Flags exit 2 through argparse (usage lines, then one error
# line), documents and state files exit 2 and overflow exits 4, each with
# one error line.
NONFINITE_CASES = {
    "block-eigenvalue-overflow": (
        ["spectrum", "DOC"], {"blocks": [[1e308, -1e308]]}, None, 4,
        "circjoin: numerical error: a block eigenvalue overflows",
    ),
    "verify-tol-nan": (
        ["spectrum", "DOC", "--verify", "--verify-tol", "nan"], None, None, 2,
        "circjoin spectrum: error: argument --verify-tol: not a finite number: 'nan'",
    ),
    "cluster-delta-nan": (
        ["spectrum", "DOC", "--cluster-delta", "nan"], None, None, 2,
        "circjoin spectrum: error: argument --cluster-delta: not a finite number: 'nan'",
    ),
    "sigma-tol-inf": (
        ["graph", "ring", "--k", "5", "--m", "1", "--emit", "spectrum",
         "--sigma-tol", "inf"], None, None, 2,
        "circjoin graph: error: argument --sigma-tol: not a finite number: 'inf'",
    ),
    "state-nan": (
        ["kuramoto", "check", "RING", "--state", "STATE"], None, "[NaN, 0, 0, 0, 0, 0]", 2,
        "circjoin: parse error: state file phases must be finite",
    ),
    "state-huge-integer": (
        ["kuramoto", "check", "RING", "--state", "STATE"], None,
        "[1" + "0" * 400 + ", 0, 0, 0, 0, 0]", 2,
        "circjoin: parse error: state file: int too large to convert to float",
    ),
    "check-tol-nan": (
        ["kuramoto", "check", "RING", "--state", "STATE", "--tol", "nan"], None,
        "[0, 0, 0, 0, 0, 0]", 2,
        "circjoin kuramoto check: error: argument --tol: not a finite number: 'nan'",
    ),
    "check-epsilon-inf": (
        ["kuramoto", "check", "RING", "--state", "STATE", "--epsilon", "inf"], None,
        "[0, 0, 0, 0, 0, 0]", 2,
        "circjoin kuramoto check: error: argument --epsilon: not a finite number: 'inf'",
    ),
    "equilibrium-epsilon-nan": (
        ["kuramoto", "equilibrium", "RING", "--j", "1", "--epsilon", "nan"], None, None, 2,
        "circjoin kuramoto equilibrium: error: argument --epsilon: "
        "not a finite number: 'nan'",
    ),
    "equilibrium-phi-nan": (
        ["kuramoto", "equilibrium", "RING", "--j", "1", "--phi=nan"], None, None, 2,
        "circjoin: parse error: --phi offsets must be finite, got 'nan'",
    ),
    "simulate-omega-inf": (
        ["kuramoto", "simulate", "RING", "--j", "1", "--omega=-inf"], None, None, 2,
        "circjoin kuramoto simulate: error: argument --omega: not a finite number: '-inf'",
    ),
    "simulate-dt-nan": (
        ["kuramoto", "simulate", "RING", "--j", "1", "--dt", "NaN"], None, None, 2,
        "circjoin kuramoto simulate: error: argument --dt: not a finite number: 'NaN'",
    ),
    "document-huge-integer": (
        ["spectrum", "DOC"], None, None, 2,
        "circjoin: parse error: blocks[0][1]: int too large to convert to float",
    ),
    # finite input, but a derived value overflows: the mean of a merged
    # report row, and the default tolerances 1e-8 * ||A||_inf of --verify
    # and 1e-8 * (1 + |eps| * ||A||_inf) of the Kuramoto checks, which an
    # infinite value would pass vacuously
    "report-row-mean-overflow": (
        ["spectrum", "DOC"], {"blocks": [[1e308, -0.5e308, -0.5e308]]}, None, 4,
        "circjoin: numerical error: an eigenvalue cluster mean overflows",
    ),
    "verify-default-tol-overflow": (
        ["spectrum", "DOC", "--verify"], {"blocks": [[1e308, -0.5e308, -0.5e308]]}, None, 4,
        "circjoin: numerical error: the default --verify tolerance 1e-8 * inf-norm overflows",
    ),
    "check-default-tol-overflow": (
        ["kuramoto", "check", "RING", "--state", "STATE", "--epsilon", "1e308"], None,
        "[0, 0, 0, 0, 0, 0]", 4,
        "circjoin: numerical error: the default equilibrium tolerance "
        "1e-8 * (1 + |epsilon| * inf-norm) overflows",
    ),
    "equilibrium-default-tol-overflow": (
        ["kuramoto", "equilibrium", "DOC", "--j", "1", "--epsilon", "1e308"],
        {"blocks": [[0, 1, 0, 0, 0, 1]] * 2, "couplings": [[0, 1], [1, 0]]}, None, 4,
        "circjoin: numerical error: the default equilibrium tolerance "
        "1e-8 * (1 + |epsilon| * inf-norm) overflows",
    ),
}


@pytest.mark.parametrize("case", sorted(NONFINITE_CASES))
def test_non_finite_input_exits_without_output(case, tmp_path, capsys):
    argv, doc, state, expected_code, message = NONFINITE_CASES[case]
    if case == "document-huge-integer":
        doc_text = '{"blocks": [[0, 1' + "0" * 400 + "]]}"
    else:
        doc_text = json.dumps(doc) if doc is not None else K8_DOC
    paths = {
        "DOC": write(tmp_path, "doc.json", doc_text),
        "RING": write(tmp_path, "ring.json", ring_doc()),
        "STATE": write(tmp_path, "state.json", state or "[]"),
    }
    code, out, err = run([paths.get(a, a) for a in argv], capsys)
    assert (code, out) == (expected_code, "")
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines[-1] == message
    assert sum("error" in line for line in lines) == 1


def test_invalid_float_flag_message_is_unchanged(tmp_path, capsys):
    path = write(tmp_path, "k8.json", K8_DOC)
    code, out, err = run(["spectrum", path, "--verify-tol", "abc"], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "circjoin spectrum: error: argument --verify-tol: invalid float value: 'abc'"
    )


# ---------------------------------------------------------------------------
# the one parser per process: `main` parses every argv against the parser
# it built on its first call, so one call must leave nothing behind for
# the next
# ---------------------------------------------------------------------------


def captured(call, *args, stdin=""):
    """(result or ("exit", code), stdout, stderr) of call(*args), with
    `stdin` as standard input."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = call(*args)
            except SystemExit as exc:
                result = ("exit", exc.code)
    finally:
        sys.stdin = saved
    return result, out.getvalue(), err.getvalue()


def test_later_calls_build_no_parser_and_see_nothing_of_earlier_ones(monkeypatch):
    first = captured(main, ["graph", "ring", "--k", "5", "--m", "1"])  # builds the parser
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *a, **kw: built.append(a) or init(self, *a, **kw),
    )
    seen = []  # the namespace of every command that ran
    for name in ("cmd_graph", "cmd_spectrum"):
        command = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda args, command=command: seen.append(vars(args)) or command(args)
        )
    calls = [
        (["graph", "join", "ring:5:1", "ring:6:1", "--emit", "spectrum"], 0),
        (["graph", "complete", "--n", "4"], 0),
        (["spectrum", "-", "--verify"], 0),
        (["spectrum", "-"], 0),
        (["spectrum", "-", "--output", "xml"], 2),
        (["graph", "ring", "--k", "5", "--m", "1"], 0),
        (["--help"], 0),
    ]
    results = [captured(main, argv, stdin=K8_DOC) for argv, _ in calls]
    assert built == []
    monkeypatch.undo()

    assert [code for code, _, _ in results] == [code for _, code in calls]
    ran = [argv for argv, _ in calls[:4]] + [calls[5][0]]
    assert seen == [vars(build_parser().parse_args(argv)) for argv in ran]
    assert seen[1]["parts"] == []
    assert seen[3]["verify"] is False
    assert "max_residual" in results[2][1] and "max_residual" not in results[3][1]
    usage = results[4][2].splitlines()
    assert usage[-1].startswith("circjoin spectrum: error: argument --output")
    assert results[5] == first
    assert results[6] == (0, build_parser().format_help(), "")


# Tokens of a fuzzed command line: the subcommands and their flags, small
# integers, non-finite and overflowing floats, good and bad part specs, a
# missing path and --help.  Sizes stay at 8 or less and a simulation at 5
# steps or less, so that no case allocates much or runs long; the two
# larger integers are sizes numpy refuses before it allocates anything.
WORDS = [
    "spectrum", "graph", "kuramoto", "simulate", "equilibrium", "check",
    "complete", "cycle", "ring", "complement", "join", "remove-cycle",
    "json", "csv", "spec", "-", "--help",
]
FLAGS = [
    "--output", "--eigenvectors", "--verify", "--verify-tol", "--cluster-delta",
    "--sigma-tol", "--n", "--k", "--m", "--directed",
    "--emit", "--epsilon", "--omega", "--j", "--phi", "--state", "--tol",
    "--dt", "--drift", "--bogus",
]
VALUES = [
    *map(str, range(-1, 9)), "36028797018963968", "4611686018427387904",
    "100000000000000000000",
    "0.5", "1e-3", "1e-300", "nan", "-inf", "inf", "1e400", "abc", "", "0,0.5",
    "0,nan",
    "complete:3", "cycle:4", "ring:5:1", "ring:8:3", "complement:ring:6:1",
    "complement:", "ring:5", "ring:x:1", "complete:0", "ring:0:1", "torus:3",
    "missing.json",
]
HEADS = [
    ["spectrum"], ["graph"], ["kuramoto", "simulate"], ["kuramoto", "equilibrium"],
    ["kuramoto", "check"], ["kuramoto"], [],
]


@st.composite
def command_lines(draw):
    argv = draw(st.sampled_from(HEADS)) + draw(
        st.lists(st.sampled_from(WORDS + FLAGS + VALUES), max_size=8)
    )
    if argv[:2] == ["kuramoto", "simulate"]:
        argv += ["--steps", str(draw(st.integers(0, 5)))]
    return argv


def parse_args_outcome(parser, argv):
    result, out, err = captured(parser.parse_args, argv)
    if isinstance(result, argparse.Namespace):
        result = vars(result)
    return result, out, err


@settings(max_examples=300)
@given(command_lines(), st.sampled_from([K8_DOC, ring_doc(), "{", ""]))
def test_fuzzed_command_lines_exit_with_a_documented_code(argv, document):
    code, _, _ = captured(main, argv, stdin=document)  # raises on a traceback
    assert code in (0, 2, 3, 4)
    assert parse_args_outcome(cli._parser(), argv) == parse_args_outcome(
        build_parser(), argv
    )


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader takes 10 bytes of a 131 kB report and closes the pipe,
    # so a later write of the console script meets a broken pipe
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["graph", "ring", "--k", "2048", "--m", "5", "--emit", "spectrum"]
    script = "from circjoin.cli import main_entry; main_entry()"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "n": 2'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
