"""The JSON writer: byte identity with json.dumps(indent=2), which stays
here as the oracle, on hand-made values and on every CLI output."""

import hashlib
import io
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circjoin import JoinSpec, NumericalError, cli, full_spectrum
from circjoin.cli import decomposition_residual, emit_join_document, main
from circjoin.jsontext import FourierModes, LiftedChains, Table, dumps

from corpus import (
    defective_joins,
    lifted_chains,
    padded_fourier_mode,
    structured_corpus,
    unit_disk,
)

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 2.0, 1e16, 0.1]

K8_DOC = json.dumps(
    {"blocks": [[0, 1, 0], [0, 1, 1, 1, 1]], "couplings": [[0, 1], [1, 0]]}
)


def oracle(obj):
    return json.dumps(obj, indent=2)


def run(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# the writer on its own
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "obj",
    [
        EDGE_FLOATS,
        [[x, -x] for x in EDGE_FLOATS],
        [[x] for x in EDGE_FLOATS],
        [
            {"re": x, "im": -x, "multiplicity": i + 1, "provenance": p}
            for i, (x, p) in enumerate(zip(EDGE_FLOATS, [1, "condensed"] * 5))
        ],
        [{"re": 1.0, "provenance": 2}, {"re": 2.0, "provenance": 3}],
        [{"re": 1.0, "provenance": "condensed"}] * 3,
        {"x": EDGE_FLOATS[2], "y": [1, 2.5, 10**30, -7], "z": [True, False, None]},
        [],
        [[]],
        [[], []],
        {},
        {"empty": [], "nested": {}, "pairs": [[]], "rows": [{}]},
        [[1.0, 2.0], [3.0]],
        [[1.0, "a"], [2.0, "b"]],
        [{"a": 1.0}, {"b": 1.0}],
        [{"a": [1.0]}, {"a": [2.0]}],
        [{"a": 1, "b": 2.0}, {"a": 2.0, "b": 3}],
        [{"p": v} for v in [1, "c", 1, None, 0, "c", None, 1]],
        [{"p": v} for v in [True, 1, "c", 1, True, False, 0, None, "c", 1]],
        [{"p": v} for v in [1, 1.0, True, -0.0, 0.0, 0, "c", -0.0]],
        (1.0, (2.0, 3.0), [True]),
        {"%d": ["%s", "%r%%"], "k%": [{"%": 1.0}, {"%": 2.0}]},
        ["quote \" backslash \\ tab \t newline \n bell \x07", "ünïcødé ✓ 😀", ""],
        [np.float64(1.5), np.float64(-0.0)],
        [[np.float64(0.25), 1.0]],
        [{"re": np.float64(0.5), "im": 0.0}],
        "plain",
        3,
        -0.0,
        None,
        True,
    ],
)
def test_dumps_is_json_dumps(obj):
    assert dumps(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        math.nan,
        -math.inf,
        [1.0, math.nan],
        [1, 2, math.inf],
        [[1.0, math.inf], [0.0, 0.0]],
        [{"re": math.nan, "im": 0.0}],
        [{"re": 1, "x": math.inf}, {"re": 2, "x": 3}],
        [{"p": "condensed"}, {"p": 1}, {"p": math.nan}],
        {"residual": math.nan, "tol": 1e-8},
        [np.float64("nan")],
    ],
)
def test_non_finite_float_raises_instead_of_printing(obj):
    json.dumps(obj, indent=2)  # json itself would print NaN or Infinity
    with pytest.raises(NumericalError):
        dumps(obj)


EDGE_VALUES = [1 + 2j, -0.0 + 5e-324j, complex(1e308, -1e-300), 0j, complex(-0.0, 0.1)]


def fourier_rows(n, blocks):
    """The rows FourierModes(n, blocks) stands for, built entry by entry."""
    rows = []
    for b, start, eigenvalues, roots in blocks:
        k = len(roots)
        for j, z in enumerate(eigenvalues.tolist(), 1):
            vector = [[0.0, 0.0] for _ in range(n)]
            for m in range(k):
                root = complex(roots[(m * j) % k])
                vector[start + m] = [root.real, root.imag]
            rows.append(
                {"block": b, "fourier_index": j, "eigenvalue": [z.real, z.imag],
                 "vector": vector}
            )
    return rows


def lifted_rows(sizes, eigenvalues, chains):
    """The rows LiftedChains(sizes, eigenvalues, chains) stands for."""
    return [
        {
            "eigenvalue": [z.real, z.imag],
            "chain": [
                [[x.real, x.imag] for x, k in zip(link.tolist(), sizes) for _ in range(k)]
                for link in links
            ],
        }
        for z, links in zip(eigenvalues.tolist(), chains)
    ]


def edge_blocks(layout, rng):
    """FourierModes blocks at the given (number, start, size), roots and
    eigenvalues drawn from EDGE_VALUES."""
    return [
        (b, start, rng.choice(EDGE_VALUES, k - 1), rng.choice(EDGE_VALUES, k))
        for b, start, k in layout
    ]


# block layouts (number, first row, size) of an n-vector: a size-1 block
# between larger ones, blocks that start and end the vector (zero runs
# of length 0), one block filling it, and size-1 blocks only (no rows)
FOURIER_LAYOUTS = [
    (9, [(1, 0, 4), (2, 4, 1), (3, 5, 4)]),
    (5, [(1, 0, 5)]),
    (7, [(1, 0, 1), (2, 1, 3), (3, 4, 2), (4, 6, 1)]),
    (2, [(1, 0, 1), (2, 1, 1)]),
    (0, []),
]


@pytest.mark.parametrize(
    "n, layout", FOURIER_LAYOUTS, ids=["edges", "one-block", "size-1-ends", "size-1", "none"]
)
def test_fourier_modes_match_nested_lists(n, layout):
    blocks = edge_blocks(layout, np.random.default_rng(n))
    nested = fourier_rows(n, blocks)
    for wrap in (lambda v: v, lambda v: [v, {"vector": v}]):
        assert dumps(wrap(FourierModes(n, blocks))) == oracle(wrap(nested))


@pytest.mark.parametrize(
    "sizes, lengths", [([2, 1, 3], [1, 2, 3]), ([4], [1, 2]), ([1, 1], [2]), ([3], [])]
)
def test_lifted_chains_match_nested_lists(sizes, lengths):
    rng = np.random.default_rng(len(sizes))
    eigenvalues = rng.choice(EDGE_VALUES, len(lengths))
    chains = [rng.choice(EDGE_VALUES, (length, len(sizes))) for length in lengths]
    nested = lifted_rows(sizes, eigenvalues, chains)
    section = LiftedChains(sizes, eigenvalues, chains)
    for wrap in (lambda v: v, lambda v: [v, {"chain": v}]):
        assert dumps(wrap(section)) == oracle(wrap(nested))


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
    st.lists(st.integers(min_value=1, max_value=3), max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eigenvector_sections_match_nested_lists_on_generated_joins(sizes, lengths, seed):
    rng = np.random.default_rng(seed)
    starts = np.cumsum([0, *sizes]).tolist()
    n = starts[-1]
    blocks = edge_blocks([(b, starts[b - 1], k) for b, k in enumerate(sizes, 1)], rng)
    eigenvalues = rng.choice(EDGE_VALUES, len(lengths))
    chains = [rng.choice(EDGE_VALUES, (length, len(sizes))) for length in lengths]
    section = {
        "circulant": FourierModes(n, blocks),
        "condensed": LiftedChains(sizes, eigenvalues, chains),
    }
    nested = {
        "circulant": fourier_rows(n, blocks),
        "condensed": lifted_rows(sizes, eigenvalues, chains),
    }
    assert dumps({"eigenvectors": section}) == oracle({"eigenvectors": nested})


def test_deep_nesting_and_sections_at_three_indents():
    n, layout = FOURIER_LAYOUTS[0]
    blocks = edge_blocks(layout, np.random.default_rng(3))
    sizes, eigenvalues = [2, 1, 3], np.array(EDGE_VALUES[:2])
    chains = [np.array([EDGE_VALUES[1:4]]), np.array([EDGE_VALUES[2:5], EDGE_VALUES[:3]])]

    def report(modes, lifted):
        # sections at nesting depths 1, 5 and 10
        return {
            "top": modes(n, blocks),
            "a": [{"b": {"c": [lifted(sizes, eigenvalues, chains),
                               {"d": [[{"e": {"f": modes(n, blocks[2:])}}]]}]}}],
            "n": 7,
        }

    nested = report(fourier_rows, lifted_rows)
    assert dumps(report(FourierModes, LiftedChains)) == oracle(nested)


def test_eigenvector_sections_reject_non_finite_entries():
    ok = np.array([1.0, 1j, -1.0])
    for bad in (complex(0.0, math.nan), complex(math.inf, 0.0)):
        for roots, values in ((np.array([1.0, bad, -1.0]), ok[:2]), (ok, np.array([bad, 1.0]))):
            with pytest.raises(NumericalError):
                dumps(FourierModes(4, [(1, 1, values, roots)]))
        for values, link in ((np.array([bad]), ok), (np.array([1.0]), np.array([1.0, 2.0, bad]))):
            with pytest.raises(NumericalError):
                dumps(LiftedChains([1, 2, 1], values, [np.array([ok, link])]))


def test_unsupported_values_raise_type_error():
    for obj in ({1: 2.0}, [object()], np.int64(3), Table({"v": [[1.0]]})):
        with pytest.raises(TypeError):
            dumps(obj)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_FLOATS)
    | st.text(max_size=6)
)


@given(
    st.recursive(
        JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=5)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=2, max_size=2), max_size=5)
        | st.lists(st.fixed_dictionaries({"re": st.floats(allow_nan=False,
                                                          allow_infinity=False),
                                          "p": st.integers() | st.just("condensed")}),
                   max_size=5),
        max_leaves=40,
    )
)
def test_dumps_is_json_dumps_on_generated_values(obj):
    assert dumps(obj) == oracle(obj)


def table_of(rows):
    """The Table of dicts with one key order."""
    return Table({key: [row[key] for row in rows] for key in (rows[0] if rows else ())})


@pytest.mark.parametrize(
    "rows",
    [
        [
            {"re": x, "im": -x, "multiplicity": i + 1, "provenance": p}
            for i, (x, p) in enumerate(zip(EDGE_FLOATS, [1, "condensed"] * 5))
        ],
        [{"p": v} for v in [1, "c", 1, None, 0, "c", None, 1]],
        [{"p": v} for v in [True, 1, "c", 1, True, False, 0, None, "c", 1]],
        [{"p": v} for v in [1, 1.0, True, -0.0, 0.0, 0, "c", -0.0]],
        [{"%d": 1.0, "k%": "%s%r"}],
        [],
    ],
)
def test_table_is_json_dumps_of_its_rows(rows):
    for wrap in (lambda v: v, lambda v: {"rows": [v]}):
        assert dumps(wrap(table_of(rows))) == oracle(wrap(rows))


@given(
    st.lists(
        st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(), JSON_SCALARS),
        max_size=8,
    )
)
def test_table_is_json_dumps_of_generated_rows(values):
    rows = [{"re": x, "m": m, "p": p} for x, m, p in values]
    assert dumps({"t": table_of(rows)}) == oracle({"t": rows})


def test_table_rejects_non_finite_floats():
    for bad in (math.nan, -math.inf):
        with pytest.raises(NumericalError):
            dumps(Table({"re": [1.0, bad], "provenance": ["condensed", 1]}))


# ---------------------------------------------------------------------------
# every CLI output is the text json.dumps writes
# ---------------------------------------------------------------------------

SPECTRUM_FLAGS = [[], ["--eigenvectors"], ["--verify"], ["--eigenvectors", "--verify"]]


# -0.0 real and imaginary parts, and a value tied with a -0.0 one: the
# report sorts -0.0 as 0.0, so the tie goes to the provenance rank
NEGATIVE_ZERO_DOC = json.dumps(
    {
        "blocks": [[[-0.0, -1.0]], [[-0.0, -0.0], -0.0]],
        "couplings": [[-0.0, -1.0], [0.0, -1.0]],
    }
)
# a block and the condensed matrix share the eigenvalue -1
SHARED_EIGENVALUE_DOC = json.dumps(
    {"blocks": [[0.0, 1.0], [-1.0]], "couplings": [[0.0, 0.0], [0.0, 0.0]]}
)
# edge cases of the eigenvector section, beside those of the corpus: a
# chain of length 3 lifted through blocks of sizes 2, 1 and 3, so a
# size-1 block sits between larger ones and the Fourier modes of the
# first and last blocks have a zero run of length 0 on one side; a
# one-block join, whose modes have no zero padding; and a join of
# size-1 blocks only, whose "circulant" list is empty
LIFTED_CHAIN_DOC = json.dumps(
    {
        "blocks": [[1.0, -1.0], [0.0], [0.5, -0.25, -0.25]],
        "couplings": [[0.0, 1.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    }
)
ONE_BLOCK_DOC = json.dumps({"blocks": [[0.0, 1.0, -2.5, 0.0, 1.0]]})
SIZE_ONE_DOC = json.dumps(
    {"blocks": [[1.0], [-0.0], [2.5]], "couplings": [[0, 1, 0], [0.5, 0, -1], [0, 1, 0]]}
)
REPORT_DOCS = [
    *(
        emit_join_document(spec)
        for spec in [
            cli.parse_join_document(K8_DOC)[0], *structured_corpus(), *defective_joins()
        ]
    ),
    NEGATIVE_ZERO_DOC,
    SHARED_EIGENVALUE_DOC,
    LIFTED_CHAIN_DOC,
    ONE_BLOCK_DOC,
    SIZE_ONE_DOC,
]


def bits(values):
    """The bytes of complex values as complex128, so that bit-equal
    values, and only those, compare equal (the sign of a zero counts)."""
    return np.asarray(values, dtype=np.complex128).tobytes()


def pair_bits(pairs):
    """`bits` of a JSON list of [re, im] pairs."""
    return bits([complex(re, im) for re, im in pairs])


@pytest.mark.parametrize("index", range(len(REPORT_DOCS)))
def test_spectrum_stdout_is_json_dumps_of_spectrum_report(index, monkeypatch, capsys):
    # stdout is the one spectrum report: it is checked against the
    # decomposition and against vectors built here from the definitions
    doc = REPORT_DOCS[index]
    spec, _ = cli.parse_join_document(doc)
    dec = full_spectrum(spec)
    for flags in SPECTRUM_FLAGS:
        code, out, err = run(["spectrum", "-", *flags], doc, monkeypatch, capsys)
        assert code == 0, err
        report = json.loads(out)
        assert oracle(report) + "\n" == out
        keys = ["n", "diagonalizable", "eigenvalues", "reduced_char_poly"]
        keys += ["eigenvectors"] * ("--eigenvectors" in flags)
        keys += ["max_residual"] * ("--verify" in flags)
        assert list(report) == keys
        assert (report["n"], report["diagonalizable"]) == (spec.n, dec.diagonalizable)
        order = [
            (r["re"], r["im"], -1 if r["provenance"] == "condensed" else r["provenance"])
            for r in report["eigenvalues"]
        ]
        assert order == sorted(order)
        counts = {}
        for r in report["eigenvalues"]:
            counts[r["provenance"]] = counts.get(r["provenance"], 0) + r["multiplicity"]
        assert counts == {
            "condensed": spec.d,
            **{b: k - 1 for b, k in enumerate(spec.block_sizes, 1) if k > 1},
        }
        assert pair_bits(report["reduced_char_poly"]) == bits(dec.reduced_char_poly())
        if "--verify" in flags:
            assert report["max_residual"] == decomposition_residual(spec, dec)[0]
        if "--eigenvectors" not in flags:
            continue
        vectors = report["eigenvectors"]
        starts = np.cumsum([0, *spec.block_sizes]).tolist()
        expected = [
            (b, j, starts[b - 1], k)
            for b, k in enumerate(spec.block_sizes, 1)
            for j in range(1, k)
        ]
        circulant = vectors["circulant"]
        assert [(e["block"], e["fourier_index"]) for e in circulant] == [
            (b, j) for b, j, _, _ in expected
        ]
        assert pair_bits([e["eigenvalue"] for e in circulant]) == bits(
            np.concatenate(dec.block_eigenvalues)
        )
        for entry, (_, j, start, k) in zip(circulant, expected):
            assert pair_bits(entry["vector"]) == bits(
                padded_fourier_mode(spec.n, start, k, j)
            ), (entry["block"], j)
        chains = lifted_chains(dec)
        assert len(vectors["condensed"]) == len(chains)
        for entry, chain in zip(vectors["condensed"], chains):
            assert pair_bits([entry["eigenvalue"]]) == bits([chain.eigenvalue])
            assert [pair_bits(v) for v in entry["chain"]] == [
                bits(u) for u in chain.vectors
            ]


def test_report_docs_cover_the_eigenvector_edge_cases():
    # the shapes the runs of an eigenvector have at their edges, each
    # present in REPORT_DOCS, so the byte-identity test above sees them
    specs = [cli.parse_join_document(doc)[0] for doc in REPORT_DOCS]
    sizes = [spec.block_sizes for spec in specs]
    assert any(len(s) == 1 and s[0] > 1 for s in sizes)  # no zero padding
    assert any(len(s) > 1 and max(s) == 1 for s in sizes)  # "circulant": []
    assert any(  # a size-1 block between larger ones
        any(s[i] == 1 and s[i - 1] > 1 and s[i + 1] > 1 for i in range(1, len(s) - 1))
        for s in sizes
    )
    assert any(s[0] > 1 and s[-1] > 1 and len(s) > 1 for s in sizes)  # edge blocks
    lifted = {  # lengths of chains lifted through a block of size > 1
        len(ch)
        for spec in specs
        if max(spec.block_sizes) > 1
        for ch in full_spectrum(spec).condensed_chains
    }
    assert {2, 3} <= lifted


# a CSV eigenvalue field, "<re><im>i" with the sign of im always written
CSV_COMPLEX = re.compile(r"(-?[0-9.]+(?:e[+-][0-9]+)?)([+-][0-9.]+(?:e[+-][0-9]+)?)i")


@pytest.mark.parametrize("index", range(len(REPORT_DOCS)))
def test_csv_rows_mirror_json_rows(index, monkeypatch, capsys):
    doc = REPORT_DOCS[index]
    code, out, err = run(["spectrum", "-"], doc, monkeypatch, capsys)
    assert code == 0, err
    rows = json.loads(out)["eigenvalues"]
    code, out, err = run(["spectrum", "-", "--output", "csv"], doc, monkeypatch, capsys)
    assert code == 0, err
    header, *lines = out.splitlines()
    assert header == "eigenvalue,multiplicity,provenance"
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        value, mult, prov = line.split(",")
        re_text, im_text = CSV_COMPLEX.fullmatch(value).groups()
        assert bits([complex(float(re_text), float(im_text))]) == bits(
            [complex(row["re"], row["im"])]
        ), line
        assert (int(mult), prov) == (row["multiplicity"], str(row["provenance"]))


@pytest.mark.parametrize(
    "doc, expected",
    [
        (
            NEGATIVE_ZERO_DOC,
            [(-0.0, -1.0, "condensed"), (0.0, 0.0, "condensed"), (0.0, -0.0, 2)],
        ),
        (
            SHARED_EIGENVALUE_DOC,
            [(-1.0, 0.0, "condensed"), (-1.0, 0.0, 1), (1.0, 0.0, "condensed")],
        ),
    ],
)
def test_equal_eigenvalues_are_ordered_by_provenance_rank(doc, expected, monkeypatch, capsys):
    code, out, err = run(["spectrum", "-"], doc, monkeypatch, capsys)
    assert code == 0, err
    rows = json.loads(out)["eigenvalues"]
    assert [r["provenance"] for r in rows] == [p for _, _, p in expected]
    assert bits([complex(r["re"], r["im"]) for r in rows]) == bits(
        [complex(x, y) for x, y, _ in expected]
    )


def test_spectrum_report_provenance_kinds(monkeypatch, capsys):
    code, out, err = run(["spectrum", "-"], K8_DOC, monkeypatch, capsys)
    assert code == 0, err
    report = json.loads(out)
    kinds = {type(row["provenance"]) for row in report["eigenvalues"]}
    assert kinds == {int, str}
    assert out == oracle(report) + "\n"


def test_a_non_finite_last_vector_prints_no_partial_report(monkeypatch, capsys):
    eigenvectors = cli._eigenvectors

    def last_vector_nan(decomposition):
        section = eigenvectors(decomposition)
        chains = section["condensed"].chains
        chains[-1] = chains[-1].copy()
        chains[-1][-1, -1] = complex(math.nan, 0.0)
        return section

    monkeypatch.setattr(cli, "_eigenvectors", last_vector_nan)
    code, out, err = run(["spectrum", "-", "--eigenvectors"], K8_DOC, monkeypatch, capsys)
    assert (code, out) == (4, "")
    assert err.splitlines() == [
        "circjoin: numerical error: a non-finite number cannot be written as JSON"
    ]


def kuramoto_doc(d=2, k=12):
    ring = [0.0, 1.0, 1.0] + [0.0] * (k - 5) + [1.0, 1.0]
    return json.dumps({"blocks": [ring] * d, "couplings": np.ones((d, d)).tolist()})


@pytest.mark.parametrize(
    "argv",
    [
        ["kuramoto", "equilibrium", "-", "--j", "1"],
        ["kuramoto", "equilibrium", "-", "--j", "2", "--phi=0.3,-1.2", "--epsilon", "0.5"],
        ["kuramoto", "check", "-", "--state", "STATE"],
        ["kuramoto", "check", "-", "--state", "STATE", "--tol", "1e-300"],
    ],
)
def test_kuramoto_reports_are_json_dumps_text(argv, tmp_path, monkeypatch, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps([0.1 * i - 1.0 for i in range(24)]))
    argv = [str(state) if a == "STATE" else a for a in argv]
    code, out, err = run(argv, kuramoto_doc(), monkeypatch, capsys)
    assert code == 0, err
    assert out == oracle(json.loads(out)) + "\n"


@pytest.mark.parametrize(
    "labels",
    [
        None,
        [],
        ['quote " and backslash \\', "control \x00\x01\x1f\t\n", "ünï ✓ 😀 %s %r"],
    ],
)
def test_emitted_documents_are_json_dumps_text(labels):
    spec = JoinSpec(
        [[0.0, 1.0, -0.0], [1e-300, 5e-324 + 1j, 2.0], [1e16]],
        [[0.0, 1.0, 0.5j], [1e308, 0.0, -2.0], [0.25, 0.0, 0.0]],
    )
    text = emit_join_document(spec, labels)
    assert text == oracle(json.loads(text)) + "\n"
    again, back = cli.parse_join_document(text)
    assert again == spec and back == labels
    assert emit_join_document(again, back) == text


# ---------------------------------------------------------------------------
# stdout pinned across commits
# ---------------------------------------------------------------------------

def real_join_doc(k=128):
    """Two random real blocks of size k, seeded by k."""
    rng = np.random.default_rng(k)
    blocks = [rng.uniform(-1.0, 1.0, k).tolist() for _ in range(2)]
    couplings = rng.uniform(-1.0, 1.0, (2, 2)).tolist()
    return json.dumps({"blocks": blocks, "couplings": couplings})


def mixed_join_doc():
    """A real join whose blocks have mixed and repeated sizes, so each
    rate runs several size groups of `JoinSpec.matvec`."""
    rng = np.random.default_rng(19)
    blocks = [rng.uniform(-1.0, 1.0, k).tolist() for k in (3, 5, 3, 8)]
    couplings = rng.uniform(-1.0, 1.0, (4, 4)).tolist()
    return json.dumps({"blocks": blocks, "couplings": couplings})


def complex_join_doc(d=128):
    """d complex blocks of random sizes 2 to 8 and complex couplings, all
    entries on the unit disk, seeded by d: a report of d + 1 groups."""
    rng = np.random.default_rng(d)
    blocks = [unit_disk(rng, k) for k in rng.integers(2, 9, d).tolist()]
    return emit_join_document(JoinSpec(blocks, unit_disk(rng, (d, d))))


# sha256 of stdout as the json.dumps(indent=2) writer printed it, on
# x86-64 Linux with numpy 2.4 (OpenBLAS, pocketfft).  FFT, exp and LAPACK
# rounding elsewhere may move last digits; the byte-identity tests above
# hold on any platform.
PINNED = [
    (["spectrum", "-", "--eigenvectors", "--verify"], K8_DOC,
     "8e8f2e7a08a497806c1c238f7c0925c8041e18423802e4ea5229357e8623de08"),
    (["spectrum", "-", "--eigenvectors", "--verify"], real_join_doc(),
     "eca3d4c17ce6d0db65d0e17cf179f995a391ad53d4ea63e4d9262932190a0f73"),
    (["kuramoto", "equilibrium", "-", "--j", "1", "--phi=0.3,-1.2"], kuramoto_doc(),
     "033237e5f45a2fdd7d57de9bf55004b07502c0f00e3d374d31ad12e01657fb9b"),
    (["graph", "join", "ring:5:1", "complement:cycle:4", "--emit", "spec"], "",
     "8c915c44b8ac5f0656f31e15da1c91399a9826bf6a71cd6282bcf7df0b896a75"),
    # off equilibrium, so every row rests on the bits of the rates
    (["kuramoto", "simulate", "-", "--state", "STATE", "--steps", "50", "--drift"],
     mixed_join_doc(), "48ced9224c2e146ceaba5c3513df9a3ff48d457458842c503e71f7b6cac50e8f"),
    (["spectrum", "-", "--output", "csv"], K8_DOC,
     "b898f39a443bdbc0f43d0f528ab102af9ba483f5b134a60d8db6cad0574f6e08"),
    (["spectrum", "-", "--output", "csv"], real_join_doc(),
     "042a0fbfac74a758014d31a2d17932b1ccdfcb13a9e727b5dc87a3a8f25bbb86"),
    # the shape of the slowest spectrum-large-k job: a table of 4096 rows
    (["spectrum", "-"], real_join_doc(2048),
     "d647e25eff6db8409d4bed694d3c4953fc4468f9867c7b00e3d9e3cb6bc5c81d"),
    # every value has a near twin (j and k - j), so all go to the greedy loop
    (["graph", "ring", "--k", "2048", "--m", "5", "--emit", "spectrum"], "",
     "c3b415ba2351c2d7b071dfdcbeb2f1285ab5cb39d1a4f756555e388d42f6efb7"),
    # twin blocks, merged rows and equal groups
    (["graph", "join", "ring:5:1", "ring:6:1", "complete:4", "complete:4", "cycle:5",
      "--emit", "spectrum"], "",
     "fff5222e5f72500eaf4514ee1471738f3fbd80bae1965820cd4efe6c0d77a26e"),
    # 129 groups of 1 to 8 values, the shape of a spectrum-large-d job
    (["spectrum", "-"], complex_join_doc(),
     "eb229e4e63f6529c620dc8cf1f377570115a618d18002051f021433af4c95ee2"),
    # a 5 x 5 complex condensed solve, the shape of a small-jobs spectrum job
    (["spectrum", "-", "--verify"], complex_join_doc(5),
     "88dbcdf895e10551eeb3156986a6fa74f0a29d67f7219b00a4c522cdb0a9a1ab"),
    # a chain of length 3 lifted through blocks of sizes 2, 1 and 3
    (["spectrum", "-", "--eigenvectors", "--verify"], LIFTED_CHAIN_DOC,
     "37029d6342aeb933ab9759a1b62166f28d62d777d4b1834ad6d3e6bd2290a202"),
]


@pytest.mark.parametrize(
    "argv, stdin, digest",
    PINNED,
    ids=[
        "k8",
        "real-2x128",
        "equilibrium",
        "graph-spec",
        "simulate-3-5-3-8",
        "k8-csv",
        "real-2x128-csv",
        "real-2x2048",
        "ring-2048-5",
        "join-twins",
        "complex-d128",
        "complex-d5",
        "lifted-chain-3",
    ],
)
def test_stdout_matches_pinned_digest(argv, stdin, digest, tmp_path, monkeypatch, capsys):
    state = tmp_path / "state.json"
    rng = np.random.default_rng(20)
    state.write_text(json.dumps(rng.uniform(-np.pi, np.pi, 19).tolist()))
    argv = [str(state) if a == "STATE" else a for a in argv]
    code, out, err = run(argv, stdin, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
