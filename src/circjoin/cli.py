"""Command-line front-end.

Subcommands:

* ``spectrum``  - read a join document (JSON), print a spectrum report.
* ``graph``     - build a named graph join; emit its document or report.
* ``kuramoto``  - simulate / construct / check oscillator equilibria.

Join documents are JSON objects with keys ``blocks`` (list of defining
vectors), ``couplings`` (d x d table) and optional ``labels``; numbers
are bare reals or [re, im] pairs.  Exit codes: 0 success, 1 stdout
closed early, 2 parse error, 3 precondition error, 4 numerical error.
"""

import argparse
import functools
import json
import math
import os
import sys
from itertools import accumulate, chain

import numpy as np

from . import jsontext
from .circulant import root_of_unity_powers
from .errors import (
    NumericalError,
    ParseError,
    PreconditionError,
    VerificationError,
)
from .graphs import (
    complete_graph,
    directed_cycle,
    join as join_graphs,
    remove_cycle_from_complete,
    ring_graph,
)
from .join import JoinSpec, full_spectrum
from .kuramoto import (
    KuramotoSystem,
    build_twisted_equilibrium,
    check_equilibrium,
    default_equilibrium_tol,
    integrate,
)
from .smalleig import _finite_clusters, _scale_exponent

REPORT_CLUSTER_SCALE = 1e-9


# ---------------------------------------------------------------------------
# join documents
# ---------------------------------------------------------------------------

def _entry_to_complex(entry, where):
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
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {entry!r}")


_REAL = frozenset((int, float))  # the JSON number types; bool is its own type
_ENTRY = _REAL | {list}


def _whole_list(entries):
    """The numbers of `entries`, all the entries of a document's blocks
    or of its coupling table, as one array when every entry is real
    (float64) or every entry is real or an [re, im] pair of reals
    (complex128), and None otherwise.  Sets of types and lengths, a
    chain of the pairs and one np.array; only a list that mixes reals
    and pairs runs Python code per entry, to pair each real with 0.0."""
    try:
        types = set(map(type, entries))
        if types <= _REAL:
            return np.array(entries, dtype=np.float64)
        if types <= _ENTRY:
            if types != {list}:
                entries = [e if type(e) is list else (e, 0.0) for e in entries]
            if set(map(len, entries)) == {2}:
                parts = list(chain.from_iterable(entries))
                if set(map(type, parts)) <= _REAL:
                    return np.array(parts, dtype=np.float64).view(np.complex128)
    except OverflowError:  # an integer literal beyond the float range
        pass
    return None


def _walk(rows, name, problem):
    """The entries of the document lists `rows` as one complex128 array,
    list by list and entry by entry, for what `_whole_list` does not
    take.  Raises ParseError at the first list that `problem(i, row)`
    describes or at the first entry that is not a number or pair, in
    document order."""
    values = []
    for i, row in enumerate(rows):
        message = problem(i, row)
        if message:
            raise ParseError(message)
        values += (_entry_to_complex(e, f"{name}[{i}][{m}]") for m, e in enumerate(row))
    return np.array(values, dtype=np.complex128)


def _complex_to_entry(z):
    z = complex(z)
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def parse_join_document(text):
    """Parse a join document; returns (JoinSpec, labels or None)."""
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
    vector = None
    if set(map(type, raw_blocks)) == {list} and all(raw_blocks):
        vector = _whole_list(list(chain.from_iterable(raw_blocks)))
    if vector is None:
        vector = _walk(raw_blocks, "blocks", lambda i, row: (
            None if isinstance(row, list) and row
            else f"blocks[{i}] must be a nonempty list"
        ))
    d = len(raw_blocks)
    raw_couplings = doc.get("couplings")
    couplings = None
    if raw_couplings is None:
        if d > 1:
            raise ParseError("document is missing 'couplings'")
    else:
        if not isinstance(raw_couplings, list) or len(raw_couplings) != d:
            raise ParseError(f"'couplings' must be a {d}x{d} table")
        if set(map(type, raw_couplings)) == {list} and set(map(len, raw_couplings)) == {d}:
            couplings = _whole_list(list(chain.from_iterable(raw_couplings)))
        if couplings is None:
            couplings = _walk(raw_couplings, "couplings", lambda i, row: (
                None if isinstance(row, list) and len(row) == d
                else f"couplings[{i}] has {len(row) if isinstance(row, list) else '?'}"
                f" entries, expected {d} (ragged table)"
            ))
        couplings = couplings.reshape(d, d)
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(
            isinstance(s, str) for s in labels
        ):
            raise ParseError("'labels' must be a list of strings")
    try:
        spec = JoinSpec.from_vector(vector, map(len, raw_blocks), couplings)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc
    return spec, labels


def emit_join_document(join, labels=None):
    """Canonical document text; parsing and re-emitting is byte-stable."""
    doc = {
        "blocks": [[_complex_to_entry(c) for c in b] for b in join.blocks],
        "couplings": [
            [_complex_to_entry(c) for c in row] for row in np.asarray(join.couplings)
        ],
    }
    if labels is not None:
        doc["labels"] = list(labels)
    return jsontext.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# spectrum reports
# ---------------------------------------------------------------------------

def _fmt17(x):
    return format(float(x), ".17g")


def report_rows(decomposition):
    """The report's eigenvalue table as three arrays in report order:
    cluster means, multiplicities and provenances (block numbers from 1,
    and "condensed").

    Equal eigenvalues are clustered within each provenance group, at a
    distance of 1e-9 * max |eigenvalue|.  That maximum is the hypot of
    the values scaled down by a power of two, which is exact, so it is
    finite whenever every part is, and the distance is 1e-9 times the
    plain maximum wherever that is finite.  Clustering depends only on
    the values' bits and the distance, so one `_finite_clusters` call
    takes each distinct group of values once, as one segment, and every
    provenance copies its segment's rows by index.  With the rows in
    provenance order, the condensed matrix first, one stable sort orders
    them by (Re, Im), -0.0 equal to 0.0, and then by provenance.
    """
    values = decomposition.eigenvalues()  # in provenance order
    groups = [values[: decomposition.d], *decomposition.block_eigenvalues]
    t = max(_scale_exponent(float(np.abs(values.view(np.float64)).max())), 0)
    scale = math.ldexp(1.0, -t)
    biggest = float(np.hypot(values.real * scale, values.imag * scale).max())
    delta = math.ldexp(REPORT_CLUSTER_SCALE * biggest, t)
    distinct = {}
    which = [distinct.setdefault(g.tobytes(), (len(distinct), g))[0] for g in groups]
    segments = [g for _, g in distinct.values()]
    labels = np.repeat(np.arange(len(segments)), list(map(len, segments)))
    mean, mult, perm, cut = _finite_clusters(np.concatenate(segments), delta, labels)
    # _cluster puts each segment's clusters together, in segment order
    bounds = np.searchsorted(labels[perm[cut[:-1]]], np.arange(len(segments) + 1))
    sizes = (bounds[1:] - bounds[:-1])[which]
    stops = sizes.cumsum()
    pick = np.arange(stops[-1]) + np.repeat(bounds[which] - stops + sizes, sizes)
    # _cluster's own means: a singleton's is w / 1, which sets zero signs
    mean = mean[pick]
    order = mean.argsort(kind="stable")
    names = np.array(["condensed", *range(1, len(groups))], dtype=object)
    return mean[order], mult[pick[order]], np.repeat(names, sizes)[order]


def decomposition_residual(join, decomposition):
    """Largest eigen/chain residual (inf-norm), from two identities of
    the join and no n-sized product.

    A Fourier mode v_j of block b is an exact eigenvector with |v_j| = 1
    entrywise, so its pair's residual is |lambda~_j - lambda_j|, with
    lambda~ from a transform of length 2k: a different plan from the
    cached one, so the roundings are independent.  That is one FFT per
    distinct block size, on the size group's stacked defining vectors
    `join.vector[rows]` (`JoinSpec.layout`).  Index 0 checks the block's
    row sum, the value the condensed matrix holds.  A lifted condensed
    vector satisfies A lift(x) = lift(s*x + a (k*x)) (row sums s, sizes
    k, couplings a), so a chain link is checked in C^d, from the blocks
    and couplings rather than from `JoinSpec.condensed`.

    Returns (max residual, human-readable tag of the offender); a NaN
    residual counts as inf, so it is never passed over.  Of equal
    residuals, the tag names the lowest block, then the lowest Fourier
    index, then a block before a chain.
    """
    layout = join.layout()
    lams = decomposition.block_eigenvalues
    # per size group, (-residual, block, Fourier index) of its first
    # largest residual in block order, so the least is the offender
    offenders = []
    for ids, rows, eigenvalues, _ in layout.groups:
        k = rows.shape[1]
        claimed = eigenvalues.copy()  # index 0 is the row sum
        claimed[:, 1:] = [lams[i] for i in ids.tolist()]
        r = np.abs(np.fft.fft(join.vector[rows], 2 * k, axis=1)[:, ::2] - claimed)
        r[np.isnan(r)] = np.inf
        p = int(r.argmax())
        offenders.append((-r.item(p), ids.item(p // k), p % k))
    least, b, j = min(offenders)
    worst, tag = -least, f"block {b + 1}, fourier index {j}"
    chains = decomposition.condensed_chains
    if chains:
        x = np.concatenate([ch.vectors for ch in chains])
        lam = decomposition.eigenvalues()[: decomposition.d]
        starts = np.cumsum([0] + [len(ch) for ch in chains[:-1]])
        prev = np.zeros_like(x)
        prev[1:] = x[:-1]
        prev[starts] = 0.0  # a chain starts with an eigenvector
        ax = x * layout.row_sums + (x * join.block_sizes) @ join.couplings.T
        r = np.abs(ax - x * lam[:, None] - prev).max(axis=1)
        r[np.isnan(r)] = np.inf
        i = int(np.argmax(r))
        if r[i] > worst:
            ci = int(np.searchsorted(starts, i, side="right")) - 1
            worst = float(r[i])
            tag = f"condensed chain {ci}, depth {i - starts[ci] + 1}"
    return max(worst, 0.0), tag


def _eigenvectors(decomposition):
    """The report's "eigenvectors" section, as the arrays its vectors are
    built from: `O(n + d^2)` numbers, where the text holds n^2 [re, im]
    pairs (n - d Fourier modes and d chain links, each an n-vector).

    The zero-padded Fourier vector of block b at index j holds root
    (m*j) % k of the block's k roots of unity at row m of the block and
    an exact zero elsewhere (`jsontext.FourierModes`, given each block's
    number, first row, eigenvalues and roots).  A lifted chain vector
    repeats its d condensed coordinates, coordinate i k_i times
    (`jsontext.LiftedChains`, given the chains' links in C^d).
    """
    sizes = list(decomposition.block_sizes)
    starts = [0, *accumulate(sizes)]
    blocks = [
        (b, start, lams, root_of_unity_powers(k))
        for b, (start, k, lams) in enumerate(
            zip(starts, sizes, decomposition.block_eigenvalues), 1
        )
    ]
    chains = decomposition.condensed_chains
    return {
        "circulant": jsontext.FourierModes(decomposition.n, blocks),
        "condensed": jsontext.LiftedChains(
            sizes,
            np.array([ch.eigenvalue for ch in chains], dtype=np.complex128),
            [ch.vectors for ch in chains],
        ),
    }


def _spectrum(join, args):
    """The spectrum report, as the JSON output writes it; its eigenvalue
    table is a `jsontext.Table` of the `report_rows` columns.  The
    "eigenvectors" section is built for JSON output only, since the CSV
    table prints no vectors."""
    decomposition = full_spectrum(
        join, cluster_delta=args.cluster_delta, sigma_tol=args.sigma_tol
    )
    if args.verify:
        # before anything is derived from the decomposition, so that a
        # corrupt one is reported with its offending pair
        residual, offender = decomposition_residual(join, decomposition)
        tol = args.verify_tol
        if tol is None:
            tol = 1e-8 * join.inf_norm()
            if not math.isfinite(tol):
                raise NumericalError(
                    "the default --verify tolerance 1e-8 * inf-norm overflows"
                )
        if residual > tol:
            raise VerificationError(
                f"residual {residual:.3e} exceeds tolerance {tol:.3e} at {offender}"
            )
    mean, mult, provenance = report_rows(decomposition)
    re, im = mean.real, mean.imag
    if not join.is_real():
        # no conjugate pairs to share texts, and float lists write faster
        re, im = re.tolist(), im.tolist()
    table = {"re": re, "im": im, "multiplicity": mult.tolist(), "provenance": provenance.tolist()}
    report = {
        "n": join.n,
        "diagonalizable": decomposition.diagonalizable,
        "eigenvalues": jsontext.Table(table),
        "reduced_char_poly": [
            [float(c.real), float(c.imag)] for c in decomposition.reduced_char_poly()
        ],
    }
    if args.eigenvectors and args.output == "json":
        # the section's text holds n^2 [re, im] pairs, each four indented
        # lines of at least 48 bytes; one untouched allocation of that
        # size refuses, at once, a report that could only fail after
        # most of its text is written
        np.empty(min(48 * join.n**2, sys.maxsize), np.uint8)
        report["eigenvectors"] = _eigenvectors(decomposition)
    if args.verify:
        report["max_residual"] = residual
    return report


def _report_text(join, args):
    report = _spectrum(join, args)
    if args.output == "json":
        return jsontext.dumps(report)
    table = report["eigenvalues"].columns
    rows = zip(table["re"], table["im"], table["multiplicity"], table["provenance"])
    header = "eigenvalue,multiplicity,provenance"
    template = header + "\n%.17g%+.17gi,%d,%s" * len(table["re"])
    return template % tuple(chain.from_iterable(rows))


def _print_report(join, args):
    """Print the report, or nothing when its text cannot be allocated: a
    report with --eigenvectors holds about n^2 [re, im] pairs."""
    try:
        text = _report_text(join, args)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise PreconditionError(
            f"the report of a join of size {join.n} does not fit in memory{detail}"
        ) from exc
    print(text)


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def _read_input(path):
    stdin = path in (None, "-")
    try:
        if stdin:
            text = sys.stdin.read()
            # a C or POSIX locale reads stdin with surrogateescape; decode
            # its bytes as strict UTF-8, as a file's are
            if not text.isascii():
                text = text.encode("utf-8", "surrogateescape").decode("utf-8")
            return text
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise ParseError(f"cannot read {'stdin' if stdin else path}: {exc}") from exc


def _parse_phis(text):
    try:
        phis = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"invalid --phi list {text!r}") from exc
    if not all(map(math.isfinite, phis)):
        raise ParseError(f"--phi offsets must be finite, got {text!r}")
    return phis


def _read_state(path, n):
    """The phases of a --state file, one per node of an n-node network."""
    text = _read_input(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid state JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in data
    ):
        raise ParseError("state file must be a JSON array of numbers")
    try:
        theta = np.asarray(data, dtype=np.float64)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ParseError(f"state file: {exc}") from exc
    if not np.all(np.isfinite(theta)):
        raise ParseError("state file phases must be finite")
    if theta.shape != (n,):
        raise PreconditionError(f"state has {theta.shape[0]} phases, network has {n}")
    return theta


# ---------------------------------------------------------------------------
# graph part specs
# ---------------------------------------------------------------------------

# part kind -> (number of integer arguments, graph constructor)
_PART_KINDS = {
    "complete": (1, complete_graph),
    "cycle": (1, directed_cycle),
    "ring": (2, ring_graph),
}


def _parse_part(spec):
    head, _, rest = spec.partition(":")
    if head == "complement":
        if not rest:
            raise ParseError(f"complement part needs a target: {spec!r}")
        return _parse_part(rest).complement()
    args = rest.split(":") if rest else []
    arity, build = _PART_KINDS.get(head, (None, None))
    if len(args) != arity:
        raise ParseError(
            f"unknown part spec {spec!r}; use complete:N, cycle:K, ring:K:M "
            "or complement:<part>"
        )
    try:
        sizes = [int(a) for a in args]
    except ValueError as exc:
        raise ParseError(f"invalid part spec {spec!r}") from exc
    return build(*sizes)  # sizes out of range are a PreconditionError


def _build_graph(args):
    """(join, labels) of a graph command; the complete, cycle, ring and
    complement kinds are the join of the one part spec they name."""
    kind = args.kind
    if kind == "complete":
        if args.n is None:
            raise PreconditionError("complete needs --n")
        label = f"complete:{args.n}"
    elif kind == "cycle":
        if args.k is None:
            raise PreconditionError("cycle needs --k")
        label = f"cycle:{args.k}"
    elif kind == "ring":
        if args.k is None or args.m is None:
            raise PreconditionError("ring needs --k and --m")
        label = f"ring:{args.k}:{args.m}"
    elif kind == "complement":
        if len(args.parts) != 1:
            raise PreconditionError("complement takes exactly one part spec")
        label = f"complement:{args.parts[0]}"
    elif kind == "join":
        if not args.parts:
            raise PreconditionError("join needs at least one part spec")
        parts = [_parse_part(p) for p in args.parts]
        return join_graphs(*parts), list(args.parts)
    elif kind == "remove-cycle":
        if args.n is None or args.k is None:
            raise PreconditionError("remove-cycle needs --n and --k")
        spec = remove_cycle_from_complete(args.n, args.k, args.directed)
        style = "directed" if args.directed else "undirected"
        labels = [
            f"complete:{args.k}-minus-{style}-cycle:{args.k}",
            f"complete:{args.n - args.k}",
        ]
        return spec, labels
    else:
        raise PreconditionError(f"unknown graph kind {kind!r}")
    return join_graphs(_parse_part(label)), [label]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args):
    spec, _ = parse_join_document(_read_input(args.input))
    _print_report(spec, args)
    return 0


def cmd_graph(args):
    spec, labels = _build_graph(args)
    if args.emit == "spec":
        sys.stdout.write(emit_join_document(spec, labels))
        return 0
    _print_report(spec, args)
    return 0


def _kuramoto_system(args):
    spec, _ = parse_join_document(_read_input(args.input))
    return KuramotoSystem(spec, epsilon=args.epsilon, omega=args.omega)


def _twisted_state(system, args):
    """The twisted equilibrium of --j, with the --phi offsets (default 0
    for every block)."""
    phis = _parse_phis(args.phi) if args.phi else [0.0] * system.network.d
    return build_twisted_equilibrium(system, args.j, phis)


def _csv_rows(times, values):
    """One line per time, "t,v_1,...,v_n", every number as _fmt17 writes
    it: one %-template per row instead of a format call per value.  A
    row whose float bits equal the previous row's (a trajectory resting
    on an equilibrium) reuses that row's text; comparing bits keeps a
    -0.0 apart from a 0.0."""
    template = ",%.17g" * values.shape[1]
    bits = values.view(np.int64)
    fresh = [True, *(bits[1:] != bits[:-1]).any(axis=1).tolist()]
    lines, text = [], ""
    for t, row, new in zip(times.tolist(), values, fresh):
        if new:
            text = template % tuple(row.tolist())
        lines.append("%.17g" % t + text)
    return lines


def cmd_kuramoto_simulate(args):
    system = _kuramoto_system(args)
    if args.state is not None:
        theta0 = _read_state(args.state, system.n)
    elif args.j is not None:
        theta0 = _twisted_state(system, args).theta
    else:
        raise PreconditionError("simulate needs --state or --j (with optional --phi)")
    trajectory = integrate(system, theta0, args.dt, args.steps)
    header = "t," + ",".join(f"theta_{i + 1}" for i in range(system.n))
    out = [header, *_csv_rows(trajectory.times, trajectory.reduced())]
    if args.drift:
        drift = float(np.abs(trajectory.thetas - trajectory.thetas[0]).max())
        out.append(f"# max_drift={_fmt17(drift)}")
    print("\n".join(out))
    return 0


def cmd_kuramoto_equilibrium(args):
    system = _kuramoto_system(args)
    if args.j is None:
        raise PreconditionError("equilibrium needs --j")
    state = _twisted_state(system, args)
    flag, residual = check_equilibrium(system, state.theta, tol=args.tol)
    report = {
        "fourier_index": state.fourier_index,
        "phi": state.phis.tolist(),
        "theta0": state.theta.tolist(),
        "residual": residual,
        "equilibrium": flag,
    }
    print(jsontext.dumps(report))
    return 0


def cmd_kuramoto_check(args):
    system = _kuramoto_system(args)
    if args.state is None:
        raise PreconditionError("check needs --state")
    theta = _read_state(args.state, system.n)
    tol = args.tol if args.tol is not None else default_equilibrium_tol(system)
    flag, residual = check_equilibrium(system, theta, tol=tol)
    report = {"equilibrium": flag, "residual": residual, "tol": tol}
    print(jsontext.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _finite_float(text):
    """argparse type of every float flag.  NaN passes no comparison, so a
    NaN tolerance would skip its check, and a NaN or infinite parameter
    would reach the output; both exit 2 here instead."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text):
    """argparse type of the tolerance flags: a finite float >= 0."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"negative tolerance: {text!r}")
    return value


def _add_spectrum_flags(p):
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--eigenvectors", action="store_true",
                   help="include the generalized eigenbasis in the report")
    p.add_argument("--verify", action="store_true",
                   help="check every eigenpair and chain residual (no dense matrix)")
    p.add_argument("--verify-tol", type=_tolerance, default=None,
                   help="residual tolerance (default 1e-8 * inf-norm of the join)")
    p.add_argument("--cluster-delta", type=_tolerance, default=None,
                   help="condensed eigenvalue merge distance "
                   "(default 1e-7 * inf-norm of the condensed matrix)")
    p.add_argument("--sigma-tol", type=_tolerance, default=None,
                   help="null-space singular value threshold "
                   "(default 1e-8 * inf-norm of the condensed matrix)")


def build_parser():
    """A new parser of the circjoin command line.  Each subcommand sets
    `func` to the name of its command function, which `main` looks up
    when it runs the command: a parser outlives many calls (`_parser`),
    and a wrapper installed on a command after it was built, such as a
    tracer's, must still be the one that runs."""
    parser = argparse.ArgumentParser(
        prog="circjoin",
        description="Spectra of joins of circulant matrices, graph joins, "
        "and Kuramoto equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="spectrum of a join document")
    p_spec.add_argument("input", nargs="?", default="-",
                        help="join document path, or - for stdin")
    _add_spectrum_flags(p_spec)
    p_spec.set_defaults(func="cmd_spectrum")

    p_graph = sub.add_parser("graph", help="build a graph join")
    p_graph.add_argument(
        "kind",
        choices=("complete", "cycle", "ring", "complement", "join", "remove-cycle"),
    )
    p_graph.add_argument("parts", nargs="*",
                         help="part specs for join/complement, e.g. ring:5:1")
    p_graph.add_argument("--n", type=int, default=None)
    p_graph.add_argument("--k", type=int, default=None)
    p_graph.add_argument("--m", type=int, default=None)
    p_graph.add_argument("--directed", action="store_true")
    p_graph.add_argument("--emit", choices=("spec", "spectrum"), default="spec")
    _add_spectrum_flags(p_graph)
    p_graph.set_defaults(func="cmd_graph")

    p_kur = sub.add_parser("kuramoto", help="Kuramoto dynamics on a join")
    kur_sub = p_kur.add_subparsers(dest="subcommand", required=True)
    for name in ("simulate", "equilibrium", "check"):
        q = kur_sub.add_parser(name)
        q.add_argument("input", nargs="?", default="-",
                       help="join document path, or - for stdin")
        q.add_argument("--epsilon", type=_finite_float, default=1.0)
        q.add_argument("--omega", type=_finite_float, default=None,
                       help="uniform natural frequency (default 0)")
        q.add_argument("--j", type=int, default=None,
                       help="fourier winding index of the twisted state")
        q.add_argument("--phi", type=str, default=None,
                       help="comma-separated per-block phase offsets")
        q.add_argument("--state", type=str, default=None,
                       help="JSON array of phases")
        q.add_argument("--tol", type=_tolerance, default=None,
                       help="equilibrium residual tolerance")
        if name == "simulate":
            q.add_argument("--dt", type=_finite_float, default=0.01)
            q.add_argument("--steps", type=int, default=1000)
            q.add_argument("--drift", action="store_true",
                           help="append a max-drift comment line")
        q.set_defaults(func=f"cmd_kuramoto_{name}")

    return parser


@functools.cache
def _parser():
    """The one parser of the process, built on first use: parse_args
    leaves a parser as it was, so every later `main` call parses against
    it instead of building some fifty arguments again."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        # overflow is caught by explicit finiteness checks and reported
        # as one error line, so numpy's own warnings stay off stderr
        with np.errstate(all="ignore"):
            return globals()[args.func](args) or 0
    except ParseError as exc:
        print(f"circjoin: parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"circjoin: precondition error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"circjoin: numerical error: {exc}", file=sys.stderr)
        return 4


def main_entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # so that the interpreter's final flush of stdout cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
