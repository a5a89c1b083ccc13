"""Seeded job lists for the benchmark's workloads.

A job is one ``circjoin.cli.main(argv)`` call with its join document on
stdin, plus the plain data the oracle needs to check the output.  This
module builds documents with numpy and the standard library only; it
never imports circjoin, so the program receives nothing but the
generated text.
"""

import json
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

WORKLOADS = ("spectrum-large-k", "spectrum-large-d", "kuramoto-large", "small-jobs")


@dataclass(frozen=True)
class Job:
    """One CLI call.

    ``kind`` selects the oracle: "spectrum" (a report checked against
    the document or a closed form), "doc" (an emitted join document),
    "simulate" or "equilibrium".  ``data`` holds the oracle's inputs.
    """

    kind: str
    argv: tuple
    stdin: str = ""
    data: dict = field(default_factory=dict, repr=False)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def _entry(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def document(blocks, couplings):
    """Join document text; floats are written exactly (repr round-trips)."""
    return json.dumps(
        {
            "blocks": [[_entry(c) for c in b] for b in blocks],
            "couplings": [[_entry(c) for c in row] for row in couplings],
        }
    )


def unit_disk(rng, size):
    """Complex samples uniform on the unit disk."""
    r = np.sqrt(rng.uniform(0.0, 1.0, size))
    return r * np.exp(1j * rng.uniform(0.0, TWO_PI, size))


def ring_vector(k, m):
    """Connection vector of RG(k, m); the complete graph when k <= 2m + 1."""
    v = np.zeros(k)
    if k <= 2 * m + 1:
        v[1:] = 1.0
    else:
        v[1 : m + 1] = 1.0
        v[k - m :] = 1.0
    return v


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------

def spectrum_job(blocks, couplings, *flags, diagonalizable=None):
    blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
    couplings = np.asarray(couplings, dtype=np.complex128)
    return Job(
        "spectrum",
        ("spectrum", "-", *flags),
        document(blocks, couplings),
        {
            "blocks": blocks,
            "couplings": couplings,
            "verify": "--verify" in flags,
            "eigenvectors": "--eigenvectors" in flags,
            "diagonalizable": diagonalizable,
        },
    )


def _ring_join(d, k, m):
    return [ring_vector(k, m)] * d, np.ones((d, d))


def _phi_arg(phis):
    # one token, so argparse never reads a leading minus sign as an option
    return "--phi=" + ",".join(repr(float(p)) for p in phis)


def simulate_job(d, k, m, j, phis, epsilon, steps, dt=0.01):
    """``kuramoto simulate`` from a twisted state; ``phis=None`` leaves
    out ``--phi``, so every block starts at offset 0."""
    blocks, couplings = _ring_join(d, k, m)
    argv = (
        "kuramoto", "simulate", "-", "--j", str(j),
        *((_phi_arg(phis),) if phis is not None else ()),
        "--epsilon", repr(float(epsilon)), "--steps", str(steps),
        "--dt", repr(float(dt)), "--drift",
    )
    if phis is None:
        phis = np.zeros(d)
    return Job(
        "simulate",
        argv,
        document(blocks, couplings),
        {"blocks": blocks, "couplings": couplings, "d": d, "k": k, "j": j,
         "phis": list(phis), "epsilon": float(epsilon), "steps": steps, "dt": float(dt)},
    )


def equilibrium_job(d, k, m, j, phis, epsilon=1.0):
    blocks, couplings = _ring_join(d, k, m)
    argv = (
        "kuramoto", "equilibrium", "-", "--j", str(j), _phi_arg(phis),
        "--epsilon", repr(float(epsilon)),
    )
    return Job(
        "equilibrium",
        argv,
        document(blocks, couplings),
        {"blocks": blocks, "couplings": couplings, "d": d, "k": k, "j": j,
         "phis": list(phis), "epsilon": float(epsilon)},
    )


def _ring_eigenvalues(k, m):
    """Closed form for RG(k, m) at Fourier indices 1..k-1."""
    if k <= 2 * m + 1:
        return np.full(k - 1, -1.0 + 0.0j)
    j = np.arange(1, k)
    t = np.arange(1, m + 1)
    return (2.0 * np.cos(TWO_PI * np.outer(j, t) / k).sum(axis=1)).astype(np.complex128)


def _ring_degree(k, m):
    return float(k - 1) if k <= 2 * m + 1 else float(2 * m)


def _quadratic(trace, det):
    s = np.sqrt(complex(trace * trace / 4.0 - det))
    return np.array([trace / 2.0 + s, trace / 2.0 - s])


def graph_spectrum_job(argv, expected):
    """``graph ... --emit spectrum`` checked against closed forms.

    ``expected`` maps each provenance (1-based block or "condensed") to
    the eigenvalues that group must report; every graph join used here
    has distinct condensed eigenvalues, so it is diagonalizable.
    """
    return Job("spectrum", tuple(argv), "", {"expected": expected, "diagonalizable": True})


def ring_join_graph_job(parts):
    """``graph join ring:k:m ...`` for one or two rings, closed forms only."""
    argv = ["graph", "join", *(f"ring:{k}:{m}" for k, m in parts), "--emit", "spectrum"]
    expected = {i + 1: _ring_eigenvalues(k, m) for i, (k, m) in enumerate(parts)}
    if len(parts) == 1:
        expected["condensed"] = np.array([_ring_degree(*parts[0])], dtype=np.complex128)
    else:
        (k1, m1), (k2, m2) = parts
        r1, r2 = _ring_degree(k1, m1), _ring_degree(k2, m2)
        expected["condensed"] = _quadratic(r1 + r2, r1 * r2 - k1 * k2)
    return graph_spectrum_job(argv, expected)


def readme_graph_jobs():
    """The README's graph examples, with their closed forms."""
    w = np.exp(-2j * np.pi / 3.0)
    return [
        graph_spectrum_job(
            ["graph", "remove-cycle", "--n", "8", "--k", "3", "--directed",
             "--emit", "spectrum"],
            {
                1: np.array([w, w * w]),
                2: np.full(4, -1.0 + 0.0j),
                "condensed": np.array([(5.0 + np.sqrt(69.0)) / 2.0,
                                       (5.0 - np.sqrt(69.0)) / 2.0], dtype=np.complex128),
            },
        ),
        ring_join_graph_job([(5, 1), (6, 1)]),
        Job("doc", ("graph", "ring", "--k", "7", "--m", "2", "--emit", "spec"), "",
            {"blocks": [[0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]], "couplings": [[0.0]],
             "labels": ["ring:7:2"]}),
        Job("doc", ("graph", "complement", "cycle:5"), "",
            {"blocks": [[0.0, 1.0, 1.0, 1.0, 0.0]], "couplings": [[0.0]],
             "labels": ["complement:cycle:5"]}),
    ]


def defective_jobs():
    """Joins whose condensed matrices are exactly triangular and defective."""
    cases = [
        ([[0.0]] * 2, [[0.0, 1.0], [0.0, 0.0]]),
        ([[0.0]] * 3, [[0.0, 1.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
        ([[0.5]] * 3, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ([[0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]], [[0.0, 0.5], [0.0, 0.0]]),
    ]
    return [spectrum_job(b, a, "--verify", diagonalizable=False) for b, a in cases]


def random_join(rng, sizes):
    """Complex entries uniform on the unit disk (the test corpus's law)."""
    blocks = [unit_disk(rng, int(k)) for k in sizes]
    return blocks, unit_disk(rng, (len(sizes), len(sizes)))


def random_real_join(rng, k, d=2):
    blocks = [rng.uniform(-1.0, 1.0, k) for _ in range(d)]
    return blocks, rng.uniform(-1.0, 1.0, (d, d))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _rng(name, seed):
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def _shapes(name):
    """Sizes come from this fixed stream and entries from the seed, so every
    seed asks for the same amount of work and the spread between seeds is
    measurement noise, not a different workload."""
    return np.random.default_rng([2**32 - 1, WORKLOADS.index(name)])


def _phis(rng, d):
    return rng.uniform(-np.pi, np.pi, d)


def spectrum_large_k(rng, shapes):
    return [
        spectrum_job(*random_real_join(rng, 2048)),
        spectrum_job(*random_real_join(rng, 512), "--verify"),
        spectrum_job(*random_real_join(rng, 128), "--eigenvectors"),
    ]


def spectrum_large_d(rng, shapes):
    blocks, couplings = _ring_join(64, 6, 1)
    return [
        spectrum_job(*random_join(rng, shapes.integers(2, 9, 128)), "--verify"),
        spectrum_job(blocks, couplings, "--verify", diagonalizable=True),
    ]


def kuramoto_large(rng, shapes):
    # Zero offsets: with random ones, 5 of 30 twisted states on this
    # network left by about pi within 200 steps at epsilon 0.3.
    return [
        simulate_job(4, 128, 3, 1, None, 0.3, 200),
        equilibrium_job(8, 512, 3, 2, _phis(rng, 8)),
    ]


def small_jobs(rng, shapes):
    jobs = []
    for _ in range(500):
        sizes = shapes.integers(1, 9, int(shapes.integers(1, 6)))
        jobs.append(spectrum_job(*random_join(rng, sizes), "--verify"))
    jobs += defective_jobs()
    # 25 simulations (under 5% of the jobs) keep job_p90_s inside the
    # spectrum jobs' tail instead of on the edge of the ~15x slower RK4 jobs.
    for _ in range(25):
        j = int(rng.integers(1, 3))
        jobs.append(simulate_job(2, 32, 3, j, _phis(rng, 2), 0.3, 200))
    jobs += readme_graph_jobs()
    for _ in range(8):
        k, m = int(shapes.integers(3, 41)), int(shapes.integers(1, 4))
        jobs.append(ring_join_graph_job([(k, m)]))
    for _ in range(8):
        parts = [(int(shapes.integers(3, 25)), int(shapes.integers(1, 4))) for _ in range(2)]
        jobs.append(ring_join_graph_job(parts))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


_BUILDERS = {
    "spectrum-large-k": spectrum_large_k,
    "spectrum-large-d": spectrum_large_d,
    "kuramoto-large": kuramoto_large,
    "small-jobs": small_jobs,
}


def build(name, seed):
    """The job list of one pass of workload ``name``."""
    return _BUILDERS[name](_rng(name, seed), _shapes(name))


def setup_job(name, seed):
    """One tiny job of the workload's kind, for the cold-start timing."""
    rng = np.random.default_rng([int(seed), len(WORKLOADS) + WORKLOADS.index(name)])
    if name == "kuramoto-large":
        return simulate_job(2, 8, 1, 1, _phis(rng, 2), 0.3, 10)
    return spectrum_job(*random_join(rng, [3, 4]), "--verify")
