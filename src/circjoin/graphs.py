"""Circulant graphs and joins with closed-form spectra.

A circulant graph on k vertices is encoded by a 0/1 connection vector
(offset j set when vertex r links to vertex r - j mod k); undirected
graphs need the vector palindromic under j -> k - j.  Joining graphs
connects every cross pair, which in matrix terms is a JoinSpec with all
couplings equal to one.
"""

from dataclasses import dataclass, field

import numpy as np

from .circulant import CirculantMatrix
from .errors import PreconditionError
from .join import JoinSpec


@dataclass(frozen=True, eq=False)
class CirculantGraph:
    """Graph with a circulant adjacency matrix."""

    k: int
    connection_vector: np.ndarray = field(repr=False)
    directed: bool = False

    def __eq__(self, other):
        if not isinstance(other, CirculantGraph):
            return NotImplemented
        return (
            self.k == other.k
            and self.directed == other.directed
            and bool(np.array_equal(self.connection_vector, other.connection_vector))
        )

    def __hash__(self):
        return hash((self.k, self.directed, self.connection_vector.tobytes()))

    def __post_init__(self):
        v = np.asarray(self.connection_vector, dtype=np.int64)
        if v.ndim != 1 or v.shape[0] != self.k or self.k < 1:
            raise PreconditionError("connection vector must have length k >= 1")
        if not np.all((v == 0) | (v == 1)):
            raise PreconditionError("connection vector entries must be 0 or 1")
        if v[0] != 0:
            raise PreconditionError("no self-loops: offset 0 must be 0")
        if not self.directed:
            if not np.array_equal(v[1:], v[1:][::-1]):
                raise PreconditionError(
                    "undirected graph needs a palindromic connection vector"
                )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "connection_vector", v)

    def adjacency(self):
        return CirculantMatrix(self.connection_vector.astype(np.float64))

    def complement(self):
        """Complement graph: flip every off-diagonal offset."""
        flipped = 1 - self.connection_vector
        flipped[0] = 0
        return CirculantGraph(self.k, flipped, directed=self.directed)


def _no_offsets(k):
    """The all-zero connection vector on k vertices; a k that numpy
    refuses to index, before it allocates, is a PreconditionError."""
    try:
        return np.zeros(k, dtype=np.int64)
    except ValueError as exc:
        raise PreconditionError(f"a graph on {k} vertices: {exc}") from exc


def complete_graph(n):
    """K_n: every pair of distinct vertices adjacent."""
    if n < 1:
        raise PreconditionError("complete graph needs n >= 1")
    v = _no_offsets(n)
    v[1:] = 1
    return CirculantGraph(n, v, directed=False)


def directed_cycle(k):
    """Directed k-cycle: vertex i points to i + 1, the last to the first."""
    if k < 2:
        raise PreconditionError("directed cycle needs k >= 2")
    v = _no_offsets(k)
    v[k - 1] = 1  # offset k-1 puts the ones on the superdiagonal
    return CirculantGraph(k, v, directed=True)


def ring_graph(k, m):
    """RG(k, m): each of k ring vertices linked to its m closest
    neighbours per side; the complete graph when k <= 2m + 1."""
    if k < 1 or m < 1:
        raise PreconditionError("ring graph needs k >= 1 and m >= 1")
    if k <= 2 * m + 1:
        return complete_graph(k)
    v = _no_offsets(k)
    v[1 : m + 1] = 1
    v[k - m :] = 1
    return CirculantGraph(k, v, directed=False)


def complement(graph):
    return graph.complement()


def join(*parts):
    """Join the given circulant graphs: keep each part's edges and add
    every edge between distinct parts (couplings all one)."""
    if len(parts) == 1 and isinstance(parts[0], (list, tuple)):
        parts = tuple(parts[0])
    if not parts:
        raise PreconditionError("join needs at least one part")
    blocks = [p.adjacency() for p in parts]
    d = len(parts)
    couplings = np.ones((d, d))
    return JoinSpec(blocks, couplings)


def remove_cycle_from_complete(n, k, directed):
    """K_n with a length-k cycle removed, as a two-block join.

    The k cycle vertices become a circulant block (offsets 1..k-2 for a
    directed cycle, 2..k-2 for an undirected one) joined to K_{n-k}.
    Requires n > k >= 3.
    """
    if k < 3:
        raise PreconditionError("cycle removal needs k >= 3")
    if n <= k:
        raise PreconditionError("cycle removal needs n > k")
    v = _no_offsets(k)
    v[1 : k - 1] = 1
    if not directed:
        v[1] = 0
    g = CirculantGraph(k, v, directed=directed)
    h = complete_graph(n - k)
    return join(g, h)
