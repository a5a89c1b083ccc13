import math

import numpy as np
import pytest

from circjoin import (
    CirculantGraph,
    complement,
    complete_graph,
    directed_cycle,
    full_spectrum,
    join,
    remove_cycle_from_complete,
    ring_graph,
)
from circjoin.errors import PreconditionError

from corpus import dense_circulant, dense_join, multiset_match


def adjacency_matrix(g):
    return dense_circulant(g.adjacency().vector).real


def test_complete_graph_vectors():
    assert np.array_equal(complete_graph(3).connection_vector, [0, 1, 1])
    assert np.array_equal(complete_graph(1).connection_vector, [0])
    with pytest.raises(PreconditionError):
        complete_graph(0)


def test_complete_graph_spectrum():
    eig = complete_graph(5).adjacency().eigenvalues()
    multiset_match(eig, [4.0] + [-1.0] * 4, 1e-10)


def test_directed_cycle_dense():
    dense = adjacency_matrix(directed_cycle(3))
    assert np.array_equal(dense, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert np.array_equal(adjacency_matrix(directed_cycle(2)), np.array([[0, 1], [1, 0]]))
    with pytest.raises(PreconditionError):
        directed_cycle(1)


def test_directed_cycle_eigenvalues_are_roots_of_unity():
    eig = directed_cycle(4).adjacency().eigenvalues()
    multiset_match(eig, [1.0, 1j, -1.0, -1j], 1e-12)


def test_ring_graph_vectors():
    assert np.array_equal(ring_graph(5, 1).connection_vector, [0, 1, 0, 0, 1])
    # small rings collapse to the complete graph
    assert np.array_equal(ring_graph(4, 2).connection_vector, [0, 1, 1, 1])
    assert ring_graph(7, 2).adjacency().row_sum() == 4.0  # valency 2m


def test_complement_examples():
    k3 = complete_graph(3)
    assert np.array_equal(complement(k3).connection_vector, [0, 0, 0])
    g = CirculantGraph(3, [0, 1, 0], directed=True)
    assert np.array_equal(complement(g).connection_vector, [0, 0, 1])
    assert complement(complement(g)) == g


def test_complement_identity_exact():
    for g in (ring_graph(7, 2), directed_cycle(5), complete_graph(4)):
        total = adjacency_matrix(g) + adjacency_matrix(complement(g)) + np.eye(g.k)
        assert np.array_equal(total, np.ones((g.k, g.k)))


def test_undirected_requires_palindrome():
    with pytest.raises(PreconditionError):
        CirculantGraph(4, [0, 1, 0, 0], directed=False)
    CirculantGraph(4, [0, 1, 0, 1], directed=False)  # palindromic: fine


def test_join_of_complete_graphs_is_complete():
    spec = join(complete_graph(3), complete_graph(5))
    assert np.array_equal(dense_join(spec).real, adjacency_matrix(complete_graph(8)))
    dec = full_spectrum(spec)
    multiset_match(
        dec.eigenvalue_multiset(),
        complete_graph(8).adjacency().eigenvalues(),
        1e-10,
    )


@pytest.mark.parametrize(
    "k1,m1,k2,m2", [(5, 1, 6, 1), (7, 2, 9, 3), (8, 1, 11, 4), (12, 5, 13, 2)]
)
def test_ring_join_condensed_closed_form(k1, m1, k2, m2):
    assert k1 > 2 * m1 + 1 and k2 > 2 * m2 + 1
    spec = join(ring_graph(k1, m1), ring_graph(k2, m2))
    dec = full_spectrum(spec)
    condensed = [v for v, p in dec.eigenvalues() if p == "condensed"]
    root = math.sqrt((m1 - m2) ** 2 + k1 * k2)
    multiset_match(condensed, [m1 + m2 + root, m1 + m2 - root], 1e-10)


def test_join_reproduces_cycle_removal_matrix():
    g = CirculantGraph(3, [0, 1, 0], directed=True)
    spec = join(g, complete_graph(5))
    assert remove_cycle_from_complete(8, 3, True) == spec


def test_remove_cycle_validation():
    with pytest.raises(PreconditionError):
        remove_cycle_from_complete(3, 3, True)
    with pytest.raises(PreconditionError):
        remove_cycle_from_complete(8, 2, True)


def test_remove_directed_cycle_condensed_eigenvalues():
    dec = full_spectrum(remove_cycle_from_complete(8, 3, True))
    condensed = [v for v, p in dec.eigenvalues() if p == "condensed"]
    multiset_match(
        condensed,
        [(5.0 + math.sqrt(69.0)) / 2.0, (5.0 - math.sqrt(69.0)) / 2.0],
        1e-10,
    )
    remaining = [v for v, p in dec.eigenvalues() if p != "condensed"]
    w = np.exp(2j * np.pi / 3)
    multiset_match(remaining, [w, w.conjugate()] + [-1.0] * 4, 1e-10)


def closed_form_cycle_removal_spectrum(n, k, directed):
    """Spectrum assembled from the published closed forms.

    Block part: direct root-of-unity sums over the connection offsets
    for fourier indices 1..k-1; complete part: -1 repeated; condensed
    pair from the quadratic formula (both square-root signs).
    """
    w = np.exp(2j * np.pi / k)
    offsets = range(1, k - 1) if directed else range(2, k - 1)
    block = [sum(w ** (r * j) for r in offsets) for j in range(1, k)]
    ones_part = [-1.0] * (n - k - 1)
    if directed:
        root = math.sqrt((n + 1) ** 2 - 4 * k)
        pair = [((n - 3) + root) / 2.0, ((n - 3) - root) / 2.0]
    else:
        root = math.sqrt((n + 2) ** 2 - 8 * k)
        pair = [((n - 4) + root) / 2.0, ((n - 4) - root) / 2.0]
    return block + ones_part + pair


@pytest.mark.parametrize(
    "n,k,directed",
    [(8, 3, True), (8, 3, False), (10, 4, True), (10, 4, False), (12, 7, True), (9, 5, False)],
)
def test_cycle_removal_matches_closed_form(n, k, directed):
    dec = full_spectrum(remove_cycle_from_complete(n, k, directed))
    expected = closed_form_cycle_removal_spectrum(n, k, directed)
    multiset_match(dec.eigenvalue_multiset(), expected, 1e-8)


@pytest.mark.parametrize("g", [ring_graph(9, 2), complete_graph(6)])
def test_undirected_graphs_have_real_spectra(g):
    spec = join(g, ring_graph(5, 1))
    a = dense_join(spec)
    assert np.array_equal(a, a.conj().T)
    vals = np.array(full_spectrum(spec).eigenvalue_multiset())
    assert np.abs(vals.imag).max() <= 1e-9


def test_adjacency_is_zero_one():
    g = ring_graph(8, 3)
    dense = adjacency_matrix(g)
    assert set(np.unique(dense)) <= {0.0, 1.0}
    assert np.all(np.diag(dense) == 0.0)
