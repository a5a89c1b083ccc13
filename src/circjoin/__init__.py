"""Exact spectra of joins of circulant matrices, and applications.

Circulant blocks are diagonalized analytically by discrete Fourier
modes; a join of blocks inherits those eigenpairs (for nonzero Fourier
indices) and picks up the remaining d eigenvalues from a small
condensed matrix of row sums, whose generalized eigenvectors lift by
coordinate repetition.  On top of this the package builds graph-join
spectra and equilibrium states of Kuramoto oscillator networks.
"""

from .circulant import CirculantMatrix, root_of_unity_powers
from .errors import (
    CircjoinError,
    ConvergenceError,
    DivergenceError,
    IllConditionedError,
    NumericalError,
    ParseError,
    PreconditionError,
    VerificationError,
)
from .join import (
    JoinSpec,
    JordanChain,
    SpectralDecomposition,
    block_eigenpairs,
    full_spectrum,
    reduced_char_poly,
    tensor_expand,
)
from .graphs import (
    CirculantGraph,
    complement,
    complete_graph,
    directed_cycle,
    join,
    remove_cycle_from_complete,
    ring_graph,
)
from .kuramoto import (
    KuramotoSystem,
    Trajectory,
    TwistedEquilibrium,
    build_twisted_equilibrium,
    check_equilibrium,
    eigenvector_equilibrium,
    integrate,
    reduce_phases,
    rhs,
)
from . import smalleig

__version__ = "0.3.0"

__all__ = [
    "CirculantMatrix",
    "root_of_unity_powers",
    "JoinSpec",
    "JordanChain",
    "SpectralDecomposition",
    "block_eigenpairs",
    "tensor_expand",
    "full_spectrum",
    "reduced_char_poly",
    "CirculantGraph",
    "complete_graph",
    "directed_cycle",
    "ring_graph",
    "complement",
    "join",
    "remove_cycle_from_complete",
    "KuramotoSystem",
    "TwistedEquilibrium",
    "Trajectory",
    "rhs",
    "check_equilibrium",
    "build_twisted_equilibrium",
    "eigenvector_equilibrium",
    "integrate",
    "reduce_phases",
    "smalleig",
    "CircjoinError",
    "ParseError",
    "PreconditionError",
    "NumericalError",
    "ConvergenceError",
    "IllConditionedError",
    "DivergenceError",
    "VerificationError",
    "__version__",
]
