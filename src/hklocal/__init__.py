"""Local solutions of graph-Laplacian boundary problems over a vertex subset
S: exact through the Green's function of the restricted normalized
Laplacian, approximate from sampled Dirichlet heat kernel pagerank vectors."""

from . import dirichlet, graph, solvers, walks
from .dirichlet import *
from .graph import *
from .solvers import *
from .walks import *

__all__ = graph.__all__ + dirichlet.__all__ + walks.__all__ + solvers.__all__

__version__ = "0.1.0"
