"""Local solutions of graph-Laplacian boundary problems via heat kernel pagerank.

The library solves the restricted system over a connected vertex subset S
exactly (through the Green's function of the restricted normalized
Laplacian) and approximately (by Monte-Carlo sampling of Dirichlet heat
kernel pagerank vectors with capped random walks).
"""

from . import dirichlet, graph, solvers, walks
from .dirichlet import *
from .graph import *
from .solvers import *
from .walks import *

__all__ = graph.__all__ + dirichlet.__all__ + walks.__all__ + solvers.__all__

__version__ = "0.1.0"
