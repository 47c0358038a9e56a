"""Local solutions of graph-Laplacian boundary problems via heat kernel pagerank.

The library solves the restricted system over a connected vertex subset S
exactly (through the Green's function of the restricted normalized
Laplacian) and approximately (by Monte-Carlo sampling of Dirichlet heat
kernel pagerank vectors with capped random walks).
"""

from .graph import (
    BoundaryConditionError,
    BoundaryProblem,
    Graph,
    GraphFormatError,
    VertexSubset,
    load_boundary,
    load_graph,
    load_graph_file,
    load_subset,
    make_boundary_problem,
    validate_b_boundable,
)
from .dirichlet import (
    DENSE_SIZE_LIMIT,
    KRYLOV_MIN_SIZE,
    CapacityError,
    DirichletOperator,
    KrylovOperator,
    SpectrumError,
    exact_dirhkpr,
    exact_local_solution,
    greens_function,
    restricted_laplacian,
    restricted_operator,
)
from .walks import (
    DEFAULT_SAMPLE_CONSTANT,
    WalkStats,
    approx_dirhkpr,
    sample_count,
    solver_approx_dirhkpr,
)
from .solvers import (
    SolveReport,
    SolverSchedule,
    draw_weighted_t,
    error_bound,
    greens_solver,
    local_linear_solver,
    make_schedule,
    report_to_json,
    restricted_threshold,
    riemann_sum_solution,
)

__version__ = "0.1.0"
