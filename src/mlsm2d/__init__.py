"""Meshless local strong-form solver for 2D linear elasticity.

Point-cloud collocation with weighted-least-squares stencils: domains in
`nodes`, support search in `neighbors`, stencil construction in `shapes`,
the Navier system in `elasticity`, sparse solvers in `solve`, node
positioning in `relax`/`refine`, and benchmark drivers in `cases`.
"""

from .elasticity import (
    BoundaryConditions,
    Material,
    SparseSystem,
    StressField,
    assemble,
    compute_stresses,
    lame_parameters,
    von_mises,
)
from .neighbors import SupportSet, build_supports, knn
from .nodes import Circle, DomainShape, NodeSet, Rect, build_drilled_domain, build_rectangle_grid
from .refine import RefineRegion, refine_levels, refine_once
from .relax import relax, relax_offset
from .shapes import (
    BasisSpec,
    IllConditionedStencilError,
    ShapeSet,
    WeightSpec,
    build_shape_set,
    compute_shapes,
)
from .solve import NonConvergenceError, SolveReport, SolverConfig, solve
from .timing import PhaseTimer, TimingReport

__version__ = "0.1.0"
