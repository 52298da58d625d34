"""Meshless local strong-form solver for 2D linear elasticity.

Point-cloud collocation with weighted-least-squares stencils: domains in
`nodes`, support search in `neighbors`, stencil construction in `shapes`,
the Navier system in `elasticity`, sparse solvers in `solve`, node
positioning in `relax`/`refine`, and benchmark drivers in `cases`. Each
name is imported from the module that defines it.
"""

__version__ = "0.1.0"
