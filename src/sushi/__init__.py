"""Finite-volume schemes for heterogeneous anisotropic diffusion.

A solver library for -div(Lambda grad u) = f on general polygonal,
possibly nonconforming 2D meshes.  The scheme family keeps face unknowns
where they matter (pure hybrid), eliminates them all through barycentric
interpolation (pure cell-centred), or mixes the two, keeping unknowns only
at diffusion-tensor discontinuities.
"""

__version__ = "0.1.0"

from .assembly import LinearSystem, TensorField, assemble
from .generators import gen_nonconforming_rect, gen_rect, gen_tilted_barrier, gen_tri
from .geometry import Mesh, compute_geometry, theta_D, theta_DB, validate
from .gradient import GradientField, cell_gradients, gradient_field
from .meshfile import read_mesh, write_mesh
from .postproc import (
    ErrorReport,
    boundary_flux_totals,
    convergence_order,
    error_norms,
    reconstruct_faces,
)
from .problems import ProblemSpec, problem_anisotropic_smooth, problem_tilted_barrier
from .run import RunResult, parse_mesh_spec, solve_problem
from .solver import SolveReport, solve_cg, solve_dense
from .spaces import (
    BarycentricWeights,
    DiscreteFunction,
    EdgePartition,
    UnknownNumbering,
    compute_weights,
    partition_faces,
)

__all__ = [
    "__version__",
    "Mesh", "compute_geometry", "validate", "theta_D", "theta_DB",
    "gen_rect", "gen_tri", "gen_nonconforming_rect", "gen_tilted_barrier",
    "read_mesh", "write_mesh",
    "EdgePartition", "BarycentricWeights", "DiscreteFunction", "UnknownNumbering",
    "partition_faces", "compute_weights",
    "GradientField", "cell_gradients", "gradient_field",
    "TensorField", "LinearSystem", "assemble",
    "SolveReport", "solve_cg", "solve_dense",
    "ErrorReport", "reconstruct_faces", "boundary_flux_totals", "error_norms",
    "convergence_order",
    "ProblemSpec", "problem_anisotropic_smooth", "problem_tilted_barrier",
    "RunResult", "solve_problem", "parse_mesh_spec",
]
