"""Finite-volume schemes for heterogeneous anisotropic diffusion.

A solver library for -div(Lambda grad u) = f on general polygonal,
possibly nonconforming 2D meshes.  The scheme family keeps face unknowns
where they matter (pure hybrid), eliminates them all through barycentric
interpolation (pure cell-centred), or mixes the two, keeping unknowns only
at diffusion-tensor discontinuities.
"""

__version__ = "0.1.0"

from .assembly import LinearSystem, TensorField, assemble, local_matrices
from .generators import gen_nonconforming_rect, gen_rect, gen_tilted_barrier, gen_tri
from .geometry import Mesh, compute_geometry, theta_D, theta_DB, validate
from .gradient import GradientField, cell_gradients, gradient_field
from .meshfile import read_mesh, write_mesh
from .postproc import (
    ErrorReport,
    FluxReport,
    boundary_flux_totals,
    composite_fluxes,
    cone_fluxes,
    convergence_order,
    error_norms,
    flux_consistency_E,
    reconstruct_faces,
)
from .problems import (
    ProblemSpec,
    problem_anisotropic_smooth,
    problem_superadmissible_oracle,
    problem_tilted_barrier,
)
from .run import RunResult, parse_mesh_spec, solve_problem
from .solver import SolveReport, solve_cg, solve_dense
from .spaces import (
    BarycentricWeights,
    DiscreteFunction,
    EdgePartition,
    UnknownNumbering,
    compute_weights,
    interpolate,
    partition_faces,
)

__all__ = [
    "__version__",
    "Mesh", "compute_geometry", "validate", "theta_D", "theta_DB",
    "gen_rect", "gen_tri", "gen_nonconforming_rect", "gen_tilted_barrier",
    "read_mesh", "write_mesh",
    "EdgePartition", "BarycentricWeights", "DiscreteFunction", "UnknownNumbering",
    "partition_faces", "compute_weights", "interpolate",
    "GradientField", "cell_gradients", "gradient_field",
    "TensorField", "LinearSystem", "local_matrices", "assemble",
    "SolveReport", "solve_cg", "solve_dense",
    "ErrorReport", "FluxReport", "reconstruct_faces", "cone_fluxes", "composite_fluxes",
    "boundary_flux_totals", "error_norms", "flux_consistency_E", "convergence_order",
    "ProblemSpec", "problem_anisotropic_smooth", "problem_tilted_barrier",
    "problem_superadmissible_oracle",
    "RunResult", "solve_problem", "parse_mesh_spec",
]
