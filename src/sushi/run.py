"""End-to-end run orchestration shared by the CLI and the test harness."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .assembly import LinearSystem, TensorField, assemble
from .errors import NoValidCombination, UnclassifiedBoundaryFace
from .generators import gen_nonconforming_rect, gen_rect, gen_tilted_barrier, gen_tri
from .geometry import Mesh
from .gradient import GradientField, gradient_field
from .meshfile import read_mesh
from .postproc import ErrorReport, boundary_flux_totals, error_norms, reconstruct_faces
from .problems import ProblemSpec
from .solver import DEFAULT_TOL, SolveReport, solve_cg, solve_dense
from .spaces import (
    BARYCENTRIC,
    HYBRID,
    BarycentricWeights,
    DiscreteFunction,
    EdgePartition,
    compute_weights,
    partition_faces,
    sample_field,
)

log = logging.getLogger(__name__)

MESH_GRAMMAR = "rect:NxM | tri:N | ncrect:N | barrier:V[xK] | file:PATH"
# generator and the accepted numbers of sizes of each kind
_GENERATORS = {"rect": (gen_rect, (2,)), "tri": (gen_tri, (1,)),
               "ncrect": (gen_nonconforming_rect, (1,)), "barrier": (gen_tilted_barrier, (1, 2))}


def parse_mesh_spec(spec: str) -> tuple[Mesh, np.ndarray | None, str]:
    """Build a mesh from the CLI shorthand grammar, :data:`MESH_GRAMMAR`.

    Returns the mesh, an optional region map, and a normalized label.  A
    spec outside the grammar raises a ``ValueError`` that quotes it.
    """
    kind, _, arg = spec.partition(":")
    if kind == "file":
        return read_mesh(arg), None, f"file:{arg}"
    try:
        generate, arity = _GENERATORS[kind]
        sizes = [int(t) for t in arg.split("x")]
    except (KeyError, ValueError):
        sizes, arity = [], ()
    if len(sizes) not in arity or min(sizes) < 1:
        raise ValueError(f"bad mesh spec {spec!r}; expected {MESH_GRAMMAR}")
    built = generate(*sizes)
    mesh, regions = built if kind == "barrier" else (built, None)
    return mesh, regions, f"{kind}:{'x'.join(map(str, sizes))}"


@dataclass
class RunResult:
    mesh: Mesh
    regions: np.ndarray | None
    partition: EdgePartition
    weights: BarycentricWeights | None
    tensor: TensorField
    alpha: float | None
    system: LinearSystem
    solution: np.ndarray
    u: DiscreteFunction
    report: SolveReport
    errors: ErrorReport | None = None
    fluxes: dict | None = None
    gradient: GradientField | None = None


def solve_problem(problem: ProblemSpec, mesh: Mesh,
                  regions: np.ndarray | None = None,
                  policy: str = "all-barycentric",
                  alpha: float | None = None,
                  tol: float = DEFAULT_TOL,
                  method: str = "cg",
                  with_fluxes: bool = False) -> RunResult:
    """Assemble, solve and post-process one problem/mesh/policy combination.

    Errors are computed whenever the problem has an exact solution and
    gradient.  With ``with_fluxes`` the per-side totals of the unit square
    are computed; on a domain with other sides they are left out (``None``).
    The stabilized gradient is evaluated once, after the solve, and shared
    by the errors, the fluxes and the caller (``RunResult.gradient``).
    Under ``discontinuity``, a barycentric face with no affine support of
    cells keeps its own unknown: it is added to the hybrid set.
    """
    if method not in ("cg", "dense"):
        raise ValueError(f"unknown method {method!r}; expected 'cg' or 'dense'")
    if regions is None and problem.region is not None:
        regions = sample_field(problem.region, mesh.cell_point, "region").astype(int)
    partition = partition_faces(mesh, policy, regions)
    weights = None
    if np.any(partition.tags == BARYCENTRIC):
        try:
            weights = compute_weights(mesh, partition, regions)
        except NoValidCombination as exc:
            if policy != "discontinuity":
                raise
            log.debug("partition: %d faces without a cell support kept hybrid", len(exc.faces))
            partition.tags[exc.faces] = HYBRID
            weights = compute_weights(mesh, partition, regions)
    tensor = problem.make_tensor(mesh, regions)
    system = assemble(
        mesh, partition, weights, tensor,
        source=problem.source, dirichlet=problem.dirichlet, alpha=alpha,
    )
    if method == "dense":
        solution, report = solve_dense(system)
    else:
        solution, report = solve_cg(system, tol=tol)
    u = reconstruct_faces(mesh, partition, weights, solution,
                          system.numbering, dirichlet=problem.dirichlet)
    result = RunResult(
        mesh=mesh, regions=regions, partition=partition, weights=weights,
        tensor=tensor, alpha=alpha, system=system, solution=solution,
        u=u, report=report, gradient=gradient_field(mesh, u, alpha),
    )
    if problem.exact is not None and problem.exact_grad is not None:
        result.errors = error_norms(mesh, u, problem.exact, problem.exact_grad, alpha,
                                    result.gradient)
    if with_fluxes:
        try:
            result.fluxes = boundary_flux_totals(mesh, tensor, u, alpha, result.gradient)
        except UnclassifiedBoundaryFace:
            pass
    return result
