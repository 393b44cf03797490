"""End-to-end run orchestration shared by the CLI and the test harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import LinearSystem, TensorField, assemble
from .generators import gen_nonconforming_rect, gen_rect, gen_tilted_barrier, gen_tri
from .geometry import Mesh
from .gradient import GradientField, gradient_field
from .meshfile import read_mesh
from .postproc import ErrorReport, boundary_flux_totals, error_norms, reconstruct_faces
from .problems import ProblemSpec
from .solver import DEFAULT_TOL, SolveReport, check_tol, solve_cg, solve_dense
from .spaces import (
    BARYCENTRIC,
    BarycentricWeights,
    DiscreteFunction,
    EdgePartition,
    compute_weights,
    partition_faces,
    sample_field,
)

METHODS = ("cg", "dense")
MESH_GRAMMAR = "rect:NxM | tri:N | ncrect:N | barrier:V[xK] | file:PATH"
# generator and the accepted numbers of sizes of each kind
_GENERATORS = {"rect": (gen_rect, (2,)), "tri": (gen_tri, (1,)),
               "ncrect": (gen_nonconforming_rect, (1,)), "barrier": (gen_tilted_barrier, (1, 2))}
# The refinement families of ``sushi convergence``: the kinds with one number
# of sizes, so that level N sets each of them to N (barrier's V[xK] has two).
FAMILIES = tuple(kind for kind, (_, arity) in _GENERATORS.items() if len(arity) == 1)


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


def family_spec(family: str, n: int) -> str:
    """The mesh spec of level ``n`` of ``family``, one of :data:`FAMILIES`:
    each of the kind's sizes set to ``n``, as in ``rect:NxN`` or ``tri:N``."""
    return f"{family}:{'x'.join([str(n)] * _GENERATORS[family][1][0])}"


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
                  method: str = "cg") -> RunResult:
    """Run the stages of one problem/mesh/policy combination in order.

    The partition is complete once :func:`compute_weights` returns.  Errors
    are computed whenever the problem has an exact solution and gradient,
    the per-side flux totals whenever the domain is the unit square (else
    ``None``).  The stabilized gradient is evaluated once, after the solve,
    and shared by the errors, the fluxes and the caller (``RunResult.gradient``).
    An unknown ``method`` or a ``tol`` not finite and > 0 raises ``ValueError`` first.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected {' or '.join(map(repr, METHODS))}")
    check_tol(tol)
    if regions is None and problem.region is not None:
        regions = sample_field(problem.region, mesh.cell_point, "region").astype(int)
    partition = partition_faces(mesh, policy, regions)
    weights = None
    if np.any(partition.tags == BARYCENTRIC):
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
    result.fluxes = boundary_flux_totals(mesh, tensor, u, alpha, result.gradient)
    return result
