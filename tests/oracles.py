"""The paper's analysis tools, used by the tests as oracles.

None of these is a step of a solve: the interpolant P_D, the flux-consistency
functional E(u), the composite fluxes with their conservativity defect and
cell balance, the SPD certificate of the direct solver's factorization, the
stabilization residuals R(K, sigma) and the two-region problem of the
two-point flux oracle.  Each is written over the package's own kernels, so
the tests check what a run computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from sushi.assembly import TensorField, rhs_cell_integrals
from sushi.errors import SushiError
from sushi.geometry import Mesh, segment_sums
from sushi.gradient import (
    _residuals,
    cell_gradients,
    cone_increments,
    gradient_field,
    resolve_alpha,
)
from sushi.postproc import _cell_fluxes
from sushi.problems import ProblemSpec, problem_from_descriptor
from sushi.solver import _spd_factor
from sushi.spaces import (
    BARYCENTRIC,
    HYBRID,
    BarycentricWeights,
    DiscreteFunction,
    EdgePartition,
    check_weights,
    face_expansions,
    numbering_for,
    sample_field,
)

# The analytic per-side boundary flux totals of the tilted-barrier problem
# (:func:`sushi.problems.problem_tilted_barrier`).
BARRIER_BOUNDARY_FLUX = {"x=0": -0.2, "x=1": 0.2, "y=0": 1.0, "y=1": -1.0}
# 3-point Gauss-Legendre rule on [-1, 1]; exact up to degree 5.
_GAUSS3_POINTS = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


class RequiresIdentityTensor(SushiError):
    """Operation is only defined for the identity diffusion tensor."""


def weight_matrix(weights: BarycentricWeights, n_cells: int) -> sp.csr_matrix:
    """The weight table as a sparse (n_faces x n_cells) matrix."""
    return sp.csr_matrix((weights.beta, weights.points, weights.ptr),
                         shape=(len(weights.ptr) - 1, n_cells))


def interpolate(mesh: Mesh, partition: EdgePartition,
                weights: BarycentricWeights | None, func,
                variant: str = "pdb") -> DiscreteFunction:
    """Sample a scalar field into the discrete space.

    ``variant='pd'`` evaluates the field at every cell point and face
    barycentre, boundary faces included.  ``variant='pdb'`` evaluates at
    cell points and at hybrid and boundary faces but fills barycentric
    faces with their weight combination.
    """
    cell_values = sample_field(func, mesh.cell_point, "func")
    face_values = sample_field(func, mesh.face_centre, "func")
    if variant == "pd":
        return DiscreteFunction(cell_values, face_values)
    if variant != "pdb":
        raise ValueError("variant must be 'pd' or 'pdb'")
    # Supports reference cell points only, so one product over the cell
    # samples fills every B face.
    check_weights(mesh, partition, weights)
    if weights is not None:
        bary = partition.tags == BARYCENTRIC
        face_values[bary] = (weight_matrix(weights, mesh.n_cells) @ cell_values)[bary]
    return DiscreteFunction(cell_values, face_values)


def cone_fluxes(mesh: Mesh, tensor: TensorField, u: DiscreteFunction,
                alpha: float | None = None) -> np.ndarray:
    """Numerical flux of every cone through its face, outflow positive.

    It approximates the integral over the face of -Lambda grad u . n_out.
    """
    a = resolve_alpha(alpha)
    return _cell_fluxes(mesh, tensor, gradient_field(mesh, u, a), a, np.arange(mesh.n_cells))[1]


@dataclass
class FluxReport:
    """Conservative fluxes of a solved run, outflow positive, as arrays.

    ``hybrid_faces`` lists the interior hybrid faces and row i of
    ``hybrid_fluxes`` the fluxes of the two cones of face
    ``hybrid_faces[i]``, in ``face_cones`` order.  ``pair_fluxes`` is the
    antisymmetric (n_cells, n_cells) sparse matrix of the pairwise fluxes
    through barycentric faces, entry (K, L) the flux from K to L.
    ``cell_outflux`` is each cell's total outflux.
    """

    hybrid_faces: np.ndarray
    hybrid_fluxes: np.ndarray
    pair_fluxes: sp.csr_matrix
    cell_outflux: np.ndarray

    def max_conservativity_defect(self) -> float:
        return float(np.max(np.abs(self.hybrid_fluxes.sum(axis=1)), initial=0.0))

    def max_flux_scale(self) -> float:
        return float(max(np.max(np.abs(self.hybrid_fluxes), initial=0.0),
                         np.max(np.abs(self.pair_fluxes.data), initial=0.0)))


def composite_fluxes(mesh: Mesh, partition: EdgePartition,
                     weights: BarycentricWeights | None,
                     tensor: TensorField, u: DiscreteFunction,
                     alpha: float | None = None) -> FluxReport:
    """Hybrid-face fluxes plus pairwise fluxes through barycentric faces.

    The pairwise flux between cells K and L collects every barycentric
    flux of K weighted by L's elimination coefficient, minus the mirrored
    term, and is antisymmetric by construction.  Each cell's total outflux
    (hybrid + boundary + pairwise) balances its source integral up to the
    solver tolerance.
    """
    fluxes = cone_fluxes(mesh, tensor, u, alpha)
    tags = partition.tags
    hybrid = np.nonzero((tags == HYBRID) & ~mesh.face_boundary)[0]
    bary = tags[mesh.cone_face] == BARYCENTRIC
    outflux = segment_sums(np.where(bary, 0.0, fluxes), mesh.cell_ptr)
    pair = sp.csr_matrix((mesh.n_cells, mesh.n_cells))
    if bary.any():
        # flow[K, L]: the barycentric fluxes of K weighted by L's coefficients.
        numbering = numbering_for(mesh, partition)
        expansion, _ = face_expansions(mesh, partition, weights, numbering)
        # Only barycentric rows of P reach cell columns.
        cone_flux = sp.csr_matrix((fluxes, (mesh.cone_cell, np.arange(mesh.n_cones))),
                                  shape=(mesh.n_cells, mesh.n_cones))
        flow = cone_flux @ expansion[mesh.cone_face][:, : mesh.n_cells]
        pair = (flow - flow.T).tocsr()
        outflux += segment_sums(pair.data, pair.indptr)
    return FluxReport(hybrid_faces=hybrid, hybrid_fluxes=fluxes[mesh.face_cones[hybrid]],
                      pair_fluxes=pair, cell_outflux=outflux)


def cell_balance_residuals(mesh: Mesh, report: FluxReport, source=None) -> np.ndarray:
    """Per-cell defect of the flux balance against the source integral."""
    res = np.array(report.cell_outflux, dtype=float)
    if source is not None:
        res -= rhs_cell_integrals(mesh, source)
    return res


def normal_gradient_integrals(mesh: Mesh, exact_grad) -> np.ndarray:
    """Per cone: 3-point Gauss integral over its face of grad u . n_out."""
    ends = mesh.vertices[mesh.face_vertices]
    mid, half = 0.5 * (ends[:, 0] + ends[:, 1]), 0.5 * (ends[:, 1] - ends[:, 0])
    points = mid[:, None, :] + _GAUSS3_POINTS[None, :, None] * half[:, None, :]
    grads = sample_field(exact_grad, points.reshape(-1, 2), "exact_grad", (2,))
    # Along the outward normal of the face's first cone; the other cone's
    # normal is its negative.
    normal = mesh.cone_normal[mesh.face_cones[:, 0]]
    along = (grads.reshape(-1, 3, 2) * normal[:, None, :]).sum(axis=2)
    per_face = 0.5 * mesh.face_measure * (along * _GAUSS3_WEIGHTS).sum(axis=1)
    first = mesh.face_cones[mesh.cone_face, 0] == np.arange(mesh.n_cones)
    return np.where(first, 1.0, -1.0) * per_face[mesh.cone_face]


def flux_consistency_E(mesh: Mesh, partition: EdgePartition,
                       weights: BarycentricWeights | None,
                       tensor: TensorField, exact, exact_grad,
                       alpha: float | None = None) -> float:
    """Flux-consistency functional of the interpolated exact solution.

    Defined for the identity tensor only: the squared sum, over every
    cell/face pair, of d(K,s)/|s| times the defect between the numerical
    flux of the interpolant and the exact outward co-normal integral.
    Decays like the mesh size for smooth fields.
    """
    if tensor.tensors is None or not np.array_equal(tensor.tensors, np.eye(2)[None]):
        raise RequiresIdentityTensor("E(u) is defined for Lambda = Id")
    # Boundary face values take the trace of the exact field (zero in the
    # homogeneous case the estimate is stated for).
    pu = interpolate(mesh, partition, weights, exact, variant="pdb")
    defect = cone_fluxes(mesh, tensor, pu, alpha) + normal_gradient_integrals(mesh, exact_grad)
    weight = mesh.cone_dist / mesh.face_measure[mesh.cone_face]
    return math.sqrt(float(np.sum(weight * defect ** 2)))


def spd_certificate(system) -> bool:
    """True iff the factorization of ``solve_dense`` finds every pivot > 0."""
    return _spd_factor(system.full()) is not None


def stabilization_residuals(mesh: Mesh, u: DiscreteFunction,
                            alpha: float | None = None) -> np.ndarray:
    """R(K, sigma) u on every cone."""
    return _residuals(mesh, slice(None), cone_increments(mesh, u),
                      cell_gradients(mesh, u)[mesh.cone_cell], resolve_alpha(alpha))


def problem_superadmissible_oracle(lam_left: float, lam_right: float) -> ProblemSpec:
    """Two half-domain isotropic coefficients split at x = 1/2.

    Pairs with the two-point flux oracle on rectangular grids; no exact
    solution is attached.
    """
    if lam_left <= 0.0 or lam_right <= 0.0:
        raise ValueError("coefficients must be positive")
    return problem_from_descriptor({
        "name": "superadmissible-oracle",
        "tensor": {"two_region": {"split_x": 0.5, "left": lam_left, "right": lam_right}},
    })
