"""Post-processing: reconstruction, fluxes, discrete norms, error measures.

Everything here is an array expression over the flat mesh arrays: the
numerical fluxes are ``-B delta`` for the local matrices ``B`` of
:func:`sushi.assembly.local_matrices`, the gradients come from
:mod:`sushi.gradient`, and the user's fields are sampled once per point.
Boundary flux totals follow the reporting convention of the benchmark
tables: the per-side total approximates the co-normal integral over the
side of Lambda grad u . n_out, which is the negative of the outgoing
numerical flux sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import TensorField, local_matrices, rhs_cell_integrals
from .errors import (
    InsufficientLevels,
    InvalidSeries,
    RequiresIdentityTensor,
    UnclassifiedBoundaryFace,
)
from .geometry import Mesh, segment_sums
from .gradient import cell_gradients, cone_increments, gradient_field, resolve_alpha
from .spaces import (
    BARYCENTRIC,
    HYBRID,
    BarycentricWeights,
    DiscreteFunction,
    EdgePartition,
    UnknownNumbering,
    face_expansions,
    interpolate,
    numbering_for,
)

# 3-point Gauss-Legendre rule on [-1, 1]; exact up to degree 5.
_GAUSS3_POINTS = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


@dataclass
class ErrorReport:
    """Discrete error measures of a solved run.

    ``eps_u`` samples the exact solution at cell points; ``eps_grad`` is
    the error of the consistent cell gradient, the quantity whose
    published benchmark orders (about 2 on hybrid rectangles, 1.5 on
    cell-centred rectangles, 1 on triangles) it reproduces.
    ``eps_grad_stab`` is the error of the full stabilized per-cone
    gradient, which converges at first order.  The ``_rel`` variants are
    normalized by the same discrete norm of the exact field.
    """

    eps_u: float
    eps_grad: float
    eps_u_rel: float
    eps_grad_rel: float
    eps_grad_stab: float
    seminorm_x: float
    norm_12m: float

    def as_dict(self) -> dict:
        return {
            "eps_u": self.eps_u,
            "eps_grad": self.eps_grad,
            "eps_u_rel": self.eps_u_rel,
            "eps_grad_rel": self.eps_grad_rel,
            "eps_grad_stab": self.eps_grad_stab,
            "seminorm_x": self.seminorm_x,
            "norm_12m": self.norm_12m,
        }


@dataclass
class FluxReport:
    """Hybrid-face and composite pairwise fluxes with per-cell balances."""

    hybrid_fluxes: dict[int, tuple[float, float]] = field(default_factory=dict)
    pair_fluxes: dict[tuple[int, int], float] = field(default_factory=dict)
    cell_outflux: np.ndarray | None = None

    def max_conservativity_defect(self) -> float:
        pairs = np.array(list(self.hybrid_fluxes.values()), dtype=float).reshape(-1, 2)
        return float(np.max(np.abs(pairs.sum(axis=1)), initial=0.0))

    def max_flux_scale(self) -> float:
        values = np.concatenate([np.ravel(list(self.hybrid_fluxes.values())),
                                 list(self.pair_fluxes.values())])
        return float(np.max(np.abs(values), initial=0.0))


def reconstruct_faces(mesh: Mesh, partition: EdgePartition,
                      weights: BarycentricWeights | None,
                      solution: np.ndarray,
                      numbering: UnknownNumbering,
                      dirichlet=None) -> DiscreteFunction:
    """Expand a solution vector into values on every cell and face."""
    expansion, consts = face_expansions(mesh, partition, weights, numbering, dirichlet)
    x = np.asarray(solution, dtype=float)
    return DiscreteFunction(x[: numbering.n_cells], expansion @ x + consts)


def cone_fluxes(mesh: Mesh, tensor: TensorField, u: DiscreteFunction,
                alpha: float | None = None) -> np.ndarray:
    """Numerical flux of every cone through its face, outflow positive.

    It approximates the integral over the face of -Lambda grad u . n_out.
    """
    return -(local_matrices(mesh, tensor, alpha) @ cone_increments(mesh, u))


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
    pairs = fluxes[mesh.face_cones[hybrid]]
    report = FluxReport(hybrid_fluxes=dict(zip(hybrid.tolist(), map(tuple, pairs.tolist()))))

    bary = tags[mesh.cone_face] == BARYCENTRIC
    report.cell_outflux = segment_sums(np.where(bary, 0.0, fluxes), mesh.cell_ptr)
    if bary.any():
        # flow[K, L]: the barycentric fluxes of K weighted by L's coefficients.
        numbering = numbering_for(mesh, partition)
        expansion, _ = face_expansions(mesh, partition, weights, numbering)
        # Only barycentric rows of P reach cell columns.
        cone_flux = sp.csr_matrix((fluxes, (mesh.cone_cell, np.arange(mesh.n_cones))),
                                  shape=(mesh.n_cells, mesh.n_cones))
        flow = cone_flux @ expansion[mesh.cone_face][:, : mesh.n_cells]
        pair = (flow - flow.T).tocoo()
        off = pair.row != pair.col
        report.pair_fluxes = dict(zip(zip(pair.row[off].tolist(), pair.col[off].tolist()),
                                      pair.data[off].tolist()))
        report.cell_outflux += np.bincount(pair.row[off], weights=pair.data[off],
                                           minlength=mesh.n_cells)
    return report


def cell_balance_residuals(mesh: Mesh, report: FluxReport, source=None) -> np.ndarray:
    """Per-cell defect of the flux balance against the source integral."""
    res = np.array(report.cell_outflux, dtype=float)
    if source is not None:
        res -= rhs_cell_integrals(mesh, source)
    return res


UNIT_SQUARE_SIDES = ("x=0", "x=1", "y=0", "y=1")


def boundary_flux_totals(mesh: Mesh, tensor: TensorField, u: DiscreteFunction,
                         alpha: float | None = None,
                         sides=UNIT_SQUARE_SIDES, tol: float = 1e-9) -> dict:
    """Per-side totals of the co-normal boundary flux (Lambda grad u . n).

    Faces are classified by barycentre against the requested axis-aligned
    sides, the first matching side winning; a boundary face matching none
    raises ``UnclassifiedBoundaryFace``.
    """
    faces = np.nonzero(mesh.face_boundary)[0]
    centres = mesh.face_centre[faces]
    side_of = np.full(len(faces), -1)
    for s, side in enumerate(sides):
        axis, val = side.split("=")
        coord = centres[:, 0] if axis == "x" else centres[:, 1]
        side_of[(side_of < 0) & (np.abs(coord - float(val)) <= tol)] = s
    if np.any(side_of < 0):
        i = int(np.nonzero(side_of < 0)[0][0])
        raise UnclassifiedBoundaryFace(f"face {faces[i]} at {centres[i]}")
    outflow = cone_fluxes(mesh, tensor, u, alpha)[mesh.face_cones[faces, 0]]
    return {side: -float(outflow[side_of == s].sum()) for s, side in enumerate(sides)}


def seminorm_x(mesh: Mesh, u: DiscreteFunction) -> float:
    """Discrete H1 seminorm: sum over cells and faces of |s|/d (u_s - u_K)^2."""
    weight = mesh.face_measure[mesh.cone_face] / mesh.cone_dist
    return math.sqrt(float(np.sum(weight * cone_increments(mesh, u) ** 2)))


def norm_1pm(mesh: Mesh, cell_values: np.ndarray, p: float = 2.0) -> float:
    """Discrete W^{1,p} norm of a piecewise-constant function.

    Face jumps against the summed cell-point distances; boundary faces
    contribute the cell value itself (homogeneous exterior).
    """
    cones, cells = mesh.face_cones, mesh.face_cells
    inner = cells[:, 1] >= 0
    values = np.asarray(cell_values, dtype=float)
    other = np.where(inner, values[cells[:, 1]], 0.0)
    jump = np.abs(values[cells[:, 0]] - other)
    dsig = mesh.cone_dist[cones[:, 0]] + np.where(inner, mesh.cone_dist[cones[:, 1]], 0.0)
    total = float(np.sum(mesh.face_measure * jump ** p / dsig ** (p - 1.0)))
    return total ** (1.0 / p)


def _cone_errors_sq(mesh: Mesh, u: DiscreteFunction, exact_grad, alpha: float) -> np.ndarray:
    """Per cone: squared error of the stabilized gradient at the cone centroid."""
    exact = np.array([exact_grad(x) for x in mesh.cone_centroid], dtype=float)
    diff = gradient_field(mesh, u, alpha).cones - exact
    return np.sum(diff * diff, axis=1)


def error_norms(mesh: Mesh, u: DiscreteFunction, exact, exact_grad,
                alpha: float | None = None) -> ErrorReport:
    """Discrete L2 errors of cell values and of the discrete gradients.

    Cell values and the cell gradient are compared against the exact
    fields at cell points; the stabilized per-cone gradient against the
    exact gradient at cone centroids.  Sums use NumPy's own summation,
    not BLAS, so they do not depend on the BLAS thread count.
    """
    a = resolve_alpha(alpha, mesh.dim)
    meas = mesh.cell_measure
    ux = np.array([exact(x) for x in mesh.cell_point], dtype=float)
    gx = np.array([exact_grad(x) for x in mesh.cell_point], dtype=float)
    err_u = float(np.sum(meas * (u.cell_values - ux) ** 2))
    ref_u = float(np.sum(meas * ux ** 2))
    diff = cell_gradients(mesh, u) - gx
    err_g = float(np.sum(meas * np.sum(diff * diff, axis=1)))
    ref_g = float(np.sum(meas * np.sum(gx * gx, axis=1)))
    err_stab = float(np.sum(mesh.cone_measure * _cone_errors_sq(mesh, u, exact_grad, a)))
    return ErrorReport(
        eps_u=math.sqrt(err_u),
        eps_grad=math.sqrt(err_g),
        eps_u_rel=math.sqrt(err_u / ref_u) if ref_u > 0.0 else math.sqrt(err_u),
        eps_grad_rel=math.sqrt(err_g / ref_g) if ref_g > 0.0 else math.sqrt(err_g),
        eps_grad_stab=math.sqrt(err_stab),
        seminorm_x=seminorm_x(mesh, u),
        norm_12m=norm_1pm(mesh, u.cell_values, 2.0),
    )


def normal_gradient_integrals(mesh: Mesh, exact_grad) -> np.ndarray:
    """Per cone: 3-point Gauss integral over its face of grad u . n_out."""
    ends = mesh.vertices[mesh.face_vertices]
    mid, half = 0.5 * (ends[:, 0] + ends[:, 1]), 0.5 * (ends[:, 1] - ends[:, 0])
    points = mid[:, None, :] + _GAUSS3_POINTS[None, :, None] * half[:, None, :]
    grads = np.array([exact_grad(x) for x in points.reshape(-1, 2)], dtype=float)
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
    if not tensor.is_identity:
        raise RequiresIdentityTensor("E(u) is defined for Lambda = Id")
    # Boundary face values take the trace of the exact field (zero in the
    # homogeneous case the estimate is stated for).
    pu = interpolate(mesh, partition, weights, exact, variant="pdb")
    defect = cone_fluxes(mesh, tensor, pu, alpha) + normal_gradient_integrals(mesh, exact_grad)
    weight = mesh.cone_dist / mesh.face_measure[mesh.cone_face]
    return math.sqrt(float(np.sum(weight * defect ** 2)))


def convergence_order(series) -> float:
    """Least-squares slope of log(error) against log(h).

    Raises ``InvalidSeries`` unless every h and error is finite and
    positive, and ``InsufficientLevels`` for fewer than three distinct h.
    """
    pts = np.array([(h, e) for h, e in series], dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts) & (pts > 0.0)):
        raise InvalidSeries(f"h and errors must be finite and positive, got {pts.tolist()}")
    if len(np.unique(pts[:, 0])) < 3:
        raise InsufficientLevels("need at least three distinct refinement levels")
    return float(np.polyfit(np.log(pts[:, 0]), np.log(pts[:, 1]), 1)[0])


def gradient_max_error(mesh: Mesh, u: DiscreteFunction, exact_grad,
                       alpha: float | None = None) -> float:
    """Max cone-wise gradient error, sampled at cone centroids."""
    a = resolve_alpha(alpha, mesh.dim)
    return math.sqrt(float(_cone_errors_sq(mesh, u, exact_grad, a).max()))


__all__ = [
    "ErrorReport",
    "FluxReport",
    "reconstruct_faces",
    "cone_fluxes",
    "composite_fluxes",
    "cell_balance_residuals",
    "boundary_flux_totals",
    "seminorm_x",
    "norm_1pm",
    "error_norms",
    "flux_consistency_E",
    "normal_gradient_integrals",
    "convergence_order",
    "gradient_max_error",
    "gradient_field",
]
