"""Post-processing: reconstruction, fluxes, discrete norms, error measures.

Everything here is an array expression over the flat mesh arrays, with no
gradient or flux matrix: the gradients come from :mod:`sushi.gradient`,
the numerical fluxes ``-G^T Lambda G delta`` are evaluated cell by cell
(:func:`cone_fluxes`), and each user field is called once per point set
(:func:`sushi.spaces.sample_field`).
Boundary flux totals follow the reporting convention of the benchmark
tables: the per-side total approximates the co-normal integral over the
side of Lambda grad u . n_out, which is the negative of the outgoing
numerical flux sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import TensorField, rhs_cell_integrals
from .errors import (
    InsufficientLevels,
    InvalidSeries,
    RequiresIdentityTensor,
    UnclassifiedBoundaryFace,
)
from .geometry import Mesh, segment_sums
from .gradient import (
    GradientField,
    cell_gradients,
    cone_increments,
    gradient_coefficients,
    gradient_field,
    resolve_alpha,
)
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
    sample_field,
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
    a = resolve_alpha(alpha, mesh.dim)
    return _cell_fluxes(mesh, tensor, gradient_field(mesh, u, a), a)[1]


def _cell_fluxes(mesh: Mesh, tensor: TensorField, grad: GradientField, a: float,
                 cells: np.ndarray | None = None) -> tuple:
    """The cones of the ascending index array ``cells`` and their fluxes.
    With ``cells`` None they are ``slice(None)`` and the fluxes of every
    cone, computed on the cone arrays themselves, which are not copied.

    They are ``-G^T w`` for w = |D| Lambda grad_D u, cell by cell: with
    s = (alpha/d) n . w, cone j of K gets -(s_j + g_j . v_K), g from
    :func:`gradient_coefficients`, v_K the sum of w - s (x_sigma - x_K) over K.
    """
    if cells is None:
        cones, ptr, sizes = slice(None), mesh.cell_ptr, np.diff(mesh.cell_ptr)
    else:
        sizes = np.diff(mesh.cell_ptr)[cells]
        ptr = np.concatenate([[0], np.cumsum(sizes)])
        cones = np.repeat(mesh.cell_ptr[cells] - ptr[:-1], sizes) + np.arange(ptr[-1])
    w = (tensor.cone_tensors(mesh, cones) * grad.cones[cones][:, None, :]).sum(axis=2)
    del grad  # frees a field the caller made for this call only
    s = (a / mesh.cone_dist[cones]) * (mesh.cone_normal[cones] * w).sum(axis=1)
    rel = mesh.face_centre[mesh.cone_face[cones]] - mesh.cell_point[mesh.cone_cell[cones]]
    v = np.repeat(segment_sums(w - s[:, None] * rel, ptr), sizes, axis=0)
    return cones, -(s + (gradient_coefficients(mesh, cones) * v).sum(axis=1))


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


# The sides of the unit square, and how far a boundary face barycentre
# may lie off its side.
UNIT_SQUARE_SIDES = ("x=0", "x=1", "y=0", "y=1")
SIDE_TOL = 1e-9


def boundary_flux_totals(mesh: Mesh, tensor: TensorField, u: DiscreteFunction,
                         alpha: float | None = None,
                         grad: GradientField | None = None) -> dict:
    """Per-side totals of the co-normal boundary flux (Lambda grad u . n).

    Faces are classified by barycentre against the sides of the unit
    square, the first matching side winning; a boundary face matching
    none raises ``UnclassifiedBoundaryFace``.  The fluxes are evaluated on
    the cells that own a boundary face only.  ``grad`` is the stabilized
    gradient of ``u`` if already evaluated.
    """
    faces = np.nonzero(mesh.face_boundary)[0]
    centres = mesh.face_centre[faces]
    side_of = np.full(len(faces), -1)
    for s, side in enumerate(UNIT_SQUARE_SIDES):
        axis, val = side.split("=")
        coord = centres[:, 0] if axis == "x" else centres[:, 1]
        side_of[(side_of < 0) & (np.abs(coord - float(val)) <= SIDE_TOL)] = s
    if np.any(side_of < 0):
        i = int(np.nonzero(side_of < 0)[0][0])
        raise UnclassifiedBoundaryFace(f"face {faces[i]} at {centres[i]}")
    a = resolve_alpha(alpha, mesh.dim)
    grad = gradient_field(mesh, u, a) if grad is None else grad
    cones = mesh.face_cones[faces, 0]
    owned, fluxes = _cell_fluxes(mesh, tensor, grad, a, np.unique(mesh.cone_cell[cones]))
    outflow = fluxes[np.searchsorted(owned, cones)]
    return {side: -float(outflow[side_of == s].sum())
            for s, side in enumerate(UNIT_SQUARE_SIDES)}


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


def _cone_errors_sq(mesh: Mesh, u: DiscreteFunction, exact_grad,
                    alpha: float | None, grad: GradientField | None = None) -> np.ndarray:
    """Per cone: squared error of the stabilized gradient at the cone centroid."""
    exact = sample_field(exact_grad, mesh.cone_centroid, "exact_grad", (2,))
    grad = gradient_field(mesh, u, alpha) if grad is None else grad
    diff = grad.cones - exact
    return np.sum(diff * diff, axis=1)


def error_norms(mesh: Mesh, u: DiscreteFunction, exact, exact_grad,
                alpha: float | None = None,
                grad: GradientField | None = None) -> ErrorReport:
    """Discrete L2 errors of cell values and of the discrete gradients.

    Cell values and the cell gradient are compared against the exact
    fields at cell points; the stabilized per-cone gradient (``grad``, if
    already evaluated) against the exact gradient at cone centroids.  Sums
    use NumPy's own summation, not BLAS, so they do not depend on the BLAS
    thread count.
    """
    meas = mesh.cell_measure
    ux = sample_field(exact, mesh.cell_point, "exact")
    gx = sample_field(exact_grad, mesh.cell_point, "exact_grad", (2,))
    err_u = float(np.sum(meas * (u.cell_values - ux) ** 2))
    ref_u = float(np.sum(meas * ux ** 2))
    diff = cell_gradients(mesh, u) - gx
    err_g = float(np.sum(meas * np.sum(diff * diff, axis=1)))
    ref_g = float(np.sum(meas * np.sum(gx * gx, axis=1)))
    err_stab = float(np.sum(mesh.cone_measure
                            * _cone_errors_sq(mesh, u, exact_grad, alpha, grad)))
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
    return math.sqrt(float(_cone_errors_sq(mesh, u, exact_grad, alpha).max()))

