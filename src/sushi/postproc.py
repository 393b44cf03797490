"""Post-processing: reconstruction, fluxes, discrete norms, error measures.

Everything here is an array expression over the flat mesh arrays, with no
gradient or flux matrix: the gradients come from :mod:`sushi.gradient`,
the numerical fluxes ``-G^T Lambda G delta`` are evaluated cell by cell
(:func:`_cell_fluxes`), and each user field is called once per point set
(:func:`sushi.spaces.sample_field`).  Rows of the vector arrays are
gathered with ``np.take`` and their dot products and squared norms written
out component by component, as numpy's sum over the component axis adds
them (see :mod:`sushi.geometry`); a square is never -0.0, so a sum of two
squares needs no ``pair_sum``.
Boundary flux totals follow the reporting convention of the benchmark
tables: the per-side total approximates the co-normal integral over the
side of Lambda grad u . n_out, which is the negative of the outgoing
numerical flux sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import TensorField
from .errors import InsufficientLevels, InvalidSeries, UnclassifiedBoundaryFace
from .geometry import Mesh, pair_sum, segment_sums
from .gradient import (
    GradientField,
    cone_increments,
    gradient_coefficients,
    gradient_field,
    resolve_alpha,
)
from .spaces import (
    BarycentricWeights,
    DiscreteFunction,
    EdgePartition,
    UnknownNumbering,
    face_expansions,
    sample_field,
)


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


def reconstruct_faces(mesh: Mesh, partition: EdgePartition,
                      weights: BarycentricWeights | None,
                      solution: np.ndarray,
                      numbering: UnknownNumbering,
                      dirichlet=None) -> DiscreteFunction:
    """Expand a solution vector into values on every cell and face."""
    expansion, consts = face_expansions(mesh, partition, weights, numbering, dirichlet)
    x = np.asarray(solution, dtype=float)
    return DiscreteFunction(x[: numbering.n_cells], expansion @ x + consts)


def _cell_fluxes(mesh: Mesh, tensor: TensorField, grad: GradientField, a: float,
                 cells: np.ndarray) -> tuple:
    """The cones of the ascending index array ``cells`` and their fluxes.

    They are ``-G^T w`` for w = |D| Lambda grad_D u, cell by cell: with
    s = (alpha/d) n . w, cone j of K gets -(s_j + g_j . v_K), g from
    :func:`gradient_coefficients`, v_K the sum of w - s (x_sigma - x_K) over K.
    """
    sizes = np.diff(mesh.cell_ptr)[cells]
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    cones = np.repeat(mesh.cell_ptr[cells] - ptr[:-1], sizes) + np.arange(ptr[-1])
    lam = tensor.cone_tensors(mesh, cones)
    gc = np.take(grad.cones, cones, axis=0)
    del grad  # frees a field the caller made for this call only
    w = [pair_sum(lam[:, d, 0] * gc[:, 0], lam[:, d, 1] * gc[:, 1]) for d in range(2)]
    del lam, gc
    normal = np.take(mesh.cone_normal, cones, axis=0)
    s = (a / mesh.cone_dist[cones]) * pair_sum(normal[:, 0] * w[0], normal[:, 1] * w[1])
    rel = (np.take(mesh.face_centre, mesh.cone_face[cones], axis=0)
           - np.take(mesh.cell_point, mesh.cone_cell[cones], axis=0))
    v = [np.repeat(segment_sums(w[k] - s * rel[:, k], ptr), sizes) for k in range(2)]
    g = gradient_coefficients(mesh, cones)
    return cones, -(s + pair_sum(g[:, 0] * v[0], g[:, 1] * v[1]))


# The sides of the unit square, and how far a boundary face barycentre
# may lie off its side, relative to the extent of the boundary.
UNIT_SQUARE_SIDES = ("x=0", "x=1", "y=0", "y=1")
SIDE_TOL = 1e-9


def boundary_flux_totals(mesh: Mesh, tensor: TensorField, u: DiscreteFunction,
                         alpha: float | None = None,
                         grad: GradientField | None = None) -> dict:
    """Per-side totals of the co-normal boundary flux (Lambda grad u . n).

    Faces are classified by barycentre against the sides of the unit
    square, the first matching side winning, to ``SIDE_TOL`` times the
    largest extent of the boundary barycentres; a boundary face matching
    none raises ``UnclassifiedBoundaryFace``.  The fluxes are evaluated on
    the cells that own a boundary face only.  ``grad`` is the stabilized
    gradient of ``u`` if already evaluated.
    """
    faces = np.nonzero(mesh.face_boundary)[0]
    centres = mesh.face_centre[faces]
    side_of = np.full(len(faces), -1)
    tol = SIDE_TOL * np.ptp(centres, axis=0).max()
    for s, side in enumerate(UNIT_SQUARE_SIDES):
        axis, val = side.split("=")
        coord = centres[:, 0] if axis == "x" else centres[:, 1]
        side_of[(side_of < 0) & (np.abs(coord - float(val)) <= tol)] = s
    if np.any(side_of < 0):
        i = int(np.nonzero(side_of < 0)[0][0])
        raise UnclassifiedBoundaryFace(f"face {faces[i]} at {centres[i]}")
    a = resolve_alpha(alpha)
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


def _cone_errors_sq(mesh: Mesh, grad: GradientField, exact_grad) -> np.ndarray:
    """Per cone: squared error of the stabilized gradient at the cone centroid.
    The difference and its square overwrite the sampled gradient."""
    diff = sample_field(exact_grad, mesh.cone_centroids(), "exact_grad", (2,))
    np.subtract(grad.cones, diff, out=diff)
    diff *= diff
    return diff[:, 0] + diff[:, 1]


def error_norms(mesh: Mesh, u: DiscreteFunction, exact, exact_grad,
                alpha: float | None = None,
                grad: GradientField | None = None) -> ErrorReport:
    """Discrete L2 errors of cell values and of the discrete gradients.

    Cell values and the cell gradient are compared against the exact
    fields at cell points; the stabilized per-cone gradient against the
    exact gradient at cone centroids, both read from ``grad`` (evaluated if
    not passed).  Sums use NumPy's own summation, not BLAS, so they do not
    depend on the BLAS thread count.
    """
    grad = gradient_field(mesh, u, alpha) if grad is None else grad
    meas = mesh.cell_measure
    ux = sample_field(exact, mesh.cell_point, "exact")
    gx = sample_field(exact_grad, mesh.cell_point, "exact_grad", (2,))
    err_u = float(np.sum(meas * (u.cell_values - ux) ** 2))
    ref_u = float(np.sum(meas * ux ** 2))
    diff = grad.cells - gx
    diff *= diff
    err_g = float(np.sum(meas * (diff[:, 0] + diff[:, 1])))
    gx *= gx
    ref_g = float(np.sum(meas * (gx[:, 0] + gx[:, 1])))
    err_stab = float(np.sum(mesh.cone_measure * _cone_errors_sq(mesh, grad, exact_grad)))
    return ErrorReport(
        eps_u=math.sqrt(err_u),
        eps_grad=math.sqrt(err_g),
        eps_u_rel=math.sqrt(err_u / ref_u) if ref_u > 0.0 else math.sqrt(err_u),
        eps_grad_rel=math.sqrt(err_g / ref_g) if ref_g > 0.0 else math.sqrt(err_g),
        eps_grad_stab=math.sqrt(err_stab),
        seminorm_x=seminorm_x(mesh, u),
        norm_12m=norm_1pm(mesh, u.cell_values, 2.0),
    )


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
