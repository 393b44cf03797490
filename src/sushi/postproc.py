"""Post-processing: reconstruction, fluxes, discrete norms, error measures.

Boundary flux totals follow the reporting convention of the benchmark
tables: the per-side total approximates the co-normal integral over the
side of Lambda grad u . n_out, which is the negative of the outgoing
numerical flux sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import TensorField, flux, local_matrix, rhs_cell_integral
from .errors import (
    InsufficientLevels,
    RequiresIdentityTensor,
    UnclassifiedBoundaryFace,
)
from .geometry import Mesh
from .gradient import (
    cell_cone_gradients,
    cell_gradient,
    face_deltas,
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
        if not self.hybrid_fluxes:
            return 0.0
        return max(abs(a + b) for a, b in self.hybrid_fluxes.values())

    def max_flux_scale(self) -> float:
        scale = 0.0
        for a, b in self.hybrid_fluxes.values():
            scale = max(scale, abs(a), abs(b))
        for v in self.pair_fluxes.values():
            scale = max(scale, abs(v))
        return scale


def reconstruct_faces(mesh: Mesh, partition: EdgePartition,
                      weights: BarycentricWeights | None,
                      solution: np.ndarray,
                      numbering: UnknownNumbering,
                      dirichlet=None) -> DiscreteFunction:
    """Expand a solution vector into values on every cell and face."""
    expansion, consts = face_expansions(mesh, partition, weights, numbering, dirichlet)
    x = np.asarray(solution, dtype=float)
    return DiscreteFunction(x[: numbering.n_cells], expansion @ x + consts)


def all_fluxes(mesh: Mesh, tensor: TensorField, u: DiscreteFunction,
               alpha: float | None = None) -> list[np.ndarray]:
    """Per cell: numerical fluxes through all its faces, outflow positive."""
    out = []
    for c in mesh.cells:
        lm = local_matrix(mesh, c.id, tensor, alpha)
        out.append(flux(mesh, c.id, lm, u))
    return out


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
    fluxes = all_fluxes(mesh, tensor, u, alpha)
    report = FluxReport(cell_outflux=np.zeros(mesh.n_cells))

    for f in mesh.faces:
        if not f.boundary and partition.tags[f.id] == HYBRID:
            k, l = f.cells
            fk = fluxes[k][mesh.cells[k].local_index(f.id)]
            fl = fluxes[l][mesh.cells[l].local_index(f.id)]
            report.hybrid_fluxes[f.id] = (float(fk), float(fl))

    pair: dict[tuple[int, int], float] = {}
    for c in mesh.cells:
        for i, fid in enumerate(c.faces):
            fid = int(fid)
            if partition.tags[fid] != BARYCENTRIC:
                report.cell_outflux[c.id] += float(fluxes[c.id][i])
                continue
            fk = float(fluxes[c.id][i])
            for kind, idx, beta in weights.support[fid]:
                if kind != "cell":
                    continue
                pair[(c.id, idx)] = pair.get((c.id, idx), 0.0) + fk * beta
                pair[(idx, c.id)] = pair.get((idx, c.id), 0.0) - fk * beta
    report.pair_fluxes = {kl: v for kl, v in pair.items() if kl[0] != kl[1]}
    for (k, _), v in report.pair_fluxes.items():
        report.cell_outflux[k] += v
    return report


def cell_balance_residuals(mesh: Mesh, report: FluxReport, source=None) -> np.ndarray:
    """Per-cell defect of the flux balance against the source integral."""
    res = np.array(report.cell_outflux, dtype=float)
    if source is not None:
        for c in mesh.cells:
            res[c.id] -= rhs_cell_integral(mesh, c.id, source)
    return res


UNIT_SQUARE_SIDES = ("x=0", "x=1", "y=0", "y=1")


def boundary_flux_totals(mesh: Mesh, tensor: TensorField, u: DiscreteFunction,
                         alpha: float | None = None,
                         sides=UNIT_SQUARE_SIDES, tol: float = 1e-9) -> dict:
    """Per-side totals of the co-normal boundary flux (Lambda grad u . n).

    Faces are classified by barycentre against the requested axis-aligned
    sides; a boundary face matching none raises
    ``UnclassifiedBoundaryFace``.
    """
    def side_of(centre) -> str | None:
        for side in sides:
            axis, val = side.split("=")
            coord = centre[0] if axis == "x" else centre[1]
            if abs(coord - float(val)) <= tol:
                return side
        return None

    totals = {side: 0.0 for side in sides}
    lms: dict[int, np.ndarray] = {}
    for f in mesh.faces:
        if not f.boundary:
            continue
        side = side_of(f.centre)
        if side is None:
            raise UnclassifiedBoundaryFace(f"face {f.id} at {f.centre}")
        k = f.cells[0]
        if k not in lms:
            lms[k] = local_matrix(mesh, k, tensor, alpha)
        fk = flux(mesh, k, lms[k], u)[mesh.cells[k].local_index(f.id)]
        totals[side] -= float(fk)
    return totals


def seminorm_x(mesh: Mesh, u: DiscreteFunction) -> float:
    """Discrete H1 seminorm: sum over cells and faces of |s|/d (u_s - u_K)^2."""
    total = 0.0
    for c in mesh.cells:
        total += float((c.face_measures / c.dists) @ face_deltas(c, u) ** 2)
    return math.sqrt(total)


def norm_1pm(mesh: Mesh, cell_values: np.ndarray, p: float = 2.0) -> float:
    """Discrete W^{1,p} norm of a piecewise-constant function.

    Face jumps against the summed cell-point distances; boundary faces
    contribute the cell value itself (homogeneous exterior).
    """
    total = 0.0
    for f in mesh.faces:
        if f.boundary:
            k = f.cells[0]
            dk = mesh.cells[k].dists[mesh.cells[k].local_index(f.id)]
            jump = abs(float(cell_values[k]))
            dsig = dk
        else:
            k, l = f.cells
            dk = mesh.cells[k].dists[mesh.cells[k].local_index(f.id)]
            dl = mesh.cells[l].dists[mesh.cells[l].local_index(f.id)]
            jump = abs(float(cell_values[k] - cell_values[l]))
            dsig = dk + dl
        total += f.measure * jump ** p / dsig ** (p - 1.0)
    return total ** (1.0 / p)


def _cone_errors_sq(cell, u: DiscreteFunction, exact_grad, alpha: float) -> np.ndarray:
    """Per cone: squared error of the stabilized gradient at the cone centroid."""
    exact = np.array([exact_grad(x) for x in cell.cone_centroids()])
    diff = cell_cone_gradients(cell, u, alpha) - exact
    return np.sum(diff * diff, axis=1)


def error_norms(mesh: Mesh, u: DiscreteFunction, exact, exact_grad,
                alpha: float | None = None) -> ErrorReport:
    """Discrete L2 errors of cell values and of the discrete gradients.

    Cell values and the cell gradient are compared against the exact
    fields at cell points; the stabilized per-cone gradient against the
    exact gradient at cone centroids.
    """
    a = resolve_alpha(alpha, mesh.dim)
    err_u = 0.0
    ref_u = 0.0
    err_g = 0.0
    ref_g = 0.0
    err_stab = 0.0
    for c in mesh.cells:
        ux = exact(c.point)
        err_u += c.measure * (u.cell_values[c.id] - ux) ** 2
        ref_u += c.measure * ux ** 2
        gx = np.asarray(exact_grad(c.point))
        diff = cell_gradient(mesh, u, c.id) - gx
        err_g += c.measure * float(diff @ diff)
        ref_g += c.measure * float(gx @ gx)
        err_stab += float(c.cone_measures @ _cone_errors_sq(c, u, exact_grad, a))
    return ErrorReport(
        eps_u=math.sqrt(err_u),
        eps_grad=math.sqrt(err_g),
        eps_u_rel=math.sqrt(err_u / ref_u) if ref_u > 0.0 else math.sqrt(err_u),
        eps_grad_rel=math.sqrt(err_g / ref_g) if ref_g > 0.0 else math.sqrt(err_g),
        eps_grad_stab=math.sqrt(err_stab),
        seminorm_x=seminorm_x(mesh, u),
        norm_12m=norm_1pm(mesh, u.cell_values, 2.0),
    )


def face_normal_gradient_integral(mesh: Mesh, face_id: int, cell_id: int,
                                  exact_grad) -> float:
    """3-point Gauss integral over a face of grad u . n outward of the cell."""
    f = mesh.faces[face_id]
    c = mesh.cells[cell_id]
    n = c.normals[c.local_index(face_id)]
    a, b = mesh.vertices[f.vertices[0]], mesh.vertices[f.vertices[1]]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = 0.0
    for s, w in zip(_GAUSS3_POINTS, _GAUSS3_WEIGHTS):
        g = np.asarray(exact_grad(mid + s * half))
        total += w * float(g @ n)
    return 0.5 * f.measure * total


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
    pu = interpolate(mesh, partition, weights, exact, variant="pdb", boundary="func")
    total = 0.0
    for c in mesh.cells:
        lm = local_matrix(mesh, c.id, tensor, alpha)
        fk = flux(mesh, c.id, lm, pu)
        for i, fid in enumerate(c.faces):
            exact_int = face_normal_gradient_integral(mesh, int(fid), c.id, exact_grad)
            defect = fk[i] + exact_int
            total += c.dists[i] / c.face_measures[i] * defect ** 2
    return math.sqrt(total)


def convergence_order(series) -> float:
    """Least-squares slope of log(error) against log(h)."""
    pts = [(h, e) for h, e in series]
    if len(pts) < 3:
        raise InsufficientLevels("need at least three refinement levels")
    hs = np.log([p[0] for p in pts])
    es = np.log([p[1] for p in pts])
    return float(np.polyfit(hs, es, 1)[0])


def gradient_max_error(mesh: Mesh, u: DiscreteFunction, exact_grad,
                       alpha: float | None = None) -> float:
    """Max cone-wise gradient error, sampled at cone centroids."""
    a = resolve_alpha(alpha, mesh.dim)
    worst = 0.0
    for c in mesh.cells:
        worst = max(worst, math.sqrt(_cone_errors_sq(c, u, exact_grad, a).max()))
    return worst


__all__ = [
    "ErrorReport",
    "FluxReport",
    "reconstruct_faces",
    "all_fluxes",
    "composite_fluxes",
    "cell_balance_residuals",
    "boundary_flux_totals",
    "seminorm_x",
    "norm_1pm",
    "error_norms",
    "flux_consistency_E",
    "face_normal_gradient_integral",
    "convergence_order",
    "gradient_max_error",
    "gradient_field",
]
