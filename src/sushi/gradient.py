"""Stabilized discrete gradient, per-cone, and the flux-identification vectors.

Per cell K the gradient of a grid function u is

    grad_K u = (1/|K|) sum |sigma| (u_sigma - u_K) n(K,sigma),

exact for affine fields, and the per-cone stabilized gradient adds the
residual of the face value against the cell-gradient prediction in the
face-normal direction:

    R(K,sigma) u = (alpha/d(K,sigma)) (u_sigma - u_K - grad_K u . (x_sigma - x_K)),
    grad(K,sigma) u = grad_K u + R(K,sigma) u * n(K,sigma).

Every quantity below is derived from the coefficients of the face
increments in these two formulas (:func:`gradient_coefficients`,
:func:`residual_coefficients`).  ``alpha`` defaults to sqrt(d); any finite
positive value is admissible (:func:`resolve_alpha`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Cell, Mesh
from .spaces import DiscreteFunction


def default_alpha(dim: int) -> float:
    return math.sqrt(dim)


def resolve_alpha(alpha: float | None, dim: int) -> float:
    """``alpha``, or the default when None; ``ValueError`` unless finite and > 0."""
    a = default_alpha(dim) if alpha is None else alpha
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {a!r}")
    return a


@dataclass
class GradientField:
    """Piecewise-constant gradient, one vector per cone (cell, local face)."""

    per_cell: list[np.ndarray]  # entry K: (k, d) array over the faces of K
    alpha: float

    def cell_average(self, mesh: Mesh) -> np.ndarray:
        """Cone-measure-weighted average per cell, for visualization."""
        out = np.empty((mesh.n_cells, mesh.dim))
        for c in mesh.cells:
            w = c.cone_measures
            out[c.id] = (w[:, None] * self.per_cell[c.id]).sum(axis=0) / w.sum()
        return out

    def l2_norm_sq(self, mesh: Mesh) -> float:
        total = 0.0
        for c in mesh.cells:
            total += float(c.cone_measures @ np.sum(self.per_cell[c.id] ** 2, axis=1))
        return total

    def dump_cones_csv(self, mesh: Mesh, path) -> None:
        """Cone-resolved dump: one row per (cell, face) with the gradient."""
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell", "face", "gx", "gy"])
            for c in mesh.cells:
                for i, fid in enumerate(c.faces):
                    g = self.per_cell[c.id][i]
                    writer.writerow([c.id, int(fid), repr(float(g[0])),
                                     repr(float(g[1]))])


def face_deltas(cell: Cell, u: DiscreteFunction) -> np.ndarray:
    """Face increments u_sigma - u_K over the faces of ``cell``."""
    return u.face_values[cell.faces] - u.cell_values[cell.id]


def gradient_coefficients(cell: Cell) -> np.ndarray:
    """(k, d) array ``g``: row j multiplies (u_{sigma_j} - u_K) in grad_K u."""
    return (cell.face_measures[:, None] * cell.normals) / cell.measure


def residual_coefficients(cell: Cell, g: np.ndarray, alpha: float) -> np.ndarray:
    """(k, k) array: row i maps the face increments to R(K, sigma_i) u.

    ``g`` is :func:`gradient_coefficients` of the same cell.
    """
    # proj[i, j] = g_j . (x_sigma_i - x_K)
    proj = (cell.face_centres - cell.point) @ g.T
    return (np.eye(len(cell.faces)) - proj) * (alpha / cell.dists)[:, None]


def _cone_vectors(cell: Cell, alpha: float) -> np.ndarray:
    """(k, k, d) array ``Y``: grad(K, sigma_i) u = sum_j (u_{sigma_j} - u_K) Y[i, j]."""
    g = gradient_coefficients(cell)
    coef = residual_coefficients(cell, g, alpha)
    return g[None, :, :] + coef[:, :, None] * cell.normals[:, None, :]


def cell_gradient(mesh: Mesh, u: DiscreteFunction, cell_id: int) -> np.ndarray:
    c = mesh.cells[cell_id]
    return face_deltas(c, u) @ gradient_coefficients(c)


def stabilization_residual(mesh: Mesh, u: DiscreteFunction, cell_id: int,
                           face_id: int, alpha: float | None = None) -> float:
    c = mesh.cells[cell_id]
    coef = residual_coefficients(c, gradient_coefficients(c),
                                 resolve_alpha(alpha, mesh.dim))
    return float(coef[c.local_index(face_id)] @ face_deltas(c, u))


def cell_cone_gradients(cell: Cell, u: DiscreteFunction,
                        alpha: float) -> np.ndarray:
    """All cone gradients of one cell as a (k, d) array."""
    return face_deltas(cell, u) @ _cone_vectors(cell, alpha)


def gradient_field(mesh: Mesh, u: DiscreteFunction,
                   alpha: float | None = None) -> GradientField:
    """Stabilized gradient on every cone.

    ``u`` must carry materialized face values (barycentric faces already
    reconstructed; see :func:`sushi.postproc.reconstruct_faces`).
    """
    a = resolve_alpha(alpha, mesh.dim)
    per_cell = [cell_cone_gradients(c, u, a) for c in mesh.cells]
    return GradientField(per_cell=per_cell, alpha=a)


def y_vectors(mesh: Mesh, cell_id: int, alpha: float | None = None) -> np.ndarray:
    """Vectors identifying cone gradients from face increments.

    Returns a (k, k, d) array ``Y`` with ``Y[i, j]`` the vector multiplying
    (u_{sigma_j} - u_K) in the cone gradient of face i.
    """
    return _cone_vectors(mesh.cells[cell_id], resolve_alpha(alpha, mesh.dim))
