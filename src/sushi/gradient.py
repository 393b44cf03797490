"""Stabilized discrete gradient, evaluated cone by cone.

Per cell K the gradient of a grid function u is

    grad_K u = (1/|K|) sum |sigma| (u_sigma - u_K) n(K,sigma),

exact for affine fields, and the per-cone stabilized gradient adds the
residual of the face value against the cell-gradient prediction in the
face-normal direction:

    R(K,sigma) u = (alpha/d(K,sigma)) (u_sigma - u_K - grad_K u . (x_sigma - x_K)),
    grad(K,sigma) u = grad_K u + R(K,sigma) u * n(K,sigma).

Both are linear in the cone increments delta = u_sigma - u_K and local to
one cell.  grad_K u (:func:`gradient_coefficients`) and R (:func:`_residuals`)
are defined once and evaluated on the flat cone arrays.  No gradient
operator is formed: assembly evaluates the same R on blocks of cells to
build the local flux matrices (:func:`sushi.assembly.local_blocks`).
``alpha`` defaults to sqrt(d); any finite positive value is admissible
(:func:`resolve_alpha`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Mesh, segment_sums
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
    """Piecewise-constant gradient: ``cones[i]`` is the gradient on cone i."""

    cones: np.ndarray  # (n_cones, d)

    def cell_average(self, mesh: Mesh) -> np.ndarray:
        """Cone-measure-weighted average per cell, for visualization."""
        w = mesh.cone_measure
        return (segment_sums(w[:, None] * self.cones, mesh.cell_ptr)
                / segment_sums(w, mesh.cell_ptr)[:, None])


def cone_increments(mesh: Mesh, u: DiscreteFunction) -> np.ndarray:
    """delta = u_sigma - u_K on every cone."""
    return u.face_values[mesh.cone_face] - u.cell_values[mesh.cone_cell]


def gradient_coefficients(mesh: Mesh, cones=slice(None)) -> np.ndarray:
    """``g`` on the cones ``cones`` (an index array or a slice; all by
    default), components on a new last axis: g_j multiplies delta_j in
    grad_K u."""
    return (mesh.face_measure[mesh.cone_face[cones]][..., None] * mesh.cone_normal[cones]
            / mesh.cell_measure[mesh.cone_cell[cones]][..., None])


def _residuals(mesh: Mesh, cones, delta: np.ndarray, grad: np.ndarray, alpha: float):
    """R(K, sigma) = (alpha/d) (delta - (x_sigma - x_K) . grad) on the cones
    ``cones``, for their increments ``delta`` and cell gradients ``grad``
    (components on the last axis); the shape of the index array ``cones``
    broadcasts with the leading axes of the other two."""
    rel = mesh.face_centre[mesh.cone_face[cones]] - mesh.cell_point[mesh.cone_cell[cones]]
    proj = (rel * grad).sum(axis=-1)
    return (delta - proj) * (alpha / mesh.cone_dist[cones])


def cell_gradients(mesh: Mesh, u: DiscreteFunction) -> np.ndarray:
    """(n_cells, d) consistent cell gradients grad_K u."""
    delta = cone_increments(mesh, u)
    return segment_sums(delta[:, None] * gradient_coefficients(mesh), mesh.cell_ptr)


def gradient_field(mesh: Mesh, u: DiscreteFunction,
                   alpha: float | None = None) -> GradientField:
    """Stabilized gradient grad_K u + R(K, sigma) u n(K, sigma) on every cone.

    ``u`` must carry materialized face values (barycentric faces already
    reconstructed; see :func:`sushi.postproc.reconstruct_faces`).
    """
    grad = cell_gradients(mesh, u)[mesh.cone_cell]
    residuals = _residuals(mesh, slice(None), cone_increments(mesh, u), grad,
                           resolve_alpha(alpha, mesh.dim))
    return GradientField(cones=grad + residuals[:, None] * mesh.cone_normal)
