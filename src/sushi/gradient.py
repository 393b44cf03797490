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
``alpha`` defaults to sqrt(d) (``DEFAULT_ALPHA``); any finite positive
value is admissible (:func:`resolve_alpha`).  Rows are gathered with
``np.take`` and the dot products written out component by component, as
numpy's sum over the component axis adds them (see :mod:`sushi.geometry`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DIM, Mesh, pair_sum, segment_sums, take_rows
from .spaces import DiscreteFunction


# The default stabilization coefficient, sqrt(d).
DEFAULT_ALPHA = math.sqrt(DIM)


def resolve_alpha(alpha: float | None) -> float:
    """``alpha``, or ``DEFAULT_ALPHA`` when None; ``ValueError`` unless finite and > 0."""
    a = DEFAULT_ALPHA if alpha is None else alpha
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {a!r}")
    return a


@dataclass
class GradientField:
    """Piecewise-constant gradient: ``cones[i]`` is the gradient on cone i."""

    cones: np.ndarray  # (n_cones, d)
    cells: np.ndarray  # (n_cells, d): the grad_K u it was built from

    def cell_average(self, mesh: Mesh) -> np.ndarray:
        """Cone-measure-weighted average per cell, for visualization."""
        w = mesh.cone_measure
        total = segment_sums(w, mesh.cell_ptr)
        return np.stack([segment_sums(w * self.cones[:, k], mesh.cell_ptr) / total
                         for k in range(2)], axis=1)


def cone_increments(mesh: Mesh, u: DiscreteFunction) -> np.ndarray:
    """delta = u_sigma - u_K on every cone."""
    return u.face_values[mesh.cone_face] - u.cell_values[mesh.cone_cell]


def gradient_coefficients(mesh: Mesh, cones=slice(None)) -> np.ndarray:
    """``g`` on the cones ``cones`` (an index array or a slice; all by
    default), components on a new last axis: g_j multiplies delta_j in
    grad_K u."""
    measure = mesh.face_measure[mesh.cone_face[cones]]
    cell_measure = mesh.cell_measure[mesh.cone_cell[cones]]
    normal = take_rows(mesh.cone_normal, cones)
    g = np.empty(normal.shape)
    for k in range(2):
        g[..., k] = measure * normal[..., k] / cell_measure
    return g


def _residuals(mesh: Mesh, cones, delta: np.ndarray, grad: np.ndarray, alpha: float):
    """R(K, sigma) = (alpha/d) (delta - (x_sigma - x_K) . grad) on the cones
    ``cones``, for their increments ``delta`` and cell gradients ``grad``
    (components on the last axis); the shape of the index array ``cones``
    broadcasts with the leading axes of the other two."""
    rel = mesh.cone_offsets(cones)
    proj = pair_sum(rel[..., 0] * grad[..., 0], rel[..., 1] * grad[..., 1])
    return (delta - proj) * (alpha / mesh.cone_dist[cones])


def cell_gradients(mesh: Mesh, u: DiscreteFunction) -> np.ndarray:
    """(n_cells, d) consistent cell gradients grad_K u."""
    delta = cone_increments(mesh, u)
    g = gradient_coefficients(mesh)
    return np.stack([segment_sums(delta * g[:, k], mesh.cell_ptr) for k in range(2)], axis=1)


def gradient_field(mesh: Mesh, u: DiscreteFunction,
                   alpha: float | None = None) -> GradientField:
    """Stabilized gradient grad_K u + R(K, sigma) u n(K, sigma) on every cone.

    ``u`` must carry materialized face values (barycentric faces already
    reconstructed; see :func:`sushi.postproc.reconstruct_faces`).
    """
    cells = cell_gradients(mesh, u)
    grad = np.take(cells, mesh.cone_cell, axis=0)
    residuals = _residuals(mesh, slice(None), cone_increments(mesh, u), grad,
                           resolve_alpha(alpha))
    for k in range(2):
        grad[:, k] += residuals * mesh.cone_normal[:, k]
    return GradientField(cones=grad, cells=cells)
