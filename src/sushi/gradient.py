"""Stabilized discrete gradient as one sparse operator over the cones.

Per cell K the gradient of a grid function u is

    grad_K u = (1/|K|) sum |sigma| (u_sigma - u_K) n(K,sigma),

exact for affine fields, and the per-cone stabilized gradient adds the
residual of the face value against the cell-gradient prediction in the
face-normal direction:

    R(K,sigma) u = (alpha/d(K,sigma)) (u_sigma - u_K - grad_K u . (x_sigma - x_K)),
    grad(K,sigma) u = grad_K u + R(K,sigma) u * n(K,sigma).

Both are linear in the cone increments delta = u_sigma - u_K.  Their
coefficients are defined once (:func:`gradient_coefficients`,
:func:`residual_coefficients`) and evaluated for every pair of cones of a
cell at once.  They form the sparse operator ``G`` (2 n_cones x n_cones,
block-diagonal by cell) with ``G delta`` the cone gradients, row
``2 i + a`` holding component ``a`` of cone ``i``; the local flux
matrices are ``G^T Lambda G`` (:func:`sushi.assembly.local_matrices`).
``alpha`` defaults to sqrt(d); any finite positive value is admissible
(:func:`resolve_alpha`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    alpha: float

    def cell_average(self, mesh: Mesh) -> np.ndarray:
        """Cone-measure-weighted average per cell, for visualization."""
        w = mesh.cone_measure
        return (segment_sums(w[:, None] * self.cones, mesh.cell_ptr)
                / segment_sums(w, mesh.cell_ptr)[:, None])

    def l2_norm_sq(self, mesh: Mesh) -> float:
        return float(np.sum(mesh.cone_measure * np.sum(self.cones ** 2, axis=1)))


def cone_increments(mesh: Mesh, u: DiscreteFunction) -> np.ndarray:
    """delta = u_sigma - u_K on every cone."""
    return u.face_values[mesh.cone_face] - u.cell_values[mesh.cone_cell]


def gradient_coefficients(mesh: Mesh) -> np.ndarray:
    """(n_cones, d) array ``g``: row j multiplies delta_j in grad_K u."""
    return (mesh.face_measure[mesh.cone_face][:, None] * mesh.cone_normal
            / mesh.cell_measure[mesh.cone_cell][:, None])


def residual_coefficients(mesh: Mesh, g: np.ndarray, alpha: float):
    """Cone pairs ``(i, j)`` of :meth:`Mesh.cone_pairs` and the coefficient
    of delta_j in R(K, sigma_i) u for each.

    ``g`` is :func:`gradient_coefficients`.
    """
    i, j = mesh.cone_pairs()
    rel = mesh.face_centre[mesh.cone_face[i]] - mesh.cell_point[mesh.cone_cell[i]]
    proj = (rel * g[j]).sum(axis=1)
    coef = (np.where(i == j, 1.0, 0.0) - proj) * (alpha / mesh.cone_dist[i])
    return i, j, coef


def gradient_operator(mesh: Mesh, alpha: float | None = None) -> sp.csr_matrix:
    """Sparse ``G``: the cone gradients are ``(G @ delta).reshape(-1, d)``."""
    a = resolve_alpha(alpha, mesh.dim)
    g = gradient_coefficients(mesh)
    i, j, coef = residual_coefficients(mesh, g, a)
    y = g[j] + coef[:, None] * mesh.cone_normal[i]
    d = mesh.dim
    rows = (d * i[:, None] + np.arange(d)).ravel()
    return sp.csr_matrix((y.ravel(), (rows, np.repeat(j, d))),
                         shape=(d * mesh.n_cones, mesh.n_cones))


def cell_gradients(mesh: Mesh, u: DiscreteFunction) -> np.ndarray:
    """(n_cells, d) consistent cell gradients grad_K u."""
    delta = cone_increments(mesh, u)
    return segment_sums(delta[:, None] * gradient_coefficients(mesh), mesh.cell_ptr)


def stabilization_residuals(mesh: Mesh, u: DiscreteFunction,
                            alpha: float | None = None) -> np.ndarray:
    """R(K, sigma) u on every cone."""
    i, j, coef = residual_coefficients(mesh, gradient_coefficients(mesh),
                                       resolve_alpha(alpha, mesh.dim))
    residual = sp.csr_matrix((coef, (i, j)), shape=(mesh.n_cones, mesh.n_cones))
    return residual @ cone_increments(mesh, u)


def gradient_field(mesh: Mesh, u: DiscreteFunction,
                   alpha: float | None = None) -> GradientField:
    """Stabilized gradient on every cone.

    ``u`` must carry materialized face values (barycentric faces already
    reconstructed; see :func:`sushi.postproc.reconstruct_faces`).
    """
    a = resolve_alpha(alpha, mesh.dim)
    cones = gradient_operator(mesh, a) @ cone_increments(mesh, u)
    return GradientField(cones=cones.reshape(-1, mesh.dim), alpha=a)
