"""Local flux matrices, elimination of barycentric faces, global SPD assembly.

Per cell K the local matrix over its faces is

    A_K[s, s'] = sum over s'' of y(s'', s) . Lambda(K, s'') y(s'', s'),

with Lambda(K, s'') the diffusion tensor integrated over the cone of face
s'', and the numerical flux through face s is

    F(K, s)(u) = sum over s' of A_K[s, s'] (u_K - u_{s'}),

which reproduces the bilinear form integral of grad_D u . Lambda grad_D v.

Assembly restricts this hybrid form to the retained unknowns x (cells and
hybrid faces).  With ``P`` and ``c`` the face expansion of
:func:`sushi.spaces.face_expansions` (face values ``c + P x``), the cone
increments u_K - u_s are ``E x - c[cone_face]`` for the cone map
``E = C - P[cone_face]``, where ``C`` is the cone-to-cell incidence.  With
``B`` the block diagonal of the local matrices, the system is

    (E^T B E) x = f + E^T B c[cone_face],

f holding the cell integrals of the source.  Only the strict upper
triangle and the diagonal are stored, so the matrix is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import (
    MissingWeights,
    NonPositiveTensor,
    NonSymmetricTensor,
    SingularAfterElimination,
)
from .geometry import Cell, Mesh
from .gradient import resolve_alpha, y_vectors
from .spaces import (
    BarycentricWeights,
    EdgePartition,
    UnknownNumbering,
    check_weights,
    face_expansions,
    numbering_for,
)


def _check_spd_2x2(mat: np.ndarray) -> None:
    mat = np.asarray(mat, dtype=float)
    scale = max(np.abs(mat).max(), 1e-300)
    if np.abs(mat - mat.T).max() > 1e-12 * scale:
        raise NonSymmetricTensor(f"tensor not symmetric: {mat}")
    if np.linalg.eigvalsh(mat).min() <= 0.0:
        raise NonPositiveTensor(f"tensor not positive definite: {mat}")


@dataclass
class TensorField:
    """Symmetric positive-definite diffusion tensor, sampled per cone.

    ``per_cell`` tensors (the default construction) are treated as exactly
    piecewise constant; a smooth callable is sampled at cone centroids.
    """

    per_cell_tensors: np.ndarray | None = None
    constant: np.ndarray | None = None
    func: object = None
    piecewise_constant: bool = True
    lambda_min: float = 0.0
    lambda_max: float = 0.0

    @classmethod
    def from_constant(cls, mat) -> "TensorField":
        mat = np.asarray(mat, dtype=float)
        _check_spd_2x2(mat)
        ev = np.linalg.eigvalsh(mat)
        return cls(constant=mat, lambda_min=float(ev[0]), lambda_max=float(ev[-1]))

    @classmethod
    def from_per_cell(cls, tensors) -> "TensorField":
        tensors = np.asarray(tensors, dtype=float)
        lo, hi = np.inf, 0.0
        for t in tensors:
            _check_spd_2x2(t)
            ev = np.linalg.eigvalsh(t)
            lo, hi = min(lo, ev[0]), max(hi, ev[-1])
        return cls(per_cell_tensors=tensors, lambda_min=float(lo), lambda_max=float(hi))

    @classmethod
    def isotropic_by_region(cls, regions, values: dict) -> "TensorField":
        lam = np.array([values[int(r)] for r in regions], dtype=float)
        tensors = lam[:, None, None] * np.eye(2)[None, :, :]
        return cls.from_per_cell(tensors)

    @classmethod
    def from_callable(cls, func, piecewise_constant: bool = False) -> "TensorField":
        return cls(func=func, piecewise_constant=piecewise_constant,
                   lambda_min=np.nan, lambda_max=np.nan)

    @property
    def is_identity(self) -> bool:
        return self.constant is not None and np.array_equal(self.constant, np.eye(2))

    def cell_tensor(self, cell: Cell) -> np.ndarray:
        if self.constant is not None:
            return self.constant
        if self.per_cell_tensors is not None:
            return self.per_cell_tensors[cell.id]
        mat = np.asarray(self.func(cell.point), dtype=float)
        _check_spd_2x2(mat)
        return mat

    def cone_tensors(self, cell: Cell) -> np.ndarray:
        """Integrated tensor per cone: |D(K, s)| times the sampled tensor."""
        k = len(cell.faces)
        if self.func is not None and not self.piecewise_constant:
            out = np.empty((k, 2, 2))
            for i, centroid in enumerate(cell.cone_centroids()):
                mat = np.asarray(self.func(centroid), dtype=float)
                _check_spd_2x2(mat)
                out[i] = cell.cone_measures[i] * mat
            return out
        return cell.cone_measures[:, None, None] * self.cell_tensor(cell)[None, :, :]


def local_matrix(mesh: Mesh, cell_id: int, tensor: TensorField,
                 alpha: float | None = None) -> np.ndarray:
    """Symmetric positive local flux matrix of one cell."""
    cell = mesh.cells[cell_id]
    y = y_vectors(mesh, cell_id, alpha)
    lam = tensor.cone_tensors(cell)
    a = np.einsum("ija,iab,ikb->jk", y, lam, y)
    return 0.5 * (a + a.T)


def flux(mesh: Mesh, cell_id: int, local_mat: np.ndarray, u) -> np.ndarray:
    """Numerical fluxes of one cell through all its faces.

    Positive for outflow: the flux approximates the integral over the face
    of -Lambda grad u . n_out.
    """
    cell = mesh.cells[cell_id]
    delta = u.cell_values[cell_id] - u.face_values[cell.faces]
    return local_mat @ delta


def rhs_cell_integral(mesh: Mesh, cell_id: int, f) -> float:
    """Integral of f over a cell by the cone-centroid rule (exact for affine f)."""
    cell = mesh.cells[cell_id]
    return float(cell.cone_measures @ np.array([f(c) for c in cell.cone_centroids()]))


@dataclass
class LinearSystem:
    """Sparse SPD system over the retained unknowns.

    The matrix is stored as its strict upper triangle plus diagonal; it is
    exactly symmetric by construction.  ``nm`` is the structural nonzero
    count of the full matrix (both triangles plus the diagonal): every
    entry the elimination reaches, exact zeros included.
    """

    n: int
    upper: sp.csr_matrix
    diag: np.ndarray
    rhs: np.ndarray
    numbering: UnknownNumbering
    nm: int

    def full(self) -> sp.csr_matrix:
        return (self.upper + self.upper.T + sp.diags(self.diag)).tocsr()

    def to_dense(self) -> np.ndarray:
        return self.full().toarray()


def _structure(mat: sp.csr_matrix) -> sp.csr_matrix:
    """0/1 matrix of the stored entries of ``mat``, exact zeros included."""
    return sp.csr_matrix((np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape)


def assemble(mesh: Mesh, partition: EdgePartition,
             weights: BarycentricWeights | None, tensor: TensorField,
             source=None, dirichlet=None, alpha: float | None = None) -> LinearSystem:
    """Assemble the sparse SPD system for the composite scheme.

    ``source`` and ``dirichlet`` are scalar callables of position (both
    optional; absent means zero).  Raises ``SingularAfterElimination``
    when elimination leaves an unknown without a positive diagonal.
    """
    if partition.barycentric_faces():
        if weights is None:
            raise MissingWeights("partition has barycentric faces but no weights")
        check_weights(mesh, partition, weights)
    a = resolve_alpha(alpha, mesh.dim)
    numbering = numbering_for(mesh, partition)
    n = numbering.n
    expansion, consts = face_expansions(mesh, partition, weights, numbering, dirichlet)

    # C (cone -> cell incidence), E = C - P[cone_face] and B of the module
    # docstring are ``cells``, ``cone_map`` and ``local``.
    sizes = [len(c.faces) for c in mesh.cells]
    cone_face = np.concatenate([c.faces for c in mesh.cells])
    n_cones = len(cone_face)
    cells = sp.csr_matrix(
        (np.ones(n_cones), (np.arange(n_cones), np.repeat(np.arange(mesh.n_cells), sizes))),
        shape=(n_cones, n),
    )
    picked = expansion[cone_face]
    cone_map = (cells - picked).tocsr()
    local = sp.block_diag([local_matrix(mesh, c.id, tensor, a) for c in mesh.cells],
                          format="csr")

    mat = (cone_map.T @ (local @ cone_map)).tocsr()
    # The value product drops exact zeros, but NM counts every entry that a
    # stored weight and local coefficient reach: the same product over the
    # 0/1 patterns.
    reach = cells + _structure(picked)
    nm = (reach.T @ (_structure(local) @ reach)).nnz

    rhs = cone_map.T @ (local @ consts[cone_face])
    if source is not None:
        for cell in mesh.cells:
            rhs[cell.id] += rhs_cell_integral(mesh, cell.id, source)

    diag = mat.diagonal()
    if np.any(diag <= 0.0):
        bad = int(np.nonzero(diag <= 0.0)[0][0])
        raise SingularAfterElimination(f"unknown {bad} has non-positive diagonal")
    return LinearSystem(n=n, upper=sp.triu(mat, 1, format="csr"), diag=diag, rhs=rhs,
                        numbering=numbering, nm=nm)


def export_matrix_market(system: LinearSystem, path) -> None:
    scipy.io.mmwrite(path, system.full(), symmetry="symmetric")
