"""Local flux matrices, elimination of barycentric faces, global SPD assembly.

The stabilized gradient on cone i of a cell K (:mod:`sushi.gradient`) is
linear in the cone increments delta = u_sigma - u_K of K:
grad(K, sigma_i) u = sum_j delta_j y_ij, with the cone vectors
y_ij = g_j + R_ij n_i (g_j the coefficient of delta_j in grad_K u, R_ij its
coefficient in R(K, sigma_i) u).  With Lambda_i the diffusion tensor
integrated over cone i, the local flux matrix of K is the k x k block

    (A_K)_jl = sum_i y_ij . Lambda_i y_il,

which reproduces the bilinear form integral of grad_D u . Lambda grad_D v
over K.  :func:`local_matrices` computes these blocks with array
operations, a block of cells of one loop size at a time, and stores them
as the block-diagonal ``B`` over the cones; no operator over cone pairs is
formed.  The numerical fluxes, outflow positive, are ``-B delta``;
:func:`sushi.postproc.cone_fluxes` evaluates them cell by cell without
forming ``B``.

Assembly restricts this hybrid form to the retained unknowns x (cells and
hybrid faces).  With ``P`` and ``c`` the face expansion of
:func:`sushi.spaces.face_expansions` (face values ``c + P x``), the cone
increments u_K - u_s are ``E x - c[cone_face]`` for the cone map
``E = C - P[cone_face]``, where ``C`` is the cone-to-cell incidence.  The
system is

    (E^T B E) x = f + E^T B c[cone_face],

f holding the cell integrals of the source.  Only the strict upper
triangle and the diagonal are stored, so the matrix is exactly symmetric.
Each of C, P[cone_face], B and E is released as soon as it has been used,
so the peak memory of assembly is that of one stage, not of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    NonPositiveTensor,
    NonSymmetricTensor,
    SingularAfterElimination,
)
from .geometry import Mesh, segment_sums
from .gradient import _residuals, gradient_coefficients, resolve_alpha
from .spaces import (
    BarycentricWeights,
    EdgePartition,
    UnknownNumbering,
    face_expansions,
    numbering_for,
    sample_field,
)

# Cells per array pass of ``local_matrices``.  It bounds the pass's
# transient arrays, each (cells, k, k) or (cells, k, k, 2): 256 or 512 kB
# for quadrilaterals.
LOCAL_BLOCK = 2048


def _check_spd(mats) -> None:
    """Typed errors unless every 2x2 tensor of ``mats`` is SPD (and finite)."""
    mats = np.asarray(mats, dtype=float).reshape(-1, 2, 2)
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        raise NonPositiveTensor(f"tensor not finite: {mats[~finite][0]}")
    scale = np.maximum(np.abs(mats).max(axis=(1, 2)), 1e-300)
    asym = np.abs(mats - mats.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12 * scale
    if asym.any():
        raise NonSymmetricTensor(f"tensor not symmetric: {mats[asym][0]}")
    ev = np.linalg.eigvalsh(mats)
    if np.any(ev[:, 0] <= 0.0):
        raise NonPositiveTensor(f"tensor not positive definite: {mats[ev[:, 0] <= 0.0][0]}")


@dataclass
class TensorField:
    """Symmetric positive-definite diffusion tensor, sampled per cone.

    ``tensors`` is (1, 2, 2) for a constant tensor or (n_cells, 2, 2) for
    one tensor per cell, exactly constant on each cell.  Otherwise ``func``
    is a callable sampled at all cone centroids in one call, putting its
    2x2 entries on the two leading axes.
    """

    tensors: np.ndarray | None = None
    func: object = None

    @classmethod
    def from_constant(cls, mat) -> "TensorField":
        return cls.from_per_cell(np.reshape(mat, (1, 2, 2)))

    @classmethod
    def from_per_cell(cls, tensors) -> "TensorField":
        tensors = np.asarray(tensors, dtype=float)
        _check_spd(tensors)
        return cls(tensors=tensors)

    @classmethod
    def isotropic_by_region(cls, regions, values: dict) -> "TensorField":
        distinct, which = np.unique(np.asarray(regions), return_inverse=True)
        lam = np.array([values[int(r)] for r in distinct], dtype=float)[which.ravel()]
        tensors = lam[:, None, None] * np.eye(2)[None, :, :]
        return cls.from_per_cell(tensors)

    @classmethod
    def from_callable(cls, func) -> "TensorField":
        return cls(func=func)

    @property
    def is_identity(self) -> bool:
        return self.tensors is not None and np.array_equal(self.tensors, np.eye(2)[None])

    def cone_tensors(self, mesh: Mesh) -> np.ndarray:
        """(n_cones, 2, 2): |D(K, s)| times the tensor sampled on each cone."""
        if self.tensors is None:
            sampled = sample_field(self.func, mesh.cone_centroid, "tensor", (2, 2))
            _check_spd(sampled)
        elif len(self.tensors) == 1:
            sampled = self.tensors
        else:
            sampled = self.tensors[mesh.cone_cell]
        return mesh.cone_measure[:, None, None] * sampled


def local_matrices(mesh: Mesh, tensor: TensorField,
                   alpha: float | None = None) -> sp.csr_matrix:
    """``B``: the local flux matrices A_K as one block-diagonal matrix over
    the cones, every entry of each k x k block stored, exact zeros included.

    The cells of each loop size k are taken ``LOCAL_BLOCK`` at a time.  An
    entry sums y_ij . (Lambda_i y_il) over the cones i and the components
    in ascending order, starting from zero: the order of the sparse product
    ``G^T (Lambda G)`` over the gradient operator ``G``, so both give the
    same values bit for bit.  Symmetric: the block is 0.5 (A + A^T).
    """
    a = resolve_alpha(alpha, mesh.dim)
    coeffs = gradient_coefficients(mesh)
    tensors = tensor.cone_tensors(mesh)
    sizes = np.diff(mesh.cell_ptr)
    block_start = np.concatenate([[0], np.cumsum(sizes * sizes)])
    values = np.empty(block_start[-1])
    columns = np.empty(block_start[-1], dtype=np.int64)
    dims = range(mesh.dim)
    for k in np.unique(sizes).tolist():
        square = np.arange(k * k).reshape(k, k)
        of_size = np.flatnonzero(sizes == k)
        for first in range(0, len(of_size), LOCAL_BLOCK):
            cells = of_size[first:first + LOCAL_BLOCK]
            cones = mesh.cell_ptr[cells][:, None] + np.arange(k)
            # y[e][c, i, j], component e of the coefficient of delta_j in the
            # gradient of cone i: grad_K = g_j, plus R for delta = [i == j].
            g = coeffs[cones]
            coef = _residuals(mesh, cones[:, :, None], np.eye(k), g[:, None], a)
            normal = mesh.cone_normal[cones]
            y = [g[:, None, :, e] + coef * normal[:, :, None, e] for e in dims]
            lam = tensors[cones]
            ly = [sum(lam[:, :, None, d, e] * y[e] for e in dims) for d in dims]
            b = np.zeros((len(cells), k, k))
            for i in range(k):
                for e in dims:
                    b += y[e][:, i, :, None] * ly[e][:, i, None, :]
            at = block_start[cells][:, None, None] + square
            values[at] = 0.5 * (b + b.transpose(0, 2, 1))
            columns[at] = cones[:, None, :]
    row_ptr = np.concatenate([[0], np.cumsum(sizes[mesh.cone_cell])])
    return sp.csr_matrix((values, columns, row_ptr), shape=(mesh.n_cones, mesh.n_cones))


def rhs_cell_integrals(mesh: Mesh, f) -> np.ndarray:
    """Integral of f over every cell by the cone-centroid rule (exact for affine f)."""
    values = sample_field(f, mesh.cone_centroid, "source")
    return segment_sums(mesh.cone_measure * values, mesh.cell_ptr)


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

    ``source`` and ``dirichlet`` are scalar user fields, each called once
    on its point array (:func:`sushi.spaces.sample_field`); both optional,
    absent means zero.  Raises the errors of ``check_weights``, and
    ``SingularAfterElimination`` when elimination leaves an unknown
    without a positive diagonal.
    """
    numbering = numbering_for(mesh, partition)
    n = numbering.n
    expansion, consts = face_expansions(mesh, partition, weights, numbering, dirichlet)

    # C (cone -> cell incidence), E = C - P[cone_face] and B of the module
    # docstring are ``cells``, ``cone_map`` and ``local``.
    n_cones = mesh.n_cones
    cells = sp.csr_matrix((np.ones(n_cones), (np.arange(n_cones), mesh.cone_cell)),
                          shape=(n_cones, n))
    picked = expansion[mesh.cone_face]
    del expansion
    cone_map = (cells - picked).tocsr()
    # The value product drops exact zeros, but NM counts every entry that a
    # stored weight and a local matrix entry reach: two unknowns reached
    # from the cones of one cell, as the 0/1 product T^T T over the
    # cell-to-unknown pattern T = C^T (C + pattern(P[cone_face])).
    reach = cells.T @ (cells + _structure(picked))
    del cells, picked
    nm = (reach.T @ reach).nnz
    del reach

    local = local_matrices(mesh, tensor, alpha)
    mat = (cone_map.T @ (local @ cone_map)).tocsr()
    rhs = cone_map.T @ (local @ consts[mesh.cone_face])
    del cone_map, local
    if source is not None:
        rhs[: mesh.n_cells] += rhs_cell_integrals(mesh, source)

    diag = mat.diagonal()
    if np.any(diag <= 0.0):
        bad = int(np.nonzero(diag <= 0.0)[0][0])
        raise SingularAfterElimination(f"unknown {bad} has non-positive diagonal")
    return LinearSystem(n=n, upper=sp.triu(mat, 1, format="csr"), diag=diag, rhs=rhs,
                        numbering=numbering, nm=nm)
