"""Local flux matrices, elimination of barycentric faces, global SPD assembly.

With ``G`` the gradient operator of :mod:`sushi.gradient` (cone gradients
``G delta`` of the cone increments delta = u_sigma - u_K) and ``Lambda``
the block diagonal of the diffusion tensors integrated over each cone,
the local flux matrices of all cells form the block-diagonal

    B = G^T Lambda G,

whose block A_K reproduces the bilinear form integral of
grad_D u . Lambda grad_D v over K.  The numerical fluxes, outflow
positive, are ``-B delta``; :func:`sushi.postproc.cone_fluxes` evaluates
them cell by cell without forming ``B``.

Assembly restricts this hybrid form to the retained unknowns x (cells and
hybrid faces).  With ``P`` and ``c`` the face expansion of
:func:`sushi.spaces.face_expansions` (face values ``c + P x``), the cone
increments u_K - u_s are ``E x - c[cone_face]`` for the cone map
``E = C - P[cone_face]``, where ``C`` is the cone-to-cell incidence.  The
system is

    (E^T B E) x = f + E^T B c[cone_face],

f holding the cell integrals of the source.  Only the strict upper
triangle and the diagonal are stored, so the matrix is exactly symmetric.
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
from .gradient import gradient_operator
from .spaces import (
    BarycentricWeights,
    EdgePartition,
    UnknownNumbering,
    face_expansions,
    numbering_for,
    sample_field,
)


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
    """``B = G^T Lambda G``: the symmetric local flux matrices as one
    block-diagonal matrix over the cones."""
    grad = gradient_operator(mesh, alpha)
    n = mesh.n_cones
    lam = sp.bsr_matrix((tensor.cone_tensors(mesh), np.arange(n), np.arange(n + 1)),
                        shape=(2 * n, 2 * n))
    mat = (grad.T @ (lam @ grad)).tocsr()
    return 0.5 * (mat + mat.T)


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
    cone_map = (cells - picked).tocsr()
    local = local_matrices(mesh, tensor, alpha)

    mat = (cone_map.T @ (local @ cone_map)).tocsr()
    # The value product drops exact zeros, but NM counts every entry that a
    # stored weight and a local matrix entry reach: the same product over
    # the 0/1 patterns, with the full k x k block of every cell.
    reach = cells + _structure(picked)
    nm = (reach.T @ ((cells @ cells.T) @ reach)).nnz

    rhs = cone_map.T @ (local @ consts[mesh.cone_face])
    if source is not None:
        rhs[: mesh.n_cells] += rhs_cell_integrals(mesh, source)

    diag = mat.diagonal()
    if np.any(diag <= 0.0):
        bad = int(np.nonzero(diag <= 0.0)[0][0])
        raise SingularAfterElimination(f"unknown {bad} has non-positive diagonal")
    return LinearSystem(n=n, upper=sp.triu(mat, 1, format="csr"), diag=diag, rhs=rhs,
                        numbering=numbering, nm=nm)
