"""Local flux matrices, elimination of barycentric faces, global SPD assembly.

The stabilized gradient on cone i of a cell K (:mod:`sushi.gradient`) is
linear in the cone increments delta = u_sigma - u_K of K:
grad(K, sigma_i) u = sum_j delta_j y_ij, with the cone vectors
y_ij = g_j + R_ij n_i (g_j the coefficient of delta_j in grad_K u, R_ij its
coefficient in R(K, sigma_i) u).  With Lambda_i the diffusion tensor
integrated over cone i, the local flux matrix of K is the k x k block

    (A_K)_jl = sum_i y_ij . Lambda_i y_il,

which reproduces the bilinear form integral of grad_D u . Lambda grad_D v
over K.  :func:`local_blocks` computes these blocks with array
operations, ``LOCAL_BLOCK`` consecutive cells at a time, each block the
part of the block-diagonal ``B`` over those cells' cones; no operator over
cone pairs is formed.  The numerical fluxes, outflow positive, are ``-B delta``;
:func:`sushi.postproc.boundary_flux_totals` evaluates them cell by cell
without forming ``B``.

Assembly restricts this hybrid form to the retained unknowns x (cells and
hybrid faces).  With ``P`` and ``c`` the face expansion of
:func:`sushi.spaces.face_expansions` (face values ``c + P x``), the cone
increments u_K - u_s are ``E x - c[cone_face]`` for the cone map
``E = C - P[cone_face]``, where ``C`` is the cone-to-cell incidence.  The
system is

    (E^T B E) x = f + E^T B c[cone_face],

f holding the cell integrals of the source.  Only the strict upper
triangle and the diagonal are stored, so the matrix is exactly symmetric.

:func:`assemble` never holds the whole ``B``, and never ``B E`` next to a
second copy of K.  At once it holds ``E`` and ``B E``, built one block of
``B`` at a time, then ``E^T`` and ``B E`` while K is formed ``ROW_BLOCK``
rows at a time: each block's diagonal and strict upper triangle, the
triangles stacked into one.  Each sum runs over the same terms in the same
order as the sparse products over the whole matrices, so K and the
right-hand side are the same bit for bit.  NM is counted from the patterns
alone, in one structural pass over ``T^T T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import NonPositiveTensor, NonSymmetricTensor
from .geometry import DIM, Mesh, segment_sums, take_rows
from .gradient import _residuals, gradient_coefficients, resolve_alpha
from .spaces import (
    BarycentricWeights,
    EdgePartition,
    UnknownNumbering,
    face_expansions,
    numbering_for,
    sample_field,
)

# Cells per block of ``local_blocks``.  It bounds the block's transient
# arrays, each at most (k, k, cells) or (k, cells, 2, 2): 128 kB for
# quadrilaterals.
LOCAL_BLOCK = 1024
# Rows per block of a CSR matrix (:func:`_row_blocks`): the row blocks of
# K = E^T (B E) here, and of the extended-precision residual and the
# strength test in :mod:`sushi.solver`.
ROW_BLOCK = 4096


def _check_spd(mats) -> None:
    """Typed errors unless every 2x2 tensor of ``mats`` is SPD (and finite)."""
    mats = np.asarray(mats, dtype=float).reshape(-1, 2, 2)
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)
    if not finite.all():
        raise NonPositiveTensor(f"tensor not finite: {mats[~finite][0]}")
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    asym = np.abs(b - c) > 1e-12 * np.maximum(scale, 1e-300)
    if asym.any():
        raise NonSymmetricTensor(f"tensor not symmetric: {mats[asym][0]}")
    ev = np.linalg.eigvalsh(mats)
    if np.any(ev[:, 0] <= 0.0):
        raise NonPositiveTensor(f"tensor not positive definite: {mats[ev[:, 0] <= 0.0][0]}")


@dataclass
class TensorField:
    """Symmetric positive-definite diffusion tensor, constant on each cone.

    ``tensors`` is one array of 2x2 tensors, checked SPD once, when the
    field is built: (1, 2, 2) for a constant tensor, (n_cells, 2, 2) for
    one tensor per cell, or (n_cones, 2, 2) for a callable sampled at the
    cone centroids (:meth:`from_callable`).
    """

    tensors: np.ndarray

    def __post_init__(self):
        self.tensors = np.asarray(self.tensors, dtype=float)
        _check_spd(self.tensors)

    @classmethod
    def from_constant(cls, mat) -> "TensorField":
        return cls(np.reshape(mat, (1, 2, 2)))

    @classmethod
    def from_callable(cls, func, mesh: Mesh) -> "TensorField":
        """``func`` sampled once, at every cone centroid of ``mesh``."""
        return cls(sample_field(func, mesh.cone_centroids(), "tensor", (2, 2)))

    def cone_tensors(self, mesh: Mesh, cones=slice(None)) -> np.ndarray:
        """|D(K, s)| times the tensor on the cones ``cones`` (an index array
        or a slice; all by default), the 2 x 2 entries on two new last axes.
        Rows are only gathered: broadcast, by cell or by cone.  Any other
        row count than 1, n_cells or n_cones raises ``ValueError``."""
        measure = mesh.cone_measure[cones]
        rows = len(self.tensors)
        if rows == 1:
            sampled = self.tensors
        elif rows == mesh.n_cells:
            sampled = np.take(self.tensors, mesh.cone_cell[cones], axis=0)
        elif rows == mesh.n_cones:
            sampled = take_rows(self.tensors, cones)
        else:
            raise ValueError(f"tensor has {rows} rows, expected 1, {mesh.n_cells} (one per "
                             f"cell) or {mesh.n_cones} (one per cone)")
        out = np.empty(measure.shape + (2, 2))
        for d in range(2):
            for e in range(2):
                out[..., d, e] = measure * sampled[..., d, e]
        return out


def local_blocks(mesh: Mesh, tensor: TensorField, alpha: float | None = None):
    """The local flux matrices A_K, ``LOCAL_BLOCK`` consecutive cells at a
    time: yields ``(cones, block)``, the slice of those cells' cones and the
    block of ``B`` over them, a CSR matrix in cone numbers relative to
    ``cones.start`` with every entry of each k x k block stored, exact zeros
    included.

    Within a block the cells of each loop size k are one array pass, with
    the cell axis last, so every array operation runs along it.  An entry
    sums y_ij . (Lambda_i y_il) over the cones i and the components in
    ascending order, starting from zero: the order of the sparse product
    ``G^T (Lambda G)`` over the gradient operator ``G``, so both give the
    same values bit for bit.  Symmetric: the block is 0.5 (A + A^T).
    """
    a = resolve_alpha(alpha)
    ptr = mesh.cell_ptr
    dims = range(DIM)
    for c0 in range(0, mesh.n_cells, LOCAL_BLOCK):
        c1 = min(c0 + LOCAL_BLOCK, mesh.n_cells)
        sizes = np.diff(ptr[c0:c1 + 1])
        block_start = np.concatenate([[0], np.cumsum(sizes * sizes)])
        values = np.empty(block_start[-1])
        columns = np.empty(block_start[-1], dtype=np.int64)
        for k in np.unique(sizes).tolist():
            square = np.arange(k * k).reshape(k, k)
            of_size = np.flatnonzero(sizes == k)
            # cones[i, c]: cone i of cell c
            cones = np.arange(k)[:, None] + ptr[c0 + of_size]
            # y[e][i, j, c], component e of the coefficient of delta_j in the
            # gradient of cone i: grad_K = g_j, plus R for delta = [i == j].
            g = gradient_coefficients(mesh, cones)
            coef = _residuals(mesh, cones[:, None], np.eye(k)[:, :, None], g[None], a)
            normal = np.take(mesh.cone_normal, cones, axis=0)
            y = [g[None, :, :, e] + coef * normal[:, None, :, e] for e in dims]
            del g, coef, normal
            lam = tensor.cone_tensors(mesh, cones)
            ly = [sum(lam[:, None, :, d, e] * y[e] for e in dims) for d in dims]
            del lam
            b = np.zeros((k, k, len(of_size)))
            for i in range(k):
                for e in dims:
                    b += y[e][i, :, None] * ly[e][i, None, :]
            del y, ly
            at = block_start[of_size][:, None, None] + square
            values[at] = (0.5 * (b + b.transpose(1, 0, 2))).transpose(2, 0, 1)
            columns[at] = cones.T[:, None, :] - ptr[c0]
        cones = slice(int(ptr[c0]), int(ptr[c1]))
        row_ptr = np.concatenate([[0], np.cumsum(np.repeat(sizes, sizes))])
        m = cones.stop - cones.start
        yield cones, sp.csr_matrix((values, columns, row_ptr), shape=(m, m))


def rhs_cell_integrals(mesh: Mesh, f) -> np.ndarray:
    """Integral of f over every cell by the cone-centroid rule (exact for affine f)."""
    values = sample_field(f, mesh.cone_centroids(), "source")
    return segment_sums(mesh.cone_measure * values, mesh.cell_ptr)


@dataclass
class LinearSystem:
    """Sparse SPD system over the retained unknowns.

    The matrix is stored as its strict upper triangle plus diagonal; it is
    exactly symmetric by construction.  ``n`` is the numbering's unknown
    count, ``nm`` the structural nonzero count of the full matrix (both
    triangles plus the diagonal): every entry the elimination reaches,
    exact zeros included.
    """

    upper: sp.csr_matrix
    diag: np.ndarray
    rhs: np.ndarray
    numbering: UnknownNumbering
    nm: int

    @property
    def n(self) -> int:
        return self.numbering.n

    def full(self) -> sp.csr_matrix:
        return (self.upper + self.upper.T + sp.diags(self.diag)).tocsr()


def _structure(mat: sp.csr_matrix) -> sp.csr_matrix:
    """0/1 matrix of the stored entries of ``mat``, exact zeros included."""
    return sp.csr_matrix((np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape)


def _rows(mat: sp.csr_matrix, rows: slice) -> sp.csr_matrix:
    """The rows ``rows`` of the CSR matrix ``mat``, on views of its arrays."""
    ptr = mat.indptr
    span = slice(ptr[rows.start], ptr[rows.stop])
    return sp.csr_matrix((mat.data[span], mat.indices[span],
                          ptr[rows.start:rows.stop + 1] - ptr[rows.start]),
                         shape=(rows.stop - rows.start, mat.shape[1]))


def _row_blocks(mat: sp.csr_matrix):
    """``(rows, block)``: the rows of ``mat``, ``ROW_BLOCK`` at a time."""
    n = mat.shape[0]
    for first in range(0, n, ROW_BLOCK):
        rows = slice(first, min(first + ROW_BLOCK, n))
        yield rows, _rows(mat, rows)


def _local_products(mesh: Mesh, tensor: TensorField, alpha: float | None,
                    cone_map: sp.csr_matrix, consts: np.ndarray, nnz_bound: int):
    """``B E`` and ``B c[cone_face]``, one block of :func:`local_blocks` at a
    time, so the whole ``B`` is never held.  Each row of ``B E`` is the one
    the sparse product over the whole ``B`` gives, zeros dropped; at most
    ``nnz_bound`` entries are stored."""
    # 32-bit indices wherever they hold, as scipy's own products store them.
    index = np.int32 if max(nnz_bound, cone_map.shape[1]) < 2 ** 31 else np.int64
    data, indices = np.empty(nnz_bound), np.empty(nnz_bound, dtype=index)
    indptr = np.zeros(mesh.n_cones + 1, dtype=index)
    local_lift = np.empty(mesh.n_cones)
    for cones, block in local_blocks(mesh, tensor, alpha):
        rows = block @ _rows(cone_map, cones)
        at, nnz = indptr[cones.start], rows.nnz
        data[at:at + nnz] = rows.data[:nnz]
        indices[at:at + nnz] = rows.indices[:nnz]
        indptr[cones.start + 1:cones.stop + 1] = at + rows.indptr[1:]
        local_lift[cones] = block @ consts[mesh.cone_face[cones]]
    nnz = indptr[-1]
    product = sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=cone_map.shape)
    return product, local_lift


def assemble(mesh: Mesh, partition: EdgePartition,
             weights: BarycentricWeights | None, tensor: TensorField,
             source=None, dirichlet=None, alpha: float | None = None) -> LinearSystem:
    """Assemble the sparse SPD system for the composite scheme.

    ``source`` and ``dirichlet`` are scalar user fields, each called once
    on its point array (:func:`sushi.spaces.sample_field`); both optional,
    absent means zero.  Raises the errors of ``check_weights``.
    """
    numbering = numbering_for(mesh, partition)
    n = numbering.n
    expansion, consts = face_expansions(mesh, partition, weights, numbering, dirichlet)

    # C (cone -> cell incidence) and E = C - P[cone_face] of the module
    # docstring are ``cells`` and ``cone_map``.
    n_cones = mesh.n_cones
    cells = sp.csr_matrix((np.ones(n_cones), mesh.cone_cell, np.arange(n_cones + 1)),
                          shape=(n_cones, n))
    picked = expansion[mesh.cone_face]
    del expansion
    # The value product drops exact zeros, but NM counts every entry that a
    # stored weight and a local matrix entry reach: two unknowns reached from
    # the cones of one cell, the structural nonzeros of T^T T over the
    # cell-to-unknown pattern T = C^T (C + pattern(P[cone_face])); its rows
    # past the cells are empty.  C^T is converted first: a product with the
    # CSC transpose would convert the larger right operand, and return CSC.
    reach = cells.T.tocsr() @ (cells + _structure(picked))
    # The difference keeps arrays sized for the entries of both operands;
    # the copy holds only its own.
    cone_map = (cells - picked).tocsr(copy=True)
    del cells, picked
    # Row i of B E has at most as many entries as the cell of cone i reaches.
    nnz_bound = int(np.diff(mesh.cell_ptr) @ np.diff(reach.indptr[:mesh.n_cells + 1]))
    reached = reach.T.tocsr()
    index = reach.indices.dtype  # the one index type the kernel takes
    nm = int(_sparsetools.csr_matmat_maxnnz(n, n, reached.indptr.astype(index, copy=False),
                                            reached.indices.astype(index, copy=False),
                                            reach.indptr, reach.indices))
    del reach, reached

    product, local_lift = _local_products(mesh, tensor, alpha, cone_map, consts, nnz_bound)
    # E^T by rows: row u lists the cones that reach unknown u, ascending, so
    # each entry of E^T (B E) sums over the cones in the order of the sparse
    # product over the whole matrices.
    transposed = cone_map.T.tocsr()
    del cone_map
    rhs = transposed @ local_lift
    del local_lift

    # K a block of rows at a time: its diagonal and its strict upper triangle.
    diag = np.zeros(n)
    blocks = []
    for rows, block in _row_blocks(transposed):
        # Sorted in place, so each row lists its columns in order.
        part = block @ product
        part.sort_indices()
        diag[rows] = part.diagonal(k=rows.start)
        blocks.append(sp.triu(part, k=rows.start + 1, format="csr"))
    del product, transposed, part
    upper = sp.vstack(blocks, format="csr")
    del blocks
    if source is not None:
        rhs[: mesh.n_cells] += rhs_cell_integrals(mesh, source)
    return LinearSystem(upper=upper, diag=diag, rhs=rhs, numbering=numbering, nm=nm)
