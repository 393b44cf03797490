"""The whole-mesh operators against the per-cell loops they replaced.

The references below are the earlier implementations, fed from a per-cell
view of the flat mesh arrays: the cone vectors ``Y`` of each cell, its
local matrix ``Y^T Lambda Y``, its fluxes, its cell and cone gradients
and its source integral; and for assembly the per-face expansion lists,
a four-deep loop over cells, local face pairs and expansion entries, and
a canonical coalescing of the triplets.
Sums now run in a different order, so values are compared within a
tolerance fixed from the float64 epsilon (``REL_TOL`` times the largest
magnitude); the structural counts must match exactly.

The local flux matrices are also held to the sparse products
``G^T (Lambda G)`` they replaced (:func:`reference_local_matrices`), which
sum in the same order: there every value must be equal, bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    build_zigzag_three_row,
    cell_views,
    face_views,
    random_zero_boundary,
    weight_rows,
    weights_table,
)
from sushi.assembly import (
    LOCAL_BLOCK,
    TensorField,
    assemble,
    local_matrices,
    rhs_cell_integrals,
)
from sushi.geometry import _cone_pairs
from sushi.gradient import (
    _residuals,
    cell_gradients,
    gradient_coefficients,
    gradient_field,
    resolve_alpha,
)
from sushi.postproc import cone_fluxes, reconstruct_faces
from sushi.problems import problem_anisotropic_smooth, problem_tilted_barrier
from sushi.run import parse_mesh_spec
from sushi.spaces import (
    BARYCENTRIC,
    DIRICHLET,
    HYBRID,
    compute_weights,
    numbering_for,
    partition_faces,
)

REL_TOL = 1e-14


def reference_cone_vectors(c, alpha):
    """(k, k, d) ``Y``: grad(K, sigma_i) u = sum_j (u_{sigma_j} - u_K) Y[i, j]."""
    g = (c.face_measures[:, None] * c.normals) / c.measure
    proj = (c.face_centres - c.point) @ g.T
    coef = (np.eye(len(c.faces)) - proj) * (alpha / c.dists)[:, None]
    return g[None, :, :] + coef[:, :, None] * c.normals[:, None, :]


def reference_gradient_operator(mesh, alpha=None):
    """Sparse ``G`` (d n_cones x n_cones, block-diagonal by cell): the cone
    gradients are ``(G @ delta).reshape(-1, d)``, row ``d i + a`` holding
    component ``a`` of cone ``i``."""
    a = resolve_alpha(alpha, mesh.dim)
    g = gradient_coefficients(mesh)
    # The coefficient of delta_j in R(K, sigma_i) u: R for delta = [i == j], grad_K = g_j.
    i, j = _cone_pairs(mesh.cell_ptr, mesh.cone_cell)
    coef = _residuals(mesh, i, np.where(i == j, 1.0, 0.0), g[j], a)
    y = g[j] + coef[:, None] * mesh.cone_normal[i]
    d = mesh.dim
    rows = (d * i[:, None] + np.arange(d)).ravel()
    return sp.csr_matrix((y.ravel(), (rows, np.repeat(j, d))),
                         shape=(d * mesh.n_cones, mesh.n_cones))


def reference_local_matrices(mesh, tensor, alpha=None):
    """``B = G^T Lambda G`` by two sparse products, symmetrized; the product
    drops the entries that sum to exactly zero."""
    grad = reference_gradient_operator(mesh, alpha)
    n = mesh.n_cones
    lam = sp.bsr_matrix((tensor.cone_tensors(mesh), np.arange(n), np.arange(n + 1)),
                        shape=(2 * n, 2 * n))
    mat = (grad.T @ (lam @ grad)).tocsr()
    return 0.5 * (mat + mat.T)


def reference_cone_tensors(tensor, c):
    """|D(K, s)| times the tensor: a callable sampled at cone centroids."""
    if tensor.func is not None:
        out = np.empty((len(c.faces), 2, 2))
        for i, centroid in enumerate((c.point[None, :] + 2.0 * c.face_centres) / 3.0):
            out[i] = c.cone_measures[i] * np.asarray(tensor.func(centroid), dtype=float)
        return out
    cell = tensor.tensors[c.id if len(tensor.tensors) > 1 else 0]
    return c.cone_measures[:, None, None] * cell[None, :, :]


def reference_local_matrix(c, tensor, alpha):
    y = reference_cone_vectors(c, alpha)
    a = np.einsum("ija,iab,ikb->jk", y, reference_cone_tensors(tensor, c), y)
    return 0.5 * (a + a.T)


def reference_flux(c, local_mat, u):
    return local_mat @ (u.cell_values[c.id] - u.face_values[c.faces])


def reference_cell_gradient(c, u):
    g = (c.face_measures[:, None] * c.normals) / c.measure
    return (u.face_values[c.faces] - u.cell_values[c.id]) @ g


def reference_cone_gradients(c, u, alpha):
    return (u.face_values[c.faces] - u.cell_values[c.id]) @ reference_cone_vectors(c, alpha)


def reference_rhs_cell_integral(c, f):
    centroids = (c.point[None, :] + 2.0 * c.face_centres) / 3.0
    return float(c.cone_measures @ np.array([f(x) for x in centroids]))


def reference_face_expansions(mesh, partition, weights, numbering, dirichlet=None):
    face_index = {int(f): numbering.n_cells + i for i, f in enumerate(numbering.hybrid_faces)}
    expans = [[] for _ in range(mesh.n_faces)]
    consts = np.zeros(mesh.n_faces)
    for f in face_views(mesh):
        tag = partition.tags[f.id]
        if tag == HYBRID:
            expans[f.id] = [(face_index[f.id], 1.0)]
        elif tag == BARYCENTRIC:
            expans[f.id] = [
                (idx if kind == "cell" else face_index[idx], beta)
                for kind, idx, beta in weights.support[f.id]
            ]
        elif tag == DIRICHLET:
            consts[f.id] = dirichlet(f.centre) if dirichlet is not None else 0.0
    return expans, consts


def reference_triplets(mesh, partition, weights, tensor, source=None,
                       dirichlet=None, alpha=None):
    """Coalesced triplets of the full matrix, every touched entry included."""
    a = resolve_alpha(alpha, mesh.dim)
    numbering = numbering_for(mesh, partition)
    expans, consts = reference_face_expansions(mesh, partition, weights,
                                               numbering, dirichlet)
    rows, cols, vals = [], [], []
    rhs = np.zeros(numbering.n)
    for cell in cell_views(mesh):
        lm = reference_local_matrix(cell, tensor, a)
        k = len(cell.faces)
        if source is not None:
            rhs[cell.id] += reference_rhs_cell_integral(cell, source)
        factors = []
        for i in range(k):
            fac = [(cell.id, 1.0)]
            fac.extend((col, -coeff) for col, coeff in expans[int(cell.faces[i])])
            factors.append(fac)
        for i in range(k):
            for j in range(k):
                a_ij = lm[i, j]
                fid_j = int(cell.faces[j])
                for row, t in factors[i]:
                    for col, s in factors[j]:
                        rows.append(row)
                        cols.append(col)
                        vals.append((t * s) * a_ij)
                    if consts[fid_j] != 0.0:
                        rhs[row] += t * a_ij * consts[fid_j]
    rows_a = np.asarray(rows, dtype=np.int64)
    cols_a = np.asarray(cols, dtype=np.int64)
    vals_a = np.asarray(vals, dtype=float)
    order = np.lexsort((vals_a, cols_a, rows_a))
    rows_a, cols_a, vals_a = rows_a[order], cols_a[order], vals_a[order]
    change = (rows_a[1:] != rows_a[:-1]) | (cols_a[1:] != cols_a[:-1])
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
    sums = np.add.reduceat(vals_a, starts)
    return rows_a[starts], cols_a[starts], sums, rhs, numbering


def reference_face_values(mesh, partition, weights, solution, numbering, dirichlet=None):
    expans, consts = reference_face_expansions(mesh, partition, weights,
                                               numbering, dirichlet)
    face_values = consts.tolist()
    for fid, entries in enumerate(expans):
        for idx, coeff in entries:
            face_values[fid] += coeff * solution[idx]
    return np.array(face_values)


CASES = [
    ("rect:8x6", "all-hybrid"),
    ("rect:8x6", "all-barycentric"),
    ("tri:4", "all-hybrid"),
    ("tri:4", "all-barycentric"),
    ("ncrect:2", "all-hybrid"),
    ("ncrect:2", "all-barycentric"),
    ("barrier:1", "discontinuity"),
    ("zigzag", "discontinuity"),
    ("callable", "all-hybrid"),
]


def sampled_tensor(p):
    """The smooth tensor of ``test_smooth_tensor_sampled_at_cone_centroids``."""
    off = np.full_like(p[0], 0.2)
    return np.array([[1.0 + p[0], off], [off, 2.0 + p[1]]])


def build_case(spec, policy):
    if spec == "zigzag":
        mesh, regions = build_zigzag_three_row(columns=4)
    elif spec == "callable":
        mesh, regions, _ = parse_mesh_spec("rect:3x3")
    else:
        mesh, regions, _ = parse_mesh_spec(spec)
    prob = problem_tilted_barrier() if regions is not None else problem_anisotropic_smooth()
    part = partition_faces(mesh, policy, regions)
    weights = compute_weights(mesh, part, regions) if part.barycentric_faces() else None
    if spec == "callable":
        return mesh, part, weights, TensorField.from_callable(sampled_tensor), prob
    return mesh, part, weights, prob.make_tensor(mesh, regions), prob


def within_tol(got, ref):
    return np.abs(np.asarray(got) - ref).max() <= REL_TOL * np.abs(ref).max()


@pytest.mark.parametrize("spec,policy", CASES)
def test_local_matrices_match_cell_loop(spec, policy):
    mesh, _, _, tensor, _ = build_case(spec, policy)
    a = resolve_alpha(None, mesh.dim)
    local = local_matrices(mesh, tensor, a).tocoo()
    # block-diagonal by cell, and each block is the cell's Y^T Lambda Y
    assert np.array_equal(mesh.cone_cell[local.row], mesh.cone_cell[local.col])
    local = local.tocsr()
    got = [local[c.cones, c.cones].toarray() for c in cell_views(mesh)]
    ref = [reference_local_matrix(c, tensor, a) for c in cell_views(mesh)]
    assert within_tol(np.concatenate([g.ravel() for g in got]),
                      np.concatenate([r.ravel() for r in ref]))
    assert all(np.array_equal(g, g.T) for g in got)


# alpha enters the cone gradients and the fluxes through R; the default
# alpha keeps the bare case ids.
ALPHA_CASES = [pytest.param(spec, policy, alpha,
                            id=f"{spec}-{policy}" + ("" if alpha is None else f"-alpha{alpha}"))
               for alpha in (None, 0.3, 5.0) for spec, policy in CASES]


def anisotropic_per_cell(mesh, rng):
    """A different full SPD tensor on every cell."""
    a, b = rng.uniform(0.5, 2.0, (2, mesh.n_cells))
    c = rng.uniform(-0.3, 0.3, mesh.n_cells)
    return TensorField.from_per_cell(np.stack([np.stack([a, c], -1), np.stack([c, b], -1)], 1))


def assert_bit_identical(got, ref):
    """Every entry ``ref`` stores is equal in ``got``; every other entry of
    ``got`` is exactly 0.0."""
    got, ref = got.tocoo(), ref.tocoo()
    n = got.shape[1]
    got_keys = got.row.astype(np.int64) * n + got.col
    ref_keys = ref.row.astype(np.int64) * n + ref.col
    order = np.argsort(got_keys)
    got_keys, got_values = got_keys[order], got.data[order]
    assert np.all(np.diff(got_keys) > 0)  # no duplicates
    at = np.searchsorted(got_keys, ref_keys)
    assert np.array_equal(got_keys[np.minimum(at, len(got_keys) - 1)], ref_keys)
    assert np.array_equal(got_values[at], ref.data)
    only_got = np.ones(len(got_keys), dtype=bool)
    only_got[at] = False
    assert np.all(got_values[only_got] == 0.0)


@pytest.mark.parametrize("spec,policy,alpha", ALPHA_CASES)
def test_local_matrices_equal_sparse_product(spec, policy, alpha, rng):
    mesh, _, _, tensor, _ = build_case(spec, policy)
    for field in (tensor, anisotropic_per_cell(mesh, rng)):
        assert_bit_identical(local_matrices(mesh, field, alpha),
                             reference_local_matrices(mesh, field, alpha))


def test_local_matrices_equal_sparse_product_over_several_blocks(rng):
    mesh, _, _ = parse_mesh_spec("rect:128x128")
    assert mesh.n_cells > 4 * LOCAL_BLOCK
    for field in (problem_anisotropic_smooth().make_tensor(mesh),
                  anisotropic_per_cell(mesh, rng)):
        assert_bit_identical(local_matrices(mesh, field), reference_local_matrices(mesh, field))


@pytest.mark.parametrize("spec,policy,alpha", ALPHA_CASES)
def test_fluxes_and_gradients_match_cell_loop(spec, policy, alpha, rng):
    mesh, _, _, tensor, _ = build_case(spec, policy)
    a = resolve_alpha(alpha, mesh.dim)
    u = random_zero_boundary(mesh, rng)
    cells = cell_views(mesh)

    ref_fluxes = np.concatenate(
        [reference_flux(c, reference_local_matrix(c, tensor, a), u) for c in cells])
    assert within_tol(cone_fluxes(mesh, tensor, u, a), ref_fluxes)

    ref_cones = np.concatenate([reference_cone_gradients(c, u, a) for c in cells])
    assert within_tol(gradient_field(mesh, u, a).cones, ref_cones)
    ref_cell = np.array([reference_cell_gradient(c, u) for c in cells])
    assert within_tol(cell_gradients(mesh, u), ref_cell)

    # G itself holds each cell's Y as its diagonal block
    grad = reference_gradient_operator(mesh, a).tocsr()
    d = mesh.dim
    got_y, ref_y = [], []
    for c in cells:
        k = len(c.faces)
        block = grad[d * c.cones.start:d * c.cones.stop, c.cones].toarray()
        got_y.append(block.reshape(k, d, k).transpose(0, 2, 1).ravel())
        ref_y.append(reference_cone_vectors(c, a).ravel())
    assert within_tol(np.concatenate(got_y), np.concatenate(ref_y))
    assert grad.nnz == d * sum(len(c.faces) ** 2 for c in cells)

    source = problem_anisotropic_smooth().source
    ref_rhs = np.array([reference_rhs_cell_integral(c, source) for c in cells])
    assert within_tol(rhs_cell_integrals(mesh, source), ref_rhs)


@pytest.mark.parametrize("spec,policy", CASES)
def test_assemble_matches_triplet_loop(spec, policy):
    mesh, part, weights, tensor, prob = build_case(spec, policy)
    system = assemble(mesh, part, weights, tensor,
                      source=prob.source, dirichlet=prob.dirichlet)
    rows, cols, vals, rhs, numbering = reference_triplets(
        mesh, part, weights, tensor, source=prob.source, dirichlet=prob.dirichlet
    )
    assert system.numbering.n_cells == numbering.n_cells
    assert system.numbering.hybrid_faces.tolist() == sorted(part.hybrid_faces())
    assert system.nm == len(rows)
    if spec == "zigzag":
        # the one case whose weights reach hybrid-face unknowns
        assert any(kind == "face" for entries in weights.support.values()
                   for kind, _, _ in entries)
    if spec == "barrier:1":
        assert np.any(rhs != 0.0)  # the Dirichlet lift is exercised

    full = system.full().tocoo()
    stored = set(zip(full.row.tolist(), full.col.tolist()))
    reference = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    assert stored <= set(reference)
    # entries the value product leaves out are the reference's exact zeros
    assert all(reference[rc] == 0.0 for rc in set(reference) - stored)

    ref_mat = sp.csr_matrix((vals, (rows, cols)), shape=(system.n, system.n))
    scale = np.abs(vals).max()
    assert np.abs((system.full() - ref_mat).toarray()).max() <= REL_TOL * scale
    assert np.abs(system.rhs - rhs).max() <= REL_TOL * np.abs(rhs).max()


@pytest.mark.parametrize("spec,policy", CASES)
def test_reconstruct_faces_matches_loop(spec, policy, rng):
    mesh, part, weights, _, prob = build_case(spec, policy)
    numbering = numbering_for(mesh, part)
    x = rng.standard_normal(numbering.n)
    got = reconstruct_faces(mesh, part, weights, x, numbering, dirichlet=prob.dirichlet)
    ref = reference_face_values(mesh, part, weights, x.tolist(), numbering, prob.dirichlet)
    assert np.array_equal(got.cell_values, x[: mesh.n_cells])
    assert np.abs(got.face_values - ref).max() <= REL_TOL * np.abs(ref).max()


def test_nm_counts_a_stored_zero_weight():
    # a weight stored as an exact zero still reaches its unknown in NM
    mesh, part, weights, tensor, _ = build_case("rect:8x6", "all-barycentric")
    before = assemble(mesh, part, weights, tensor).nm
    fid = part.barycentric_faces()[0]
    far = mesh.n_cells - 1
    rows = weight_rows(weights)
    assert far not in {p for p, _ in rows[fid]}
    weights = weights_table(mesh, {**rows, fid: rows[fid] + [(far, 0.0)]})
    rows, _, _, _, _ = reference_triplets(mesh, part, weights, tensor)
    assert assemble(mesh, part, weights, tensor).nm == len(rows) > before
