"""The sparse-product assembly against the cell/face triplet loop it replaced.

The reference below is the earlier implementation: per-face expansion
lists, a four-deep loop over cells, local face pairs and expansion
entries, and a canonical coalescing of the triplets.
Sums now run in a different order, so values are compared within a
tolerance fixed from the float64 epsilon (``REL_TOL`` times the largest
magnitude); the structural counts must match exactly.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import build_zigzag_three_row
from sushi.assembly import assemble, local_matrix, rhs_cell_integral
from sushi.gradient import resolve_alpha
from sushi.postproc import reconstruct_faces
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


def reference_face_expansions(mesh, partition, weights, numbering, dirichlet=None):
    expans = [[] for _ in range(mesh.n_faces)]
    consts = np.zeros(mesh.n_faces)
    for f in mesh.faces:
        tag = partition.tags[f.id]
        if tag == HYBRID:
            expans[f.id] = [(numbering.face_index[f.id], 1.0)]
        elif tag == BARYCENTRIC:
            expans[f.id] = [
                (idx if kind == "cell" else numbering.face_index[idx], beta)
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
    for cell in mesh.cells:
        lm = local_matrix(mesh, cell.id, tensor, a)
        k = len(cell.faces)
        if source is not None:
            rhs[cell.id] += rhs_cell_integral(mesh, cell.id, source)
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
]


def build_case(spec, policy):
    if spec == "zigzag":
        mesh, regions = build_zigzag_three_row(columns=4)
    else:
        mesh, regions, _ = parse_mesh_spec(spec)
    prob = problem_tilted_barrier() if regions is not None else problem_anisotropic_smooth()
    part = partition_faces(mesh, policy, regions)
    weights = compute_weights(mesh, part, regions) if part.barycentric_faces() else None
    return mesh, part, weights, prob.make_tensor(mesh, regions), prob


@pytest.mark.parametrize("spec,policy", CASES)
def test_assemble_matches_triplet_loop(spec, policy):
    mesh, part, weights, tensor, prob = build_case(spec, policy)
    system = assemble(mesh, part, weights, tensor,
                      source=prob.source, dirichlet=prob.dirichlet)
    rows, cols, vals, rhs, numbering = reference_triplets(
        mesh, part, weights, tensor, source=prob.source, dirichlet=prob.dirichlet
    )
    assert system.numbering == numbering
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
    assert far not in {idx for _, idx, _ in weights.support[fid]}
    weights.support[fid] = weights.support[fid] + [("cell", far, 0.0)]
    rows, _, _, _, _ = reference_triplets(mesh, part, weights, tensor)
    assert assemble(mesh, part, weights, tensor).nm == len(rows) > before
