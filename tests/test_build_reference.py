"""The blocked build stages against the whole-array code they replaced.

``compute_geometry`` now computes its measures, centroids, diameters,
normals and distances a block of cells at a time, and ``assemble``
multiplies ``B E`` one block of cells at a time and ``E^T (B E)`` one block
of rows at a time.  The references below are the earlier implementations,
which held every cone-length temporary, the whole ``B``, ``B E`` and a
second copy of K at once.  Both sum in the same order, so every array they
return must be equal, with its dtype: every ``Mesh`` field, and ``upper``,
``diag``, ``rhs`` and ``nm`` of the system.
"""

from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    anisotropic_per_cell,
    assert_same_mesh,
    local_matrices,
    polygon_soup,
    smooth_tensor,
)
from sushi.assembly import LOCAL_BLOCK, ROW_BLOCK, TensorField, assemble
from sushi.errors import DegenerateFace, InvalidTopology, NonStarShaped
from sushi.generators import barrier_region
from sushi.geometry import (
    DIST_REL_TOL,
    GEOMETRY_BLOCK,
    Mesh,
    compute_geometry,
    segment_sums,
)
from sushi.problems import problem_anisotropic_smooth, problem_tilted_barrier
from sushi.run import parse_mesh_spec
from sushi.spaces import compute_weights, face_expansions, numbering_for, partition_faces


def _first(mask):
    return int(np.nonzero(mask)[0][0])


def reference_compute_geometry(vertices, loops, cell_points=None):
    """Every cone-length array of the mesh at once."""
    vertices = np.asarray(vertices, dtype=float)
    nv = len(vertices)
    d = 2
    if isinstance(loops, np.ndarray):
        sizes = np.full(len(loops), loops.shape[1], dtype=np.int64)
        a = loops.astype(np.int64).ravel()
    else:
        sizes = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
        a = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=int(sizes.sum()))
    cell_ptr = np.concatenate([[0], np.cumsum(sizes)])
    n_cells, n_cones = len(sizes), int(cell_ptr[-1])
    cone_cell = np.repeat(np.arange(n_cells), sizes)
    if cell_points is not None:
        cell_points = np.asarray(cell_points, dtype=float)
    nxt = np.arange(1, n_cones + 1)
    nxt[cell_ptr[1:] - 1] = cell_ptr[:-1]
    b = a[nxt]

    _, first, inverse = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cone_face = rank[inverse.ravel()]
    face_first = first[order]
    n_faces = len(order)
    counts = np.bincount(cone_face, minlength=n_faces)
    by_face = np.argsort(cone_face, kind="stable")
    starts = np.cumsum(counts) - counts
    face_cones = np.full((n_faces, 2), -1, dtype=np.int64)
    face_cones[:, 0] = by_face[starts]
    shared = counts == 2
    face_cones[shared, 1] = by_face[starts[shared] + 1]
    face_cells = np.where(face_cones >= 0, cone_cell[face_cones], -1)

    pts = vertices[a]
    origin = segment_sums(pts, cell_ptr) / sizes[:, None]
    q = pts - origin[cone_cell]
    qn = q[nxt]
    cross = q[:, 0] * qn[:, 1] - q[:, 1] * qn[:, 0]
    area = 0.5 * segment_sums(cross, cell_ptr)
    tri_centroids = origin[cone_cell] + (q + qn) / 3.0
    centroid = segment_sums(cross[:, None] * tri_centroids, cell_ptr) / (2.0 * area[:, None])
    loop_size, first = sizes[cone_cell], cell_ptr[cone_cell]
    local = np.arange(n_cones) - first
    diam = np.zeros(n_cells)
    for s in range(1, int(sizes.max()) // 2 + 1):
        diff = pts - pts[first + (local + s) % loop_size]
        diam = np.maximum(diam, np.maximum.reduceat(np.sqrt((diff ** 2).sum(axis=1)),
                                                    cell_ptr[:-1]))
    xk = centroid if cell_points is None else cell_points

    t = vertices[b] - pts
    length = np.sqrt((t * t).sum(axis=1))
    assert not np.any(length <= DIST_REL_TOL * diam[cone_cell])
    normal = np.stack([t[:, 1], -t[:, 0]], axis=1) / length[:, None]
    face_centre = 0.5 * (pts[face_first] + vertices[b[face_first]])
    dist = ((face_centre[cone_face] - xk[cone_cell]) * normal).sum(axis=1)
    return Mesh(
        vertices=vertices,
        face_vertices=np.stack([a[face_first], b[face_first]], axis=1),
        face_cells=face_cells, face_cones=face_cones,
        face_measure=length[face_first], face_centre=face_centre,
        cell_point=np.array(xk, dtype=float), cell_measure=area, cell_diameter=diam,
        cell_ptr=cell_ptr, cone_cell=cone_cell, cone_face=cone_face, cone_vertex=a,
        cone_normal=normal, cone_dist=dist, cone_measure=length * dist / d,
        cell_points_given=cell_points is not None,
    )


def reference_assemble(mesh, partition, weights, tensor, source=None, dirichlet=None,
                       alpha=None):
    """``E^T B E`` as whole sparse products over the whole ``B``."""
    numbering = numbering_for(mesh, partition)
    n = numbering.n
    expansion, consts = face_expansions(mesh, partition, weights, numbering, dirichlet)
    n_cones = mesh.n_cones
    cells = sp.csr_matrix((np.ones(n_cones), (np.arange(n_cones), mesh.cone_cell)),
                          shape=(n_cones, n))
    picked = expansion[mesh.cone_face]
    cone_map = (cells - picked).tocsr()
    pattern = sp.csr_matrix((np.ones(picked.nnz), picked.indices, picked.indptr),
                            shape=picked.shape)
    reach = cells.T @ (cells + pattern)
    nm = (reach.T @ reach).nnz
    local = local_matrices(mesh, tensor, alpha)
    mat = (cone_map.T @ (local @ cone_map)).tocsr()
    rhs = cone_map.T @ (local @ consts[mesh.cone_face])
    if source is not None:
        rhs[: mesh.n_cells] += segment_sums(
            mesh.cone_measure * source(mesh.cone_centroids().T), mesh.cell_ptr)
    return sp.triu(mat, 1, format="csr"), mat.diagonal(), rhs, nm


def assert_same_array(got, ref, name):
    assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
    assert np.array_equal(got, ref), name


GEOMETRY_CASES = ["rect:8x6", "tri:4", "ncrect:2", "barrier:1", "barrier:2", "barrier:3",
                  "rect:128x128", "ncrect:17", "soup"]


@pytest.mark.parametrize("spec", GEOMETRY_CASES)
def test_compute_geometry_equals_whole_array_reference(spec, rng):
    if spec == "soup":
        vertices, loops = polygon_soup(rng, copies=800)
        assert len(loops) > GEOMETRY_BLOCK
    else:
        mesh, _, _ = parse_mesh_spec(spec)
        vertices, loops = mesh.vertices, mesh.loops()
    assert_same_mesh(compute_geometry(vertices, loops),
                     reference_compute_geometry(vertices, loops))
    if spec.startswith("rect"):
        grid = np.array(loops)
        assert_same_mesh(compute_geometry(vertices, grid),
                         reference_compute_geometry(vertices, grid))
    # given cell points: halfway between the centroid and the vertex average
    mesh = compute_geometry(vertices, loops)
    average = segment_sums(vertices[mesh.cone_vertex], mesh.cell_ptr) \
        / np.diff(mesh.cell_ptr)[:, None]
    points = 0.5 * (mesh.cell_point + average)
    assert_same_mesh(compute_geometry(vertices, loops, cell_points=points),
                     reference_compute_geometry(vertices, loops, cell_points=points))


@pytest.mark.parametrize("loops,error", [
    ([[0, 1, 4, 5], [1, 2, 3, 4], [2, 1, 0]], InvalidTopology),
    ([[0, 1, 4, 5], [1, 2, 3, 4], [6, 7, 8, 9]], DegenerateFace),
], ids=["flat", "degenerate"])
def test_first_failing_check_wins_across_blocks(loops, error, monkeypatch):
    # the area check precedes the face check, and a cell point outside its
    # cell is reported only once every face has a measure, even when the
    # failures lie in different blocks
    monkeypatch.setattr("sushi.geometry.GEOMETRY_BLOCK", 1)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                         [0.0, 1.0], [5.0, 5.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0]])
    points = np.array([[-1.0, 0.5], [1.5, 0.5], [5.2, 5.2]])
    with pytest.raises(error):
        compute_geometry(vertices, loops, cell_points=points)
    with pytest.raises(NonStarShaped, match="cell 0"):
        compute_geometry(vertices, loops[:2], cell_points=points[:2])


ASSEMBLY_CASES = [(spec, policy)
                  for spec in ["rect:8x6", "tri:4", "ncrect:2", "barrier:1", "barrier:2",
                               "barrier:3"]
                  for policy in ["all-barycentric", "all-hybrid", "discontinuity"]]
# Meshes with more cells than LOCAL_BLOCK and ROW_BLOCK: several blocks of each.
SEVERAL_BLOCKS = [("ncrect:17", "all-barycentric"), ("rect:70x64", "discontinuity")]
ASSEMBLY_CASES += SEVERAL_BLOCKS


@pytest.mark.parametrize("spec,policy", ASSEMBLY_CASES)
def test_assemble_equals_whole_product_reference(spec, policy, rng):
    mesh, regions, _ = parse_mesh_spec(spec)
    if regions is None:
        regions = barrier_region(mesh.cell_point[:, 0], mesh.cell_point[:, 1])
    prob = problem_tilted_barrier() if spec.startswith("barrier") \
        else problem_anisotropic_smooth()
    part = partition_faces(mesh, policy, regions)
    weights = compute_weights(mesh, part, regions) if part.barycentric_faces() else None
    if (spec, policy) in SEVERAL_BLOCKS:
        assert mesh.n_cells > max(LOCAL_BLOCK, ROW_BLOCK)
    for tensor in (prob.make_tensor(mesh, regions), anisotropic_per_cell(mesh, rng),
                   TensorField.from_callable(smooth_tensor, mesh)):
        system = assemble(mesh, part, weights, tensor, source=prob.source,
                          dirichlet=prob.dirichlet)
        upper, diag, rhs, nm = reference_assemble(mesh, part, weights, tensor,
                                                  source=prob.source,
                                                  dirichlet=prob.dirichlet)
        for name in ("data", "indices", "indptr"):
            assert_same_array(getattr(system.upper, name), getattr(upper, name), name)
        assert_same_array(system.diag, diag, "diag")
        assert_same_array(system.rhs, rhs, "rhs")
        assert system.nm == nm
