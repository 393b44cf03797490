"""Shared fixtures and oracle helpers for the test suite."""

import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import sushi
from sushi.assembly import LinearSystem, local_blocks
from sushi.geometry import compute_geometry
from sushi.meshfile import write_mesh
from sushi.problems import problem_from_descriptor
from sushi.run import parse_mesh_spec, solve_problem
from sushi.spaces import UnknownNumbering


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs, on top
    of what is allocated before the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def local_matrices(mesh, tensor, alpha=None):
    """``B``: the local flux matrices A_K as one block-diagonal matrix over
    the cones, the blocks of ``local_blocks`` side by side."""
    return sp.block_diag([block for _, block in local_blocks(mesh, tensor, alpha)],
                         format="csr")


def system_from_dense(mat, rhs):
    """A ``LinearSystem`` holding the symmetric matrix ``mat``."""
    mat = np.asarray(mat, dtype=float)
    n = len(rhs)
    upper = sp.csr_matrix(np.triu(mat, k=1))
    numbering = UnknownNumbering(n_cells=n, hybrid_faces=np.array([], dtype=np.int64))
    return LinearSystem(upper=upper, diag=np.diag(mat).copy(),
                        rhs=np.asarray(rhs, dtype=float),
                        numbering=numbering, nm=int(np.count_nonzero(mat)))


def assert_same_mesh(a, b):
    """Every field of two meshes is equal, arrays with their dtype and shape."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def cell_view(mesh, k):
    """One cell's slice of the flat mesh arrays, entries in its face order."""
    cones = slice(int(mesh.cell_ptr[k]), int(mesh.cell_ptr[k + 1]))
    faces = mesh.cone_face[cones]
    return SimpleNamespace(
        id=k, cones=cones, faces=faces, loop=mesh.cone_vertex[cones],
        point=mesh.cell_point[k], measure=mesh.cell_measure[k],
        diameter=mesh.cell_diameter[k], normals=mesh.cone_normal[cones],
        dists=mesh.cone_dist[cones], face_measures=mesh.face_measure[faces],
        face_centres=mesh.face_centre[faces], cone_measures=mesh.cone_measure[cones],
    )


def cell_views(mesh):
    return [cell_view(mesh, k) for k in range(mesh.n_cells)]


def face_view(mesh, fid):
    """One face of the flat mesh arrays; ``cells`` omits the -1 of a boundary face."""
    return SimpleNamespace(
        id=fid, vertices=tuple(mesh.face_vertices[fid].tolist()),
        cells=tuple(int(c) for c in mesh.face_cells[fid] if c >= 0),
        measure=mesh.face_measure[fid], centre=mesh.face_centre[fid],
        boundary=bool(mesh.face_boundary[fid]),
    )


def face_views(mesh):
    return [face_view(mesh, f) for f in range(mesh.n_faces)]


def weights_table(mesh, rows):
    """A weight table from ``{face: [(point id, beta), ...]}``."""
    faces = sorted(rows)
    entries = [e for f in faces for e in sorted(rows[f])]
    counts = np.zeros(mesh.n_faces, dtype=np.int64)
    counts[faces] = [len(rows[f]) for f in faces]
    return sushi.BarycentricWeights(
        np.concatenate([[0], np.cumsum(counts)]),
        np.array([p for p, _ in entries], dtype=np.int64),
        np.array([b for _, b in entries], dtype=float))


def weight_rows(weights):
    """``{face: [(point id, beta), ...]}`` of the occupied rows of a weight table."""
    ptr = weights.ptr.tolist()
    return {f: list(zip(weights.points[ptr[f]:ptr[f + 1]].tolist(),
                        weights.beta[ptr[f]:ptr[f + 1]].tolist()))
            for f in range(len(ptr) - 1) if ptr[f + 1] > ptr[f]}


def build_zigzag_three_row(columns=3):
    """Three stacked rows of quads; the middle row is one cell thick with
    zigzag bounding lines, so its cell points are not collinear with the
    barycentres of its internal vertical faces.  Region map is the row
    index (1, 2, 3)."""
    xs = [float(i) for i in range(columns + 1)]

    def y1(x):
        return 0.35 + 0.06 * np.sin(1.7 * x)

    def y2(x):
        return 0.65 + 0.05 * np.cos(2.3 * x)

    verts = []
    vid = {}

    def v(x, y):
        key = (round(x, 12), round(y, 12))
        if key not in vid:
            vid[key] = len(verts)
            verts.append((x, y))
        return vid[key]

    loops = []
    regions = []
    for i in range(columns):
        x0, x1 = xs[i], xs[i + 1]
        lev0 = [0.0, y1(x0), y2(x0), 1.0]
        lev1 = [0.0, y1(x1), y2(x1), 1.0]
        for j in range(3):
            loops.append(
                [v(x0, lev0[j]), v(x1, lev1[j]), v(x1, lev1[j + 1]), v(x0, lev0[j + 1])]
            )
            regions.append(j + 1)
    mesh = compute_geometry(np.array(verts), loops)
    return mesh, np.array(regions)


def write_thin_barrier_rows(path, columns=4):
    """A unit-square mesh file of three one-cell-thick rows of quads, the
    middle one holding the tilted barrier.  Under the barrier's region map
    the internal faces of the outer rows have only their own two cells,
    not collinear with the face centre, in their region."""
    xs = np.linspace(0.0, 1.0, columns + 1)
    mid = 0.5 + 0.2 * (xs - 0.5)
    levels = np.stack([np.zeros_like(xs), mid - 0.02 + 0.006 * np.sin(7.0 * xs),
                       mid + 0.02 + 0.006 * np.cos(5.0 * xs), np.ones_like(xs)], axis=1)
    # vertex 4 i + j is level j at xs[i]
    vertices = np.stack([np.repeat(xs, 4), levels.ravel()], axis=1)
    loops = [[4 * i + j, 4 * i + j + 4, 4 * i + j + 5, 4 * i + j + 1]
             for i in range(columns) for j in range(3)]
    write_mesh(compute_geometry(vertices, loops), path)


def zigzag_partition(columns):
    """The zigzag mesh, its region map and the partition ``solve_problem``
    solves it on under ``discontinuity``.  Each outer row is one cell thick,
    so its internal faces have only their two non-collinear cells in their
    region: ``compute_weights`` makes those ``2 (columns - 1)`` faces hybrid."""
    mesh, regions = build_zigzag_three_row(columns)
    zero = problem_from_descriptor({"name": "zero", "tensor": {"constant": np.eye(2).tolist()}})
    return mesh, regions, solve_problem(zero, mesh, regions, "discontinuity").partition


def two_point_reference(mesh, lam, kind):
    """Classical two-point cell matrix: harmonic or arithmetic averaging."""
    n = mesh.n_cells
    mat = np.zeros((n, n))
    for fid in range(mesh.n_faces):
        measure = mesh.face_measure[fid]
        if mesh.face_boundary[fid]:
            k = mesh.face_cells[fid, 0]
            dk = mesh.cone_dist[mesh.face_cones[fid, 0]]
            mat[k, k] += lam[k] * measure / dk
        else:
            k, l = mesh.face_cells[fid]
            dk, dl = mesh.cone_dist[mesh.face_cones[fid]]
            if kind == "harmonic":
                t = measure * lam[k] * lam[l] / (lam[k] * dl + lam[l] * dk)
            else:
                t = (dk * lam[k] + dl * lam[l]) / (dk + dl) * measure / (dk + dl)
            mat[k, k] += t
            mat[l, l] += t
            mat[k, l] -= t
            mat[l, k] -= t
    return mat


def smooth_tensor(p):
    """A smooth SPD tensor field, [[1 + x, 0.2], [0.2, 2 + y]]."""
    off = np.full_like(p[0], 0.2)
    return np.array([[1.0 + p[0], off], [off, 2.0 + p[1]]])


def anisotropic_per_cell(mesh, rng):
    """A different full SPD tensor on every cell."""
    a, b = rng.uniform(0.5, 2.0, (2, mesh.n_cells))
    c = rng.uniform(-0.3, 0.3, mesh.n_cells)
    return sushi.TensorField(
        np.stack([np.stack([a, c], -1), np.stack([c, b], -1)], 1))


def polygon_soup(rng, copies=5):
    """Vertices and loops of disjoint cells of 3 to 8 vertices in shuffled
    order, ``copies`` of each size, each a jittered regular polygon, so loops
    of every size sit side by side."""
    sizes = rng.permutation(np.repeat(np.arange(3, 9), copies))
    vertices, loops = [], []
    for c, k in enumerate(sizes):
        angle = (np.arange(k) + rng.uniform(-0.3, 0.3, k)) * (2.0 * np.pi / k)
        radius = rng.uniform(0.8, 1.0, k)
        loops.append(list(range(len(vertices), len(vertices) + k)))
        vertices += (np.stack([np.cos(angle), np.sin(angle)], 1) * radius[:, None]
                     + [3.0 * c, 0.0]).tolist()
    return np.array(vertices), loops


def jittered_file_mesh(rng, path, spec="rect:6x5"):
    """``spec`` with its interior vertices moved, read back as ``file:``."""
    mesh, _, _ = parse_mesh_spec(spec)
    vertices = mesh.vertices.copy()
    inner = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[inner] += rng.uniform(-0.03, 0.03, (int(inner.sum()), 2))
    write_mesh(compute_geometry(vertices, mesh.loops()), path)
    return parse_mesh_spec(f"file:{path}")[0]


def random_zero_boundary(mesh, rng):
    """Random grid function with zero boundary face values."""
    from sushi.spaces import DiscreteFunction

    cv = rng.standard_normal(mesh.n_cells)
    fv = rng.standard_normal(mesh.n_faces)
    fv[mesh.face_boundary] = 0.0
    return DiscreteFunction(cv, fv)
