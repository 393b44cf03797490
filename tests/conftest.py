"""Shared fixtures and oracle helpers for the test suite."""

from types import SimpleNamespace

import numpy as np
import pytest

import sushi
from sushi.geometry import compute_geometry


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def cell_view(mesh, k):
    """One cell's slice of the flat mesh arrays, entries in its face order."""
    cones = mesh.cones(k)
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


def random_zero_boundary(mesh, rng):
    """Random grid function with zero boundary face values."""
    from sushi.spaces import DiscreteFunction

    cv = rng.standard_normal(mesh.n_cells)
    fv = rng.standard_normal(mesh.n_faces)
    fv[mesh.face_boundary] = 0.0
    return DiscreteFunction(cv, fv)
