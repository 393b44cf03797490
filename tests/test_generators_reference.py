"""The array-built generators against the per-cell loops they replaced.

The references below are the earlier generators: per-vertex and per-cell
comprehensions, and for the nonconforming grid a vertex dictionary keyed
by rounded coordinates plus a table of interface edge refinements that is
applied to every loop before the geometry is built.  Each family must
give the same mesh at every size, every array with its dtype.
"""

import numpy as np
import pytest

import sushi
from conftest import assert_same_mesh
from sushi.generators import _barrier_levels, barrier_region
from sushi.geometry import compute_geometry


def reference_rect(nx, ny):
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    vertices = np.array([[xs[i], ys[j]] for j in range(ny + 1) for i in range(nx + 1)])
    loops = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(ny) for i in range(nx)]
    return compute_geometry(vertices, loops)


def reference_tri(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    vertices = np.array([[xs[i], xs[j]] for j in range(n + 1) for i in range(n + 1)])
    loops = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            loops.append([a, b, c])
            loops.append([a, c, d])
    return compute_geometry(vertices, loops)


def apply_splits(loop, splits):
    """Insert the recorded hanging vertices into every refined edge of a loop."""
    out = []
    for i in range(len(loop)):
        a, b = loop[i], loop[(i + 1) % len(loop)]
        out.append(a)
        if (a, b) in splits:
            out.extend(splits[(a, b)])
        elif (b, a) in splits:
            out.extend(reversed(splits[(b, a)]))
    return out


def reference_nonconforming_rect(n):
    rows_l, rows_r, cols = 3 * n, 5 * n, 2 * n
    verts, index = [], {}

    def vid(x, y):
        key = (round(x, 12), round(y, 12))
        if key not in index:
            index[key] = len(verts)
            verts.append((x, y))
        return index[key]

    loops = []
    for j in range(rows_l):
        for i in range(cols):
            x0, x1 = i / (2 * cols), (i + 1) / (2 * cols)
            y0, y1 = j / rows_l, (j + 1) / rows_l
            loops.append([vid(x0, y0), vid(x1, y0), vid(x1, y1), vid(x0, y1)])
    for j in range(rows_r):
        for i in range(cols):
            x0, x1 = 0.5 + i / (2 * cols), 0.5 + (i + 1) / (2 * cols)
            y0, y1 = j / rows_r, (j + 1) / rows_r
            loops.append([vid(x0, y0), vid(x1, y0), vid(x1, y1), vid(x0, y1)])

    splits = {}
    levels_l = [j / rows_l for j in range(rows_l + 1)]
    levels_r = [j / rows_r for j in range(rows_r + 1)]

    def record(own_levels, foreign_levels):
        for j in range(len(own_levels) - 1):
            y0, y1 = own_levels[j], own_levels[j + 1]
            mids = [y for y in foreign_levels if y0 + 1e-12 < y < y1 - 1e-12]
            if mids:
                splits[(vid(0.5, y0), vid(0.5, y1))] = [vid(0.5, y) for y in sorted(mids)]

    record(levels_l, levels_r)
    record(levels_r, levels_l)
    return compute_geometry(np.array(verts), [apply_splits(l, splits) for l in loops])


def reference_tilted_barrier(variant):
    levels = _barrier_levels(*{1: (10, 1, 10, False), 2: (45, 10, 45, False),
                               3: (10, 1, 10, True)}[variant])
    ncols = 10
    xs = np.linspace(0.0, 1.0, ncols + 1)
    nrows = len(levels) - 1
    vertices = np.empty(((ncols + 1) * (nrows + 1), 2))
    for j, (a, b) in enumerate(levels):
        for i, x in enumerate(xs):
            vertices[j * (ncols + 1) + i] = (x, a * x + b)
    vid = lambda i, j: j * (ncols + 1) + i
    loops = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(nrows) for i in range(ncols)]
    mesh = compute_geometry(vertices, loops)
    return mesh, barrier_region(*mesh.cell_point.T)


@pytest.mark.parametrize("nx,ny", [(1, 1), (7, 5), (3, 9), (32, 32), (128, 128)])
def test_rect_matches_reference(nx, ny):
    assert_same_mesh(sushi.gen_rect(nx, ny), reference_rect(nx, ny))


@pytest.mark.parametrize("n", [1, 2, 6, 32])
def test_tri_matches_reference(n):
    assert_same_mesh(sushi.gen_tri(n), reference_tri(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_nonconforming_rect_matches_reference(n):
    assert_same_mesh(sushi.gen_nonconforming_rect(n), reference_nonconforming_rect(n))


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_tilted_barrier_matches_reference(variant):
    mesh, regions = sushi.gen_tilted_barrier(variant)
    ref_mesh, ref_regions = reference_tilted_barrier(variant)
    assert_same_mesh(mesh, ref_mesh)
    assert regions.dtype == ref_regions.dtype
    assert np.array_equal(regions, ref_regions)
