"""Deterministic generators for the benchmark mesh families.

All generators mesh the unit square and return meshes that pass
:func:`sushi.geometry.validate` at 1e-10.  The tilted-barrier generator also
returns a per-cell region map (1 below the barrier, 2 inside, 3 above).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidTopology
from .geometry import Mesh, compute_geometry

# Tilted-barrier geometry: the barrier is the slab between the lines
# phi1 = 0 and phi2 = 0 with phi1 = y - slope*(x - 1/2) - 0.475 and
# phi2 = phi1 - 0.05.
BARRIER_SLOPE = 0.2
BARRIER_LEVEL = 0.475
BARRIER_THICKNESS = 0.05
THIN_LAYER = 1e-4


def phi1(x: float, y: float) -> float:
    return y - BARRIER_SLOPE * (x - 0.5) - BARRIER_LEVEL


def phi2(x: float, y: float) -> float:
    return phi1(x, y) - BARRIER_THICKNESS


def barrier_region(x: float, y: float) -> int:
    """Region index of a point: 1 below the barrier, 2 inside, 3 above."""
    if phi1(x, y) < 0.0:
        return 1
    if phi2(x, y) < 0.0:
        return 2
    return 3


def gen_rect(nx: int, ny: int) -> Mesh:
    """Uniform nx-by-ny rectangular grid on the unit square."""
    if nx < 1 or ny < 1:
        raise InvalidTopology("resolution must be >= 1")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    vertices = np.array([[xs[i], ys[j]] for j in range(ny + 1) for i in range(nx + 1)])
    loops = [
        [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
        for j in range(ny)
        for i in range(nx)
    ]
    return compute_geometry(vertices, loops)


def gen_tri(n: int) -> Mesh:
    """Structured triangulation: n-by-n squares each split along the same diagonal."""
    if n < 1:
        raise InvalidTopology("resolution must be >= 1")
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


def gen_nonconforming_rect(n: int) -> Mesh:
    """Two-block nonconforming grid: the unit square cut vertically at x = 1/2.

    The left half carries a 2n-by-3n grid (columns by rows), the right half
    2n-by-5n, so the interface at x = 1/2 is nonconforming; interface
    segments are split at the union of both row levels and recorded in the
    mesh ``splits`` table, giving every face exactly two adjacent cells.
    Cell count is 16 n^2.
    """
    if n < 1:
        raise InvalidTopology("resolution must be >= 1")
    rows_l, rows_r, cols = 3 * n, 5 * n, 2 * n

    verts: list[tuple[float, float]] = []
    index: dict[tuple[float, float], int] = {}

    def vid(x: float, y: float) -> int:
        key = (round(x, 12), round(y, 12))
        if key not in index:
            index[key] = len(verts)
            verts.append((x, y))
        return index[key]

    loops: list[list[int]] = []
    for j in range(rows_l):
        for i in range(cols):
            x0, x1 = i / (2 * cols), (i + 1) / (2 * cols)
            y0, y1 = j / rows_l, (j + 1) / rows_l
            loops.append([vid(x0, y0), vid(x1, y0), vid(x1, y1), vid(x0, y1)])
    for j in range(rows_r):
        for i in range(cols):
            x0 = 0.5 + i / (2 * cols)
            x1 = 0.5 + (i + 1) / (2 * cols)
            y0, y1 = j / rows_r, (j + 1) / rows_r
            loops.append([vid(x0, y0), vid(x1, y0), vid(x1, y1), vid(x0, y1)])

    # Hanging vertices on the interface: each side's edge is split at the
    # other side's levels falling strictly inside it.
    splits: dict[tuple[int, int], list[int]] = {}
    levels_l = [j / rows_l for j in range(rows_l + 1)]
    levels_r = [j / rows_r for j in range(rows_r + 1)]

    def record(own_levels, foreign_levels):
        for j in range(len(own_levels) - 1):
            y0, y1 = own_levels[j], own_levels[j + 1]
            mids = [y for y in foreign_levels if y0 + 1e-12 < y < y1 - 1e-12]
            if mids:
                a, b = vid(0.5, y0), vid(0.5, y1)
                splits[(a, b)] = [vid(0.5, y) for y in sorted(mids)]

    record(levels_l, levels_r)
    record(levels_r, levels_l)
    return compute_geometry(np.array(verts), loops, splits=splits)


def _barrier_levels(n_below: int, n_mid: int, n_above: int, thin: bool):
    """Row-boundary level functions for the barrier mesh, bottom to top.

    Each level is y(x) = a*x + b.  The two barrier lines are pinned
    exactly; intermediate levels interpolate between the flat domain
    boundary and the slanted barrier lines, so every level is affine and
    every cell a straight-edged quadrilateral.
    """
    base = np.array([BARRIER_SLOPE, BARRIER_LEVEL - 0.5 * BARRIER_SLOPE])  # phi1 = 0
    top_line = base + np.array([0.0, BARRIER_THICKNESS])  # phi2 = 0
    flat0 = np.array([0.0, 0.0])
    flat1 = np.array([0.0, 1.0])

    def blend(lo, hi, m):
        return [lo + (hi - lo) * j / m for j in range(m + 1)]

    eps = np.array([0.0, THIN_LAYER])
    if not thin:
        return (
            blend(flat0, base, n_below)
            + blend(base, top_line, n_mid)[1:]
            + blend(top_line, flat1, n_above)[1:]
        )
    return (
        blend(flat0, base - eps, n_below)
        + [base, base + eps]
        + blend(base + eps, top_line - eps, n_mid)[1:]
        + [top_line, top_line + eps]
        + blend(top_line + eps, flat1, n_above)[1:]
    )


def gen_tilted_barrier(variant: int) -> tuple[Mesh, np.ndarray]:
    """Quadrilateral barrier mesh; returns (mesh, per-cell region map).

    Variant 1 is 10x21 cells with a single cell layer inside the barrier,
    variant 2 is 10x100 with ten layers inside, and variant 3 adds two
    layers of thickness 1e-4 around each barrier line to variant 1
    (10x25 cells).  Cell layers are aligned with the barrier lines, so the
    diffusion discontinuities coincide with mesh faces.
    """
    if variant == 1:
        levels = _barrier_levels(10, 1, 10, thin=False)
    elif variant == 2:
        levels = _barrier_levels(45, 10, 45, thin=False)
    elif variant == 3:
        levels = _barrier_levels(10, 1, 10, thin=True)
    else:
        raise InvalidTopology("barrier variant must be 1, 2 or 3")

    ncols = 10
    xs = np.linspace(0.0, 1.0, ncols + 1)
    nrows = len(levels) - 1
    vertices = np.empty(((ncols + 1) * (nrows + 1), 2))
    for j, (a, b) in enumerate(levels):
        for i, x in enumerate(xs):
            vertices[j * (ncols + 1) + i] = (x, a * x + b)
    vid = lambda i, j: j * (ncols + 1) + i
    loops = [
        [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
        for j in range(nrows)
        for i in range(ncols)
    ]
    mesh = compute_geometry(np.array(vertices), loops)
    regions = np.array(
        [barrier_region(x, y) for x, y in mesh.cell_point], dtype=int
    )
    return mesh, regions
