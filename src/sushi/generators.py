"""Deterministic generators for the benchmark mesh families.

All generators mesh the unit square and return meshes that pass
:func:`sushi.geometry.validate` at 1e-10.  Vertices and loops are built by
index arithmetic on the vertex grids; the nonconforming grid lists its
hanging vertices in the loops of the interface cells.  The tilted-barrier
generator also returns a per-cell region map (1 below the barrier, 2
inside, 3 above).
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


def phi1(x, y):
    return y - BARRIER_SLOPE * (x - 0.5) - BARRIER_LEVEL


def phi2(x, y):
    return phi1(x, y) - BARRIER_THICKNESS


def barrier_region(x, y) -> np.ndarray:
    """Region index of each point: 1 below the barrier, 2 inside, 3 above."""
    return np.where(phi1(x, y) < 0.0, 1, np.where(phi2(x, y) < 0.0, 2, 3))


def _grid_quads(nx: int, ny: int) -> np.ndarray:
    """(nx*ny, 4) CCW corner ids of the quads of an (nx+1)-by-(ny+1) vertex
    grid numbered row by row, quads row by row."""
    v = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    return np.stack([v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1]], axis=-1).reshape(-1, 4)


def _grid_vertices(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vertices of the tensor grid ``xs`` x ``ys``, numbered row by row."""
    x, y = np.meshgrid(xs, ys)
    return np.stack([x.ravel(), y.ravel()], axis=1)


def gen_rect(nx: int, ny: int) -> Mesh:
    """Uniform nx-by-ny rectangular grid on the unit square."""
    if nx < 1 or ny < 1:
        raise InvalidTopology("resolution must be >= 1")
    vertices = _grid_vertices(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
    return compute_geometry(vertices, _grid_quads(nx, ny))


def gen_tri(n: int) -> Mesh:
    """Structured triangulation: n-by-n squares each split along the same diagonal."""
    if n < 1:
        raise InvalidTopology("resolution must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    a, b, c, d = _grid_quads(n, n).T
    loops = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return compute_geometry(_grid_vertices(xs, xs), loops)


def gen_nonconforming_rect(n: int) -> Mesh:
    """Two-block nonconforming grid: the unit square cut vertically at x = 1/2.

    The left half carries a 2n-by-3n grid (columns by rows), the right half
    2n-by-5n, so the interface at x = 1/2 is nonconforming.  Each interface
    cell lists the other block's row levels strictly inside its side as
    hanging vertices of its loop (ascending on the left block's right
    sides, descending on the right block's left sides), giving every face
    exactly two adjacent cells.  Vertices are numbered in order of first
    appearance along the loops.  Cell count is 16 n^2.
    """
    if n < 1:
        raise InvalidTopology("resolution must be >= 1")
    rows_l, rows_r, cols = 3 * n, 5 * n, 2 * n
    xs = np.arange(cols + 1) / (2 * cols)
    left = _grid_vertices(xs, np.arange(rows_l + 1) / rows_l)
    right = _grid_vertices(0.5 + xs, np.arange(rows_r + 1) / rows_r)

    # Interface levels on the common integer scale y * rows_l * rows_r.
    level_l = np.arange(rows_l + 1) * rows_r
    level_r = np.arange(rows_r + 1) * rows_l
    edge_l = np.arange(rows_l + 1) * (cols + 1) + cols  # left block, x = 1/2
    edge_r = np.arange(rows_r + 1) * (cols + 1)  # right block, x = 1/2
    # A right-block vertex at a level the left block has is the left one.
    right_id = len(left) + np.arange(len(right))
    shared = level_r % rows_r == 0
    right_id[edge_r[shared]] = edge_l[level_r[shared] // rows_r]
    corners = np.concatenate([_grid_quads(cols, rows_l), right_id[_grid_quads(cols, rows_r)]])

    ids, first = np.unique(corners, return_index=True)
    ids = ids[np.argsort(first)]
    renumber = np.empty(len(left) + len(right), dtype=np.int64)
    renumber[ids] = np.arange(len(ids))
    vertices = np.concatenate([left, right])[ids]
    loops = renumber[corners].tolist()

    # The interface vertices bottom to top, and each block's levels in it.
    levels = np.union1d(level_l, level_r)
    pos_l, pos_r = np.searchsorted(levels, level_l), np.searchsorted(levels, level_r)
    interface = np.empty(len(levels), dtype=np.int64)
    interface[pos_l] = renumber[edge_l]
    interface[pos_r] = renumber[right_id[edge_r]]
    for j in range(rows_l):
        loops[(j + 1) * cols - 1][1:3] = interface[pos_l[j]:pos_l[j + 1] + 1].tolist()
    for k in range(rows_r):
        loops[(rows_l + k) * cols][3:] = interface[pos_r[k + 1]:pos_r[k]:-1].tolist()
    return compute_geometry(vertices, loops)


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


def gen_tilted_barrier(variant: int, refine: int = 1) -> tuple[Mesh, np.ndarray]:
    """Quadrilateral barrier mesh; returns (mesh, per-cell region map).

    Variant 1 is 10x21 cells with a single cell layer inside the barrier,
    variant 2 is 10x100 with ten layers inside, and variant 3 adds two
    layers of thickness 1e-4 around each barrier line to variant 1
    (10x25 cells).  ``refine`` = K multiplies the column count and the
    layer count of every regular block by K; the 1e-4 layers of variant 3
    stay one cell thick.  Cell layers are aligned with the barrier lines,
    so the diffusion discontinuities coincide with mesh faces.
    """
    blocks = {1: (10, 1, 10), 2: (45, 10, 45), 3: (10, 1, 10)}
    if variant not in blocks:
        raise InvalidTopology("barrier variant must be 1, 2 or 3")
    if refine < 1:
        raise InvalidTopology("barrier refinement must be >= 1")
    levels = _barrier_levels(*(refine * n for n in blocks[variant]), thin=variant == 3)

    ncols = 10 * refine
    xs = np.linspace(0.0, 1.0, ncols + 1)
    a, b = np.array(levels).T
    y = a[:, None] * xs + b[:, None]
    vertices = np.stack([np.broadcast_to(xs, y.shape).ravel(), y.ravel()], axis=1)
    mesh = compute_geometry(vertices, _grid_quads(ncols, len(levels) - 1))
    return mesh, barrier_region(*mesh.cell_point.T)
