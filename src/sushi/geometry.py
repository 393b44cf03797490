"""Polytopal mesh representation, derived geometry and regularity metrics.

A mesh is a collection of polygonal control volumes (cells), the planar
pieces of their boundaries (faces) and one point per cell.  The scheme
works on the cones D(K, sigma), the hull of the cell point x_K and a face
sigma of K.  All derived quantities are computed once, as flat arrays:

* per face: ``face_vertices``, ``face_cells`` (the two cells; -1 for the
  missing neighbour of a boundary face), ``face_cones`` (the cone of each
  entry of ``face_cells``), ``face_measure`` and ``face_centre``;
* per cell: ``cell_point``, ``cell_measure`` and ``cell_diameter``, the
  largest distance between two loop vertices, taken as a running maximum
  over one pass per loop offset, so no table of vertex pairs is formed;
* per cone, cell-major: the cones of cell K are ``cell_ptr[K]`` to
  ``cell_ptr[K + 1] - 1``, in the order of the cell's working loop.  Each
  has ``cone_cell``, ``cone_face``, ``cone_vertex`` (the loop vertex that
  starts its face, so the cones of K list K's working loop),
  ``cone_normal`` (outward), ``cone_dist`` = d(K, sigma) and
  ``cone_measure`` = |D(K, sigma)|.

Faces are numbered in order of first appearance along the loops.  The
mesh is 2D (``DIM``): faces are straight segments and cells are simple
polygons given as counter-clockwise vertex loops.  A hanging node is listed
in the loop of every cell whose straight side it lies on, so that side is
two faces: this is how nonconforming meshes are represented, with no
other table.

:func:`compute_geometry` holds at most its returned arrays, plus a few
integer arrays of one entry per cone while it numbers the faces, plus the
temporaries of ``GEOMETRY_BLOCK`` cells: the measures, centroids,
diameters, normals and distances are computed a block of cells at a time,
straight into the arrays it returns, one array per coordinate.

The package gathers the rows of its (n, 2) and (n, 2, 2) arrays with
``np.take`` (:func:`take_rows` where a slice may come instead of an index
array), and writes a sum over an axis of length 2 as component arithmetic,
in the order numpy's reduction adds (:func:`pair_sum` for the components
of a row dot product).  On numpy 2.4, fancy indexing of such short rows is
about 10 times slower than ``np.take``, and a reduction over so short an
axis about 25 times slower than the written-out sum; the values are the
same bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DegenerateFace, InvalidTopology, MissingWeights, NonStarShaped

# The space dimension d of the paper's formulas: every kernel here is 2D.
DIM = 2
# Rejection threshold for cell-point/face distances: the scheme divides
# by d(K,sigma), so nearly tangent cell points are refused outright.
DIST_REL_TOL = 1e-12
# Largest relative residual of a geometric identity that ``validate`` passes.
IDENTITY_TOL = 1e-10
# Cells per array pass of ``compute_geometry``'s measures, centroids,
# diameters, normals and distances.  It bounds the pass's transient arrays,
# each at most (cones, 2): 256 kB for quadrilaterals.
GEOMETRY_BLOCK = 4096


def segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over the consecutive segments ``ptr[i]:ptr[i+1]``.

    Each sum is accumulated in order, first entry first, as a loop over
    the segment would do it (``np.add.reduceat`` associates differently).
    """
    values = np.asarray(values, dtype=float)
    n = len(ptr) - 1
    owner = np.repeat(np.arange(n), np.diff(ptr))
    cols = values.reshape(len(values), -1).T
    sums = [np.bincount(owner, weights=col, minlength=n) for col in cols]
    return np.stack(sums, axis=1).reshape((n,) + values.shape[1:])


def take_rows(a: np.ndarray, index) -> np.ndarray:
    """``a[index]`` for an index array or a slice ``index``.

    An index array goes through ``np.take``, which copies whole rows: for
    rows of 2 or 4 entries it is about ten times faster than fancy indexing.
    """
    return a[index] if isinstance(index, slice) else np.take(a, index, axis=0)


def pair_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x + y`` as numpy's sum over an axis of length 2 adds the pair, from
    +0.0: two -0.0 give +0.0, the one case where ``x + y`` differs.

    The components of a row dot product, summed without numpy's reduction
    machinery, which is about 25 times slower over so short an axis."""
    total = x + y
    total += 0.0
    return total


@dataclass
class Mesh:
    """Immutable mesh with computed geometry (see the module docstring).

    The cell loops, hanging vertices included, are ``cone_vertex`` cut at
    ``cell_ptr`` (see :meth:`loops`); they are the only copy kept.
    """

    vertices: np.ndarray
    face_vertices: np.ndarray
    face_cells: np.ndarray
    face_cones: np.ndarray
    face_measure: np.ndarray
    face_centre: np.ndarray
    cell_point: np.ndarray
    cell_measure: np.ndarray
    cell_diameter: np.ndarray
    cell_ptr: np.ndarray
    cone_cell: np.ndarray
    cone_face: np.ndarray
    cone_vertex: np.ndarray
    cone_normal: np.ndarray
    cone_dist: np.ndarray
    cone_measure: np.ndarray
    cell_points_given: bool = False

    @property
    def n_cells(self) -> int:
        return len(self.cell_measure)

    @property
    def n_faces(self) -> int:
        return len(self.face_measure)

    @property
    def n_cones(self) -> int:
        return len(self.cone_face)

    @property
    def h(self) -> float:
        return float(self.cell_diameter.max())

    @property
    def face_boundary(self) -> np.ndarray:
        return self.face_cells[:, 1] < 0

    def cone_centroids(self) -> np.ndarray:
        """Centroids (x_K + 2 x_sigma) / 3 of the cones, as an (n_cones, 2) array.

        The components are stored first, so the transposed point array that
        :func:`sushi.spaces.sample_field` hands a user field is this array
        itself, not a copy."""
        out = np.empty((2, self.n_cones))
        for k in range(2):
            out[k] = (np.take(self.cell_point[:, k], self.cone_cell)
                      + 2.0 * np.take(self.face_centre[:, k], self.cone_face)) / 3.0
        return out.T

    def loops(self) -> list[list[int]]:
        """The vertex loop of every cell, as lists of ints."""
        ptr, verts = self.cell_ptr.tolist(), self.cone_vertex.tolist()
        return [verts[s:e] for s, e in zip(ptr, ptr[1:])]

    def vertex_cell_map(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR vertex -> cell map ``(ptr, cells)``: vertex v lies on the loops
        of the sorted cells ``cells[ptr[v]:ptr[v + 1]]``."""
        keys = np.sort(self.cone_vertex.astype(np.int64) * self.n_cells + self.cone_cell)
        verts, cells = np.divmod(keys[np.diff(keys, prepend=-1) != 0], self.n_cells)
        return np.searchsorted(verts, np.arange(len(self.vertices) + 1)), cells


@dataclass
class ValidationReport:
    """Per-cell residuals of the geometric identities plus topology checks."""

    identity_residuals: np.ndarray
    cone_sum_residuals: np.ndarray
    closure_residuals: np.ndarray
    volume_residual: float
    topology_errors: list[str]

    @property
    def passed(self) -> bool:
        return (
            not self.topology_errors
            and float(np.max(self.identity_residuals, initial=0.0)) <= IDENTITY_TOL
            and float(np.max(self.cone_sum_residuals, initial=0.0)) <= IDENTITY_TOL
            and float(np.max(self.closure_residuals, initial=0.0)) <= IDENTITY_TOL
            and self.volume_residual <= IDENTITY_TOL
        )


def _first(mask: np.ndarray) -> int:
    return int(np.nonzero(mask)[0][0])


def _next_in_loop(ptr: np.ndarray) -> np.ndarray:
    """For each cone of the segments ``ptr``, the next cone of its loop."""
    nxt = np.arange(1, int(ptr[-1]) + 1)
    nxt[ptr[1:] - 1] = ptr[:-1]
    return nxt


def _loop_diameters(px: np.ndarray, py: np.ndarray, ptr: np.ndarray,
                    owner: np.ndarray) -> np.ndarray:
    """The largest distance between two of the points ``(px, py)`` of each
    segment of ``ptr``, over the pairs (i, i + s mod k) of each loop, one
    offset s at a time; s <= k // 2 meets every pair."""
    sizes = np.diff(ptr)
    loop_size, first = sizes[owner], ptr[owner]
    local = np.arange(len(px)) - first
    diam = np.zeros(len(sizes))
    for s in range(1, int(sizes.max()) // 2 + 1):
        other = first + (local + s) % loop_size
        dx, dy = px - px[other], py - py[other]
        diam = np.maximum(diam, np.maximum.reduceat(np.sqrt(dx * dx + dy * dy), ptr[:-1]))
    return diam


def compute_geometry(
    vertices: np.ndarray,
    loops,
    cell_points: np.ndarray | None = None,
) -> Mesh:
    """Build a fully derived mesh from vertices and CCW cell vertex loops.

    Parameters
    ----------
    vertices : (V, 2) array of vertex coordinates.
    loops : one counter-clockwise vertex-id loop per cell, as a list of
        id sequences or as an (M, k) int array.  Loops may contain
        collinear vertices; a straight cell side listed with an
        intermediate vertex is stored as two distinct faces, which is how
        nonconforming (hanging-node) adjacency is represented.
    cell_points : optional (M, 2) array of cell points; defaults to the
        centre of mass of each cell.

    Raises
    ------
    NonStarShaped, DegenerateFace, InvalidTopology
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise InvalidTopology("expected (V, 2) vertex array")
    if not np.all(np.isfinite(vertices)):
        raise InvalidTopology("non-finite vertex coordinate")
    if len(loops) == 0:
        raise InvalidTopology("mesh has no cells")
    nv = len(vertices)

    # Cones, cell-major; cone i is the loop side from vertex a[i] to b[i].
    if isinstance(loops, np.ndarray):
        if loops.ndim != 2:
            raise InvalidTopology("expected an (M, k) loop array")
        sizes = np.full(len(loops), loops.shape[1], dtype=np.int64)
        a = loops.astype(np.int64).ravel()
    else:
        sizes = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
        a = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=int(sizes.sum()))
    if np.any(sizes < 3):
        raise InvalidTopology(f"cell {_first(sizes < 3)} has fewer than 3 vertices")
    cell_ptr = np.concatenate([[0], np.cumsum(sizes)])
    n_cells, n_cones = len(sizes), int(cell_ptr[-1])
    cone_cell = np.repeat(np.arange(n_cells), sizes)
    missing = (a < 0) | (a >= nv)
    if np.any(missing):
        raise InvalidTopology(f"cell {cone_cell[_first(missing)]} references a missing vertex")
    if cell_points is not None:
        cell_points = np.asarray(cell_points, dtype=float)
        if cell_points.shape != (n_cells, 2):
            raise InvalidTopology("cell_points shape mismatch")
    b = a[_next_in_loop(cell_ptr)]
    if np.any(a == b):
        ci = cone_cell[_first(a == b)]
        raise InvalidTopology(f"cell {ci} has a repeated consecutive vertex")

    # Faces: loop sides deduplicated by endpoint set, ids in first-appearance order.
    keys = np.minimum(a, b)
    keys *= nv
    keys += np.maximum(a, b)
    first, inverse = np.unique(keys, return_index=True, return_inverse=True)[1:]
    del keys
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cone_face = rank[inverse.ravel()]
    del inverse, rank
    face_first = first[order]
    del first, order
    face_vertices = np.stack([a[face_first], b[face_first]], axis=1)
    del b
    n_faces = len(face_first)
    pair_keys = np.sort(cone_cell * n_faces + cone_face)
    twice = pair_keys[1:] == pair_keys[:-1]
    if np.any(twice):
        ci, fid = divmod(int(pair_keys[1:][twice][0]), n_faces)
        raise InvalidTopology(f"cell {ci} lists face {fid} twice")
    del pair_keys, twice
    counts = np.bincount(cone_face, minlength=n_faces)
    if np.any(counts > 2):
        raise InvalidTopology(f"face {_first(counts > 2)} shared by more than two cells")
    by_face = np.argsort(cone_face, kind="stable")
    starts = np.cumsum(counts) - counts
    face_cones = np.full((n_faces, 2), -1, dtype=np.int64)
    face_cones[:, 0] = by_face[starts]
    shared = counts == 2
    face_cones[shared, 1] = by_face[starts[shared] + 1]
    del by_face, starts, counts, shared
    face_cells = np.where(face_cones >= 0, cone_cell[face_cones], -1)

    area, centroid, diam = np.empty(n_cells), np.empty((n_cells, 2)), np.empty(n_cells)
    length, normal, dist = np.empty(n_cones), np.empty((n_cones, 2)), np.empty(n_cones)
    # A cell that fails a check below gets meaningless values here, with no
    # warning; the checks then raise in the order area, face, cell point, overflow.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        face_centre = 0.5 * (np.take(vertices, face_vertices[:, 0], axis=0)
                             + np.take(vertices, face_vertices[:, 1], axis=0))
        for c0 in range(0, n_cells, GEOMETRY_BLOCK):
            cells = slice(c0, min(c0 + GEOMETRY_BLOCK, n_cells))
            cones = slice(cell_ptr[cells.start], cell_ptr[cells.stop])
            ptr = cell_ptr[cells.start:cells.stop + 1] - cones.start
            owner = cone_cell[cones] - c0
            nxt = _next_in_loop(ptr)
            # Cell measures and centroids: fan triangulation from the vertex
            # average, exact for simple polygons and robust to collinear
            # (split-edge) vertices.  One array per coordinate.
            pts = np.take(vertices, a[cones], axis=0)
            px, py = pts[:, 0], pts[:, 1]
            ox, oy = (np.take(segment_sums(p, ptr) / sizes[cells], owner) for p in (px, py))
            qx, qy = px - ox, py - oy
            qnx, qny = qx[nxt], qy[nxt]
            cross = qx * qny - qy * qnx
            area[cells] = 0.5 * segment_sums(cross, ptr)
            for k, (o, q, qn) in enumerate(((ox, qx, qnx), (oy, qy, qny))):
                centroid[cells, k] = (segment_sums(cross * (o + (q + qn) / 3.0), ptr)
                                      / (2.0 * area[cells]))
            diam[cells] = _loop_diameters(px, py, ptr, owner)
            tx, ty = px[nxt] - px, py[nxt] - py
            length[cones] = np.sqrt(tx * tx + ty * ty)
            # CCW loop keeps the interior on the left; outward is the right side.
            nx, ny = ty / length[cones], -tx / length[cones]
            normal[cones, 0], normal[cones, 1] = nx, ny
            xk = centroid[cells] if cell_points is None else cell_points[cells]
            rel = np.take(face_centre, cone_face[cones], axis=0) - np.take(xk, owner, axis=0)
            dist[cones] = pair_sum(rel[:, 0] * nx, rel[:, 1] * ny)

    if np.any(area <= 0.0):
        raise InvalidTopology(
            f"cell {_first(area <= 0.0)} loop is not counter-clockwise or is degenerate"
        )
    # Counter-clockwise cells on the two sides of a face run along it in
    # opposite directions, so two that start it at the same vertex overlap.
    # (A boundary face's -1 takes the last cone; the mask drops it.)
    same = np.take(a, face_cones[:, 0]) == np.take(a, face_cones[:, 1])
    same &= face_cones[:, 1] >= 0
    if np.any(same):
        f = _first(same)
        raise InvalidTopology(f"cells {face_cells[f, 0]} and {face_cells[f, 1]} lie on the "
                              f"same side of face {f}: the mesh overlaps itself")
    bad = length <= DIST_REL_TOL * diam[cone_cell]
    if np.any(bad):
        i = _first(bad)
        raise DegenerateFace(f"cell {cone_cell[i]}, face {cone_face[i]}: zero measure")
    bad = dist <= DIST_REL_TOL * diam[cone_cell]
    if np.any(bad):
        i = _first(bad)
        raise NonStarShaped(
            f"cell {cone_cell[i]}, face {cone_face[i]}: cell point distance {dist[i]:.3e}"
        )
    face_measure = length[face_first]
    # cone_measure = |sigma| d(K, sigma) / d, in place of the lengths.
    with np.errstate(over="ignore"):
        length *= dist
    length /= DIM
    if not all(np.isfinite(v).all() for v in (face_centre, area, centroid, diam, normal, length)):
        raise InvalidTopology("derived geometry is not finite: coordinates too large")

    return Mesh(
        vertices=vertices,
        face_vertices=face_vertices,
        face_cells=face_cells,
        face_cones=face_cones,
        face_measure=face_measure,
        face_centre=face_centre,
        cell_point=centroid if cell_points is None else np.array(cell_points),
        cell_measure=area,
        cell_diameter=diam,
        cell_ptr=cell_ptr,
        cone_cell=cone_cell,
        cone_face=cone_face,
        cone_vertex=a,
        cone_normal=normal,
        cone_dist=dist,
        cone_measure=length,
        cell_points_given=cell_points is not None,
    )


def domain_measure(mesh: Mesh) -> float:
    """Measure of the meshed domain from its boundary faces.

    Divergence theorem: |Omega| = (1/d) * sum over boundary faces of
    |sigma| * x_sigma . n_out, independent of the cell partition.  x_sigma
    is measured from the lower-left corner of the vertices' bounding box,
    so that far from the origin the terms do not cancel to rounding.
    """
    bf = np.flatnonzero(mesh.face_boundary)
    c = np.take(mesh.face_centre, bf, axis=0) - mesh.vertices.min(axis=0)
    n = np.take(mesh.cone_normal, np.take(mesh.face_cones[:, 0], bf), axis=0)
    flux = np.take(mesh.face_measure, bf) * pair_sum(c[:, 0] * n[:, 0], c[:, 1] * n[:, 1])
    return float(flux.sum()) / DIM


def validate(mesh: Mesh) -> ValidationReport:
    """Check the geometric identities every accepted mesh must satisfy.

    Per cell, relative residuals of

    * sum |sigma| n (x_sigma - x_K)^t = |K| Id,
    * sum |sigma| d(K,sigma) = d |K|,
    * sum |sigma| n = 0 (closed boundary),

    plus the face/cone cross-references and the partition-of-domain
    check sum |K| = |Omega|.  Raises ``InvalidTopology`` when the boundary
    measure, the divisor of that check, is 0, as for a ``Mesh`` built by
    hand whose cells overlap (:func:`compute_geometry` refuses those).
    """
    ptr = mesh.cell_ptr
    w = np.take(mesh.face_measure, mesh.cone_face)
    wn = w[:, None] * mesh.cone_normal
    rel = take_rows(mesh.face_centre, mesh.cone_face) - take_rows(mesh.cell_point, mesh.cone_cell)
    m = segment_sums(wn[:, :, None] * rel[:, None, :], ptr)
    meas = mesh.cell_measure
    ident = np.maximum(np.maximum(np.abs(m[:, 0, 0] - meas), np.abs(m[:, 0, 1])),
                       np.maximum(np.abs(m[:, 1, 0]), np.abs(m[:, 1, 1] - meas))) / meas
    cone = np.abs(segment_sums(w * mesh.cone_dist, ptr) - DIM * meas) / meas
    closed = np.abs(segment_sums(wn, ptr))
    closure = np.maximum(closed[:, 0], closed[:, 1]) / segment_sums(w, ptr)

    cones = np.arange(mesh.n_cones)
    listed = np.take(mesh.face_cones, mesh.cone_face, axis=0)
    unlisted = (listed[:, 0] != cones) & (listed[:, 1] != cones)
    topo = [f"face {mesh.cone_face[i]} does not list cell {mesh.cone_cell[i]}"
            for i in np.nonzero(unlisted)[0]]
    fc = np.maximum(mesh.face_cones, 0)
    wrong = (mesh.face_cones >= 0) & (
        (np.take(mesh.cone_face, fc) != np.arange(mesh.n_faces)[:, None])
        | (np.take(mesh.cone_cell, fc) != mesh.face_cells)
    )
    topo += [f"face {f} not listed by cell {mesh.face_cells[f, j]}"
             for f, j in zip(*np.nonzero(wrong))]

    domain = domain_measure(mesh)
    if domain == 0.0:
        raise InvalidTopology(f"the boundary ({int(mesh.face_boundary.sum())} faces) "
                              "encloses no domain")
    vol_rel = abs(float(meas.sum()) - domain) / abs(domain)
    return ValidationReport(
        identity_residuals=ident,
        cone_sum_residuals=cone,
        closure_residuals=closure,
        volume_residual=vol_rel,
        topology_errors=topo,
    )


def theta_D(mesh: Mesh) -> float:
    """Mesh regularity: max of interior distance ratios and h_K/d(K,sigma)."""
    shared = mesh.face_cones[~mesh.face_boundary]
    dk, dl = mesh.cone_dist[shared[:, 0]], mesh.cone_dist[shared[:, 1]]
    ratios = mesh.cell_diameter / np.minimum.reduceat(mesh.cone_dist, mesh.cell_ptr[:-1])
    return float(max(ratios.max(), np.max(dk / dl, initial=0.0),
                     np.max(dl / dk, initial=0.0)))


def theta_DB(mesh: Mesh, weights) -> float:
    """Regularity including the barycentric-weight spread term.

    The spread term is, per cell K and barycentric face sigma of K,
    sum |beta| |x_point - x_sigma|^2 / h_K^2, maximised with theta_D.
    """
    if weights is None:
        raise MissingWeights("weights required for theta_DB")
    faces = np.repeat(np.arange(mesh.n_faces), np.diff(weights.ptr))
    offset = take_rows(mesh.cell_point, weights.points) - take_rows(mesh.face_centre, faces)
    square = pair_sum(offset[:, 0] ** 2, offset[:, 1] ** 2)
    spread = np.bincount(faces, weights=np.abs(weights.beta) * square, minlength=mesh.n_faces)
    on = (np.diff(weights.ptr) > 0)[mesh.cone_face]
    ratio = spread[mesh.cone_face[on]] / mesh.cell_diameter[mesh.cone_cell[on]] ** 2
    return max(theta_D(mesh), float(np.max(ratio, initial=0.0)))
