"""Polytopal mesh representation, derived geometry and regularity metrics.

A mesh is a collection of polygonal control volumes (cells), the planar
pieces of their boundaries (faces) and one point per cell.  The scheme
works on the cones D(K, sigma), the hull of the cell point x_K and a face
sigma of K.  All derived quantities are computed once, as flat arrays:

* per face: ``face_vertices``, ``face_cells`` (the two cells; -1 for the
  missing neighbour of a boundary face), ``face_cones`` (the cone of each
  entry of ``face_cells``), ``face_measure`` and ``face_centre``;
* per cell: ``cell_point``, ``cell_measure`` and ``cell_diameter``;
* per cone, cell-major: the cones of cell K are ``cell_ptr[K]`` to
  ``cell_ptr[K + 1] - 1``, in the order of the cell's working loop.  Each
  has ``cone_cell``, ``cone_face``, ``cone_vertex`` (the loop vertex that
  starts its face, so the cones of K list K's working loop),
  ``cone_normal`` (outward), ``cone_dist`` = d(K, sigma) and
  ``cone_measure`` = |D(K, sigma)|.

Faces are numbered in order of first appearance along the loops.  The
data model is dimension-generic but the geometry kernels implemented here
are 2D: faces are straight segments and cells are simple polygons given
as counter-clockwise vertex loops.  A hanging node is listed in the loop
of every cell whose straight side it lies on, so that side is two faces:
this is how nonconforming meshes are represented, with no other table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DegenerateFace, InvalidTopology, MissingWeights, NonStarShaped

# Rejection threshold for cell-point/face distances: the scheme divides
# by d(K,sigma), so nearly tangent cell points are refused outright.
DIST_REL_TOL = 1e-12
# Largest relative residual of a geometric identity that ``validate`` passes.
IDENTITY_TOL = 1e-10


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


@dataclass
class Mesh:
    """Immutable mesh with computed geometry (see the module docstring).

    The cell loops, hanging vertices included, are ``cone_vertex`` cut at
    ``cell_ptr`` (see :meth:`loops`); they are the only copy kept.
    """

    dim: int
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

    @property
    def cone_centroid(self) -> np.ndarray:
        """(n_cones, d) centroids (x_K + 2 x_sigma) / 3 of the cones."""
        return (self.cell_point[self.cone_cell]
                + 2.0 * self.face_centre[self.cone_face]) / 3.0

    def cones(self, cell: int) -> slice:
        """The cone range of one cell."""
        return slice(int(self.cell_ptr[cell]), int(self.cell_ptr[cell + 1]))

    def loops(self) -> list[list[int]]:
        """The vertex loop of every cell, as lists of ints."""
        ptr, verts = self.cell_ptr.tolist(), self.cone_vertex.tolist()
        return [verts[s:e] for s, e in zip(ptr, ptr[1:])]

    def interior_faces(self) -> list[int]:
        return np.flatnonzero(~self.face_boundary).tolist()

    def boundary_faces(self) -> list[int]:
        return np.flatnonzero(self.face_boundary).tolist()

    def vertex_cell_map(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR vertex -> cell map ``(ptr, cells)``: vertex v lies on the loops
        of the sorted cells ``cells[ptr[v]:ptr[v + 1]]``."""
        keys = np.unique(self.cone_vertex.astype(np.int64) * self.n_cells + self.cone_cell)
        verts, cells = np.divmod(keys, self.n_cells)
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


def _cone_pairs(cell_ptr: np.ndarray, cone_cell: np.ndarray):
    """Every (i, j) of cones of one cell, cell by cell, row-major in each."""
    rep = np.diff(cell_ptr)[cone_cell]
    i = np.repeat(np.arange(len(cone_cell)), rep)
    starts = np.repeat(np.cumsum(rep) - rep, rep)
    j = cell_ptr[cone_cell[i]] + np.arange(len(i)) - starts
    return i, j


def _first(mask: np.ndarray) -> int:
    return int(np.nonzero(mask)[0][0])


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
    d = 2

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
    nxt = np.arange(1, n_cones + 1)
    nxt[cell_ptr[1:] - 1] = cell_ptr[:-1]
    b = a[nxt]
    if np.any(a == b):
        ci = cone_cell[_first(a == b)]
        raise InvalidTopology(f"cell {ci} has a repeated consecutive vertex")

    # Faces: loop sides deduplicated by endpoint set, ids in first-appearance order.
    _, first, inverse = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cone_face = rank[inverse.ravel()]
    face_first = first[order]
    n_faces = len(order)
    pair_keys = np.sort(cone_cell * n_faces + cone_face)
    twice = pair_keys[1:] == pair_keys[:-1]
    if np.any(twice):
        ci, fid = divmod(int(pair_keys[1:][twice][0]), n_faces)
        raise InvalidTopology(f"cell {ci} lists face {fid} twice")
    counts = np.bincount(cone_face, minlength=n_faces)
    if np.any(counts > 2):
        raise InvalidTopology(f"face {_first(counts > 2)} shared by more than two cells")
    by_face = np.argsort(cone_face, kind="stable")
    starts = np.cumsum(counts) - counts
    face_cones = np.full((n_faces, 2), -1, dtype=np.int64)
    face_cones[:, 0] = by_face[starts]
    shared = counts == 2
    face_cones[shared, 1] = by_face[starts[shared] + 1]
    face_cells = np.where(face_cones >= 0, cone_cell[face_cones], -1)

    # Cell measures and centroids: fan triangulation from the vertex average,
    # exact for simple polygons and robust to collinear (split-edge) vertices.
    pts = vertices[a]
    origin = segment_sums(pts, cell_ptr) / sizes[:, None]
    q = pts - origin[cone_cell]
    qn = q[nxt]
    cross = q[:, 0] * qn[:, 1] - q[:, 1] * qn[:, 0]
    area = 0.5 * segment_sums(cross, cell_ptr)
    if np.any(area <= 0.0):
        raise InvalidTopology(
            f"cell {_first(area <= 0.0)} loop is not counter-clockwise or is degenerate"
        )
    tri_centroids = origin[cone_cell] + (q + qn) / 3.0
    centroid = segment_sums(cross[:, None] * tri_centroids, cell_ptr) / (2.0 * area[:, None])
    pi, pj = _cone_pairs(cell_ptr, cone_cell)
    diff = pts[pi] - pts[pj]
    pair_ptr = np.concatenate([[0], np.cumsum(sizes * sizes)])
    diam = np.maximum.reduceat(np.sqrt((diff ** 2).sum(axis=1)), pair_ptr[:-1])
    xk = centroid if cell_points is None else cell_points

    t = vertices[b] - pts
    length = np.sqrt((t * t).sum(axis=1))
    bad = length <= DIST_REL_TOL * diam[cone_cell]
    if np.any(bad):
        i = _first(bad)
        raise DegenerateFace(f"cell {cone_cell[i]}, face {cone_face[i]}: zero measure")
    # CCW loop keeps the interior on the left; outward is the right side.
    normal = np.stack([t[:, 1], -t[:, 0]], axis=1) / length[:, None]
    face_centre = 0.5 * (pts[face_first] + vertices[b[face_first]])
    dist = ((face_centre[cone_face] - xk[cone_cell]) * normal).sum(axis=1)
    bad = dist <= DIST_REL_TOL * diam[cone_cell]
    if np.any(bad):
        i = _first(bad)
        raise NonStarShaped(
            f"cell {cone_cell[i]}, face {cone_face[i]}: cell point distance {dist[i]:.3e}"
        )

    return Mesh(
        dim=d,
        vertices=vertices,
        face_vertices=np.stack([a[face_first], b[face_first]], axis=1),
        face_cells=face_cells,
        face_cones=face_cones,
        face_measure=length[face_first],
        face_centre=face_centre,
        cell_point=np.array(xk, dtype=float),
        cell_measure=area,
        cell_diameter=diam,
        cell_ptr=cell_ptr,
        cone_cell=cone_cell,
        cone_face=cone_face,
        cone_vertex=a,
        cone_normal=normal,
        cone_dist=dist,
        cone_measure=length * dist / d,
        cell_points_given=cell_points is not None,
    )


def domain_measure(mesh: Mesh) -> float:
    """Measure of the meshed domain from its boundary faces.

    Divergence theorem: |Omega| = (1/d) * sum over boundary faces of
    |sigma| * x_sigma . n_out, independent of the cell partition.
    """
    bf = mesh.face_boundary
    normal = mesh.cone_normal[mesh.face_cones[bf, 0]]
    flux = mesh.face_measure[bf] * (mesh.face_centre[bf] * normal).sum(axis=1)
    return float(flux.sum()) / mesh.dim


def validate(mesh: Mesh) -> ValidationReport:
    """Check the geometric identities every accepted mesh must satisfy.

    Per cell, relative residuals of

    * sum |sigma| n (x_sigma - x_K)^t = |K| Id,
    * sum |sigma| d(K,sigma) = d |K|,
    * sum |sigma| n = 0 (closed boundary),

    plus the face/cone cross-references and the partition-of-domain
    check sum |K| = |Omega|.  Raises ``InvalidTopology`` when the boundary
    faces enclose no domain (a mesh with none, for one).
    """
    d = mesh.dim
    ptr = mesh.cell_ptr
    w = mesh.face_measure[mesh.cone_face]
    wn = w[:, None] * mesh.cone_normal
    rel = mesh.face_centre[mesh.cone_face] - mesh.cell_point[mesh.cone_cell]
    m = segment_sums(wn[:, :, None] * rel[:, None, :], ptr)
    meas = mesh.cell_measure
    ident = np.abs(m - meas[:, None, None] * np.eye(d)).max(axis=(1, 2)) / meas
    cone = np.abs(segment_sums(w * mesh.cone_dist, ptr) - d * meas) / meas
    closure = np.abs(segment_sums(wn, ptr)).max(axis=1) / segment_sums(w, ptr)

    cones = np.arange(mesh.n_cones)
    unlisted = ~(mesh.face_cones[mesh.cone_face] == cones[:, None]).any(axis=1)
    topo = [f"face {mesh.cone_face[i]} does not list cell {mesh.cone_cell[i]}"
            for i in np.nonzero(unlisted)[0]]
    fc = np.maximum(mesh.face_cones, 0)
    wrong = (mesh.face_cones >= 0) & (
        (mesh.cone_face[fc] != np.arange(mesh.n_faces)[:, None])
        | (mesh.cone_cell[fc] != mesh.face_cells)
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
    offset = weights.by_point(mesh.cell_point, mesh.face_centre)[weights.points] \
        - mesh.face_centre[faces]
    spread = np.bincount(faces, weights=np.abs(weights.beta) * (offset ** 2).sum(axis=1),
                         minlength=mesh.n_faces)
    on = (np.diff(weights.ptr) > 0)[mesh.cone_face]
    ratio = spread[mesh.cone_face[on]] / mesh.cell_diameter[mesh.cone_cell[on]] ** 2
    return max(theta_D(mesh), float(np.max(ratio, initial=0.0)))
