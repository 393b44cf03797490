"""Polytopal mesh representation, derived geometry and regularity metrics.

A mesh is a collection of polygonal control volumes (cells), the planar
pieces of their boundaries (faces) and one point per cell.  All derived
quantities used by the scheme (measures, outward normals, cell-point to
face distances, cone measures) are computed once, after which the mesh is
immutable.

The data model is dimension-generic but the geometry kernels implemented
here are 2D: faces are straight segments and cells are simple polygons
given as counter-clockwise vertex loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFace, InvalidTopology, MissingWeights, NonStarShaped

# Rejection threshold for cell-point/face distances: the scheme divides
# by d(K,sigma), so nearly tangent cell points are refused outright.
DIST_REL_TOL = 1e-12


@dataclass
class Face:
    """Planar piece of a cell boundary (a segment in 2D)."""

    id: int
    vertices: tuple[int, ...]
    cells: tuple[int, ...]
    measure: float
    centre: np.ndarray
    boundary: bool


@dataclass
class Cell:
    """Control volume with its per-face derived geometry.

    The arrays are aligned: entry ``i`` of ``normals``, ``dists``,
    ``face_measures``, ``face_centres`` and ``cone_measures`` belongs to
    face ``faces[i]``.
    """

    id: int
    faces: np.ndarray
    loop: np.ndarray
    point: np.ndarray
    measure: float
    diameter: float
    normals: np.ndarray
    dists: np.ndarray
    face_measures: np.ndarray
    face_centres: np.ndarray
    cone_measures: np.ndarray

    def local_index(self, face_id: int) -> int:
        hits = np.nonzero(self.faces == face_id)[0]
        if len(hits) != 1:
            raise InvalidTopology(f"face {face_id} not on cell {self.id}")
        return int(hits[0])

    def cone_centroids(self) -> np.ndarray:
        """(k, d) centroids (x_K + 2 x_sigma) / 3 of the cones, one per face."""
        return (self.point[None, :] + 2.0 * self.face_centres) / 3.0


@dataclass
class Mesh:
    """Immutable mesh with computed geometry.

    ``raw_loops`` keeps the cell loops exactly as supplied (before any
    nonconformity splits are applied) so that file output can reproduce
    its input; ``cells[i].loop`` holds the working loop with hanging
    vertices inserted.
    """

    dim: int
    vertices: np.ndarray
    faces: list[Face]
    cells: list[Cell]
    raw_loops: list[list[int]]
    splits: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    cell_points_given: bool = False

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def h(self) -> float:
        return max(c.diameter for c in self.cells)

    def interior_faces(self) -> list[int]:
        return [f.id for f in self.faces if not f.boundary]

    def boundary_faces(self) -> list[int]:
        return [f.id for f in self.faces if f.boundary]

    def vertex_cell_map(self) -> dict[int, list[int]]:
        """Map vertex id -> sorted cell ids whose loop contains it."""
        out: dict[int, list[int]] = {}
        for c in self.cells:
            for v in c.loop:
                out.setdefault(int(v), []).append(c.id)
        for v in out:
            out[v] = sorted(set(out[v]))
        return out


@dataclass
class ValidationReport:
    """Per-cell residuals of the geometric identities plus topology checks."""

    identity_residuals: np.ndarray
    cone_sum_residuals: np.ndarray
    closure_residuals: np.ndarray
    volume_residual: float
    topology_errors: list[str]
    tolerance: float = 1e-10

    @property
    def passed(self) -> bool:
        return (
            not self.topology_errors
            and float(np.max(self.identity_residuals, initial=0.0)) <= self.tolerance
            and float(np.max(self.cone_sum_residuals, initial=0.0)) <= self.tolerance
            and float(np.max(self.closure_residuals, initial=0.0)) <= self.tolerance
            and self.volume_residual <= self.tolerance
        )


@dataclass
class RegularityReport:
    theta_D: float
    theta_DB: float | None
    worst_cell_ratio: np.ndarray


def _polygon_area_centroid(pts: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed area and centroid of a simple polygon.

    Fan triangulation from the vertex average; exact for simple polygons,
    convex or not, and robust to collinear (split-edge) vertices.
    """
    origin = pts.mean(axis=0)
    q = pts - origin
    qn = np.roll(q, -1, axis=0)
    cross = q[:, 0] * qn[:, 1] - q[:, 1] * qn[:, 0]
    area = 0.5 * float(np.sum(cross))
    if area == 0.0:
        return 0.0, origin
    tri_centroids = origin + (q + qn) / 3.0
    centroid = (cross[:, None] * tri_centroids).sum(axis=0) / (2.0 * area)
    return area, centroid


def _apply_splits(loop: list[int], splits: dict[tuple[int, int], list[int]]) -> list[int]:
    """Insert recorded hanging vertices into every refined edge of a loop."""
    if not splits:
        return list(loop)
    out: list[int] = []
    n = len(loop)
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        out.append(a)
        if (a, b) in splits:
            out.extend(splits[(a, b)])
        elif (b, a) in splits:
            out.extend(reversed(splits[(b, a)]))
    return out


def compute_geometry(
    vertices: np.ndarray,
    loops: list[list[int]],
    cell_points: np.ndarray | None = None,
    splits: dict[tuple[int, int], list[int]] | None = None,
) -> Mesh:
    """Build a fully derived mesh from vertices and CCW cell vertex loops.

    Parameters
    ----------
    vertices : (V, 2) array of vertex coordinates.
    loops : one counter-clockwise vertex-id loop per cell.  Loops may
        contain collinear vertices; a straight cell side listed with an
        intermediate vertex is stored as two distinct faces, which is how
        nonconforming (hanging-node) adjacency is represented.
    cell_points : optional (M, 2) array of cell points; defaults to the
        centre of mass of each cell.
    splits : optional map (va, vb) -> [mid vertex ids] describing edge
        refinements to apply before face extraction.

    Raises
    ------
    NonStarShaped, DegenerateFace, InvalidTopology
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise InvalidTopology("expected (V, 2) vertex array")
    if not np.all(np.isfinite(vertices)):
        raise InvalidTopology("non-finite vertex coordinate")
    splits = dict(splits or {})
    nv = len(vertices)
    d = 2

    work_loops: list[list[int]] = []
    for ci, loop in enumerate(loops):
        if len(loop) < 3:
            raise InvalidTopology(f"cell {ci} has fewer than 3 vertices")
        if any(v < 0 or v >= nv for v in loop):
            raise InvalidTopology(f"cell {ci} references a missing vertex")
        work_loops.append(_apply_splits(list(loop), splits))

    # Face extraction: consecutive loop pairs, deduplicated by endpoint set.
    face_key_to_id: dict[frozenset[int], int] = {}
    face_vertices: list[tuple[int, int]] = []
    face_cells: list[list[int]] = []
    cell_face_ids: list[list[int]] = []
    for ci, loop in enumerate(work_loops):
        ids = []
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            if a == b:
                raise InvalidTopology(f"cell {ci} has a repeated consecutive vertex")
            key = frozenset((a, b))
            fid = face_key_to_id.get(key)
            if fid is None:
                fid = len(face_vertices)
                face_key_to_id[key] = fid
                face_vertices.append((a, b))
                face_cells.append([])
            if ci in face_cells[fid]:
                raise InvalidTopology(f"cell {ci} lists face {fid} twice")
            face_cells[fid].append(ci)
            ids.append(fid)
        cell_face_ids.append(ids)

    faces: list[Face] = []
    for fid, (a, b) in enumerate(face_vertices):
        owners = face_cells[fid]
        if len(owners) > 2:
            raise InvalidTopology(f"face {fid} shared by more than two cells")
        pa, pb = vertices[a], vertices[b]
        length = float(np.linalg.norm(pb - pa))
        centre = 0.5 * (pa + pb)
        faces.append(
            Face(
                id=fid,
                vertices=(a, b),
                cells=tuple(owners),
                measure=length,
                centre=centre,
                boundary=(len(owners) == 1),
            )
        )

    if cell_points is not None:
        cell_points = np.asarray(cell_points, dtype=float)
        if cell_points.shape != (len(loops), 2):
            raise InvalidTopology("cell_points shape mismatch")

    cells: list[Cell] = []
    for ci, loop in enumerate(work_loops):
        pts = vertices[np.asarray(loop)]
        area, centroid = _polygon_area_centroid(pts)
        if area <= 0.0:
            raise InvalidTopology(f"cell {ci} loop is not counter-clockwise or is degenerate")
        diam = _polygon_diameter(pts)
        xk = centroid if cell_points is None else cell_points[ci]

        fids = np.asarray(cell_face_ids[ci], dtype=int)
        k = len(fids)
        normals = np.empty((k, 2))
        dists = np.empty(k)
        fmeas = np.empty(k)
        fcent = np.empty((k, 2))
        n_loop = len(loop)
        for i in range(n_loop):
            a, b = loop[i], loop[(i + 1) % n_loop]
            pa, pb = vertices[a], vertices[b]
            t = pb - pa
            length = float(np.linalg.norm(t))
            if length <= DIST_REL_TOL * diam:
                raise DegenerateFace(f"cell {ci}, face {fids[i]}: zero measure")
            # CCW loop keeps the interior on the left; outward is the right side.
            normal = np.array([t[1], -t[0]]) / length
            centre = 0.5 * (pa + pb)
            dist = float(np.dot(centre - xk, normal))
            if dist <= DIST_REL_TOL * diam:
                raise NonStarShaped(
                    f"cell {ci}, face {fids[i]}: cell point distance {dist:.3e}"
                )
            normals[i] = normal
            dists[i] = dist
            fmeas[i] = length
            fcent[i] = centre
        cells.append(
            Cell(
                id=ci,
                faces=fids,
                loop=np.asarray(loop, dtype=int),
                point=np.asarray(xk, dtype=float),
                measure=area,
                diameter=diam,
                normals=normals,
                dists=dists,
                face_measures=fmeas,
                face_centres=fcent,
                cone_measures=fmeas * dists / d,
            )
        )

    return Mesh(
        dim=d,
        vertices=vertices,
        faces=faces,
        cells=cells,
        raw_loops=[list(l) for l in loops],
        splits=splits,
        cell_points_given=cell_points is not None,
    )


def _polygon_diameter(pts: np.ndarray) -> float:
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def domain_measure(mesh: Mesh) -> float:
    """Measure of the meshed domain from its boundary faces.

    Divergence theorem: |Omega| = (1/d) * sum over boundary faces of
    |sigma| * x_sigma . n_out, independent of the cell partition.
    """
    total = 0.0
    for f in mesh.faces:
        if not f.boundary:
            continue
        cell = mesh.cells[f.cells[0]]
        i = cell.local_index(f.id)
        total += f.measure * float(np.dot(f.centre, cell.normals[i]))
    return total / mesh.dim


def validate(mesh: Mesh, tolerance: float = 1e-10) -> ValidationReport:
    """Check the geometric identities every accepted mesh must satisfy.

    Per cell, relative residuals of

    * sum |sigma| n (x_sigma - x_K)^t = |K| Id,
    * sum |sigma| d(K,sigma) = d |K|,
    * sum |sigma| n = 0 (closed boundary),

    plus interior-face adjacency counts and the partition-of-domain
    check sum |K| = |Omega|.
    """
    d = mesh.dim
    n = mesh.n_cells
    ident = np.zeros(n)
    cone = np.zeros(n)
    closure = np.zeros(n)
    for c in mesh.cells:
        w = c.face_measures[:, None]
        m = (w * c.normals).T @ (c.face_centres - c.point[None, :])
        ident[c.id] = np.abs(m - c.measure * np.eye(d)).max() / c.measure
        cone[c.id] = abs(float(c.face_measures @ c.dists) - d * c.measure) / c.measure
        closure[c.id] = np.abs((w * c.normals).sum(axis=0)).max() / c.face_measures.sum()

    topo: list[str] = []
    for f in mesh.faces:
        if f.boundary and len(f.cells) != 1:
            topo.append(f"boundary face {f.id} with {len(f.cells)} cells")
        if not f.boundary and len(f.cells) != 2:
            topo.append(f"interior face {f.id} with {len(f.cells)} cells")
        for ci in f.cells:
            if f.id not in mesh.cells[ci].faces:
                topo.append(f"face {f.id} not listed by cell {ci}")

    domain = domain_measure(mesh)
    vol_rel = abs(sum(c.measure for c in mesh.cells) - domain) / abs(domain)
    return ValidationReport(
        identity_residuals=ident,
        cone_sum_residuals=cone,
        closure_residuals=closure,
        volume_residual=vol_rel,
        topology_errors=topo,
        tolerance=tolerance,
    )


def theta_D(mesh: Mesh) -> float:
    """Mesh regularity: max of interior distance ratios and h_K/d(K,sigma)."""
    worst = 0.0
    for c in mesh.cells:
        worst = max(worst, c.diameter / float(c.dists.min()))
    for f in mesh.faces:
        if f.boundary:
            continue
        k, l = f.cells
        dk = mesh.cells[k].dists[mesh.cells[k].local_index(f.id)]
        dl = mesh.cells[l].dists[mesh.cells[l].local_index(f.id)]
        worst = max(worst, dk / dl, dl / dk)
    return worst


def regularity(mesh: Mesh, weights=None) -> RegularityReport:
    """Regularity report; includes the weight-spread metric when weights given.

    The weight metric is, per cell K and barycentric face sigma of K,
    sum |beta| |x_point - x_sigma|^2 / h_K^2, maximised with theta_D.
    """
    td = theta_D(mesh)
    per_cell = np.array([c.diameter / float(c.dists.min()) for c in mesh.cells])
    tdb = None
    if weights is not None:
        tdb = td
        for c in mesh.cells:
            for fid in c.faces:
                entries = weights.support.get(int(fid))
                if entries is None:
                    continue
                spread = 0.0
                for kind, idx, beta in entries:
                    if kind == "cell":
                        p = mesh.cells[idx].point
                    else:
                        p = mesh.faces[idx].centre
                    spread += abs(beta) * float(np.sum((p - mesh.faces[fid].centre) ** 2))
                tdb = max(tdb, spread / c.diameter ** 2)
    return RegularityReport(theta_D=td, theta_DB=tdb, worst_cell_ratio=per_cell)


def theta_DB(mesh: Mesh, weights) -> float:
    """Regularity including the barycentric-weight spread term."""
    if weights is None:
        raise MissingWeights("weights required for theta_DB")
    return regularity(mesh, weights).theta_DB
