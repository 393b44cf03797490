"""Discrete unknown spaces: face partition, barycentric weights, interpolation.

Interior faces are split into a hybrid set H (faces keeping their own
unknown) and a barycentric set B (faces whose value is eliminated as an
affine combination of nearby cell values, or of cell values plus hybrid
face values).  The weights of a face sigma satisfy

    sum beta = 1   and   sum beta * x_point = x_sigma,

so that affine fields are reproduced exactly.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .errors import (
    InconsistentWeights,
    MissingRegionMap,
    MissingWeights,
    NoValidCombination,
)
from .geometry import Mesh

log = logging.getLogger(__name__)

# Face tags.
DIRICHLET = 0
HYBRID = 1
BARYCENTRIC = 2

POLICIES = ("all-hybrid", "all-barycentric", "discontinuity")

# Collinearity / affinity acceptance for weight candidates, relative to h.
AFFINE_TOL = 1e-12
# Barycentric supports use at most d+1 points; candidates are capped to the
# nearest few before enumerating triples.
SUPPORT_SIZE = 3
CANDIDATE_CAP = 8


@dataclass
class EdgePartition:
    """Per-face tag: DIRICHLET (boundary), HYBRID or BARYCENTRIC."""

    tags: np.ndarray
    policy: str = "custom"

    def hybrid_faces(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.tags == HYBRID)[0]]

    def barycentric_faces(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.tags == BARYCENTRIC)[0]]


@dataclass
class BarycentricWeights:
    """Sparse weight table: face id -> [(kind, id, beta)], kind 'cell'|'face'."""

    support: dict[int, list[tuple[str, int, float]]] = field(default_factory=dict)

    def reconstruct(self, face_id: int, cell_values: np.ndarray,
                    face_values: np.ndarray) -> float:
        entries = self.support.get(face_id)
        if entries is None:
            raise MissingWeights(f"no weights for face {face_id}")
        total = 0.0
        for kind, idx, beta in entries:
            total += beta * (cell_values[idx] if kind == "cell" else face_values[idx])
        return total

    def dump_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["face", "kind", "id", "beta"])
            for fid in sorted(self.support):
                for kind, idx, beta in self.support[fid]:
                    writer.writerow([fid, kind, idx, repr(beta)])


@dataclass
class DiscreteFunction:
    """Cell values plus materialized values on every face."""

    cell_values: np.ndarray
    face_values: np.ndarray


@dataclass
class UnknownNumbering:
    """Bijection retained unknowns <-> 0..N-1: cells first, then H faces."""

    n_cells: int
    hybrid_faces: list[int]
    face_index: dict[int, int]

    @property
    def n(self) -> int:
        return self.n_cells + len(self.hybrid_faces)


def numbering_for(mesh: Mesh, partition: EdgePartition) -> UnknownNumbering:
    hyb = sorted(partition.hybrid_faces())
    return UnknownNumbering(
        n_cells=mesh.n_cells,
        hybrid_faces=hyb,
        face_index={f: mesh.n_cells + i for i, f in enumerate(hyb)},
    )


def face_expansions(mesh: Mesh, partition: EdgePartition,
                    weights: BarycentricWeights | None,
                    numbering: UnknownNumbering, dirichlet=None):
    """Face-expansion matrix ``P`` (n_faces x N) and Dirichlet constants ``c``.

    The value of face sigma is ``c[sigma] + (P @ x)[sigma]`` over the
    retained unknowns ``x``: a hybrid face is a unit row on its own
    unknown, a barycentric face holds its weights (columns of cells or of
    hybrid faces), a Dirichlet face is an empty row whose constant is the
    boundary datum at its centre.  Every weight is stored, even an exact
    zero, so ``P`` carries the structure that the nonzero count NM follows.
    """
    rows = list(numbering.hybrid_faces)
    cols = [numbering.face_index[f] for f in rows]
    vals = [1.0] * len(rows)
    for fid in partition.barycentric_faces():
        if weights is None or fid not in weights.support:
            raise MissingWeights(f"no weights for face {fid}")
        for kind, idx, beta in weights.support[fid]:
            rows.append(fid)
            cols.append(idx if kind == "cell" else numbering.face_index[idx])
            vals.append(beta)
    expansion = sp.csr_matrix(
        (np.array(vals, dtype=float),
         (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(mesh.n_faces, numbering.n),
    )
    consts = np.zeros(mesh.n_faces)
    if dirichlet is not None:
        for fid in np.nonzero(partition.tags == DIRICHLET)[0]:
            consts[fid] = dirichlet(mesh.face_centre[fid])
    return expansion, consts


def _pinched_cells(mesh: Mesh, regions: np.ndarray) -> np.ndarray:
    """Cells whose face-neighbours span at least two foreign regions.

    Such cells sit in a region layer that is locally one cell thick; an
    interior face between two of them has no well-spread same-region
    support, so the discontinuity policy keeps its unknown hybrid.
    """
    regions = np.asarray(regions)
    k, l = mesh.face_cells[~mesh.face_boundary].T
    jump = regions[k] != regions[l]
    # distinct (cell, foreign region) pairs, counted per cell
    cells = np.concatenate([k[jump], l[jump]])
    foreign = np.concatenate([regions[l[jump]], regions[k[jump]]]).astype(np.int64)
    cells = np.unique(np.stack([cells, foreign], axis=1), axis=0)[:, 0]
    return np.bincount(cells, minlength=mesh.n_cells) >= 2


def partition_faces(mesh: Mesh, policy: str,
                    regions: np.ndarray | None = None) -> EdgePartition:
    """Tag every face according to the chosen policy.

    ``all-hybrid`` keeps an unknown on every interior face, the pure
    hybrid scheme.  ``all-barycentric`` eliminates them all, the pure
    cell-centred scheme.  ``discontinuity`` keeps unknowns only on faces
    whose two cells carry different region tags, plus faces between
    pinched cells of a one-cell-thick region layer (see
    :func:`_pinched_cells`); everything else is eliminated.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    tags = np.full(mesh.n_faces, DIRICHLET, dtype=np.int8)
    interior = ~mesh.face_boundary
    if policy == "all-hybrid":
        tags[interior] = HYBRID
    elif policy == "all-barycentric":
        tags[interior] = BARYCENTRIC
    else:
        if regions is None:
            raise MissingRegionMap("policy 'discontinuity' needs a region map")
        regions = np.asarray(regions)
        pinched = _pinched_cells(mesh, regions)
        k, l = mesh.face_cells[interior].T
        keep = (regions[k] != regions[l]) | (pinched[k] & pinched[l])
        tags[interior] = np.where(keep, HYBRID, BARYCENTRIC)
    return EdgePartition(tags=tags, policy=policy)


def _solve_pair(p: np.ndarray, q: np.ndarray, x: np.ndarray,
                h: float) -> tuple[float, float] | None:
    d = q - p
    l2 = float(d @ d)
    if l2 == 0.0:
        return None
    t = float((x - p) @ d) / l2
    if np.linalg.norm(p + t * d - x) > AFFINE_TOL * h:
        return None
    return 1.0 - t, t


def _solve_triple(pts: np.ndarray, x: np.ndarray, h: float) -> np.ndarray | None:
    a = np.vstack([np.ones(3), pts.T])
    b = np.array([1.0, x[0], x[1]])
    try:
        beta = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    if np.linalg.norm(a @ beta - b) > AFFINE_TOL * max(h, 1.0):
        return None
    return beta


def _candidate_points(mesh, fid, regions, region, vertex_cells, hybrid_touching):
    """Candidate (kind, id, point) support points near face ``fid``.

    Cell points of all cells sharing a vertex with the face; when a region
    map is active only same-region cells qualify, and hybrid-face
    barycentres touching that region are appended for the extended
    formula.
    """
    near_cells: set[int] = {c for c in mesh.face_cells[fid].tolist() if c >= 0}
    for v in mesh.face_vertices[fid].tolist():
        near_cells.update(vertex_cells.get(v, ()))
    if regions is not None and region is not None:
        near_cells = {c for c in near_cells if regions[c] == region}
    cands = [("cell", c, mesh.cell_point[c]) for c in sorted(near_cells)]
    extended = []
    if hybrid_touching is not None:
        near_faces: set[int] = set()
        for c in near_cells:
            near_faces.update(mesh.cone_face[mesh.cones(c)].tolist())
        for g in sorted(near_faces):
            if g != fid and g in hybrid_touching:
                extended.append(("face", g, mesh.face_centre[g]))
    return cands, extended


def _best_support(cands, x, h):
    """Smallest-spread valid support among the candidates.

    Every pair and triple of the nearest candidates competes on
    sum |beta| |p - x|^2, the quantity entering the mesh-regularity
    metric.  Spreads equal up to rounding are ties (structured meshes
    produce exactly tied supports); ties prefer the most compact support
    (smallest maximum point distance), then lowest candidate ids, which
    keeps the selection invariant under mesh symmetries.
    """
    ranked = sorted(cands, key=lambda c: (float(np.sum((c[2] - x) ** 2)), c[0], c[1]))
    ranked = ranked[:CANDIDATE_CAP]
    options = []
    for combo in list(combinations(range(len(ranked)), 2)) + list(
        combinations(range(len(ranked)), SUPPORT_SIZE)
    ):
        pts = np.array([ranked[i][2] for i in combo])
        if len(combo) == 2:
            sol = _solve_pair(pts[0], pts[1], x, h)
        else:
            sol = _solve_triple(pts, x, h)
        if sol is None:
            continue
        betas = np.asarray(sol, dtype=float)
        if np.abs(betas).max() > 1e6:
            continue
        dist2 = np.sum((pts - x) ** 2, axis=1)
        spread = float(np.sum(np.abs(betas) * dist2))
        ids = tuple(sorted((ranked[i][0], ranked[i][1]) for i in combo))
        support = [
            (ranked[i][0], ranked[i][1], float(b))
            for i, b in zip(combo, betas)
            if b != 0.0
        ]
        options.append((spread, float(dist2.max()), ids, support))
    if not options:
        return None
    best_spread = min(o[0] for o in options)
    ties = [o for o in options if o[0] <= best_spread * (1.0 + 1e-9) + 1e-300]
    ties.sort(key=lambda o: (o[1], o[2]))
    return ties[0][3]


def compute_weights(mesh: Mesh, partition: EdgePartition,
                    regions: np.ndarray | None = None) -> BarycentricWeights:
    """Affine elimination weights for every barycentric face.

    Without a region map, any nearby cell point may enter a support.  With
    one, supports are restricted to the region of the face's two adjacent
    cells; if no same-region cell support exists the search is extended
    with hybrid-face barycentres touching that region (the one-cell-thick
    layer case).

    Raises ``NoValidCombination`` when no local support satisfies the
    affine conditions.
    """
    h = mesh.h
    vertex_cells = mesh.vertex_cell_map()
    hybrid_set = set(partition.hybrid_faces())
    weights = BarycentricWeights()
    for fid in partition.barycentric_faces():
        k, l = mesh.face_cells[fid].tolist()
        region = None
        if regions is not None and regions[k] == regions[l]:
            region = int(regions[k])
        cands, extended = _candidate_points(
            mesh, fid, regions, region,
            vertex_cells, hybrid_set if regions is not None else None,
        )
        x = mesh.face_centre[fid]
        # Natural choice first: the two adjacent cell points, when collinear.
        pk, pl = mesh.cell_point[k], mesh.cell_point[l]
        allowed = {c for _, c, _ in cands}
        support = None
        if k in allowed and l in allowed:
            pair = _solve_pair(pk, pl, x, h)
            if pair is not None:
                support = [("cell", k, pair[0]), ("cell", l, pair[1])]
        if support is None:
            support = _best_support(cands, x, h)
        if support is None and extended:
            support = _best_support(cands + extended, x, h)
        if support is None:
            raise NoValidCombination(f"face {fid}: no affine support found")
        support.sort(key=lambda e: (e[0], e[1]))
        worst = max(abs(b) for _, _, b in support)
        if worst > 4.0:
            log.warning("face %d: weight magnitude %.3g exceeds 4", fid, worst)
        weights.support[fid] = support
    return weights


def check_weights(mesh: Mesh, partition: EdgePartition,
                  weights: BarycentricWeights) -> None:
    """Raise InconsistentWeights unless the table covers exactly the B faces."""
    bary = set(partition.barycentric_faces())
    have = set(weights.support)
    if bary - have:
        raise InconsistentWeights(f"missing weights for faces {sorted(bary - have)[:5]}")
    if have - bary:
        raise InconsistentWeights(f"weights given for non-B faces {sorted(have - bary)[:5]}")


def interpolate(mesh: Mesh, partition: EdgePartition,
                weights: BarycentricWeights | None, func,
                variant: str = "pdb") -> DiscreteFunction:
    """Sample a scalar field into the discrete space.

    ``variant='pd'`` evaluates the field at every cell point and face
    barycentre, boundary faces included.  ``variant='pdb'`` evaluates at
    cell points and at hybrid and boundary faces but fills barycentric
    faces with their weight combination.
    """
    cell_values = np.array([func(x) for x in mesh.cell_point], dtype=float)
    face_values = np.array([func(x) for x in mesh.face_centre], dtype=float)
    if variant == "pd":
        return DiscreteFunction(cell_values, face_values)
    if variant != "pdb":
        raise ValueError("variant must be 'pd' or 'pdb'")
    bary = partition.barycentric_faces()
    if bary and weights is None:
        raise MissingWeights("P_{D,B} interpolation needs weights")
    # Hybrid values are already exact; overwrite the B faces in id order
    # (supports may reference hybrid faces, never other B faces).
    for fid in bary:
        face_values[fid] = weights.reconstruct(fid, cell_values, face_values)
    return DiscreteFunction(cell_values, face_values)
