"""Discrete unknown spaces: face partition, barycentric weights, face expansion.

Interior faces are split into a hybrid set H (faces keeping their own
unknown) and a barycentric set B (faces whose value is eliminated as an
affine combination of nearby cell values).  The weights of a face sigma satisfy

    sum beta = 1   and   sum beta * x_K = x_sigma,

so that affine fields are reproduced exactly.  A face without such cells stays in H.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType

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
# Candidate index combinations, pairs (third index -1) before triples.
_COMBOS = np.array([(*c, -1) for c in combinations(range(CANDIDATE_CAP), 2)]
                   + list(combinations(range(CANDIDATE_CAP), SUPPORT_SIZE)))
# The candidate slots of each combination; a pair's third is the empty slot CANDIDATE_CAP.
_COMBO_SLOTS = np.where(_COMBOS < 0, CANDIDATE_CAP, _COMBOS)
# Faces that miss the natural pair are searched this many at a time, which
# bounds the search's transient arrays to about 1 MB.
SEARCH_BLOCK = 128


def sample_field(field, points: np.ndarray, name: str, shape: tuple = ()) -> np.ndarray:
    """Values of a user field at an (n, 2) point array, point axis first.

    The one contract for user fields (sources, boundary data, exact
    solutions and gradients, tensors): ``field(p)`` is called once, with
    x = ``p[0]`` and y = ``p[1]`` over any trailing shape, and returns
    ``shape`` plus that trailing shape.  A trailing 1 (a constant) is
    broadcast, and a scalar field may return one plain number.  Any other
    result shape, or a value that is not finite, raises ``ValueError``.
    """
    p = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    values = np.asarray(field(p), dtype=float)
    want = shape + p.shape[1:]
    if values.shape not in (want, shape + (1,)) and not (values.ndim == 0 and not shape):
        raise ValueError(f"field {name!r} returned shape {values.shape}, expected {want}")
    if not np.isfinite(values).all():
        raise ValueError(f"field {name!r} returned a non-finite value")
    return np.moveaxis(np.broadcast_to(values, want), -1, 0).copy()


@dataclass
class EdgePartition:
    """Per-face tag: DIRICHLET (boundary), HYBRID or BARYCENTRIC."""

    tags: np.ndarray
    policy: str = "custom"

    def barycentric_faces(self) -> list[int]:
        return np.flatnonzero(self.tags == BARYCENTRIC).tolist()


@dataclass
class BarycentricWeights:
    """CSR weight table over cell points, one row per face.

    Face sigma is ``sum beta[i] * u_K`` with ``K = points[i]``, over ``i``
    in ``ptr[sigma]:ptr[sigma + 1]``; a face without weights has an empty
    row.  A point id is a cell id, and so the column of that cell's
    unknown.  Entries are sorted by point id, and exact zeros stay stored.
    """

    ptr: np.ndarray
    points: np.ndarray
    beta: np.ndarray

    @property
    def support(self):
        """Read-only view ``face -> (("cell", id, beta), ...)``."""
        ptr = self.ptr.tolist()
        entries = [("cell", p, b) for p, b in zip(self.points.tolist(), self.beta.tolist())]
        return MappingProxyType({f: tuple(entries[ptr[f]:ptr[f + 1]])
                                 for f in range(len(ptr) - 1) if ptr[f + 1] > ptr[f]})


@dataclass
class DiscreteFunction:
    """Cell values plus materialized values on every face."""

    cell_values: np.ndarray
    face_values: np.ndarray


@dataclass
class UnknownNumbering:
    """Bijection retained unknowns <-> 0..N-1: cells first, then H faces.

    ``hybrid_faces`` is sorted; hybrid face ``hybrid_faces[i]`` is unknown
    ``n_cells + i``.
    """

    n_cells: int
    hybrid_faces: np.ndarray

    @property
    def n(self) -> int:
        return self.n_cells + len(self.hybrid_faces)


def numbering_for(mesh: Mesh, partition: EdgePartition) -> UnknownNumbering:
    return UnknownNumbering(mesh.n_cells, np.flatnonzero(partition.tags == HYBRID))


def face_expansions(mesh: Mesh, partition: EdgePartition,
                    weights: BarycentricWeights | None,
                    numbering: UnknownNumbering, dirichlet=None):
    """Face-expansion matrix ``P`` (n_faces x N) and Dirichlet constants ``c``.

    The value of face sigma is ``c[sigma] + (P @ x)[sigma]`` over the
    retained unknowns ``x``: a hybrid face is a unit row on its own
    unknown, a barycentric face holds its weights on the columns of its
    support cells, a Dirichlet face is an empty row whose constant is the
    boundary datum at its centre.  Every weight is stored, even an exact
    zero, so ``P`` carries the structure that the nonzero count NM follows.
    """
    check_weights(mesh, partition, weights)
    hybrid = numbering.hybrid_faces
    rows, cols, vals = hybrid, numbering.n_cells + np.arange(len(hybrid)), np.ones(len(hybrid))
    if weights is not None:
        rows = np.concatenate([rows, np.repeat(np.arange(mesh.n_faces), np.diff(weights.ptr))])
        cols = np.concatenate([cols, weights.points])
        vals = np.concatenate([vals, weights.beta])
    expansion = sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_faces, numbering.n))
    consts = np.zeros(mesh.n_faces)
    if dirichlet is not None:
        fixed = partition.tags == DIRICHLET
        consts[fixed] = sample_field(dirichlet, mesh.face_centre[fixed], "dirichlet")
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


def _pair_weights(p: np.ndarray, q: np.ndarray, x: np.ndarray,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise affine coordinates ``(1 - t, t)`` of ``x`` on the line ``p q``;
    ``ok`` is False where ``p == q`` or ``x`` is off it by more than ``AFFINE_TOL * h``.
    Row dots are stacked 1x2 @ 2x1 products, rounded as each row's own dot.
    """
    def dots(a, b):
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]

    d = q - p
    l2 = dots(d, d)
    t = dots(x - p, d) / np.where(l2 == 0.0, 1.0, l2)
    off = p + t[:, None] * d - x
    ok = (l2 != 0.0) & (np.sqrt(dots(off, off)) <= AFFINE_TOL * h)
    return np.stack([1.0 - t, t], axis=1), ok


def _triple_weights(p: np.ndarray, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise affine coordinates of ``x`` on the triangles ``p`` (m x 3 x 2) by
    Cramer's rule in the frame of their first point; ``ok`` is False where the
    determinant is zero or the residual exceeds ``AFFINE_TOL * max(h, 1)``."""
    e1, e2, r = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], x - p[:, 0]
    # cross products e1 x e2, r x e2 and e1 x r
    det, n1, n2 = (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] for a, b in ((e1, e2), (r, e2), (e1, r)))
    beta = np.stack([det - n1 - n2, n1, n2], axis=1) / np.where(det == 0.0, 1.0, det)[:, None]
    residual = np.column_stack([beta.sum(axis=1) - 1.0, (beta[:, :, None] * p).sum(axis=1) - x])
    ok = (det != 0.0) & (np.sqrt((residual ** 2).sum(axis=1)) <= AFFINE_TOL * max(h, 1.0))
    return beta, ok


def _candidate_cells(mesh: Mesh, faces: np.ndarray, vertex_map, regions):
    """Candidate cells of each face: entries ``(row, cell)``, sorted by row and id.

    The face's two cells and every cell whose loop passes through either of
    its vertices; with a region map, only those of the face's region if
    both its cells share one.
    """
    ptr, cells = vertex_map
    verts = mesh.face_vertices[faces].ravel()  # two per face row
    counts = ptr[verts + 1] - ptr[verts]
    # the cells of every vertex, one CSR row after the other
    near = cells[np.repeat(ptr[verts] - np.cumsum(counts) + counts, counts)
                 + np.arange(counts.sum())]
    k, l = mesh.face_cells[faces].T
    rows = np.concatenate([np.arange(len(faces)), np.arange(len(faces)),
                           np.repeat(np.arange(len(verts)) // 2, counts)])
    # without duplicates, sorted by row, then id
    rows, ids = np.divmod(np.unique(rows * mesh.n_cells + np.concatenate([k, l, near])),
                          mesh.n_cells)
    if regions is not None:
        same = regions[k] == regions[l]
        keep = ~same[rows] | (regions[ids] == regions[k][rows])
        rows, ids = rows[keep], ids[keep]
    return rows, ids


def _best_supports(rows: np.ndarray, ids: np.ndarray, pts: np.ndarray,
                   x: np.ndarray, h: float):
    """Smallest-spread valid support of every face row among its candidates.

    Candidate ``i`` of face row ``rows[i]`` is point ``ids[i]`` at ``pts[i]``,
    sorted by row and then by id; row ``r`` has centre ``x[r]``.  Every pair
    and triple of the ``CANDIDATE_CAP`` nearest candidates of a row, taken in
    id order, competes on sum |beta| |p - x|^2, the quantity entering the
    mesh-regularity metric: all rows at once, as one array of (row,
    combination) cases.  A weight over 1e6 rejects a case.  Spreads equal up
    to rounding are ties (structured meshes produce exactly tied supports);
    ties prefer the most compact support (smallest maximum point distance),
    then the lowest sorted point ids, which keeps the selection invariant
    under mesh symmetries.  Returns ``found`` per row (False where no case
    is valid) and the support entries ``(row, id, beta)`` of the found rows,
    sorted by row and id, without exact zeros.
    """
    n_rows = len(x)
    dist2 = ((pts - x[rows]) ** 2).sum(axis=1)
    # the CANDIDATE_CAP nearest of each row by (dist2, id), back in id order
    first = np.searchsorted(rows, np.arange(n_rows))
    order = np.lexsort((ids, dist2, rows))
    near = np.zeros(len(rows), dtype=bool)
    near[order] = np.arange(len(rows)) - first[rows[order]] < CANDIDATE_CAP
    rows, pts = rows[near], pts[near]
    # Slot CANDIDATE_CAP of each row is a pair's third point: distance 0, id -1
    # (so [a, b] precedes [a, b, c]).
    ids, dist2 = np.append(ids[near], -1), np.append(dist2[near], 0.0)
    count = np.bincount(rows, minlength=n_rows)
    entry = np.full((n_rows, CANDIDATE_CAP + 1), len(rows))
    entry[rows, np.arange(len(rows)) - (np.cumsum(count) - count)[rows]] = np.arange(len(rows))
    row, combo = np.nonzero(_COMBOS.max(axis=1) < count[:, None])
    case = entry[row[:, None], _COMBO_SLOTS[combo]]
    pair = _COMBOS[combo, -1] < 0
    beta, ok = np.zeros(case.shape), np.zeros(len(case), dtype=bool)
    beta[pair, :2], ok[pair] = _pair_weights(pts[case[pair, 0]], pts[case[pair, 1]],
                                             x[row[pair]], h)
    beta[~pair], ok[~pair] = _triple_weights(pts[case[~pair]], x[row[~pair]], h)
    ok &= np.abs(beta).max(axis=1) <= 1e6
    spread = (np.abs(beta) * dist2[case]).sum(axis=1)
    least = np.full(n_rows, np.inf)
    np.minimum.at(least, row[ok], spread[ok])
    ties = np.flatnonzero(ok & (spread <= least[row] * (1.0 + 1e-9) + 1e-300))
    tie_ids = ids[case[ties]]
    ties = ties[np.lexsort((*tie_ids.T[::-1], dist2[case[ties]].max(axis=1), row[ties]))]
    best = ties[np.flatnonzero(np.diff(row[ties], prepend=-1))]
    keep = beta[best] != 0.0
    found = np.zeros(n_rows, dtype=bool)
    found[row[best]] = True
    return found, row[best][np.nonzero(keep)[0]], ids[case[best]][keep], beta[best][keep]


def compute_weights(mesh: Mesh, partition: EdgePartition,
                    regions: np.ndarray | None = None) -> BarycentricWeights:
    """Affine elimination weights over cell points for every barycentric face.

    The two adjacent cell points are tried first, for all faces at once;
    only the faces off their line search further, ``SEARCH_BLOCK`` faces
    at a time, each block in one array pass (:func:`_best_supports`) that
    bounds its transient arrays to a few MB.  Without a region map, any
    nearby cell point may enter a support.  With one, supports are
    restricted to the region of the face's two adjacent cells.  When some
    faces have no cell support, ``NoValidCombination`` is raised once, after
    every block: its message names the first such face and its ``faces``
    lists them all.
    """
    h = mesh.h
    bary = np.flatnonzero(partition.tags == BARYCENTRIC)
    pair = mesh.face_cells[bary]
    # K and L always belong to the face's own support region.
    beta, ok = _pair_weights(mesh.cell_point[pair[:, 0]], mesh.cell_point[pair[:, 1]],
                             mesh.face_centre[bary], h)
    found = [(np.repeat(bary[ok], 2), pair[ok].ravel(), beta[ok].ravel())]
    searched = bary[~ok]
    unsupported = []
    if len(searched):
        vertex_map = mesh.vertex_cell_map()
        for start in range(0, len(searched), SEARCH_BLOCK):
            faces = searched[start:start + SEARCH_BLOCK]
            rows, ids = _candidate_cells(mesh, faces, vertex_map, regions)
            got, row, point, value = _best_supports(rows, ids, mesh.cell_point[ids],
                                                    mesh.face_centre[faces], h)
            found.append((faces[row], point, value))
            unsupported += faces[~got].tolist()
    if unsupported:
        raise NoValidCombination(f"face {unsupported[0]}: no affine support found",
                                 faces=unsupported)
    faces, points, values = (np.concatenate(a) for a in zip(*found))
    log.debug("weights: %d natural pairs, %d cell searches; max |beta| %.3g",
              ok.sum(), (~ok).sum(), np.abs(values).max(initial=0.0))
    order = np.lexsort((points, faces))
    for fid in np.unique(faces[np.abs(values) > 4.0]).tolist():
        log.warning("face %d: weight magnitude %.3g exceeds 4", fid,
                    np.abs(values[faces == fid]).max())
    ptr = np.concatenate([[0], np.cumsum(np.bincount(faces, minlength=mesh.n_faces))])
    return BarycentricWeights(ptr, points[order], values[order])


def check_weights(mesh: Mesh, partition: EdgePartition,
                  weights: BarycentricWeights | None) -> None:
    """Raise unless the occupied rows of the table are exactly the B faces
    and every point id is a cell id.

    ``MissingWeights`` when there is no table, ``InconsistentWeights`` otherwise.
    """
    bary = partition.tags == BARYCENTRIC
    if weights is None:
        if bary.any():
            raise MissingWeights("partition has barycentric faces but no weights")
        return
    have = np.diff(weights.ptr) > 0
    outside = (weights.points < 0) | (weights.points >= mesh.n_cells)
    off_cells = np.zeros_like(have)
    off_cells[np.repeat(np.arange(len(have)), np.diff(weights.ptr))[outside]] = True
    for wrong, what in ((bary & ~have, "missing weights for faces"),
                        (have & ~bary, "weights given for non-B faces"),
                        (off_cells, "support points that are not cells for faces")):
        if wrong.any():
            raise InconsistentWeights(f"{what} {np.nonzero(wrong)[0][:5].tolist()}")
