"""Discrete unknown spaces: face partition, barycentric weights, face expansion.

Interior faces are split into a hybrid set H (faces keeping their own
unknown) and a barycentric set B (faces whose value is eliminated as an
affine combination of nearby cell values).  The weights of a face sigma satisfy

    sum beta = 1   and   sum beta * x_K = x_sigma,

so that affine fields are reproduced exactly.  Under the ``discontinuity``
policy a face without such cells stays in H (:func:`compute_weights`).

The weights are found on coordinate arrays (:func:`compute_weights`): the
face's two cells first, then the pairs and triples of nearby cells, with
x and y, each weight and each candidate slot a separate array.  A pair is
solved only where its line passes within a safe margin of the face
centre; every other pair misses the tolerance by far more than rounding.
The (face, point, beta) entries of all blocks become the CSR table by one
sort, by face and then by point id.
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
# The pairs and triples of candidate slots, one column each, ordered by
# their largest slot: a row of c candidates takes the leading columns.
_PAIRS, _TRIPLES = (np.array(sorted(combinations(range(CANDIDATE_CAP), k), key=max)).T
                    for k in (2, SUPPORT_SIZE))
# Barycentric faces are taken this many at a time, which bounds the
# transient arrays of the natural pairs and of the search to about 1 MB.
SEARCH_BLOCK = 1024


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


def _candidate_cells(mesh: Mesh, faces: np.ndarray, vertex_map, regions):
    """Candidate cells of each face: entries ``(row, cell)``, sorted by row and id.

    Every cell whose loop passes through either of its vertices, the
    face's two cells among them; with a region map, only those of the
    face's region if both its cells share one.
    """
    ptr, cells = vertex_map
    verts = mesh.face_vertices[faces].ravel()  # two per face row
    counts = ptr[verts + 1] - ptr[verts]
    # the cells of every vertex, one CSR row after the other
    near = cells[np.repeat(ptr[verts] - np.cumsum(counts) + counts, counts)
                 + np.arange(counts.sum())]
    rows = np.repeat(np.arange(len(verts)) // 2, counts)
    # without duplicates, sorted by row, then id
    keys = np.sort(rows * mesh.n_cells + near)
    rows, ids = np.divmod(keys[np.diff(keys, prepend=-1) != 0], mesh.n_cells)
    if regions is not None:
        k, l = mesh.face_cells[faces].T
        same = regions[k] == regions[l]
        keep = ~same[rows] | (regions[ids] == regions[k][rows])
        rows, ids = rows[keep], ids[keep]
    return rows, ids


def _best_supports(rows: np.ndarray, ids: np.ndarray, pts, x, h: float):
    """Smallest-spread valid support of every face row among its candidates.

    Candidate ``i`` of face row ``rows[i]`` is point ``ids[i]`` at
    ``(pts[0][i], pts[1][i])``, sorted by row and then by id; row ``r`` has
    centre ``(x[0][r], x[1][r])``.  Every pair and triple of the
    ``CANDIDATE_CAP`` nearest candidates of a row, taken in id order,
    competes on sum |beta| |p - x|^2, the quantity entering the
    mesh-regularity metric.  The rows with the same number of candidates
    are searched together (:func:`_search_rows`).  Returns ``found`` per
    row (False where no case is valid), the support entries ``(row, id,
    beta)`` of the found rows, sorted by row and id, without exact zeros,
    and the numbers of pairs solved and of candidate pairs.
    """
    px, py = pts
    xx, xy = x
    n_rows = len(xx)
    dx, dy = px - xx[rows], py - xy[rows]
    dist2 = dx * dx + dy * dy
    count = np.bincount(rows, minlength=n_rows)
    if count.max(initial=0) > CANDIDATE_CAP:
        # the CANDIDATE_CAP nearest of each row by (dist2, id), back in id order
        order = np.lexsort((ids, dist2, rows))
        near = np.zeros(len(rows), dtype=bool)
        near[order] = np.arange(len(rows)) - (np.cumsum(count) - count)[rows[order]] < CANDIDATE_CAP
        rows, ids, px, py, dist2 = rows[near], ids[near], px[near], py[near], dist2[near]
        count = np.minimum(count, CANDIDATE_CAP)
    first = np.cumsum(count) - count
    # A pair is solved only when the centre is within twice the tolerance of
    # its line, plus 64 eps times the block's largest coordinate: far above
    # the rounding of the cross product and of the solve.
    scale = max(np.abs(a).max(initial=0.0) for a in (px, py, xx, xy))
    margin = 2.0 * AFFINE_TOL * h + 64.0 * np.finfo(float).eps * scale
    best = [(np.zeros(0, dtype=int), np.zeros((0, SUPPORT_SIZE), dtype=ids.dtype),
             np.zeros((0, SUPPORT_SIZE)))]
    tested = np.zeros(2, dtype=int)
    counts = np.flatnonzero(np.bincount(count))
    for c in counts[counts >= 2]:
        r = np.flatnonzero(count == c)
        e = first[r, None] + np.arange(c)
        got, pairs = _search_rows((px[e], py[e]), (xx[r, None], xy[r, None]), dist2[e],
                                   ids[e], margin, h)
        best.append((r[got[0]], *got[1:]))
        tested += pairs
    row, ids, beta = (np.concatenate(a) for a in zip(*best))
    order = np.argsort(row)
    row, ids, beta = row[order], ids[order], beta[order]
    keep = beta != 0.0
    found = np.zeros(n_rows, dtype=bool)
    found[row] = True
    return found, row[np.nonzero(keep)[0]], ids[keep], beta[keep], tested


def _search_rows(pts, x, dist2, ids, margin: float, h: float):
    """The best support of rows of ``c`` candidates each, as (rows, c) arrays.

    Pairs and triples of candidate slots are columns (``_PAIRS``,
    ``_TRIPLES``), and the coordinates and weights of a case are separate
    (rows, cases) arrays.  A pair is solved (:func:`_pair_weights`) only
    where the centre's cross-product distance from its line is within
    ``margin``; every other pair misses ``AFFINE_TOL h`` by far more than
    rounding.  A triple is solved by Cramer's rule in the frame of its first
    point; it is rejected where the determinant is zero or the residual
    exceeds ``AFFINE_TOL * max(h, 1)``.  A weight over 1e6 rejects a case.
    Spreads equal up to rounding are ties (structured meshes produce
    exactly tied supports); ties prefer the most compact support (smallest
    maximum point distance), then the lowest sorted point ids, which keeps
    the selection invariant under mesh symmetries.  Returns the rows with a
    valid case and, per slot, the ids and weights of their best case (a
    pair's third is id -1 with weight 0), and the numbers of pairs solved
    and of candidate pairs.
    """
    (px, py), (xx, xy) = pts, x
    n, c = px.shape
    sa, sb = _PAIRS[:, :c * (c - 1) // 2]
    ex, ey = px[:, sb] - px[:, sa], py[:, sb] - py[:, sa]
    i, j = np.nonzero(np.abs(ex * (xy - py[:, sa]) - ey * (xx - px[:, sa]))
                      <= margin * np.sqrt(ex * ex + ey * ey))
    a, b = sa[j], sb[j]
    beta, ok = _pair_weights(np.stack([px[i, a], py[i, a]], axis=1),
                             np.stack([px[i, b], py[i, b]], axis=1),
                             np.stack([xx[i, 0], xy[i, 0]], axis=1), h)
    ok &= np.abs(beta).max(axis=1) <= 1e6
    tested = np.array([len(ok), ex.size])
    i, a, b, (w0, w1) = i[ok], a[ok], b[ok], beta[ok].T
    pair_spread = np.abs(w0) * dist2[i, a] + np.abs(w1) * dist2[i, b]

    s0, s1, s2 = _TRIPLES[:, :c * (c - 1) * (c - 2) // 6]
    e1x, e1y, e2x, e2y = px[:, s1] - px[:, s0], py[:, s1] - py[:, s0], \
        px[:, s2] - px[:, s0], py[:, s2] - py[:, s0]
    rx, ry = xx - px[:, s0], xy - py[:, s0]
    det = e1x * e2y - e1y * e2x
    n1, n2 = rx * e2y - ry * e2x, e1x * ry - e1y * rx
    del e1x, e1y, e2x, e2y, rx, ry
    den = np.where(det == 0.0, 1.0, det)
    t0, t1, t2 = (det - n1 - n2) / den, n1 / den, n2 / den
    del n1, n2, den
    r0 = t0 + t1 + t2 - 1.0
    r1 = t0 * px[:, s0] + t1 * px[:, s1] + t2 * px[:, s2] - xx
    r2 = t0 * py[:, s0] + t1 * py[:, s1] + t2 * py[:, s2] - xy
    good = (det != 0.0) & (np.sqrt(r0 * r0 + r1 * r1 + r2 * r2) <= AFFINE_TOL * max(h, 1.0))
    del r0, r1, r2, det
    q0, q1, q2 = np.abs(t0), np.abs(t1), np.abs(t2)
    good &= np.maximum(np.maximum(q0, q1), q2) <= 1e6
    spread = q0 * dist2[:, s0] + q1 * dist2[:, s1] + q2 * dist2[:, s2]

    least = spread.min(axis=1, initial=np.inf, where=good)
    np.minimum.at(least, i, pair_spread)
    bound = least * (1.0 + 1e-9) + 1e-300
    p = np.flatnonzero(pair_spread <= bound[i])
    ti, tj = np.nonzero(good & (spread <= bound[:, None]))
    # the ties as triples: a pair's third is slot c, id -1 at distance 0, weight 0
    row = np.concatenate([i[p], ti])
    slots = np.stack([np.concatenate([a[p], s0[tj]]), np.concatenate([b[p], s1[tj]]),
                      np.concatenate([np.full(len(p), c), s2[tj]])])
    tie_ids = np.column_stack([ids, np.full(n, -1)])[row, slots]
    dist = np.column_stack([dist2, np.zeros(n)])[row, slots].max(axis=0)
    weights = np.concatenate([np.column_stack([w0[p], w1[p], np.zeros(len(p))]),
                              np.column_stack([t0[ti, tj], t1[ti, tj], t2[ti, tj]])])
    order = np.lexsort((*tie_ids[::-1], dist, row))
    first = order[np.flatnonzero(np.diff(row[order], prepend=-1))]
    return (row[first], tie_ids[:, first].T, weights[first]), tested


def compute_weights(mesh: Mesh, partition: EdgePartition,
                    regions: np.ndarray | None = None) -> BarycentricWeights:
    """Affine elimination weights over cell points for every barycentric face.

    The barycentric faces are taken ``SEARCH_BLOCK`` at a time.  The two
    adjacent cell points of each face are tried first; only the faces off
    their line search further, in one array pass per block
    (:func:`_best_supports`), which bounds the transient arrays to about
    1 MB.  Without a region map, any nearby cell point may enter a support.
    With one, supports are restricted to the region of the face's two
    adjacent cells.  A face with no cell support keeps its own unknown under
    ``discontinuity`` (the paper's remedy): it is retagged ``HYBRID`` in
    ``partition.tags``, in place, with an empty row and a DEBUG count.
    Under any other policy ``NoValidCombination`` is raised once, after
    every block: its message names the first such face and its ``faces``
    lists them all.  The entries of all blocks are then sorted into the
    table, by face and then by point id.  A DEBUG line counts the natural
    pairs, the searched faces, the candidate pairs solved out of all
    candidate pairs (the rest were set aside by the cross-product margin)
    and the largest |beta|.
    """
    h = mesh.h
    bary = np.flatnonzero(partition.tags == BARYCENTRIC)
    # the (face, point, beta) entries of every block, after a typed empty one
    entries, unsupported = [(bary[:0], mesh.face_cells[:0, 0], np.zeros(0))], []
    n_natural, tested, vertex_map = 0, np.zeros(2, dtype=int), None
    for start in range(0, len(bary), SEARCH_BLOCK):
        faces = bary[start:start + SEARCH_BLOCK]
        # K and L always belong to the face's own support region.
        pair = mesh.face_cells[faces]
        beta, ok = _pair_weights(np.take(mesh.cell_point, pair[:, 0], axis=0),
                                 np.take(mesh.cell_point, pair[:, 1], axis=0),
                                 np.take(mesh.face_centre, faces, axis=0), h)
        entries.append((np.repeat(faces[ok], 2), pair[ok].ravel(), beta[ok].ravel()))
        n_natural += int(ok.sum())
        faces = faces[~ok]
        if len(faces):
            if vertex_map is None:
                vertex_map = mesh.vertex_cell_map()
            rows, ids = _candidate_cells(mesh, faces, vertex_map, regions)
            got, row, point, value, pairs = _best_supports(
                rows, ids, np.take(mesh.cell_point, ids, axis=0).T,
                np.take(mesh.face_centre, faces, axis=0).T, h)
            entries.append((faces[row], point, value))
            unsupported += faces[~got].tolist()
            tested += pairs
    if unsupported and partition.policy != "discontinuity":
        raise NoValidCombination(f"face {unsupported[0]}: no affine support found",
                                 faces=unsupported)
    if unsupported:
        log.debug("partition: %d faces without a cell support kept hybrid", len(unsupported))
        partition.tags[unsupported] = HYBRID
    del vertex_map
    # the table: the entries by face, then by point id
    faces, points, values = (np.concatenate(column) for column in zip(*entries))
    del entries
    order = np.lexsort((points, faces))
    points, values = points[order].astype(mesh.face_cells.dtype, copy=False), values[order]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(faces, minlength=mesh.n_faces))])
    log.debug("weights: %d natural pairs, %d cell searches; %d of %d candidate pairs solved; "
              "max |beta| %.3g", n_natural, len(bary) - n_natural, *tested,
              np.abs(values).max(initial=0.0))
    big = np.flatnonzero(np.abs(values) > 4.0)
    for fid in np.unique(np.searchsorted(ptr, big, side="right") - 1).tolist():
        log.warning("face %d: weight magnitude %.3g exceeds 4", fid,
                    np.abs(values[ptr[fid]:ptr[fid + 1]]).max())
    return BarycentricWeights(ptr, points, values)


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
