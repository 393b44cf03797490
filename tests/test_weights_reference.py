"""The weight search against two references.

The first is the earlier per-face ``compute_weights``: a loop over the
barycentric faces that builds every face's candidate list, tries the two
adjacent cell points one face at a time with BLAS dot products, and falls
back to the pair/triple search, storing ``face -> [(kind, id, beta)]``.
The table must hold the same faces and the same support points in the
same order, whatever the size of the blocks in which the batched search
takes its faces.  The array dot rounds differently from BLAS on some
faces, and the table solves each candidate triple in closed form
(Cramer's rule) where the reference calls LAPACK, so each beta is
compared within ``4 eps max(1, |beta|)``.

The second is the array search that the coordinate-array search replaced
(``oracle_*`` below, kept verbatim): one array of (row, combination)
cases per block of faces, ``(m, 3, 2)`` point gathers and every pair
solved.  Against it the table must be equal bit for bit, dtypes included,
for every search block size.
"""

import tempfile
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import sushi.spaces
from conftest import jittered_file_mesh, polygon_soup, zigzag_partition
from sushi.geometry import Mesh, compute_geometry
from sushi.run import parse_mesh_spec
from sushi.spaces import (
    AFFINE_TOL,
    BARYCENTRIC,
    CANDIDATE_CAP,
    SEARCH_BLOCK,
    SUPPORT_SIZE,
    _best_supports,
    compute_weights,
    partition_faces,
)

BETA_TOL = 4.0 * np.finfo(float).eps


def reference_vertex_cells(mesh):
    keys = np.unique(mesh.cone_vertex.astype(np.int64) * mesh.n_cells + mesh.cone_cell)
    verts, cells = np.divmod(keys, mesh.n_cells)
    cuts = np.nonzero(np.diff(verts))[0] + 1
    return {int(v[0]): c.tolist() for v, c in zip(np.split(verts, cuts), np.split(cells, cuts))}


def reference_solve_pair(p, q, x, h):
    d = q - p
    l2 = float(d @ d)
    if l2 == 0.0:
        return None
    t = float((x - p) @ d) / l2
    if np.linalg.norm(p + t * d - x) > AFFINE_TOL * h:
        return None
    return 1.0 - t, t


def reference_solve_triple(pts, x, h):
    a = np.vstack([np.ones(3), pts.T])
    b = np.array([1.0, x[0], x[1]])
    try:
        beta = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    if np.linalg.norm(a @ beta - b) > AFFINE_TOL * max(h, 1.0):
        return None
    return beta


def closed_form_triple(pts, x, h):
    """The table's closed form (Cramer's rule) for one triple.

    On dyadic lattice points every product and difference is exact, so
    each weight is one rounded quotient in any frame and this agrees with
    the table bit for bit; it isolates the selection rule from LAPACK.
    """
    e1, e2, r = pts[1] - pts[0], pts[2] - pts[0], x - pts[0]
    det, n1, n2 = (a[0] * b[1] - a[1] * b[0] for a, b in ((e1, e2), (r, e2), (e1, r)))
    if det == 0.0:
        return None
    beta = np.array([det - n1 - n2, n1, n2]) / det
    a = np.vstack([np.ones(3), pts.T])
    if np.linalg.norm(a @ beta - np.array([1.0, x[0], x[1]])) > AFFINE_TOL * max(h, 1.0):
        return None
    return beta


def reference_candidates(mesh, fid, regions, region, vertex_cells):
    near_cells = {c for c in mesh.face_cells[fid].tolist() if c >= 0}
    for v in mesh.face_vertices[fid].tolist():
        near_cells.update(vertex_cells.get(v, ()))
    if regions is not None and region is not None:
        near_cells = {c for c in near_cells if regions[c] == region}
    return [("cell", c, mesh.cell_point[c]) for c in sorted(near_cells)]


def reference_best_support(cands, x, h, solve_triple=reference_solve_triple):
    ranked = sorted(cands, key=lambda c: (float(np.sum((c[2] - x) ** 2)), c[0], c[1]))
    ranked = ranked[:CANDIDATE_CAP]
    options = []
    for combo in list(combinations(range(len(ranked)), 2)) + list(
        combinations(range(len(ranked)), SUPPORT_SIZE)
    ):
        pts = np.array([ranked[i][2] for i in combo])
        if len(combo) == 2:
            sol = reference_solve_pair(pts[0], pts[1], x, h)
        else:
            sol = solve_triple(pts, x, h)
        if sol is None:
            continue
        betas = np.asarray(sol, dtype=float)
        if np.abs(betas).max() > 1e6:
            continue
        dist2 = np.sum((pts - x) ** 2, axis=1)
        spread = float(np.sum(np.abs(betas) * dist2))
        ids = tuple(sorted((ranked[i][0], ranked[i][1]) for i in combo))
        support = [(ranked[i][0], ranked[i][1], float(b))
                   for i, b in zip(combo, betas) if b != 0.0]
        options.append((spread, float(dist2.max()), ids, support))
    if not options:
        return None
    best_spread = min(o[0] for o in options)
    ties = [o for o in options if o[0] <= best_spread * (1.0 + 1e-9) + 1e-300]
    ties.sort(key=lambda o: (o[1], o[2]))
    return ties[0][3]


def reference_weights(mesh, partition, regions=None):
    h = mesh.h
    vertex_cells = reference_vertex_cells(mesh)
    table = {}
    for fid in partition.barycentric_faces():
        k, l = mesh.face_cells[fid].tolist()
        region = None
        if regions is not None and regions[k] == regions[l]:
            region = int(regions[k])
        cands = reference_candidates(mesh, fid, regions, region, vertex_cells)
        x = mesh.face_centre[fid]
        allowed = {c for _, c, _ in cands}
        support = None
        if k in allowed and l in allowed:
            pair = reference_solve_pair(mesh.cell_point[k], mesh.cell_point[l], x, h)
            if pair is not None:
                support = [("cell", k, pair[0]), ("cell", l, pair[1])]
        if support is None:
            support = reference_best_support(cands, x, h)
        assert support is not None
        support.sort(key=lambda e: e[1])
        table[fid] = support
    return table


def build(spec):
    if spec == "zigzag":
        mesh, regions, part = zigzag_partition(columns=4)
        return mesh, part, regions
    mesh, regions, _ = parse_mesh_spec(spec)
    policy = "all-barycentric" if regions is None else "discontinuity"
    return mesh, partition_faces(mesh, policy, regions), regions


@pytest.mark.parametrize("spec", ["rect:8x6", "tri:8", "ncrect:2", "ncrect:4", "barrier:1",
                                  "barrier:2", "barrier:3", "zigzag"])
def test_weight_table_matches_face_loop(spec):
    mesh, part, regions = build(spec)
    weights = compute_weights(mesh, part, regions)
    ref = reference_weights(mesh, part, regions)

    occupied = np.nonzero(np.diff(weights.ptr))[0].tolist()
    assert occupied == sorted(ref)
    ref_points = [p for f in occupied for _, p, _ in ref[f]]
    ref_beta = np.array([b for f in occupied for _, _, b in ref[f]])
    assert weights.points.tolist() == ref_points
    assert np.all(np.abs(weights.beta - ref_beta) <= BETA_TOL * np.maximum(1.0, np.abs(ref_beta)))


@pytest.mark.parametrize("spec", ["ncrect:4", "barrier:2", "zigzag"])
def test_weight_table_independent_of_search_block(spec, monkeypatch):
    mesh, part, regions = build(spec)
    whole = compute_weights(mesh, part, regions)
    monkeypatch.setattr(sushi.spaces, "SEARCH_BLOCK", 7)
    blocks = compute_weights(mesh, part, regions)
    for name in ("ptr", "points", "beta"):
        assert np.array_equal(getattr(blocks, name), getattr(whole, name)), name


def test_selection_matches_option_list_on_lattices():
    # Up to 12 candidates with shuffled ids on a quarter lattice, around an
    # eighth-lattice point: exact spread and compactness ties, collinear and
    # repeated points, exact-zero weights, and the cap of 8 all occur.
    # The 200 sets are the rows of one batched call.
    sets = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        cands = np.sort(rng.choice(20, int(rng.integers(2, 13)), replace=False))
        coords = np.round(rng.random((20, 2)) * 4) / 4
        x = np.round(rng.random(2) * 8) / 8
        sets.append((cands, coords[cands], x))
    rows = np.repeat(np.arange(len(sets)), [len(c) for c, _, _ in sets])
    found, got_rows, got_ids, got_beta, _ = _best_supports(
        rows, np.concatenate([c for c, _, _ in sets]), np.concatenate([p for _, p, _ in sets]).T,
        np.array([x for _, _, x in sets]).T, 1.0)
    for seed, (cands, pts, x) in enumerate(sets):
        ref = reference_best_support([("cell", int(c), p) for c, p in zip(cands, pts)], x, 1.0,
                                     solve_triple=closed_form_triple)
        if ref is None:
            assert not found[seed], seed
            continue
        ref.sort(key=lambda e: e[1])
        assert found[seed], seed
        assert got_ids[got_rows == seed].tolist() == [p for _, p, _ in ref], seed
        assert got_beta[got_rows == seed].tolist() == [b for _, _, b in ref], seed


@pytest.mark.parametrize("pts,x", [
    # exact weights 2**21 on the pair (0, 2) and the triple: over the 1e6 bound
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0 ** -21]], [0.0, 1.0]),
    # weights ~5e4, under the bound, with a residual of ~3e-12 > AFFINE_TOL
    ([[0.0, 0.0], [1.0, 0.0], [2.0, 3e-5]], [0.3, 0.7]),
], ids=["weight-bound", "residual"])
def test_ill_conditioned_supports_are_rejected(pts, x):
    coords, x = np.array(pts), np.array(x)
    assert reference_best_support([("cell", i, p) for i, p in enumerate(coords)], x, 1.0) is None
    found, *support, _ = _best_supports(np.zeros(3, dtype=int), np.arange(3), coords.T,
                                        x[:, None], 1.0)
    assert not found[0]
    assert all(len(s) == 0 for s in support)


# ---------------------------------------------------------------------------
# The array search the coordinate-array search replaced, verbatim.

_COMBOS = np.array([(*c, -1) for c in combinations(range(CANDIDATE_CAP), 2)]
                   + list(combinations(range(CANDIDATE_CAP), SUPPORT_SIZE)))
_COMBO_SLOTS = np.where(_COMBOS < 0, CANDIDATE_CAP, _COMBOS)
ORACLE_BLOCK = 128


def oracle_pair_weights(p: np.ndarray, q: np.ndarray, x: np.ndarray,
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


def oracle_triple_weights(p: np.ndarray, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
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


def oracle_candidate_cells(mesh: Mesh, faces: np.ndarray, vertex_map, regions):
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


def oracle_best_supports(rows: np.ndarray, ids: np.ndarray, pts: np.ndarray,
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
    beta[pair, :2], ok[pair] = oracle_pair_weights(pts[case[pair, 0]], pts[case[pair, 1]],
                                             x[row[pair]], h)
    beta[~pair], ok[~pair] = oracle_triple_weights(pts[case[~pair]], x[row[~pair]], h)
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


def oracle_weights(mesh, partition, regions=None):
    """``(ptr, points, beta)`` as the earlier ``compute_weights`` built them."""
    h = mesh.h
    bary = np.flatnonzero(partition.tags == BARYCENTRIC)
    pair = mesh.face_cells[bary]
    beta, ok = oracle_pair_weights(mesh.cell_point[pair[:, 0]], mesh.cell_point[pair[:, 1]],
                                   mesh.face_centre[bary], h)
    found = [(np.repeat(bary[ok], 2), pair[ok].ravel(), beta[ok].ravel())]
    searched = bary[~ok]
    if len(searched):
        vertex_map = mesh.vertex_cell_map()
        for start in range(0, len(searched), ORACLE_BLOCK):
            faces = searched[start:start + ORACLE_BLOCK]
            rows, ids = oracle_candidate_cells(mesh, faces, vertex_map, regions)
            got, row, point, value = oracle_best_supports(rows, ids, mesh.cell_point[ids],
                                                          mesh.face_centre[faces], h)
            assert got.all()
            found.append((faces[row], point, value))
    faces, points, values = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((points, faces))
    ptr = np.concatenate([[0], np.cumsum(np.bincount(faces, minlength=mesh.n_faces))])
    return ptr, points[order], values[order]


ORACLE_SPECS = ["barrier:1", "barrier:2", "barrier:3", "barrier:2x4",
                *(f"ncrect:{n}" for n in range(1, 18)), *(f"tri:{n}" for n in range(4, 17)),
                "file", "soup", "zigzag"]


@lru_cache(maxsize=None)
def oracle_case(spec):
    """Mesh, partition, region map and the oracle's table of one spec."""
    rng = np.random.default_rng(20240811)
    regions = None
    if spec == "zigzag":
        mesh, regions, part = zigzag_partition(columns=4)
    else:
        if spec == "file":
            with tempfile.TemporaryDirectory() as tmp:
                mesh = jittered_file_mesh(rng, Path(tmp) / "jittered.mesh", "rect:12x10")
        elif spec == "soup":
            mesh = compute_geometry(*polygon_soup(rng))
        else:
            mesh, regions, _ = parse_mesh_spec(spec)
        policy = "all-barycentric" if regions is None else "discontinuity"
        part = partition_faces(mesh, policy, regions)
    return mesh, part, regions, oracle_weights(mesh, part, regions)


@pytest.mark.parametrize("block", [1, 7, 128, SEARCH_BLOCK])
@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_table_is_the_oracle_bit_for_bit(spec, block, monkeypatch):
    mesh, part, regions, expected = oracle_case(spec)
    monkeypatch.setattr(sushi.spaces, "SEARCH_BLOCK", block)
    weights = compute_weights(mesh, part, regions)
    for name, want in zip(("ptr", "points", "beta"), expected):
        got = getattr(weights, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def assert_search_is_the_oracle(rows, ids, pts, x, h):
    """``_best_supports`` on candidate and centre coordinate columns equals
    the oracle on ``(n, 2)`` arrays, bit for bit; returns the oracle's."""
    want = oracle_best_supports(rows, ids, pts, x, h)
    got = _best_supports(rows, ids, pts.T, x.T, h)[:4]
    for name, g, w in zip(("found", "rows", "ids", "beta"), got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name
    return want


def test_lattice_and_capped_sets_are_the_oracle_bit_for_bit():
    # the 200 lattice sets of the selection test (exact spread and
    # compactness ties, collinear and repeated points, exact-zero weights),
    # then 200 sets of 2 to 12 random points, so the cap of 8 applies
    ids, pts, x, rows = [], [], [], []
    for seed in range(400):
        rng = np.random.default_rng(seed)
        cands = np.sort(rng.choice(20, int(rng.integers(2, 13)), replace=False))
        coords = rng.random((20, 2))
        centre = rng.random(2)
        if seed < 200:
            coords, centre = np.round(coords * 4) / 4, np.round(centre * 8) / 8
        ids.append(cands)
        pts.append(coords[cands])
        x.append(centre)
        rows.append(np.full(len(cands), seed))
    found = assert_search_is_the_oracle(np.concatenate(rows), np.concatenate(ids),
                                        np.concatenate(pts), np.array(x), 1.0)[0]
    assert found.sum() > 300


@pytest.mark.parametrize("origin", [(0.0, 0.0), (1e3, -2e3)], ids=["origin", "far"])
@pytest.mark.parametrize("h", [1.0, 1e-3])
def test_pair_prefilter_keeps_the_oracle_decision(origin, h):
    # Face centres on the line of two candidates, and 1/2, 1 and 2 times
    # AFFINE_TOL h off it, along 7 directions; each set alone (pair only)
    # and with a third point off the line (a triple competes).  Far from
    # the origin, rounding exceeds the tolerance and decides.
    offsets = [0.0, 0.5, 1.0, 2.0]
    ids, pts, x, rows = [], [], [], []
    for angle in np.linspace(0.0, np.pi, 7):
        u = np.array([np.cos(angle), np.sin(angle)])
        n = np.array([-u[1], u[0]])
        p = np.array(origin) + 0.1 * h * n
        for f in offsets:
            for third in (False, True):
                pair = [p, p + h * u] + ([p + 0.7 * h * u + 0.5 * h * n] if third else [])
                ids.append(np.arange(len(pair)) + 5)
                pts.append(np.array(pair))
                x.append(p + 0.3 * h * u + f * AFFINE_TOL * h * n)
                rows.append(np.full(len(pair), len(x) - 1))
    found, got_rows, _, _ = assert_search_is_the_oracle(
        np.concatenate(rows), np.concatenate(ids), np.concatenate(pts), np.array(x), h)
    if origin == (0.0, 0.0) and h == 1.0:
        # alone, the pair is accepted on the line and 1/2 off it, not 2 off
        alone = found[0::2].reshape(7, len(offsets))
        assert alone[:, [0, 1]].all() and not alone[:, 3].any()
        # with a third point, the accepted pair still wins
        wins = np.bincount(got_rows, minlength=len(x))[1::2].reshape(7, len(offsets))
        assert (wins[:, [0, 1]] == 2).all() and (wins[:, 3] == 3).all()
