"""The flat weight table against the per-face search it replaced.

The reference below is the earlier ``compute_weights``: a loop over the
barycentric faces that builds every face's candidate list, tries the two
adjacent cell points one face at a time with BLAS dot products, and falls
back to the pair/triple search, storing ``face -> [(kind, id, beta)]``.
The table must hold the same faces and the same support points in the
same order, whatever the size of the blocks in which the batched search
takes its faces.  The array dot rounds differently from BLAS on some
faces, and the table solves each candidate triple in closed form
(Cramer's rule) where the reference calls LAPACK, so each beta is
compared within ``4 eps max(1, |beta|)``.
"""

from itertools import combinations

import numpy as np
import pytest

import sushi.spaces
from conftest import zigzag_partition
from sushi.run import parse_mesh_spec
from sushi.spaces import (
    AFFINE_TOL,
    CANDIDATE_CAP,
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
    found, got_rows, got_ids, got_beta = _best_supports(
        rows, np.concatenate([c for c, _, _ in sets]), np.concatenate([p for _, p, _ in sets]),
        np.array([x for _, _, x in sets]), 1.0)
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
    found, *support = _best_supports(np.zeros(3, dtype=int), np.arange(3), coords, x[None], 1.0)
    assert not found[0]
    assert all(len(s) == 0 for s in support)
