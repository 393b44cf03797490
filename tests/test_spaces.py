import numpy as np
import pytest

import sushi
from conftest import build_zigzag_three_row, cell_view, face_view, face_views
from sushi.errors import MissingRegionMap, MissingWeights, NoValidCombination
from sushi.spaces import (
    BARYCENTRIC,
    HYBRID,
    EdgePartition,
    compute_weights,
    interpolate,
    numbering_for,
    partition_faces,
)


def support_points(mesh, entries):
    pts, betas = [], []
    for kind, idx, beta in entries:
        pts.append(cell_view(mesh, idx).point if kind == "cell" else face_view(mesh, idx).centre)
        betas.append(beta)
    return np.array(pts), np.array(betas)


def check_affinity(mesh, weights, tol_sum=1e-10, tol_pos=None):
    tol_pos = 1e-10 * mesh.h if tol_pos is None else tol_pos
    for fid, entries in weights.support.items():
        assert 1 <= len(entries) <= 3  # at most d+1 support points
        pts, betas = support_points(mesh, entries)
        assert abs(betas.sum() - 1.0) <= tol_sum
        assert np.linalg.norm(betas @ pts - face_view(mesh, fid).centre) <= tol_pos


def test_partition_all_hybrid_and_barycentric():
    mesh = sushi.gen_rect(8, 6)
    hyb = partition_faces(mesh, "all-hybrid")
    assert len(hyb.hybrid_faces()) == 82
    assert not hyb.barycentric_faces()
    bar = partition_faces(mesh, "all-barycentric")
    assert len(bar.barycentric_faces()) == 82
    assert not bar.hybrid_faces()
    # boundary faces never enter B
    for f in mesh.boundary_faces():
        assert bar.tags[f] not in (HYBRID, BARYCENTRIC)


def test_partition_discontinuity_needs_regions():
    mesh = sushi.gen_rect(2, 2)
    with pytest.raises(MissingRegionMap):
        partition_faces(mesh, "discontinuity")


def test_partition_discontinuity_barrier_counts():
    mesh1, regions1 = sushi.gen_tilted_barrier(1)
    part1 = partition_faces(mesh1, "discontinuity", regions1)
    # ten faces on each barrier line plus the nine internal faces of the
    # one-cell-thick barrier layer
    assert len(part1.hybrid_faces()) == 29
    assert numbering_for(mesh1, part1).n == 239

    mesh2, regions2 = sushi.gen_tilted_barrier(2)
    part2 = partition_faces(mesh2, "discontinuity", regions2)
    assert len(part2.hybrid_faces()) == 20
    assert numbering_for(mesh2, part2).n == 1020


def test_midpoint_weights_on_uniform_grid():
    mesh = sushi.gen_rect(4, 4)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    for fid, entries in weights.support.items():
        k, l = face_view(mesh, fid).cells
        assert {(kind, idx) for kind, idx, _ in entries} == {("cell", k), ("cell", l)}
        assert all(beta == pytest.approx(0.5, abs=1e-14) for _, _, beta in entries)


def test_nonconforming_interface_weights_affine():
    mesh = sushi.gen_nonconforming_rect(2)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    check_affinity(mesh, weights, tol_sum=1e-12, tol_pos=1e-12)
    interface = [f.id for f in face_views(mesh)
                 if not f.boundary and abs(f.centre[0] - 0.5) < 1e-12]
    threes = [fid for fid in interface if len(weights.support[fid]) == 3]
    assert threes  # misaligned pieces need the full d+1 support


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: (sushi.gen_rect(6, 4), None),
        lambda: (sushi.gen_tri(4), None),
        lambda: (sushi.gen_nonconforming_rect(2), None),
        lambda: sushi.gen_tilted_barrier(1),
        lambda: sushi.gen_tilted_barrier(3),
    ],
)
def test_weight_affinity_invariant(mesh_fn):
    mesh, regions = mesh_fn()
    policy = "all-barycentric" if regions is None else "discontinuity"
    part = partition_faces(mesh, policy, regions)
    weights = compute_weights(mesh, part, regions)
    check_affinity(mesh, weights)


def test_weights_are_region_local_on_barrier():
    mesh, regions = sushi.gen_tilted_barrier(1)
    part = partition_faces(mesh, "discontinuity", regions)
    weights = compute_weights(mesh, part, regions)
    for fid, entries in weights.support.items():
        k, l = face_view(mesh, fid).cells
        assert regions[k] == regions[l]
        for kind, idx, _ in entries:
            if kind == "cell":
                assert regions[idx] == regions[k]


def test_theta_db_bounded_on_families():
    cases = [
        (sushi.gen_rect(6, 6), None),
        (sushi.gen_tri(4), None),
        (sushi.gen_nonconforming_rect(2), None),
        sushi.gen_tilted_barrier(1),
        sushi.gen_tilted_barrier(2),
    ]
    for mesh, regions in cases:
        policy = "all-barycentric" if regions is None else "discontinuity"
        part = partition_faces(mesh, policy, regions)
        weights = compute_weights(mesh, part, regions)
        assert sushi.theta_DB(mesh, weights) <= 4.0 * sushi.theta_D(mesh)


def test_weights_deterministic():
    mesh = sushi.gen_nonconforming_rect(2)
    part = partition_faces(mesh, "all-barycentric")
    w1 = compute_weights(mesh, part)
    w2 = compute_weights(mesh, part)
    assert w1.support == w2.support


def test_weights_csv_dump_deterministic(tmp_path):
    mesh = sushi.gen_nonconforming_rect(1)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    weights.dump_csv(p1)
    weights.dump_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith("face,kind,id,beta")


def test_extended_weights_use_hybrid_face_points():
    mesh, regions = build_zigzag_three_row(columns=3)
    part = partition_faces(mesh, "discontinuity", regions)
    # force the promoted one-layer faces back to barycentric so the
    # extended combination (cells plus hybrid-face points) is required
    tags = part.tags.copy()
    forced = []
    for f in face_views(mesh):
        if not f.boundary:
            k, l = f.cells
            if regions[k] == regions[l] == 2:
                tags[f.id] = BARYCENTRIC
                forced.append(f.id)
    assert forced
    part2 = EdgePartition(tags=tags, policy="custom")
    weights = compute_weights(mesh, part2, regions)
    check_affinity(mesh, weights, tol_sum=1e-12, tol_pos=1e-12 * mesh.h)
    kinds = {fid: {kind for kind, _, _ in weights.support[fid]} for fid in forced}
    assert any("face" in k for k in kinds.values())


def test_no_valid_combination_raises():
    # two non-collinear cells alone in their region, no hybrid faces nearby
    mesh, regions = build_zigzag_three_row(columns=2)
    mid = [f.id for f in face_views(mesh)
           if not f.boundary
           and regions[f.cells[0]] == regions[f.cells[1]] == 2]
    assert len(mid) == 1
    tags = np.full(mesh.n_faces, 0, dtype=np.int8)
    tags[mid[0]] = BARYCENTRIC
    part = EdgePartition(tags=tags, policy="custom")
    with pytest.raises(NoValidCombination):
        compute_weights(mesh, part, regions)


def test_interpolate_constant():
    mesh = sushi.gen_rect(3, 2)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    u = interpolate(mesh, part, weights, lambda p: 1.0, variant="pdb")
    assert np.allclose(u.cell_values, 1.0)
    assert np.allclose(u.face_values, 1.0)


def test_interpolate_affine_reproduction():
    mesh = sushi.gen_nonconforming_rect(1)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    aff = lambda p: 3.0 * p[0] - 2.0 * p[1] + 0.25
    u = interpolate(mesh, part, weights, aff, variant="pdb")
    for fid in part.barycentric_faces():
        exact = aff(face_view(mesh, fid).centre)
        assert u.face_values[fid] == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_interpolate_quartic_midpoint_value():
    quartic = lambda p: 16.0 * p[0] * (1 - p[0]) * p[1] * (1 - p[1])
    assert quartic((0.5, 0.5)) == 1.0
    mesh = sushi.gen_rect(1, 2)
    part = partition_faces(mesh, "all-hybrid")
    u = interpolate(mesh, part, None, quartic, variant="pd")
    mid = [f.id for f in face_views(mesh) if np.allclose(f.centre, [0.5, 0.5])]
    assert len(mid) == 1
    assert u.face_values[mid[0]] == 1.0


def test_interpolate_pdb_needs_weights():
    mesh = sushi.gen_rect(2, 2)
    part = partition_faces(mesh, "all-barycentric")
    with pytest.raises(MissingWeights):
        interpolate(mesh, part, None, lambda p: 0.0, variant="pdb")


def test_numbering_deterministic_and_complete():
    mesh = sushi.gen_rect(3, 3)
    part = partition_faces(mesh, "all-hybrid")
    num = numbering_for(mesh, part)
    assert num.n == mesh.n_cells + len(part.hybrid_faces())
    assert sorted(num.face_index.values()) == list(
        range(mesh.n_cells, num.n)
    )
