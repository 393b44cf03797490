import logging
import re

import numpy as np
import pytest

import sushi
from conftest import (
    build_zigzag_three_row,
    face_view,
    face_views,
    traced_peak,
    weight_rows,
    weights_table,
    zigzag_partition,
)
from oracles import interpolate
from sushi.errors import (
    InconsistentWeights,
    MissingRegionMap,
    MissingWeights,
    NoValidCombination,
)
from sushi.problems import problem_from_descriptor, problem_tilted_barrier
from sushi.run import parse_mesh_spec, solve_problem
from sushi.spaces import (
    BARYCENTRIC,
    HYBRID,
    EdgePartition,
    check_weights,
    compute_weights,
    numbering_for,
    partition_faces,
)


def check_affinity(mesh, weights, tol_sum=1e-10, tol_pos=None):
    tol_pos = 1e-10 * mesh.h if tol_pos is None else tol_pos
    for fid, entries in weights.support.items():
        assert 1 <= len(entries) <= 3  # at most d+1 support points
        kinds, cells, betas = zip(*entries)
        assert set(kinds) == {"cell"}
        betas = np.array(betas)
        assert abs(betas.sum() - 1.0) <= tol_sum
        assert np.linalg.norm(betas @ mesh.cell_point[list(cells)]
                              - face_view(mesh, fid).centre) <= tol_pos


def test_partition_all_hybrid_and_barycentric():
    mesh = sushi.gen_rect(8, 6)
    hyb = partition_faces(mesh, "all-hybrid")
    assert len(np.flatnonzero(hyb.tags == HYBRID)) == 82
    assert not hyb.barycentric_faces()
    bar = partition_faces(mesh, "all-barycentric")
    assert len(bar.barycentric_faces()) == 82
    assert not (bar.tags == HYBRID).any()
    # boundary faces never enter B
    for f in np.flatnonzero(mesh.face_boundary):
        assert bar.tags[f] not in (HYBRID, BARYCENTRIC)


def test_partition_discontinuity_needs_regions():
    mesh = sushi.gen_rect(2, 2)
    with pytest.raises(MissingRegionMap):
        partition_faces(mesh, "discontinuity")


def test_partition_unknown_policy_names_the_policies():
    with pytest.raises(ValueError, match="unknown policy 'nope'; expected one of "
                                         r"\('all-hybrid', 'all-barycentric', 'discontinuity'\)"):
        partition_faces(sushi.gen_rect(2, 2), "nope")


def test_partition_discontinuity_barrier_counts():
    mesh1, regions1 = sushi.gen_tilted_barrier(1)
    part1 = partition_faces(mesh1, "discontinuity", regions1)
    # ten faces on each barrier line plus the nine internal faces of the
    # one-cell-thick barrier layer
    assert len(np.flatnonzero(part1.tags == HYBRID)) == 29
    assert numbering_for(mesh1, part1).n == 239

    mesh2, regions2 = sushi.gen_tilted_barrier(2)
    part2 = partition_faces(mesh2, "discontinuity", regions2)
    assert len(np.flatnonzero(part2.tags == HYBRID)) == 20
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
        for _, idx, _ in entries:
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
    for name in ("ptr", "points", "beta"):
        assert np.array_equal(getattr(w1, name), getattr(w2, name))


def test_support_view_is_read_only_copy_of_table():
    mesh, regions, _ = parse_mesh_spec("barrier:1")
    part = partition_faces(mesh, "discontinuity", regions)
    weights = compute_weights(mesh, part, regions)
    view = weights.support
    with pytest.raises(TypeError):
        view[0] = ()
    entries = [e for f in sorted(view) for e in view[f]]
    assert {kind for kind, _, _ in entries} == {"cell"}
    assert [i for _, i, _ in entries] == weights.points.tolist()
    assert [b for _, _, b in entries] == weights.beta.tolist()
    assert sorted(view) == np.nonzero(np.diff(weights.ptr))[0].tolist()


def unsupported_one_by_one(mesh, part, regions):
    """The barycentric faces of ``part`` that fail on their own."""
    missing = []
    for fid in part.barycentric_faces():
        tags = np.where(part.tags == BARYCENTRIC, HYBRID, part.tags)
        tags[fid] = BARYCENTRIC
        try:
            compute_weights(mesh, EdgePartition(tags), regions)
        except NoValidCombination:
            missing.append(fid)
    return missing


@pytest.mark.parametrize("block", [1, 2, 5, 128])
def test_unsupported_faces_are_all_listed_across_search_blocks(monkeypatch, block):
    # all-barycentric with the region map: the faces between two rows find
    # cells of both, each row's internal faces only their own two
    # non-collinear cells, so supported and unsupported faces share blocks
    mesh, regions = build_zigzag_three_row(columns=4)
    part = partition_faces(mesh, "all-barycentric")
    expected = unsupported_one_by_one(mesh, part, regions)
    assert len(expected) == 9
    monkeypatch.setattr(sushi.spaces, "SEARCH_BLOCK", block)
    with pytest.raises(NoValidCombination, match=f"face {expected[0]}: ") as exc:
        compute_weights(mesh, part, regions)
    assert exc.value.faces == expected


AFFINE = problem_from_descriptor({"name": "affine",
                                  "tensor": {"constant": [[1.5, 0.5], [0.5, 1.5]]},
                                  "exact_poly": [[0.25, -2.0], [3.0, 0.0]]})


@pytest.mark.parametrize("columns", [2, 3, 4, 5])
def test_discontinuity_keeps_unsupported_faces_hybrid(caplog, columns):
    # the policy's own remedy: compute_weights completes the partition in
    # place, with no error, and solve_problem solves on that partition
    mesh, regions = build_zigzag_three_row(columns)
    part = partition_faces(mesh, "discontinuity", regions)
    bare = part.tags.copy()
    expected = unsupported_one_by_one(mesh, part, regions)
    assert len(expected) == 2 * (columns - 1)
    with caplog.at_level(logging.DEBUG, logger="sushi.spaces"):
        weights = compute_weights(mesh, part, regions)
    assert np.flatnonzero(part.tags != bare).tolist() == expected
    assert (part.tags[expected] == HYBRID).all()
    assert not np.diff(weights.ptr)[expected].any()
    check_weights(mesh, part, weights)
    assert [r.getMessage() for r in caplog.records if r.name == "sushi.spaces"
            and r.getMessage().startswith("partition:")] == \
        [f"partition: {2 * (columns - 1)} faces without a cell support kept hybrid"]
    result = solve_problem(AFFINE, mesh, regions, "discontinuity")
    assert np.array_equal(result.partition.tags, part.tags)
    exact = AFFINE.exact(mesh.cell_point.T)
    assert np.abs(result.u.cell_values - exact).max() <= 1e-12


@pytest.mark.parametrize("spec", [*(f"rect:{n}x{n}" for n in (4, 8, 16, 32, 64)),
                                  *(f"tri:{n}" for n in (4, 8, 16)),
                                  *(f"ncrect:{n}" for n in (1, 2, 3, 4)),
                                  *(f"barrier:{v}" for v in (1, 2, 3))])
def test_generated_meshes_need_no_added_hybrid_face(spec):
    # under the tilted barrier's region map, every barycentric face of the
    # generated meshes finds a support of cells
    mesh, regions, _ = parse_mesh_spec(spec)
    result = solve_problem(problem_tilted_barrier(), mesh, regions, "discontinuity")
    assert np.array_equal(result.partition.tags,
                          partition_faces(mesh, "discontinuity", result.regions).tags)


@pytest.mark.parametrize("spec", ["barrier:2", "zigzag"])
def test_weight_diagnostics_are_logged(caplog, spec):
    if spec == "zigzag":
        mesh, regions, part = zigzag_partition(columns=4)
    else:
        mesh, regions, _ = parse_mesh_spec(spec)
        part = partition_faces(mesh, "discontinuity", regions)
    with caplog.at_level(logging.DEBUG, logger="sushi.spaces"):
        weights = compute_weights(mesh, part, regions)
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("weights:")]
    found = re.fullmatch(r"weights: (\d+) natural pairs, (\d+) cell searches; (\d+) of (\d+) "
                         r"candidate pairs solved; max \|beta\| (\S+)", line)
    natural, searched, solved, pairs = map(int, found.groups()[:4])
    assert natural + searched == len(part.barycentric_faces())
    assert float(found[5]) == float(f"{np.abs(weights.beta).max(initial=0.0):.3g}")
    if spec == "barrier:2":
        # no other pair of cells is collinear with a searched face's centre,
        # so the prefilter leaves the exact pair test nothing to solve
        assert (natural, searched, solved, pairs) == (990, 880, 0, 11616)
    else:
        # every interior face of the completed zigzag partition is hybrid
        assert (natural, searched, solved, pairs) == (0, 0, 0, 0)


def test_weight_search_allocates_a_few_megabytes():
    # the 1,870 barycentric faces of barrier:2 go through the natural pair
    # and the search in blocks, so the case arrays stay small: ~1 MB at the
    # peak, where the search of all 880 searched faces at once takes ~2 MB
    mesh, regions, _ = parse_mesh_spec("barrier:2")
    part = partition_faces(mesh, "discontinuity", regions)
    assert traced_peak(lambda: compute_weights(mesh, part, regions)) < 4e6


def test_no_valid_combination_raises():
    # two non-collinear cells alone in their region
    mesh, regions = build_zigzag_three_row(columns=2)
    mid = [f.id for f in face_views(mesh)
           if not f.boundary
           and regions[f.cells[0]] == regions[f.cells[1]] == 2]
    assert len(mid) == 1
    tags = np.full(mesh.n_faces, 0, dtype=np.int8)
    tags[mid[0]] = BARYCENTRIC
    part = EdgePartition(tags=tags, policy="custom")
    with pytest.raises(NoValidCombination, match=f"face {mid[0]}: ") as exc:
        compute_weights(mesh, part, regions)
    assert exc.value.faces == mid


@pytest.mark.parametrize("point", [-1, "n_cells"])
def test_check_weights_rejects_a_point_that_is_not_a_cell(point):
    mesh = sushi.gen_rect(3, 3)
    part = partition_faces(mesh, "all-barycentric")
    rows = weight_rows(compute_weights(mesh, part))
    fid = part.barycentric_faces()[5]
    bad = mesh.n_cells if point == "n_cells" else point
    (_, beta), *rest = rows[fid]
    table = weights_table(mesh, {**rows, fid: [(bad, beta), *rest]})
    with pytest.raises(InconsistentWeights, match=rf"not cells for faces \[{fid}\]"):
        check_weights(mesh, part, table)


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
    hybrid = np.flatnonzero(part.tags == HYBRID)
    assert num.n == mesh.n_cells + len(hybrid)
    assert num.hybrid_faces.tolist() == hybrid.tolist()
    assert num.hybrid_faces.tolist() == numbering_for(mesh, part).hybrid_faces.tolist()
