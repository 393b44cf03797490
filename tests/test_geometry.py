import math

import numpy as np
import pytest

import sushi
from sushi.errors import DegenerateFace, InvalidTopology, MissingWeights, NonStarShaped
from sushi.geometry import compute_geometry, domain_measure, theta_D, theta_DB, validate

from conftest import (
    assert_same_mesh,
    cell_view,
    cell_views,
    face_view,
    face_views,
    traced_peak,
    weights_table,
)


def test_unit_square_cell():
    mesh = compute_geometry(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        [[0, 1, 2, 3]],
    )
    c = cell_view(mesh, 0)
    assert c.measure == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(c.point, [0.5, 0.5])
    assert np.allclose(c.face_measures, 1.0)
    assert np.allclose(c.dists, 0.5)
    assert c.diameter == pytest.approx(math.sqrt(2.0))
    # outward axis-aligned normals, one per side
    expected = {(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)}
    got = {tuple(np.round(n, 12)) for n in c.normals}
    assert got == expected
    assert np.allclose(c.cone_measures, 0.25)


def test_right_triangle_distance_to_hypotenuse():
    mesh = compute_geometry(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        [[0, 1, 2]],
    )
    c = cell_view(mesh, 0)
    assert c.measure == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(c.point, [1.0 / 3.0, 1.0 / 3.0])
    # hypotenuse is the face with measure sqrt(2); point-line distance is
    # (1 - 1/3 - 1/3)/sqrt(2) = 1/(3 sqrt(2))
    i = int(np.argmax(c.face_measures))
    assert c.face_measures[i] == pytest.approx(math.sqrt(2.0))
    assert c.dists[i] == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)), rel=1e-14)


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: sushi.gen_rect(5, 3),
        lambda: sushi.gen_tri(4),
        lambda: sushi.gen_nonconforming_rect(2),
        lambda: sushi.gen_tilted_barrier(1)[0],
        lambda: sushi.gen_tilted_barrier(3)[0],
    ],
)
def test_cell_volumes_partition_domain(mesh_fn):
    mesh = mesh_fn()
    total = sum(c.measure for c in cell_views(mesh))
    assert total == pytest.approx(domain_measure(mesh), rel=1e-10)
    assert total == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: sushi.gen_rect(4, 4),
        lambda: sushi.gen_nonconforming_rect(1),
        lambda: sushi.gen_tilted_barrier(3)[0],
    ],
)
def test_geometric_identities(mesh_fn):
    mesh = mesh_fn()
    report = validate(mesh)
    assert report.passed
    assert np.max(report.identity_residuals) <= 1e-10
    assert np.max(report.cone_sum_residuals) <= 1e-10
    assert np.max(report.closure_residuals) <= 1e-10


def test_validate_detects_corruption():
    mesh = sushi.gen_rect(3, 3)
    mesh.face_centre[cell_view(mesh, 4).faces[0]] += np.array([0.1, 0.0])
    report = validate(mesh)
    assert not report.passed
    assert report.identity_residuals[4] > 1e-10


def test_validate_refuses_a_boundary_that_encloses_no_domain():
    # compute_geometry refuses the overlapping meshes that give such a
    # boundary, so this Mesh is corrupted by hand: no face is on the boundary
    mesh = sushi.gen_rect(3, 3)
    mesh.face_cells[:, 1] = 0
    with pytest.raises(InvalidTopology, match=r"the boundary \(0 faces\) encloses no domain"):
        validate(mesh)


def test_nonconforming_split_faces_have_two_cells():
    mesh = sushi.gen_nonconforming_rect(2)
    interface = [f for f in face_views(mesh) if abs(f.centre[0] - 0.5) < 1e-12]
    assert len(interface) == 14
    assert all(len(f.cells) == 2 for f in interface)


def test_theta_d_uniform_grid():
    mesh = sushi.gen_rect(4, 4)
    # h_K is the cell diagonal, d(K,sigma) = h/2: ratio 2*sqrt(2)
    assert theta_D(mesh) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)


def test_theta_d_single_cell():
    mesh = compute_geometry(
        np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]),
        [[0, 1, 2, 3]],
    )
    c = cell_view(mesh, 0)
    assert theta_D(mesh) == pytest.approx(c.diameter / c.dists.min(), rel=1e-14)


def test_theta_d_graded_neighbour_ratio():
    # [0,1] and [1,3] side by side: distances to the shared face are 0.5 and 1
    mesh = compute_geometry(
        np.array([[0, 0], [1, 0], [3, 0], [3, 1], [1, 1], [0, 1]], dtype=float),
        [[0, 1, 4, 5], [1, 2, 3, 4]],
    )
    td = theta_D(mesh)
    dist_ratio = 1.0 / 0.5
    assert td >= dist_ratio - 1e-14


def test_theta_d_invariant_under_rigid_motion_and_scaling():
    mesh = sushi.gen_nonconforming_rect(1)
    base = theta_D(mesh)
    ang = 0.7345
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    scale = 3.7
    shift = np.array([2.5, -1.3])
    verts = scale * (mesh.vertices @ rot.T) + shift
    moved = compute_geometry(verts, mesh.loops())
    assert theta_D(moved) == pytest.approx(base, rel=1e-10)


def test_theta_db_empty_b_equals_theta_d():
    mesh = sushi.gen_rect(3, 3)
    assert theta_DB(mesh, weights_table(mesh, {})) == theta_D(mesh)


def test_theta_db_needs_weights():
    with pytest.raises(MissingWeights, match="weights required for theta_DB"):
        theta_DB(sushi.gen_rect(3, 3), None)


def test_theta_db_midpoint_weights_uniform_grid():
    mesh = sushi.gen_rect(4, 4)
    part = sushi.partition_faces(mesh, "all-barycentric")
    weights = sushi.compute_weights(mesh, part)
    td = theta_D(mesh)
    tdb = theta_DB(mesh, weights)
    # midpoint weights: spread term = 2 * 0.5 * (h/2)^2 / (2 h^2) = 1/8 < theta_D
    assert tdb == td


def test_theta_db_grows_with_far_weights():
    mesh = sushi.gen_rect(4, 4)
    part = sushi.partition_faces(mesh, "all-barycentric")
    fid = part.barycentric_faces()[0]
    f = face_view(mesh, fid)
    k = f.cells[0]
    # two genuinely distant, non-collinear support points force large
    # spread while keeping the affine conditions exact
    ranked = sorted(range(mesh.n_cells),
                    key=lambda c: -np.sum((mesh.cell_point[c] - f.centre) ** 2))
    far1, far2 = ranked[0], ranked[1]
    pk, p1, p2 = (mesh.cell_point[i] for i in (k, far1, far2))
    a = np.vstack([np.ones(3), np.array([pk, p1, p2]).T])
    beta = np.linalg.solve(a, np.array([1.0, *f.centre]))
    weights = weights_table(mesh, {fid: [(k, beta[0]), (far1, beta[1]), (far2, beta[2])]})
    assert theta_DB(mesh, weights) > theta_D(mesh)


def test_non_star_shaped_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NonStarShaped):
        compute_geometry(verts, [[0, 1, 2, 3]], cell_points=np.array([[1.5, 0.5]]))


def test_degenerate_face_rejected():
    verts = np.array([[0.0, 0.0], [1e-14, 0.0], [1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DegenerateFace):
        compute_geometry(verts, [[0, 1, 2, 3]])


def test_bad_topology_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(InvalidTopology):
        compute_geometry(verts, [[0, 1, 7, 3]])
    with pytest.raises(InvalidTopology):
        compute_geometry(verts, [[0, 2, 1, 3]])  # clockwise / self-intersecting


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TWO_SQUARES = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], dtype=float)


@pytest.mark.parametrize("verts,loops,points,error,message", [
    (SQUARE, [[0, 1, 2]], np.array([[0.2, 0.5]]), NonStarShaped, "cell 0, face 2"),
    (TWO_SQUARES, [[0, 1, 4, 5], [1, 2, 3, 4]], np.array([[0.5, 0.5], [2.5, 0.5]]),
     NonStarShaped, "cell 1, face 5"),
    (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2, 3]], None,
     DegenerateFace, "cell 0, face 1"),
    (SQUARE, [[0, 1]], None, InvalidTopology, "fewer than 3"),
    (SQUARE, [[0, 1, 2, 4]], None, InvalidTopology, "missing vertex"),
    (SQUARE, [[0, 1, 1, 2, 3]], None, InvalidTopology, "repeated consecutive"),
    (SQUARE, [[0, 1, 2, 0, 1, 3]], None, InvalidTopology, "lists face"),
    (SQUARE, [[0, 3, 2, 1]], None, InvalidTopology, "not counter-clockwise"),
    (TWO_SQUARES, [[0, 1, 4, 5], [1, 2, 3, 4], [1, 2, 3, 4]], None,
     InvalidTopology, "more than two cells"),
    (SQUARE, [[0, 1, 2, 3]], np.zeros((2, 2)), InvalidTopology, "shape mismatch"),
    (np.array([[0.0, 0.0], [np.inf, 0.0], [1.0, 1.0]]), [[0, 1, 2]], None,
     InvalidTopology, "non-finite"),
    (TWO_SQUARES, [[0, 1, 4, 5], [1, 2]], None, InvalidTopology, "cell 1 has fewer than 3"),
    (TWO_SQUARES, [[0, 1, 4, 5], [1, 2, 9, 4]], None, InvalidTopology,
     "cell 1 references a missing vertex"),
    (TWO_SQUARES, [[0, 1, 4, 5], [4, 1, 2, 4]], None, InvalidTopology,
     "cell 1 has a repeated consecutive vertex"),
    (np.zeros((3, 3)), [[0, 1, 2]], None, InvalidTopology, r"expected \(V, 2\) vertex array"),
    (SQUARE, [], None, InvalidTopology, "mesh has no cells"),
    # the same square twice: both cells run along every face the same way
    (SQUARE, [[0, 1, 2, 3], [1, 2, 3, 0]], None, InvalidTopology,
     "cells 0 and 1 lie on the same side of face 0: the mesh overlaps itself"),
    # a clockwise cell runs along its shared face as its neighbour does, but
    # is named as clockwise
    (TWO_SQUARES, [[0, 1, 4, 5], [4, 3, 2, 1]], None, InvalidTopology,
     "cell 1 loop is not counter-clockwise"),
])
def test_single_defect_meshes_raise_typed_errors(verts, loops, points, error, message):
    with pytest.raises(error, match=message):
        compute_geometry(verts, loops, cell_points=points)


def test_loop_array_gives_the_same_mesh_as_loop_lists():
    loops = [[0, 1, 4, 5], [1, 2, 3, 4]]
    assert_same_mesh(compute_geometry(TWO_SQUARES, np.array(loops, dtype=np.int32)),
                     compute_geometry(TWO_SQUARES, loops))
    with pytest.raises(InvalidTopology, match="cell 1 references a missing vertex"):
        compute_geometry(TWO_SQUARES, np.array([[0, 1, 4, 5], [1, 2, -1, 4]]))
    with pytest.raises(InvalidTopology, match="loop array"):
        compute_geometry(TWO_SQUARES, np.array(loops[0]))


def test_compute_geometry_peak_memory_at_128x128():
    # The diameter over all k^2 cone pairs at once peaked at 27.7 MB here,
    # and one pass per loop offset over the whole mesh at 20.7 MB.  With
    # the measures, normals and distances GEOMETRY_BLOCK cells at a time it
    # is 9.95 MB, most of it the 6.7 MB of returned arrays.
    mesh = sushi.gen_rect(128, 128)
    loops = mesh.cone_vertex.reshape(-1, 4)
    peak = traced_peak(lambda: compute_geometry(mesh.vertices, loops))
    assert peak <= 11.5e6


@pytest.mark.parametrize("cones", [slice(None), slice(3, 40), np.array([7, 0, 7, 21]),
                                   np.arange(24).reshape(4, 6)],
                         ids=["all", "slice", "indices", "2-d"])
def test_cone_centroids_are_the_formula_bit_for_bit(cones):
    mesh = sushi.gen_nonconforming_rect(2)
    centroids = mesh.cone_centroids()
    assert centroids.T.flags.c_contiguous  # stored components first: a user field gets no copy
    got = centroids[cones]
    want = (mesh.cell_point[mesh.cone_cell[cones]]
            + 2.0 * mesh.face_centre[mesh.cone_face[cones]]) / 3.0
    assert got.shape == want.shape
    assert np.array_equal(got, want)
