import math

import numpy as np
import pytest

import sushi
from sushi.errors import DegenerateFace, InvalidTopology, NonStarShaped
from sushi.geometry import compute_geometry, domain_measure, regularity, theta_D, theta_DB, validate
from sushi.spaces import BarycentricWeights

from conftest import cell_view, cell_views, face_view, face_views


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
    moved = compute_geometry(verts, mesh.raw_loops, splits=mesh.splits)
    assert theta_D(moved) == pytest.approx(base, rel=1e-10)


def test_theta_db_empty_b_equals_theta_d():
    mesh = sushi.gen_rect(3, 3)
    assert theta_DB(mesh, BarycentricWeights()) == theta_D(mesh)


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
    weights = BarycentricWeights(
        {fid: [("cell", k, beta[0]), ("cell", far1, beta[1]),
               ("cell", far2, beta[2])]}
    )
    assert theta_DB(mesh, weights) > theta_D(mesh)


def test_regularity_report_fields():
    mesh = sushi.gen_rect(2, 3)
    rep = regularity(mesh)
    assert rep.theta_D >= 1.0
    assert rep.theta_DB is None
    assert len(rep.worst_cell_ratio) == mesh.n_cells


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
])
def test_single_defect_meshes_raise_typed_errors(verts, loops, points, error, message):
    with pytest.raises(error, match=message):
        compute_geometry(verts, loops, cell_points=points)
