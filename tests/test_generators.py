import numpy as np
import pytest

import sushi
from conftest import cell_views, face_views
from sushi.errors import InvalidTopology
from sushi.generators import barrier_region, phi1, phi2
from sushi.geometry import validate


def interior_count(mesh):
    return len(mesh.interior_faces())


def test_rect_1x1():
    mesh = sushi.gen_rect(1, 1)
    assert mesh.n_cells == 1
    assert len(mesh.boundary_faces()) == 4
    assert interior_count(mesh) == 0


def test_rect_counts():
    mesh = sushi.gen_rect(8, 6)
    assert mesh.n_cells == 48
    assert interior_count(mesh) == 7 * 6 + 8 * 5  # 82
    mesh = sushi.gen_rect(10, 10)
    assert mesh.n_cells == 100
    assert interior_count(mesh) == 180


def test_tri_counts():
    assert sushi.gen_tri(1).n_cells == 2
    assert interior_count(sushi.gen_tri(1)) == 1
    mesh = sushi.gen_tri(2)
    assert mesh.n_cells == 8
    assert interior_count(mesh) == 8
    for n in (3, 5):
        assert sushi.gen_tri(n).n_cells == 2 * n * n


@pytest.mark.parametrize("n", range(1, 9))
def test_nonconforming_rect_closed_forms(n):
    mesh = sushi.gen_nonconforming_rect(n)
    # left half: 2n x 3n cells, right half: 2n x 5n
    assert mesh.n_cells == 16 * n * n
    # interior faces: internal edges of both blocks plus interface pieces,
    # the latter split at the union of both row levels
    left = (2 * n - 1) * 3 * n + 2 * n * (3 * n - 1)
    right = (2 * n - 1) * 5 * n + 2 * n * (5 * n - 1)
    interface = 3 * n + 5 * n - np.gcd(3 * n, 5 * n)
    assert interior_count(mesh) == left + right + interface


def test_nonconforming_rect_n2_unknown_counts():
    mesh = sushi.gen_nonconforming_rect(2)
    assert mesh.n_cells == 64
    assert mesh.n_cells + interior_count(mesh) == 182


@pytest.mark.parametrize("variant,cells", [(1, 210), (2, 1000), (3, 250)])
def test_barrier_cell_counts(variant, cells):
    mesh, regions = sushi.gen_tilted_barrier(variant)
    assert mesh.n_cells == cells
    assert len(regions) == cells


def test_barrier_region_signs():
    for variant in (1, 2, 3):
        mesh, regions = sushi.gen_tilted_barrier(variant)
        for c in cell_views(mesh):
            x, y = c.point
            r = regions[c.id]
            assert r == barrier_region(x, y)
            if r == 1:
                assert phi1(x, y) < 0
            elif r == 2:
                assert phi1(x, y) > 0 and phi2(x, y) < 0
            else:
                assert phi2(x, y) > 0


def test_barrier_lines_are_pinned_to_faces():
    mesh, _ = sushi.gen_tilted_barrier(1)
    on_phi1 = [f for f in face_views(mesh) if abs(phi1(*f.centre)) < 1e-12]
    on_phi2 = [f for f in face_views(mesh) if abs(phi2(*f.centre)) < 1e-12]
    assert len(on_phi1) == 10
    assert len(on_phi2) == 10


def test_barrier_thin_layers():
    mesh, regions = sushi.gen_tilted_barrier(3)
    thin = [c for c in cell_views(mesh) if c.measure < 2e-5]
    assert len(thin) == 40  # four thin layers of ten cells


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: sushi.gen_rect(7, 5),
        lambda: sushi.gen_tri(6),
        lambda: sushi.gen_nonconforming_rect(3),
        lambda: sushi.gen_tilted_barrier(1)[0],
        lambda: sushi.gen_tilted_barrier(2)[0],
        lambda: sushi.gen_tilted_barrier(3)[0],
    ],
)
def test_generators_pass_validation(mesh_fn):
    assert validate(mesh_fn()).passed


def test_bad_resolution_rejected():
    with pytest.raises(InvalidTopology):
        sushi.gen_rect(0, 3)
    with pytest.raises(InvalidTopology):
        sushi.gen_tilted_barrier(4)
