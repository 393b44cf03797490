import numpy as np
import pytest

import sushi
from conftest import cell_view, cell_views
from sushi.errors import ParseError
from sushi.meshfile import read_mesh, write_mesh


def assert_same_mesh(a, b):
    assert a.n_cells == b.n_cells
    assert a.n_faces == b.n_faces
    assert np.array_equal(a.vertices, b.vertices)
    for ca, cb in zip(cell_views(a), cell_views(b)):
        assert np.array_equal(ca.loop, cb.loop)
        assert np.array_equal(ca.point, cb.point)
        assert ca.measure == cb.measure


def test_round_trip_rect(tmp_path):
    mesh = sushi.gen_rect(3, 3)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert_same_mesh(mesh, back)


def test_round_trip_nonconforming_splits(tmp_path):
    mesh = sushi.gen_nonconforming_rect(1)
    assert mesh.splits
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.splits == mesh.splits
    assert_same_mesh(mesh, back)
    assert "split" in path.read_text()


def test_round_trip_is_byte_stable(tmp_path):
    mesh = sushi.gen_nonconforming_rect(2)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_mesh(mesh, p1)
    write_mesh(read_mesh(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_cell_points(tmp_path):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = sushi.compute_geometry(verts, [[0, 1, 2, 3]],
                                  cell_points=np.array([[0.4, 0.6]]))
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.cell_points_given
    assert np.array_equal(cell_view(back, 0).point, [0.4, 0.6])


def test_missing_vertex_is_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim 2\nvertices 2\n0 0\n1 0\ncells 1\n0 1 5\n")
    with pytest.raises(ParseError) as err:
        read_mesh(path)
    assert err.value.line is not None


def test_bad_header_is_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dimension 3\n")
    with pytest.raises(ParseError):
        read_mesh(path)


def test_unknown_section_is_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 2\nwhatever 1\n"
    )
    with pytest.raises(ParseError):
        read_mesh(path)


def test_truncated_file_is_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim 2\nvertices 4\n0 0\n1 0\n")
    with pytest.raises(ParseError):
        read_mesh(path)
