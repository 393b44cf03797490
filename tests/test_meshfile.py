import numpy as np
import pytest

import sushi
from conftest import assert_same_mesh, cell_view
from sushi.cli import main
from sushi.errors import ParseError
from sushi.meshfile import read_mesh, write_mesh
from sushi.run import METHODS, parse_mesh_spec
from sushi.spaces import POLICIES


def test_round_trip_rect(tmp_path):
    mesh = sushi.gen_rect(3, 3)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert_same_mesh(mesh, back)


def test_round_trip_nonconforming_splits(tmp_path):
    # the hanging vertices of the split interface sides are written in the
    # cell loops, and read back into the same working loops
    mesh = sushi.gen_nonconforming_rect(1)
    split = [loop for loop in mesh.loops() if len(loop) > 4]
    assert len(split) == 3 + 2  # the three left interface sides, two of the five right
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.loops() == mesh.loops()
    assert_same_mesh(mesh, back)
    text = path.read_text()
    assert all(" ".join(map(str, loop)) in text.splitlines() for loop in split)
    assert "split" not in text


@pytest.mark.parametrize("spec", ["rect:1x1", "rect:7x5", "tri:6", "ncrect:1", "ncrect:3",
                                  "barrier:1", "barrier:2", "barrier:3"])
def test_round_trip_reproduces_every_mesh_array(tmp_path, spec):
    mesh = parse_mesh_spec(spec)[0]
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    assert_same_mesh(read_mesh(path), mesh)


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
    assert_same_mesh(back, mesh)


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


def test_legacy_split_section_is_parse_error(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("dim 2\nvertices 5\n0 0\n1 0\n1 1\n0 1\n1 0.5\n"
                    "cells 1\n0 1 2 3\nsplit 1\n1 2 4\n")
    with pytest.raises(ParseError, match="unknown section 'split'") as err:
        read_mesh(path)
    assert err.value.line == 10


HEAD = "dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 2\n"


@pytest.mark.parametrize("text,line,message", [
    (HEAD + "cellpoints\n", 8, "expected 'cellpoints N'"),
    (HEAD + "cellpoints x\n0.2 0.2\n", 8, "bad count for 'cellpoints'"),
    (HEAD + "cellpoints -1\n", 8, "negative count for 'cellpoints'"),
    ("dim 2\nvertices -2\n", 2, "negative count for 'vertices'"),
    ("dim 2\nvertices\n", 2, "expected 'vertices N'"),
    ("dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells -1\n", 6, "negative count for 'cells'"),
    ("dim 2\nvertices 1000000000000\n0 0\n", 2,
     "count for 'vertices' exceeds the 1 lines left"),
    ("dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 2\n0 1 2\n", 6,
     "count for 'cells' exceeds the 1 lines left"),
    (HEAD + "cellpoints 1\n", 8, "count for 'cellpoints' exceeds the 0 lines left"),
    ("dim 2\nvertices 1\n0 0\n", 3, "unexpected end of file"),
    ("dim 2\nvertices 1\n0 0 0\n", 3, "expected 'x y'"),
    ("dim 2\nvertices 1\n0 zero\n", 3, "bad vertex coordinate"),
    ("dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 two\n", 7, "bad vertex index"),
    (HEAD + "cellpoints 2\n0.2 0.2\n0.3 0.3\n", 8, "cellpoints count differs from cells"),
], ids=["bare-cellpoints", "cellpoints-x", "cellpoints-negative", "vertices-negative",
        "bare-vertices", "cells-negative", "vertices-huge", "cells-past-end",
        "cellpoints-past-end", "end-of-file", "three-coordinates", "bad-coordinate",
        "bad-vertex-index", "cellpoints-count"])
def test_bad_section_header_is_parse_error_with_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as err:
        read_mesh(path)
    assert err.value.line == line
    assert main(["mesh-check", "--mesh", f"file:{path}"]) == 2
    assert f"line {line}: {message}" in capsys.readouterr().err


def test_second_cellpoints_section_is_parse_error(tmp_path, capsys):
    path = tmp_path / "twice.mesh"
    path.write_text(HEAD + "cellpoints 1\n0.2 0.2\ncellpoints 1\n0.3 0.3\n")
    with pytest.raises(ParseError, match="second 'cellpoints' section") as err:
        read_mesh(path)
    assert err.value.line == 10
    assert main(["mesh-check", "--mesh", f"file:{path}"]) == 2


def test_bare_section_header_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.mesh"
    path.write_text(HEAD + "cellpoints\n")
    assert main(["mesh-check", "--mesh", f"file:{path}"]) == 2
    assert "cellpoints N" in capsys.readouterr().err


def test_huge_vertex_count_exits_2_naming_the_line(tmp_path, capsys):
    # the count is checked against the lines left before any array is allocated
    path = tmp_path / "huge.mesh"
    path.write_text("dim 2\nvertices 1000000000000\n0 0\n1 0\n0 1\ncells 1\n0 1 2\n")
    assert main(["mesh-check", "--mesh", f"file:{path}"]) == 2
    assert "line 2: count for 'vertices' exceeds the 5 lines left" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["nan nan", "0.2 inf", "-inf 0.2"])
def test_non_finite_cell_point_exits_2_naming_the_line(tmp_path, capsys, point):
    path = tmp_path / "nan.mesh"
    path.write_text(HEAD + f"cellpoints 1\n{point}\n")
    with pytest.raises(ParseError, match="non-finite cell point") as err:
        read_mesh(path)
    assert err.value.line == 9
    assert main(["mesh-check", "--mesh", f"file:{path}"]) == 2
    assert "line 9: non-finite cell point" in capsys.readouterr().err


def test_non_finite_vertex_names_the_line(tmp_path):
    path = tmp_path / "nan.mesh"
    path.write_text("dim 2\nvertices 3\n0 0\nnan 0\n0 1\ncells 1\n0 1 2\n")
    with pytest.raises(ParseError, match="non-finite vertex coordinate") as err:
        read_mesh(path)
    assert err.value.line == 4


TWICE = "dim 2\nvertices 4\n0 0\n1 0\n1 1\n0 1\ncells 2\n0 1 2 3\n0 1 2 3\n"


def test_mesh_without_boundary_faces_exits_2(tmp_path, capsys):
    # the same loop twice: every face has two cells, so no face is on the
    # boundary and the boundary encloses no domain
    path = tmp_path / "twice.mesh"
    path.write_text(TWICE)
    assert main(["mesh-check", "--mesh", f"file:{path}"]) == 2
    assert "the boundary (0 faces) encloses no domain" in capsys.readouterr().err


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("policy", POLICIES)
def test_solve_on_a_mesh_without_boundary_faces_exits_2(tmp_path, capsys, policy, method):
    # rejected with the mesh, not by the solver as a non-SPD system
    path = tmp_path / "twice.mesh"
    path.write_text(TWICE)
    out = tmp_path / "out"
    assert main(["solve", "--mesh", f"file:{path}", "--policy", policy, "--method", method,
                 "--out", str(out)]) == 2
    assert "error: the boundary (0 faces) encloses no domain" in capsys.readouterr().err
    assert not out.exists()


def test_boundary_whose_terms_cancel_exits_2(tmp_path, capsys):
    # vertex 4 repeats vertex 0, so the square is meshed twice and the four
    # boundary faces are the two copies of those through the origin, where
    # x . n = 0: validate's divergence-theorem measure of the domain is 0
    path = tmp_path / "twice.mesh"
    path.write_text("dim 2\nvertices 5\n0 0\n1 0\n1 1\n0 1\n0 0\ncells 2\n0 1 2 3\n4 1 2 3\n")
    assert main(["mesh-check", "--mesh", f"file:{path}"]) == 2
    assert "the boundary (4 faces) encloses no domain" in capsys.readouterr().err
