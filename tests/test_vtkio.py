import pytest

import sushi
from sushi.vtkio import export_vtk


@pytest.mark.parametrize("spec", ["ncrect:2", "barrier:1", "tri:4"])
def test_cells_block_matches_per_loop_formatting(spec, tmp_path):
    # loops of 4 to 6 vertices (hanging vertices), of 4 and of 3
    mesh, _, _ = sushi.parse_mesh_spec(spec)
    path = tmp_path / "mesh.vtk"
    export_vtk(mesh, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    start = lines.index(f"CELLS {mesh.n_cells} {mesh.n_cones + mesh.n_cells}") + 1
    end = lines.index(f"CELL_TYPES {mesh.n_cells}")
    expected = [" ".join(map(str, [len(loop), *loop])) for loop in mesh.loops()]
    assert lines[start:end] == expected
