import numpy as np
import pytest

import sushi
from conftest import traced_peak
from sushi.meshfile import write_mesh
from sushi.vtkio import VTK_BLOCK, export_vtk


def reference_export_vtk(mesh, path, cell_scalars=None, cell_vectors=None, title="sushi run"):
    """The whole-block writer: each block formatted as one list of lines."""
    def xyz(points):
        return [f"{x!r} {y!r} 0.0" for x, y in np.asarray(points, dtype=float).tolist()]

    n_cells = mesh.n_cells
    blocks = [[f"POINTS {len(mesh.vertices)} double", *xyz(mesh.vertices)],
              [f"CELLS {n_cells} {mesh.n_cones + n_cells}",
               *(" ".join(map(str, [len(loop), *loop])) for loop in mesh.loops())],
              [f"CELL_TYPES {n_cells}", *["7"] * n_cells]]
    if cell_scalars or cell_vectors:
        blocks.append([f"CELL_DATA {n_cells}"])
    for name, values in (cell_scalars or {}).items():
        values = np.asarray(values)
        if np.issubdtype(values.dtype, np.integer):
            blocks.append([f"SCALARS {name} int 1", "LOOKUP_TABLE default",
                           *map(str, values.tolist())])
        else:
            blocks.append([f"SCALARS {name} double 1", "LOOKUP_TABLE default",
                           *map(repr, values.astype(float).tolist())])
    for name, vecs in (cell_vectors or {}).items():
        blocks.append([f"VECTORS {name} double", *xyz(vecs)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write("".join("\n".join(block) + "\n" for block in blocks))


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


def _signed_zero_mesh():
    """rect:3x2 with -0.0 for the 0.0 coordinates of some vertices."""
    mesh, _, _ = sushi.parse_mesh_spec("rect:3x2")
    vertices = mesh.vertices.copy()
    vertices[::3][vertices[::3] == 0.0] = -0.0
    return sushi.compute_geometry(vertices, mesh.loops()), None


def _jittered_file_mesh(rng, tmp_path):
    """rect:6x5 with jittered vertices, read back through ``file:``."""
    mesh, _, _ = sushi.parse_mesh_spec("rect:6x5")
    vertices = mesh.vertices + rng.uniform(-0.03, 0.03, mesh.vertices.shape)
    write_mesh(sushi.compute_geometry(vertices, mesh.loops()), tmp_path / "jittered.mesh")
    mesh, regions, _ = sushi.parse_mesh_spec(f"file:{tmp_path / 'jittered.mesh'}")
    return mesh, regions


@pytest.mark.parametrize("cell_data", [False, True], ids=["grid", "cell-data"])
@pytest.mark.parametrize("spec", ["rect:70x70", "ncrect:16", "barrier:2", "tri:4",
                                  "jittered-file", "signed-zero"])
def test_chunked_writer_matches_whole_block_writer(spec, cell_data, rng, tmp_path):
    # rect:70x70: 4,900 cells and 5,041 points, each one block and a part;
    # ncrect:16: exactly one block of cells (4,096) and 4,273 points;
    # barrier:2: 1,000 cells, under one block, with integer region scalars.
    # POINTS formats each distinct coordinate of a chunk once, told apart by
    # its bits: the jittered file mesh has no coordinate twice, and -0.0
    # keeps its own text.
    if spec == "jittered-file":
        mesh, regions = _jittered_file_mesh(rng, tmp_path)
        assert len(np.unique(mesh.vertices)) == mesh.vertices.size
    elif spec == "signed-zero":
        mesh, regions = _signed_zero_mesh()
        assert np.signbit(mesh.vertices[mesh.vertices == 0.0]).any()
    else:
        mesh, regions, _ = sushi.parse_mesh_spec(spec)
    assert VTK_BLOCK == 4096
    scalars = vectors = None
    if cell_data:
        scalars = {"u": rng.standard_normal(mesh.n_cells)}
        if regions is not None:
            scalars["region"] = regions
        vectors = {"grad_u": rng.standard_normal((mesh.n_cells, 2))}
    export_vtk(mesh, tmp_path / "chunked.vtk", scalars, vectors)
    reference_export_vtk(mesh, tmp_path / "whole.vtk", scalars, vectors)
    text = (tmp_path / "chunked.vtk").read_bytes()
    assert text == (tmp_path / "whole.vtk").read_bytes()
    if spec == "signed-zero":
        assert b"\n-0.0 " in text and b"\n0.0 " in text


def test_export_peak_memory_at_128x128(rng, tmp_path):
    # Formatting each block whole peaked at 4.4 MB here; VTK_BLOCK rows at a
    # time it is 1.1 MB.
    mesh, _, _ = sushi.parse_mesh_spec("rect:128x128")
    u = rng.standard_normal(mesh.n_cells)
    grad = rng.standard_normal((mesh.n_cells, 2))
    peak = traced_peak(lambda: export_vtk(mesh, tmp_path / "solution.vtk", {"u": u},
                                          {"grad_u": grad}))
    assert peak <= 2e6
