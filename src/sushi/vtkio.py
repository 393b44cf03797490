"""Legacy-VTK and CSV exporters for solved runs.

The VTK writer emits ASCII version 3.0 unstructured grids with polygon
cells and cell data (solution scalars, optional region tags, cell-averaged
gradient vectors).  Output is byte-deterministic for fixed inputs: floats
are written with ``repr``.
"""

from __future__ import annotations

import csv

import numpy as np

from .geometry import Mesh

CSV_COLUMNS = [
    "mesh", "policy", "alpha", "N", "NM",
    "eps_u", "eps_grad",
    "flux_x0", "flux_x1", "flux_y0", "flux_y1",
    "iterations", "residual",
]


def _xyz_lines(points) -> list[str]:
    return [f"{x!r} {y!r} 0.0" for x, y in np.asarray(points, dtype=float).tolist()]


def _cell_rows(mesh: Mesh) -> str:
    """The rows ``k v_1 ... v_k`` of every cell loop, by one %-format over
    the loop sizes interleaved with ``cone_vertex``."""
    sizes = np.diff(mesh.cell_ptr)
    row = {k: " ".join(["%d"] * (k + 1)) for k in set(sizes.tolist())}
    values = np.insert(mesh.cone_vertex, mesh.cell_ptr[:-1], sizes)
    return "\n".join([row[k] for k in sizes.tolist()]) % tuple(values.tolist())


def _write_block(fh, header: str, lines) -> None:
    """``header`` and then ``lines``, each ended by a newline."""
    fh.write("\n".join([header, *lines]))
    fh.write("\n")


def export_vtk(mesh: Mesh, path, cell_scalars: dict | None = None,
               cell_vectors: dict | None = None, title: str = "sushi run") -> None:
    """Write the grid and its cell data block by block, each as it is formatted."""
    n_cells = mesh.n_cells
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        _write_block(fh, f"POINTS {len(mesh.vertices)} double", _xyz_lines(mesh.vertices))
        _write_block(fh, f"CELLS {n_cells} {mesh.n_cones + n_cells}", [_cell_rows(mesh)])
        _write_block(fh, f"CELL_TYPES {n_cells}", ["7"] * n_cells)  # VTK_POLYGON
        if cell_scalars or cell_vectors:
            fh.write(f"CELL_DATA {n_cells}\n")
        for name, values in (cell_scalars or {}).items():
            values = np.asarray(values)
            if np.issubdtype(values.dtype, np.integer):
                _write_block(fh, f"SCALARS {name} int 1\nLOOKUP_TABLE default",
                             map(str, values.tolist()))
            else:
                _write_block(fh, f"SCALARS {name} double 1\nLOOKUP_TABLE default",
                             map(repr, values.astype(float).tolist()))
        for name, vecs in (cell_vectors or {}).items():
            _write_block(fh, f"VECTORS {name} double", _xyz_lines(vecs))


def export_csv(rows: list[dict], path) -> None:
    """One row per run, fixed column schema; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = {}
            for key in CSV_COLUMNS:
                val = row.get(key, "")
                out[key] = repr(val) if isinstance(val, float) else val
            writer.writerow(out)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
