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


def export_vtk(mesh: Mesh, path, cell_scalars: dict | None = None,
               cell_vectors: dict | None = None, title: str = "sushi run") -> None:
    n_cells = mesh.n_cells
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(mesh.vertices)} double",
        *_xyz_lines(mesh.vertices),
        f"CELLS {n_cells} {mesh.n_cones + n_cells}",
        _cell_rows(mesh),
        f"CELL_TYPES {n_cells}",
        *["7"] * n_cells,  # VTK_POLYGON
    ]
    if cell_scalars or cell_vectors:
        lines.append(f"CELL_DATA {n_cells}")
    for name, values in (cell_scalars or {}).items():
        values = np.asarray(values)
        if np.issubdtype(values.dtype, np.integer):
            lines += [f"SCALARS {name} int 1", "LOOKUP_TABLE default"]
            lines += map(str, values.tolist())
        else:
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines += map(repr, values.astype(float).tolist())
    for name, vecs in (cell_vectors or {}).items():
        lines += [f"VECTORS {name} double", *_xyz_lines(vecs)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
