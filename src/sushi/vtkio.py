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


def export_vtk(mesh: Mesh, path, cell_scalars: dict | None = None,
               cell_vectors: dict | None = None, title: str = "sushi run") -> None:
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(mesh.vertices)} double",
    ]
    for v in mesh.vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r} 0.0")
    loops = np.split(mesh.cone_vertex, mesh.cell_ptr[1:-1])
    total = sum(len(l) + 1 for l in loops)
    lines.append(f"CELLS {len(loops)} {total}")
    for loop in loops:
        lines.append(f"{len(loop)} " + " ".join(str(int(v)) for v in loop))
    lines.append(f"CELL_TYPES {len(loops)}")
    lines.extend("7" for _ in loops)  # VTK_POLYGON

    if cell_scalars or cell_vectors:
        lines.append(f"CELL_DATA {len(loops)}")
    for name, values in (cell_scalars or {}).items():
        values = np.asarray(values)
        if np.issubdtype(values.dtype, np.integer):
            lines.append(f"SCALARS {name} int 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(str(int(v)) for v in values)
        else:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(repr(float(v)) for v in values)
    for name, vecs in (cell_vectors or {}).items():
        lines.append(f"VECTORS {name} double")
        for v in vecs:
            lines.append(f"{float(v[0])!r} {float(v[1])!r} 0.0")
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
