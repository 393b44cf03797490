"""Legacy-VTK and CSV exporters for solved runs.

The VTK writer emits ASCII version 3.0 unstructured grids with polygon
cells and cell data (solution scalars, optional region tags, cell-averaged
gradient vectors).  Output is byte-deterministic for fixed inputs: floats
are written with ``repr``, and each distinct point coordinate of a chunk
is formatted once.  Each block is formatted and written a chunk of rows at
a time, so the text held at once stays bounded whatever the mesh.
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


# Rows formatted per write of ``export_vtk``: bounds the Python strings
# and lists that hold one chunk of a block.
VTK_BLOCK = 4096


def _xyz_rows(points) -> str:
    return "\n".join([f"{x!r} {y!r} 0.0" for x, y in np.asarray(points, dtype=float).tolist()])


def _point_rows(points: np.ndarray) -> str:
    """The rows of :func:`_xyz_rows` for the (n, 2) float array ``points``,
    each distinct coordinate formatted once: a mesh's vertices share their
    coordinates.  Coordinates are told apart by their bits, so -0.0 keeps
    its own text.  Cell vectors keep :func:`_xyz_rows`: 92% of the values of
    a rect:128x128 gradient are distinct, and there the sort makes a chunk
    about 10% slower to format, while a chunk of its points formats about
    3.5x faster (shared 2-vCPU Xeon)."""
    table, inverse = np.unique(points.view(np.int64), return_inverse=True)
    texts = [repr(x) for x in table.view(float).tolist()]
    return "\n".join([f"{texts[i]} {texts[j]} 0.0" for i, j in inverse.reshape(-1, 2).tolist()])


def _cell_rows(mesh: Mesh, lo: int, hi: int) -> str:
    """The rows ``k v_1 ... v_k`` of the loops of cells ``lo`` to ``hi - 1``,
    by one %-format over the loop sizes interleaved with ``cone_vertex``."""
    ptr = mesh.cell_ptr[lo:hi + 1]
    sizes = np.diff(ptr)
    row = {k: " ".join(["%d"] * (k + 1)) for k in set(sizes.tolist())}
    values = np.insert(mesh.cone_vertex[ptr[0]:ptr[-1]], ptr[:-1] - ptr[0], sizes)
    return "\n".join([row[k] for k in sizes.tolist()]) % tuple(values.tolist())


def _write_block(fh, header: str, n_rows: int, rows) -> None:
    """``header``, then the text ``rows(lo, hi)`` of rows ``lo`` to ``hi - 1``
    for ``VTK_BLOCK`` rows at a time; each line is ended by a newline."""
    fh.write(header + "\n")
    for lo in range(0, n_rows, VTK_BLOCK):
        fh.write(rows(lo, min(lo + VTK_BLOCK, n_rows)))
        fh.write("\n")


def export_vtk(mesh: Mesh, path, cell_scalars: dict | None = None,
               cell_vectors: dict | None = None, title: str = "sushi run") -> None:
    """Write the grid and its cell data block by block, ``VTK_BLOCK`` rows at
    a time, each chunk as it is formatted."""
    n_cells = mesh.n_cells
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        _write_block(fh, f"POINTS {len(mesh.vertices)} double", len(mesh.vertices),
                     lambda lo, hi: _point_rows(mesh.vertices[lo:hi]))
        _write_block(fh, f"CELLS {n_cells} {mesh.n_cones + n_cells}", n_cells,
                     lambda lo, hi: _cell_rows(mesh, lo, hi))
        _write_block(fh, f"CELL_TYPES {n_cells}", n_cells,  # VTK_POLYGON
                     lambda lo, hi: "\n".join(["7"] * (hi - lo)))
        if cell_scalars or cell_vectors:
            fh.write(f"CELL_DATA {n_cells}\n")
        for name, values in (cell_scalars or {}).items():
            values = np.asarray(values)
            if np.issubdtype(values.dtype, np.integer):
                header, text = f"SCALARS {name} int 1", str
            else:
                header, text = f"SCALARS {name} double 1", repr
                values = values.astype(float)
            _write_block(fh, f"{header}\nLOOKUP_TABLE default", n_cells,
                         lambda lo, hi: "\n".join(map(text, values[lo:hi].tolist())))
        for name, vecs in (cell_vectors or {}).items():
            _write_block(fh, f"VECTORS {name} double", n_cells,
                         lambda lo, hi: _xyz_rows(vecs[lo:hi]))


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
