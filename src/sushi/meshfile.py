"""Line-oriented text format for meshes.

Layout (UTF-8, whitespace separated)::

    dim 2
    vertices N
    x y                  # N lines
    cells M
    v0 v1 v2 ...         # M lines, counter-clockwise vertex loops
    cellpoints M         # optional
    x y                  # M lines

A nonconforming mesh lists each hanging vertex in the loop of every cell
whose straight side it lies on, so a cell loop is written as the mesh
holds it.  Floats are written with ``repr`` so a write/read cycle
reproduces the data model bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .geometry import Mesh, compute_geometry


def _xy_lines(points: np.ndarray) -> list[str]:
    return [f"{x!r} {y!r}" for x, y in np.asarray(points, dtype=float).tolist()]


def write_mesh(mesh: Mesh, path) -> None:
    lines = ["dim 2", f"vertices {len(mesh.vertices)}", *_xy_lines(mesh.vertices),
             f"cells {mesh.n_cells}", *(" ".join(map(str, loop)) for loop in mesh.loops())]
    if mesh.cell_points_given:
        lines += [f"cellpoints {mesh.n_cells}", *_xy_lines(mesh.cell_point)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    pos = 0

    def next_line() -> tuple[int, list[str]]:
        nonlocal pos
        while pos < len(raw):
            pos += 1
            stripped = raw[pos - 1].strip()
            if stripped and not stripped.startswith("#"):
                return pos, stripped.split()
        raise ParseError("unexpected end of file", line=len(raw))

    def count(ln: int, tok: list[str], keyword: str) -> int:
        if tok[0] != keyword or len(tok) != 2:
            raise ParseError(f"expected '{keyword} N'", line=ln)
        try:
            n = int(tok[1])
        except ValueError:
            raise ParseError(f"bad count for '{keyword}'", line=ln)
        if n < 0:
            raise ParseError(f"negative count for '{keyword}'", line=ln)
        if n > len(raw) - pos:  # each item takes a line; also bounds the allocation below
            raise ParseError(f"count for '{keyword}' exceeds the {len(raw) - pos} lines left",
                             line=ln)
        return n

    def points(n: int, what: str) -> np.ndarray:
        out = np.empty((n, 2))
        for i in range(n):
            ln, tok = next_line()
            if len(tok) != 2:
                raise ParseError("expected 'x y'", line=ln)
            try:
                out[i] = (float(tok[0]), float(tok[1]))
            except ValueError:
                raise ParseError(f"bad {what}", line=ln)
            if not np.isfinite(out[i]).all():
                raise ParseError(f"non-finite {what}", line=ln)
        return out

    ln, tok = next_line()
    if tok[:1] != ["dim"] or len(tok) != 2 or tok[1] != "2":
        raise ParseError("expected 'dim 2' header", line=ln)

    vertices = points(count(*next_line(), "vertices"), "vertex coordinate")
    nv = len(vertices)
    nc = count(*next_line(), "cells")
    loops = []
    for _ in range(nc):
        ln, tok = next_line()
        try:
            loop = [int(t) for t in tok]
        except ValueError:
            raise ParseError("bad vertex index", line=ln)
        if any(v < 0 or v >= nv for v in loop):
            raise ParseError("cell references a missing vertex", line=ln)
        loops.append(loop)

    cell_points = None
    while pos < len(raw):
        try:
            ln, tok = next_line()
        except ParseError:
            break
        if tok[0] != "cellpoints":
            raise ParseError(f"unknown section '{tok[0]}'", line=ln)
        if cell_points is not None:
            raise ParseError("second 'cellpoints' section", line=ln)
        if count(ln, tok, "cellpoints") != nc:
            raise ParseError("cellpoints count differs from cells", line=ln)
        cell_points = points(nc, "cell point")

    return compute_geometry(vertices, loops, cell_points=cell_points)
