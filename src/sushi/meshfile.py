"""Line-oriented text format for meshes.

Layout (UTF-8, whitespace separated)::

    dim 2
    vertices N
    x y                  # N lines
    cells M
    v0 v1 v2 ...         # M lines, counter-clockwise vertex loops
    cellpoints M         # optional
    x y                  # M lines
    split S              # optional, nonconformity refinements
    va vb m0 [m1 ...]    # S lines: edge (va, vb) is split at m0, m1, ...

Floats are written with ``repr`` so a write/read cycle reproduces the data
model bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .geometry import Mesh, compute_geometry


def write_mesh(mesh: Mesh, path) -> None:
    lines = [f"dim {mesh.dim}"]
    lines.append(f"vertices {len(mesh.vertices)}")
    for v in mesh.vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r}")
    lines.append(f"cells {len(mesh.raw_loops)}")
    for loop in mesh.raw_loops:
        lines.append(" ".join(str(i) for i in loop))
    if mesh.cell_points_given:
        lines.append(f"cellpoints {mesh.n_cells}")
        for x, y in mesh.cell_point:
            lines.append(f"{float(x)!r} {float(y)!r}")
    if mesh.splits:
        lines.append(f"split {len(mesh.splits)}")
        for (a, b), mids in sorted(mesh.splits.items()):
            lines.append(f"{a} {b} " + " ".join(str(m) for m in mids))
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

    def expect(keyword: str) -> int:
        ln, tok = next_line()
        if tok[0] != keyword or len(tok) != 2:
            raise ParseError(f"expected '{keyword} N'", line=ln)
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(f"bad count for '{keyword}'", line=ln)

    ln, tok = next_line()
    if tok[:1] != ["dim"] or len(tok) != 2 or tok[1] != "2":
        raise ParseError("expected 'dim 2' header", line=ln)

    nv = expect("vertices")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        ln, tok = next_line()
        if len(tok) != 2:
            raise ParseError("expected 'x y'", line=ln)
        try:
            vertices[i] = (float(tok[0]), float(tok[1]))
        except ValueError:
            raise ParseError("bad vertex coordinate", line=ln)

    nc = expect("cells")
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
    splits: dict[tuple[int, int], list[int]] = {}
    while pos < len(raw):
        save = pos
        try:
            ln, tok = next_line()
        except ParseError:
            break
        if tok[0] == "cellpoints":
            n = int(tok[1])
            if n != nc:
                raise ParseError("cellpoints count differs from cells", line=ln)
            cell_points = np.empty((nc, 2))
            for i in range(nc):
                ln, tok = next_line()
                try:
                    cell_points[i] = (float(tok[0]), float(tok[1]))
                except (ValueError, IndexError):
                    raise ParseError("bad cell point", line=ln)
        elif tok[0] == "split":
            n = int(tok[1])
            for _ in range(n):
                ln, tok = next_line()
                try:
                    ids = [int(t) for t in tok]
                except ValueError:
                    raise ParseError("bad split entry", line=ln)
                if len(ids) < 3:
                    raise ParseError("split entry needs an edge and a midpoint", line=ln)
                if any(v < 0 or v >= nv for v in ids):
                    raise ParseError("split references a missing vertex", line=ln)
                splits[(ids[0], ids[1])] = ids[2:]
        else:
            pos = save
            raise ParseError(f"unknown section '{tok[0]}'", line=ln)

    return compute_geometry(vertices, loops, cell_points=cell_points, splits=splits)
