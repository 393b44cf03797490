"""Output checks made apart from the program.

Nothing here imports ``sushi``.  The analytic fields are written out
below, cell values are read back from ``solution.vtk`` and compared at
polygon centroids computed from the VTK's own vertices and loops, and the
boundary fluxes, unknown count and residual come from ``manifest.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import BARRIER, SMOOTH, Case

SIDES = ("x=0", "x=1", "y=0", "y=1")

# anisotropic-smooth: u = 16 x(1-x) y(1-y) with Lambda = [[1.5, 0.5], [0.5, 1.5]].
# On x = 0, Lambda grad u . n = -1.5 * 16 y(1-y), whose integral is -4; by
# symmetry the co-normal flux is -4 on every side.
SMOOTH_FLUX = dict.fromkeys(SIDES, -4.0)
MIN_ORDER = 1.8
# On the nonconforming ncrect family the side-flux orders are still rising
# at levels 4, 8, 16 (pairwise 1.65-1.90, 1.77-1.91 at 16 -> 32), for the
# hybrid scheme as much as for the cell-centred one; L2 is at 2.0 there.
MIN_FLUX_ORDER = {"ncrect": 1.6}

# tilted-barrier: phi1 = y - 0.2 (x - 1/2) - 0.475; the slab 0 <= phi1 < 0.05
# has permeability 0.01, the rest 1.
BARRIER_FLUX = {"x=0": -0.2, "x=1": 0.2, "y=0": 1.0, "y=1": -1.0}
BARRIER_TOL = 1e-8


def smooth_exact(x, y):
    return 16.0 * x * (1.0 - x) * y * (1.0 - y)


def barrier_exact(x, y):
    phi = y - 0.2 * (x - 0.5) - 0.475
    return np.where(phi < 0.0, -phi,
                    np.where(phi < 0.05, -phi / 0.01, -phi - (0.05 / 0.01 - 0.05)))


def read_vtk(path) -> dict:
    """Points, polygon loops and cell data of a legacy ASCII VTK file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    out = {"scalars": {}, "vectors": {}}
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if head and head[0] == "POINTS":
            n = int(head[1])
            pts = np.array([lines[i + 1 + k].split() for k in range(n)], dtype=float)
            out["points"] = pts[:, :2]
            i += n
        elif head and head[0] == "CELLS":
            n = int(head[1])
            out["loops"] = [[int(t) for t in lines[i + 1 + k].split()[1:]]
                            for k in range(n)]
            i += n
        elif head and head[0] == "CELL_DATA":
            out["n_cells"] = int(head[1])
        elif head and head[0] == "SCALARS":
            n = out["n_cells"]
            out["scalars"][head[1]] = np.array(lines[i + 2:i + 2 + n], dtype=float)
            i += n + 1
        elif head and head[0] == "VECTORS":
            n = out["n_cells"]
            out["vectors"][head[1]] = np.array(
                [lines[i + 1 + k].split() for k in range(n)], dtype=float)
            i += n
        i += 1
    return out


def polygon_geometry(points: np.ndarray, loops: list[list[int]]):
    """Areas, centroids and diameters of the polygons, by the shoelace rule."""
    m = len(loops)
    areas, diameters = np.empty(m), np.empty(m)
    centroids = np.empty((m, 2))
    by_size: dict[int, list[int]] = {}
    for c, loop in enumerate(loops):
        by_size.setdefault(len(loop), []).append(c)
    for size, cells in by_size.items():
        idx = np.array([loops[c] for c in cells])
        p = points[idx]                      # (cells, size, 2)
        q = np.roll(p, -1, axis=1)
        cross = p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1]
        area = 0.5 * cross.sum(axis=1)
        areas[cells] = area
        centroids[cells] = ((p + q) * cross[..., None]).sum(axis=1) / (6.0 * area[:, None])
        diff = p[:, :, None, :] - p[:, None, :, :]
        diameters[cells] = np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))
    return areas, centroids, diameters


def interior_edges(loops: list[list[int]]) -> int:
    """Edges shared by two polygons (conforming meshes only)."""
    seen: dict[tuple[int, int], int] = {}
    for loop in loops:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = (min(a, b), max(a, b))
            seen[key] = seen.get(key, 0) + 1
    return sum(1 for n in seen.values() if n == 2)


def fitted_order(hs, errs) -> float:
    """Least-squares slope of log(error) against log(h)."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def check_case(case: Case, out_dir) -> tuple[list[str], dict]:
    """Problems found in one successful case's outputs, and its ladder sample."""
    out_dir = Path(out_dir)
    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    vtk = read_vtk(out_dir / "solution.vtk")
    loops = vtk["loops"]
    areas, centroids, diameters = polygon_geometry(vtk["points"], loops)
    u = vtk["scalars"]["u"]

    def fail(msg):
        problems.append(f"{case.id}: {msg}")

    if len(loops) != case.cells or len(u) != case.cells:
        fail(f"{len(loops)} cells in the VTK, expected {case.cells}")
        return problems, {}
    n = manifest["N"]
    if case.policy == "all-barycentric" and n != case.cells:
        fail(f"N={n}, expected the cell count {case.cells}")
    if case.policy == "all-hybrid" and n != case.cells + interior_edges(loops):
        fail(f"N={n}, expected cells + interior faces")
    residual = manifest["solve"]["relative_residual"]
    if not residual <= case.tol:
        fail(f"residual {residual:.3e} above tol {case.tol:g}")
    fluxes = manifest["boundary_flux"]

    sample = {}
    x, y = centroids[:, 0], centroids[:, 1]
    if case.problem == BARRIER:
        err = float(np.max(np.abs(u - barrier_exact(x, y))))
        if not err <= BARRIER_TOL:
            fail(f"max cell error {err:.3e} above {BARRIER_TOL:g}")
        for side in SIDES:
            ferr = abs(fluxes[side] - BARRIER_FLUX[side])
            if not ferr <= BARRIER_TOL:
                fail(f"flux {side} error {ferr:.3e} above {BARRIER_TOL:g}")
    elif case.problem == SMOOTH:
        l2 = math.sqrt(float(np.sum(areas * (u - smooth_exact(x, y)) ** 2)))
        sample = {"family": case.family, "h": float(diameters.max()), "l2": l2}
        for side in SIDES:
            sample[side] = abs(fluxes[side] - SMOOTH_FLUX[side])
    else:
        fail(f"no analytic check for problem {case.problem!r}")
    return problems, sample


def check_ladder(samples: list[dict]) -> list[str]:
    """Fitted orders of the L2 cell error and each side's flux error per family."""
    problems = []
    by_family: dict[str, list[dict]] = {}
    for s in samples:
        by_family.setdefault(s["family"], []).append(s)
    for family, rows in sorted(by_family.items()):
        if len(rows) < 3:
            problems.append(f"{family}: {len(rows)} successful levels, need 3 for an order")
            continue
        hs = [r["h"] for r in rows]
        for key in ("l2",) + SIDES:
            errs = [r[key] for r in rows]
            if min(errs) <= 0.0:
                problems.append(f"{family} {key}: zero error, order undefined")
                continue
            order = fitted_order(hs, errs)
            floor = MIN_ORDER if key == "l2" else MIN_FLUX_ORDER.get(family, MIN_ORDER)
            if not order >= floor:
                problems.append(f"{family} {key}: fitted order {order:.3f} < {floor}")
    return problems


def check_pass(cases: list[Case], statuses: dict[str, str], out_dir) -> list[str]:
    """Check every successful case of one pass; return the problems found."""
    problems, samples = [], []
    for case in cases:
        if statuses[case.id] != "ok":
            continue
        found, sample = check_case(case, Path(out_dir) / case.id)
        problems += found
        if sample:
            samples.append(sample)
    return problems + check_ladder(samples)
