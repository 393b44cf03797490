"""The cheap structural invariants, checked on large meshes.

The property suites check these on meshes up to 32x32; here they run on
the largest benchmark sizes, solving an affine problem with an
anisotropic tensor, where the scheme is exact.
"""

import numpy as np
import pytest

from conftest import traced_peak
from oracles import (
    BARRIER_BOUNDARY_FLUX,
    cell_balance_residuals,
    composite_fluxes,
    spd_certificate,
    weight_matrix,
)
from sushi.assembly import TensorField, assemble
from sushi.postproc import reconstruct_faces
from sushi.problems import barrier_exact, problem_tilted_barrier
from sushi.run import parse_mesh_spec, solve_problem
from sushi.solver import solve_cg, solve_dense
from sushi.spaces import BARYCENTRIC, compute_weights, partition_faces

CLUBAR = np.array([[1.5, 0.5], [0.5, 1.5]])


def affine(p):
    return 1.5 * p[0] - 0.5 * p[1] + 0.25


# CG iterations allowed.  rect:128x128 all-hybrid (N = 48,896) is above
# AMG_MIN_N and takes 18 on the face Schur complement with the multigrid
# preconditioner (27 on the full system; Jacobi took hundreds), and
# all-barycentric (N = 16,384) takes 19; tri:64 (N = 8,192) stays on Jacobi.
CG_BUDGET = {"rect:128x128": 60}


@pytest.mark.parametrize("spec,policy", [
    ("rect:128x128", "all-hybrid"),
    ("rect:128x128", "all-barycentric"),
    ("tri:64", "all-barycentric"),
])
def test_invariants_on_large_meshes(spec, policy):
    mesh, _, _ = parse_mesh_spec(spec)
    part = partition_faces(mesh, policy)
    weights = compute_weights(mesh, part) if part.barycentric_faces() else None
    tensor = TensorField.from_constant(CLUBAR)
    system = assemble(mesh, part, weights, tensor, dirichlet=affine)

    full = system.full()
    assert abs(full - full.T).max() == 0.0
    assert np.all(system.diag > 0.0)
    assert spd_certificate(system)

    x, cg = solve_cg(system, tol=1e-12)
    assert cg.iterations <= CG_BUDGET.get(spec, 10 * system.n)
    exact = np.array([affine(p) for p in mesh.cell_point])
    assert np.abs(x[: mesh.n_cells] - exact).max() <= 1e-9 * np.abs(exact).max()
    x_dense, _ = solve_dense(system)
    assert np.abs(x_dense - x).max() <= 1e-8 * np.abs(x).max()

    u = reconstruct_faces(mesh, part, weights, x, system.numbering, dirichlet=affine)
    report = composite_fluxes(mesh, part, weights, tensor, u)
    scale = report.max_flux_scale()
    assert scale > 0.0
    assert report.max_conservativity_defect() <= 1e-9 * scale
    assert np.abs(cell_balance_residuals(mesh, report)).max() <= 1e-9 * scale


@pytest.mark.parametrize("spec", ["tri:64", "rect:128x128"])
def test_weight_table_on_large_meshes(spec):
    # the whole table at once: its rows are the barycentric faces, and each
    # row reproduces constants and the face centre
    mesh, _, _ = parse_mesh_spec(spec)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    occupied = np.diff(weights.ptr) > 0
    assert np.array_equal(occupied, part.tags == BARYCENTRIC)
    table = weight_matrix(weights, mesh.n_cells)
    assert np.abs(table @ np.ones(mesh.n_cells) - 1.0)[occupied].max() <= 1e-12
    moment = table @ mesh.cell_point - mesh.face_centre
    assert np.abs(moment[occupied]).max() <= 1e-12 * mesh.h


def test_refined_tilted_barrier_is_exact():
    # barrier:2x4: 80 columns, 180 / 40 / 180 layers, 16,000 cells; under
    # discontinuity N = 16,080 is above AMG_MIN_N.  The scheme reproduces the
    # piecewise-affine solution, so the tolerances are h-independent.
    mesh, regions, _ = parse_mesh_spec("barrier:2x4")
    assert mesh.n_cells == 16_000
    part = partition_faces(mesh, "discontinuity", regions)
    table = []
    peak = traced_peak(lambda: table.append(compute_weights(mesh, part, regions)))
    held = sum(getattr(table[0], name).nbytes for name in ("ptr", "points", "beta"))
    assert peak - held < 4e6

    prob = problem_tilted_barrier()
    result = solve_problem(prob, mesh, regions, "discontinuity")
    assert result.system.n == 16_080
    assert result.report.iterations <= 30
    exact = barrier_exact(mesh.cell_point.T)
    assert np.abs(result.u.cell_values - exact).max() <= 1e-9
    for side, flux in BARRIER_BOUNDARY_FLUX.items():
        assert abs(result.fluxes[side] - flux) <= 1e-9, side
