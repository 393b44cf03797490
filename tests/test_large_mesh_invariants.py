"""The cheap structural invariants, checked on large meshes.

The property suites check these on meshes up to 32x32; here they run on
the largest benchmark sizes, solving an affine problem with an
anisotropic tensor, where the scheme is exact.
"""

import numpy as np
import pytest

from sushi.assembly import TensorField, assemble
from sushi.postproc import cell_balance_residuals, composite_fluxes, reconstruct_faces
from sushi.run import parse_mesh_spec
from sushi.solver import solve_cg
from sushi.spaces import compute_weights, partition_faces

CLUBAR = np.array([[1.5, 0.5], [0.5, 1.5]])


def affine(p):
    return 1.5 * p[0] - 0.5 * p[1] + 0.25


@pytest.mark.parametrize("spec,policy", [
    ("rect:128x128", "all-hybrid"),
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

    x, _ = solve_cg(system, tol=1e-12)
    exact = np.array([affine(p) for p in mesh.cell_point])
    assert np.abs(x[: mesh.n_cells] - exact).max() <= 1e-9 * np.abs(exact).max()

    u = reconstruct_faces(mesh, part, weights, x, system.numbering, dirichlet=affine)
    report = composite_fluxes(mesh, part, weights, tensor, u)
    scale = report.max_flux_scale()
    assert scale > 0.0
    assert report.max_conservativity_defect() <= 1e-9 * scale
    assert np.abs(cell_balance_residuals(mesh, report)).max() <= 1e-9 * scale
