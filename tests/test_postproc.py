import math

import numpy as np
import pytest

import sushi
from conftest import cell_view, cell_views, face_view, face_views, random_zero_boundary
from sushi.assembly import TensorField, rhs_cell_integrals
from sushi.errors import (
    InsufficientLevels,
    InvalidSeries,
    RequiresIdentityTensor,
    UnclassifiedBoundaryFace,
)
from sushi.geometry import compute_geometry
from sushi.postproc import (
    boundary_flux_totals,
    cell_balance_residuals,
    composite_fluxes,
    convergence_order,
    cone_fluxes,
    error_norms,
    flux_consistency_E,
    normal_gradient_integrals,
    norm_1pm,
    reconstruct_faces,
    seminorm_x,
)
from sushi.problems import problem_anisotropic_smooth, problem_quartic_isotropic
from sushi.run import solve_problem
from sushi.spaces import compute_weights, interpolate, partition_faces


def test_reconstruct_constant():
    mesh = sushi.gen_rect(3, 3)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    num = sushi.spaces.numbering_for(mesh, part)
    c = 4.25
    u = reconstruct_faces(mesh, part, weights, np.full(num.n, c), num,
                          dirichlet=lambda p: c)
    assert np.allclose(u.cell_values, c)
    assert np.allclose(u.face_values, c)


def test_reconstruct_is_identity_for_all_hybrid(rng):
    mesh = sushi.gen_rect(3, 2)
    part = partition_faces(mesh, "all-hybrid")
    num = sushi.spaces.numbering_for(mesh, part)
    x = rng.standard_normal(num.n)
    u = reconstruct_faces(mesh, part, None, x, num)
    for fid, idx in num.face_index.items():
        assert u.face_values[fid] == x[idx]


def test_reconstruct_midpoint_average():
    mesh = sushi.gen_rect(2, 1)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    num = sushi.spaces.numbering_for(mesh, part)
    u = reconstruct_faces(mesh, part, weights, np.array([1.0, 3.0]), num)
    mid = part.barycentric_faces()[0]
    assert u.face_values[mid] == pytest.approx(2.0, abs=1e-14)


def test_composite_fluxes_antisymmetry_and_balance():
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_rect(4, 4)
    r = solve_problem(prob, mesh, policy="all-barycentric", tol=1e-13)
    report = composite_fluxes(mesh, r.partition, r.weights, r.tensor, r.u)
    scale = report.max_flux_scale()
    for (k, l), v in report.pair_fluxes.items():
        assert abs(v + report.pair_fluxes[(l, k)]) <= 1e-10 * scale
    residuals = cell_balance_residuals(mesh, report, prob.source)
    assert np.abs(residuals).max() <= 10.0 * 1e-13 * scale
    # global balance: boundary fluxes against the total source
    total_source = sum(rhs_cell_integrals(mesh, prob.source))
    outflux = float(np.sum(report.cell_outflux))
    assert outflux == pytest.approx(total_source, rel=1e-10)


def test_hybrid_conservativity_after_solve():
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_nonconforming_rect(1)
    r = solve_problem(prob, mesh, policy="all-hybrid", tol=1e-13)
    report = composite_fluxes(mesh, r.partition, None, r.tensor, r.u)
    assert report.max_conservativity_defect() <= 1e-9 * report.max_flux_scale()
    assert not report.pair_fluxes


def test_boundary_flux_totals_constant_gradient():
    # u = x: co-normal flux is +1 at x=1, -1 at x=0, 0 on y-sides
    mesh = sushi.gen_rect(4, 4)
    aff = lambda p: p[0]
    tensor = TensorField.from_constant(np.eye(2))
    part = partition_faces(mesh, "all-hybrid")
    u = interpolate(mesh, part, None, aff, variant="pd")
    totals = boundary_flux_totals(mesh, tensor, u)
    assert totals["x=0"] == pytest.approx(-1.0, abs=1e-12)
    assert totals["x=1"] == pytest.approx(1.0, abs=1e-12)
    assert totals["y=0"] == pytest.approx(0.0, abs=1e-12)
    assert totals["y=1"] == pytest.approx(0.0, abs=1e-12)


def test_boundary_flux_unclassified_face():
    verts = np.array([[0.0, 0.0], [1.0, -0.2], [1.0, 1.0], [0.0, 1.0]])
    mesh = compute_geometry(verts, [[0, 1, 2, 3]])
    tensor = TensorField.from_constant(np.eye(2))
    part = partition_faces(mesh, "all-hybrid")
    u = interpolate(mesh, part, None, lambda p: 0.0, variant="pd")
    with pytest.raises(UnclassifiedBoundaryFace):
        boundary_flux_totals(mesh, tensor, u)


def test_error_norms_zero_for_interpolated_exact():
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_rect(3, 3)
    part = partition_faces(mesh, "all-hybrid")
    u = interpolate(mesh, part, None, prob.exact, variant="pd")
    report = error_norms(mesh, u, prob.exact, prob.exact_grad)
    assert report.eps_u == 0.0
    assert report.eps_u_rel == 0.0


def test_norm_comparison_pi_v_vs_seminorm(rng):
    # || Pi_M v ||_{1,2,M} <= |v|_X for zero-boundary grid functions
    mesh = sushi.gen_nonconforming_rect(1)
    for _ in range(20):
        v = random_zero_boundary(mesh, rng)
        assert norm_1pm(mesh, v.cell_values, 2.0) <= seminorm_x(mesh, v) + 1e-12


def test_norm_1pm_matches_cell_sum_form(rng):
    # the face-jump sum equals the equivalent cell-by-cell accumulation
    mesh = sushi.gen_tri(3)
    cv = rng.standard_normal(mesh.n_cells)
    p = 3.0
    total = 0.0
    for c in cell_views(mesh):
        for i, fid in enumerate(c.faces):
            f = face_view(mesh, int(fid))
            if f.boundary:
                jump, dsig = abs(cv[c.id]), c.dists[i]
            else:
                k, l = f.cells
                other = l if k == c.id else k
                dsig = c.dists[i] + mesh.cone_dist[mesh.face_cones[f.id, f.cells.index(other)]]
                jump = abs(cv[k] - cv[l])
            total += f.measure * c.dists[i] * (jump / dsig) ** p
    assert norm_1pm(mesh, cv, p) == pytest.approx(total ** (1.0 / p), rel=1e-12)


def test_face_normal_gradient_integral_quadratic():
    # 3-point Gauss is exact for polynomial integrands up to degree 5
    mesh = sushi.gen_rect(1, 1)
    grad = lambda p: np.array([p[0] ** 2 * p[1], p[1] ** 3])
    f = [f for f in face_views(mesh) if np.allclose(f.centre, [1.0, 0.5])][0]
    got = normal_gradient_integrals(mesh, grad)[mesh.face_cones[f.id, 0]]
    # outward normal (1,0): integral of x^2 y at x=1 for y in [0,1] = 1/2
    assert got == pytest.approx(0.5, rel=1e-14)


def test_flux_consistency_affine_is_exact():
    mesh = sushi.gen_nonconforming_rect(1)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    tensor = TensorField.from_constant(np.eye(2))
    grad = np.array([1.0, -2.0])
    # E(u) measures numerical-vs-exact flux defects; affine fields give 0
    e = flux_consistency_E(
        mesh, part, weights, tensor,
        lambda p: float(grad @ p), lambda p: grad,
    )
    assert e <= 1e-11


def test_flux_consistency_single_cell_brute_force():
    # independent dense evaluation of the defect sum on one unit cell
    mesh = sushi.gen_rect(1, 1)
    part = partition_faces(mesh, "all-hybrid")
    tensor = TensorField.from_constant(np.eye(2))
    quad = lambda p: p[0] ** 2 + 0.5 * p[1] ** 2
    grad = lambda p: np.array([2.0 * p[0], p[1]])
    e = flux_consistency_E(mesh, part, None, tensor, quad, grad)

    u = interpolate(mesh, part, None, quad, variant="pdb")
    fk = cone_fluxes(mesh, tensor, u)
    c = cell_view(mesh, 0)
    total = 0.0
    for i, fid in enumerate(c.faces):
        exact_int = normal_gradient_integrals(mesh, grad)[c.cones][i]
        total += c.dists[i] / c.face_measures[i] * (fk[i] + exact_int) ** 2
    assert e == pytest.approx(math.sqrt(total), rel=1e-13)


def test_flux_consistency_requires_identity():
    mesh = sushi.gen_rect(2, 2)
    part = partition_faces(mesh, "all-hybrid")
    tensor = TensorField.from_constant([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(RequiresIdentityTensor):
        flux_consistency_E(mesh, part, None, tensor, lambda p: 0.0, lambda p: (0, 0))


def test_flux_consistency_decays_first_order():
    prob = problem_quartic_isotropic()
    hs, es = [], []
    for n in (4, 8, 16):
        mesh = sushi.gen_rect(n, n)
        part = partition_faces(mesh, "all-barycentric")
        weights = compute_weights(mesh, part)
        es.append(flux_consistency_E(mesh, part, weights, prob.make_tensor(mesh),
                                     prob.exact, prob.exact_grad))
        hs.append(mesh.h)
    assert convergence_order(zip(hs, es)) >= 0.9


def test_error_report_csv_round_trip(tmp_path):
    from sushi.vtkio import export_csv, read_csv

    prob = problem_anisotropic_smooth()
    r = solve_problem(prob, sushi.gen_rect(3, 3), policy="all-barycentric")
    row = {"mesh": "rect:3x3", "policy": "all-barycentric",
           "eps_u": r.errors.eps_u, "eps_grad": r.errors.eps_grad,
           "N": r.system.n, "NM": r.system.nm}
    path = tmp_path / "report.csv"
    export_csv([row], path)
    back = read_csv(path)[0]
    assert float(back["eps_u"]) == r.errors.eps_u
    assert float(back["eps_grad"]) == r.errors.eps_grad
    assert int(back["N"]) == r.system.n


def test_convergence_order_synthetic():
    hs = [0.5, 0.25, 0.125, 0.0625]
    errors = [3.0 * h ** 2 for h in hs]
    assert convergence_order(zip(hs, errors)) == pytest.approx(2.0, abs=1e-10)


def test_convergence_order_needs_three_levels():
    with pytest.raises(InsufficientLevels):
        convergence_order([(0.5, 1.0), (0.25, 0.25)])


def test_convergence_order_needs_three_distinct_h():
    with pytest.raises(InsufficientLevels):
        convergence_order([(0.5, 1.0), (0.5, 1.0), (0.25, 0.25)])


@pytest.mark.parametrize("bad", [0.0, -0.25, math.nan, math.inf])
def test_convergence_order_rejects_non_positive_or_non_finite(bad):
    with pytest.raises(InvalidSeries):
        convergence_order([(0.5, 1.0), (0.25, bad), (0.125, 0.0625)])
    with pytest.raises(InvalidSeries):
        convergence_order([(0.5, 1.0), (bad, 0.25), (0.125, 0.0625)])
