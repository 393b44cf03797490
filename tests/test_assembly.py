import numpy as np
import pytest
import scipy.integrate

import sushi
from conftest import (
    cell_views,
    local_matrices,
    random_zero_boundary,
    traced_peak,
    two_point_reference,
    weight_rows,
    weights_table,
)
from oracles import cone_fluxes, interpolate, problem_superadmissible_oracle, weight_matrix
from sushi.assembly import (
    TensorField,
    assemble,
    rhs_cell_integrals,
)
from sushi.errors import MissingWeights, NonPositiveTensor, NonSymmetricTensor
from sushi.gradient import DEFAULT_ALPHA, gradient_field
from sushi.problems import problem_anisotropic_smooth
from sushi.run import parse_mesh_spec
from sushi.spaces import DiscreteFunction, compute_weights, partition_faces

CLUBAR = np.array([[1.5, 0.5], [0.5, 1.5]])


def test_tensor_validation():
    with pytest.raises(NonSymmetricTensor):
        TensorField.from_constant([[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(NonPositiveTensor):
        TensorField.from_constant([[1.0, 2.0], [2.0, 1.0]])
    t = TensorField.from_constant(CLUBAR)
    assert t.tensors.shape == (1, 2, 2)
    assert np.array_equal(t.tensors[0], CLUBAR)


@pytest.mark.parametrize("mat", [
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[1.0, 0.0], [-np.inf, 1.0]],
], ids=["inf-diagonal", "nan-off-diagonal", "inf-lower"])
def test_non_finite_tensor_is_not_positive(mat):
    # refused before the symmetry test, whose inf - inf would warn
    with pytest.raises(NonPositiveTensor, match="not finite"):
        TensorField.from_constant(mat)
    with pytest.raises(NonPositiveTensor, match="not finite"):
        TensorField([np.eye(2), mat])


@pytest.mark.parametrize("rows", [7, 17, 200])
def test_tensor_of_an_unknown_row_count_is_refused(rows):
    # rect:4x4 has 16 cells and 64 cones: 7 and 17 rows raised a bare
    # IndexError, and 200 rows were read as per-cone tensors
    mesh = sushi.gen_rect(4, 4)
    tensor = TensorField(np.broadcast_to(CLUBAR, (rows, 2, 2)))
    part = partition_faces(mesh, "all-hybrid")
    with pytest.raises(ValueError, match=f"tensor has {rows} rows, expected 1, 16 .* or 64 "):
        assemble(mesh, part, None, tensor)


def test_unit_square_local_matrix_is_two_point_diagonal():
    # isotropic tensor + superadmissible cell: A_K = diag(|s|/d(K,s))
    mesh = sushi.gen_rect(1, 1)
    lm = local_matrices(mesh, TensorField.from_constant(np.eye(2))).toarray()
    assert np.allclose(lm, 2.0 * np.eye(4), atol=1e-13)


def test_local_matrix_symmetric_positive_clubar():
    mesh = sushi.gen_rect(1, 1)
    lm = local_matrices(mesh, TensorField.from_constant(CLUBAR)).toarray()
    assert np.array_equal(lm, lm.T)
    assert np.linalg.eigvalsh(lm).min() > 0.0


def test_quadratic_form_matches_cone_quadrature(rng):
    # u^T A_K-form u == sum over cones of |D| grad . Lambda grad
    mesh = sushi.gen_nonconforming_rect(1)
    tensor = TensorField.from_constant(CLUBAR)
    a = DEFAULT_ALPHA
    local = local_matrices(mesh, tensor, a)
    for cid in (0, 3, 7, 12):
        c = cell_views(mesh)[cid]
        lm = local[c.cones, c.cones].toarray()
        for _ in range(10):
            u = random_zero_boundary(mesh, rng)
            delta = u.face_values[c.faces] - u.cell_values[cid]
            quad_matrix = float(delta @ lm @ delta)
            cones = gradient_field(mesh, u, a).cones[c.cones]
            quad_cones = sum(
                c.cone_measures[i] * float(cones[i] @ CLUBAR @ cones[i])
                for i in range(len(c.faces))
            )
            assert quad_matrix == pytest.approx(quad_cones, rel=1e-12)


def test_flux_zero_for_constants():
    mesh = sushi.gen_tri(2)
    tensor = TensorField.from_constant(CLUBAR)
    u = DiscreteFunction(np.ones(mesh.n_cells), np.ones(mesh.n_faces))
    fluxes = cone_fluxes(mesh, tensor, u)
    for c in cell_views(mesh):
        assert np.abs(fluxes[c.cones]).max() <= 1e-13


def test_flux_two_point_on_superadmissible_cells(rng):
    mesh = sushi.gen_rect(3, 2)
    lam = 2.5
    tensor = TensorField.from_constant(lam * np.eye(2))
    u = random_zero_boundary(mesh, rng)
    fluxes = cone_fluxes(mesh, tensor, u)
    for c in cell_views(mesh):
        got = fluxes[c.cones]
        expect = lam * c.face_measures / c.dists * (
            u.cell_values[c.id] - u.face_values[c.faces]
        )
        assert np.allclose(got, expect, atol=1e-12 * np.abs(expect).max())


def test_flux_exact_for_affine_identity_tensor():
    mesh = sushi.gen_nonconforming_rect(1)
    grad = np.array([0.7, -1.9])
    aff = lambda p: grad @ p + 2.0
    part = partition_faces(mesh, "all-hybrid")
    u = interpolate(mesh, part, None, aff, variant="pd")
    tensor = TensorField.from_constant(np.eye(2))
    fluxes = cone_fluxes(mesh, tensor, u)
    for c in cell_views(mesh):
        got = fluxes[c.cones]
        expect = -c.face_measures * (c.normals @ grad)
        assert np.abs(got - expect).max() <= 1e-11


@pytest.mark.parametrize("policy", ["all-barycentric", "all-hybrid"])
def test_assemble_peak_memory_at_128x128(policy):
    # The sparse product over every cone pair peaked at 36 MB (barycentric)
    # and 34 MB (hybrid) here; with the whole B, B E and a second copy of K
    # at once, 17.0 and 18.7 MB.  B E one block of B at a time and K one
    # block of rows at a time peak at 10.3 and 11.4 MB; with each row block's
    # diagonal and triangle taken by scipy and stacked, 9.3 and 10.3 MB.
    mesh, _, _ = parse_mesh_spec("rect:128x128")
    prob = problem_anisotropic_smooth()
    tensor = prob.make_tensor(mesh)
    part = partition_faces(mesh, policy)
    weights = compute_weights(mesh, part) if part.barycentric_faces() else None
    peak = traced_peak(lambda: assemble(mesh, part, weights, tensor, source=prob.source,
                                        dirichlet=prob.dirichlet))
    assert peak <= {"all-barycentric": 9.8e6, "all-hybrid": 10.8e6}[policy]


@pytest.mark.parametrize("spec,policy", [("ncrect:2", "all-barycentric"),
                                         ("rect:3x3", "all-hybrid")])
def test_assembled_matrix_exactly_symmetric(spec, policy):
    mesh = parse_mesh_spec(spec)[0]
    prob = problem_anisotropic_smooth()
    part = partition_faces(mesh, policy)
    weights = compute_weights(mesh, part) if part.barycentric_faces() else None
    system = assemble(mesh, part, weights, prob.make_tensor(mesh), source=prob.source)
    full = system.full().toarray()
    assert np.array_equal(full, full.T)


def test_bilinear_form_equivalence(rng):
    # v^T M u equals the cone quadrature of grad_D u . Lambda grad_D v for
    # zero-boundary functions compatible with the elimination
    mesh = sushi.gen_rect(4, 4)
    tensor = TensorField.from_constant(CLUBAR)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    system = assemble(mesh, part, weights, tensor)
    mat = system.full().toarray()
    a = DEFAULT_ALPHA

    def materialize(vec):
        cv = vec[: mesh.n_cells]
        fv = weight_matrix(weights, mesh.n_cells) @ cv
        return DiscreteFunction(cv, fv)

    for _ in range(5):
        xu = rng.standard_normal(system.n)
        xv = rng.standard_normal(system.n)
        u, v = materialize(xu), materialize(xv)
        form = 0.0
        field_u, field_v = gradient_field(mesh, u, a), gradient_field(mesh, v, a)
        for c in cell_views(mesh):
            gu = field_u.cones[c.cones]
            gv = field_v.cones[c.cones]
            form += float(np.einsum("i,id,de,ie->", c.cone_measures, gu, CLUBAR, gv))
        assert float(xv @ mat @ xu) == pytest.approx(form, rel=1e-10)


def test_elimination_matches_projected_full_form(rng):
    # assembling with eliminated faces equals E^T Q E where Q is the
    # all-hybrid form over (cells, all interior faces) and E the
    # elimination map
    mesh = sushi.gen_nonconforming_rect(1)
    tensor = TensorField.from_constant(CLUBAR)
    hyb = partition_faces(mesh, "all-hybrid")
    bar = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, bar)
    q_sys = assemble(mesh, hyb, None, tensor)
    q = q_sys.full().toarray()
    red = assemble(mesh, bar, weights, tensor).full().toarray()

    n_cells = mesh.n_cells
    e = np.zeros((q_sys.n, n_cells))
    e[:n_cells, :] = np.eye(n_cells)
    for fid in bar.barycentric_faces():
        row = n_cells + np.searchsorted(q_sys.numbering.hybrid_faces, fid)
        for kind, idx, beta in weights.support[fid]:
            assert kind == "cell"
            e[row, idx] = beta
    projected = e.T @ q @ e
    assert np.abs(projected - red).max() <= 1e-12 * np.abs(red).max()


def test_all_hybrid_via_per_cell_regions_matches():
    # a region map giving every cell its own region hybridizes every face
    mesh = sushi.gen_rect(3, 2)
    tensor = TensorField.from_constant(CLUBAR)
    regions = np.arange(mesh.n_cells)
    part = partition_faces(mesh, "discontinuity", regions)
    assert not part.barycentric_faces()
    a = assemble(mesh, part, None, tensor).full().toarray()
    b = assemble(mesh, partition_faces(mesh, "all-hybrid"), None, tensor).full().toarray()
    assert np.array_equal(a, b)


def test_rhs_cell_integral_constant_and_affine():
    mesh = sushi.gen_tri(2)
    for c in cell_views(mesh):
        assert rhs_cell_integrals(mesh, lambda p: 1.0)[c.id] == pytest.approx(
            c.measure, rel=1e-14
        )
    aff = lambda p: 3.0 * p[0] - 7.0 * p[1] + 1.0
    for c in cell_views(mesh):
        # centroid rule per cone is exact for affine integrands
        expect = c.measure * aff(c.point)  # centroid of the cell
        got = rhs_cell_integrals(mesh, aff)[c.id]
        assert got == pytest.approx(expect, rel=1e-13)


def test_rhs_cell_integral_against_reference_quadrature():
    # the cone-centroid rule is exact for affine integrands only; against
    # an adaptive reference it converges at second order under refinement
    prob = problem_anisotropic_smooth()
    ref, _ = scipy.integrate.dblquad(
        lambda y, x: prob.source((x, y)), 0.0, 1.0, 0.0, 1.0, epsabs=1e-12
    )
    errs = []
    for n in (8, 16, 32):
        mesh = sushi.gen_rect(n, n)
        total = sum(rhs_cell_integrals(mesh, prob.source))
        errs.append(abs(total - ref) / abs(ref))
    assert errs[2] <= 2e-4
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) >= 1.9


def test_dirichlet_lift_reproduces_affine_solution():
    # -div(grad u) = 0 with affine boundary data: the scheme is exact
    mesh = sushi.gen_nonconforming_rect(1)
    aff = lambda p: 1.5 * p[0] - 0.5 * p[1] + 0.25
    tensor = TensorField.from_constant(np.eye(2))
    for policy in ("all-hybrid", "all-barycentric"):
        part = partition_faces(mesh, policy)
        weights = compute_weights(mesh, part) if part.barycentric_faces() else None
        system = assemble(mesh, part, weights, tensor, dirichlet=aff)
        x, _ = sushi.solve_dense(system)
        for c in cell_views(mesh):
            assert x[c.id] == pytest.approx(aff(c.point), rel=1e-11, abs=1e-11)


def test_missing_weights_detected():
    mesh = sushi.gen_rect(2, 2)
    part = partition_faces(mesh, "all-barycentric")
    with pytest.raises(MissingWeights):
        assemble(mesh, part, None, TensorField.from_constant(np.eye(2)))


def test_inconsistent_weights_detected():
    from sushi.errors import InconsistentWeights

    mesh = sushi.gen_rect(2, 2)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    tensor = TensorField.from_constant(np.eye(2))

    rows = weight_rows(weights)
    dropped = part.barycentric_faces()[0]
    incomplete = weights_table(mesh, {f: r for f, r in rows.items() if f != dropped})
    with pytest.raises(InconsistentWeights):
        assemble(mesh, part, incomplete, tensor)

    some_boundary = int(np.flatnonzero(mesh.face_boundary)[0])
    extra = weights_table(mesh, {**rows, some_boundary: [(0, 1.0)]})
    with pytest.raises(InconsistentWeights):
        assemble(mesh, part, extra, tensor)


def test_two_point_oracle_cell_centred():
    # superadmissible rectangles, piecewise-constant isotropic coefficient:
    # the assembled cell-centred matrix is the arithmetic-average two-point
    # matrix, and the hybrid Schur complement the harmonic-average one
    for lam_pair in ((1.0, 1.0), (1.0, 100.0)):
        prob = problem_superadmissible_oracle(*lam_pair)
        mesh = sushi.gen_rect(4, 4)
        lam = np.array(
            [lam_pair[0] if c.point[0] < 0.5 else lam_pair[1] for c in cell_views(mesh)]
        )
        tensor = prob.make_tensor(mesh)
        part = partition_faces(mesh, "all-barycentric")
        weights = compute_weights(mesh, part)
        got = assemble(mesh, part, weights, tensor).full().toarray()
        ref = two_point_reference(mesh, lam, "arithmetic")
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

        hyb = assemble(mesh, partition_faces(mesh, "all-hybrid"), None, tensor)
        dense = hyb.full().toarray()
        nc = mesh.n_cells
        schur = dense[:nc, :nc] - dense[:nc, nc:] @ np.linalg.solve(
            dense[nc:, nc:], dense[nc:, :nc]
        )
        harm = two_point_reference(mesh, lam, "harmonic")
        assert np.abs(schur - harm).max() <= 1e-11 * np.abs(harm).max()


def test_five_point_laplacian_special_case():
    # lambda = 1 everywhere: the cell-centred matrix is the classical
    # five-point stencil of the Laplacian
    mesh = sushi.gen_rect(4, 4)
    tensor = TensorField.from_constant(np.eye(2))
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    got = assemble(mesh, part, weights, tensor).full().toarray()
    ref = two_point_reference(mesh, np.ones(mesh.n_cells), "harmonic")
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_smooth_tensor_sampled_at_cone_centroids():
    # a spatially varying tensor is accepted and keeps the matrix SPD
    mesh = sushi.gen_rect(3, 3)
    def fn(p):
        off = np.full_like(p[0], 0.2)
        return np.array([[1.0 + p[0], off], [off, 2.0 + p[1]]])

    tensor = TensorField.from_callable(fn, mesh)
    part = partition_faces(mesh, "all-hybrid")
    system = assemble(mesh, part, None, tensor)
    assert np.linalg.eigvalsh(system.full().toarray()).min() > 0.0
