import math

import numpy as np
import pytest

import sushi
from conftest import cell_views, face_views, random_zero_boundary
from oracles import interpolate, stabilization_residuals
from test_assembly_reference import reference_gradient_operator
from sushi.geometry import DIM
from sushi.gradient import DEFAULT_ALPHA, cell_gradients, gradient_field
from sushi.postproc import _cone_errors_sq, convergence_order, seminorm_x
from sushi.spaces import DiscreteFunction, partition_faces


def pd_interpolant(mesh, fn):
    part = partition_faces(mesh, "all-hybrid")
    return interpolate(mesh, part, None, fn, variant="pd")


def y_vectors(mesh, cid, alpha=None):
    """(k, k, d) block of ``G`` for one cell: Y[i, j] multiplies delta_j in
    the gradient of cone i."""
    s = slice(int(mesh.cell_ptr[cid]), int(mesh.cell_ptr[cid + 1]))
    k, d = s.stop - s.start, DIM
    block = reference_gradient_operator(mesh, alpha)[d * s.start:d * s.stop, s].toarray()
    return block.reshape(k, d, k).transpose(0, 2, 1)


def test_constant_has_zero_gradient():
    mesh = sushi.gen_tri(2)
    u = DiscreteFunction(np.full(mesh.n_cells, 3.7), np.full(mesh.n_faces, 3.7))
    for grad in cell_gradients(mesh, u):
        assert np.allclose(grad, 0.0, atol=1e-14)


def test_unit_square_hand_computed_gradient():
    mesh = sushi.gen_rect(1, 1)
    u = DiscreteFunction(np.zeros(1), np.zeros(4))
    for f in face_views(mesh):
        if np.allclose(f.centre, [1.0, 0.5]):
            u.face_values[f.id] = 1.0
        elif np.allclose(f.centre, [0.0, 0.5]):
            u.face_values[f.id] = -1.0
    assert np.allclose(cell_gradients(mesh, u)[0], [2.0, 0.0], atol=1e-14)


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: sushi.gen_rect(3, 2),
        lambda: sushi.gen_tri(3),
        lambda: sushi.gen_nonconforming_rect(1),
        lambda: sushi.gen_tilted_barrier(1)[0],
    ],
)
def test_affine_exactness_per_cone(mesh_fn):
    mesh = mesh_fn()
    grad = np.array([1.3, -0.8])
    aff = lambda p: grad @ p + 0.45
    u = pd_interpolant(mesh, aff)
    field = gradient_field(mesh, u)
    for c in cell_views(mesh):
        assert np.abs(field.cones[c.cones] - grad).max() <= 1e-12 * np.abs(grad).max()


def test_affine_stabilization_residual_vanishes():
    mesh = sushi.gen_nonconforming_rect(1)
    aff = lambda p: 2.0 * p[0] + 5.0 * p[1] - 1.0
    u = pd_interpolant(mesh, aff)
    residuals = stabilization_residuals(mesh, u)
    for c in cell_views(mesh):
        for r in residuals[c.cones]:
            assert abs(r) <= 1e-11


def test_stabilization_orthogonality(rng):
    # sum over faces of (|s| d / d_dim) R n = 0 for any grid function
    mesh = sushi.gen_tilted_barrier(1)[0]
    u = random_zero_boundary(mesh, rng)
    d = DIM
    residuals = stabilization_residuals(mesh, u)
    for c in cell_views(mesh):
        resid = residuals[c.cones]
        vec = (c.face_measures * c.dists / d * resid) @ c.normals
        scale = np.abs(resid).max() * c.measure + 1e-300
        assert np.abs(vec).max() <= 1e-10 * scale


def test_residual_matches_dense_formula(rng):
    # independent brute-force evaluation of the residual definition
    mesh = sushi.gen_rect(2, 2)
    u = random_zero_boundary(mesh, rng)
    alpha = math.sqrt(2.0)
    grads = cell_gradients(mesh, u)
    residuals = stabilization_residuals(mesh, u, alpha)
    for c in cell_views(mesh):
        grad = grads[c.id]
        for i, fid in enumerate(c.faces):
            fid = int(fid)
            expect = (alpha / c.dists[i]) * (
                u.face_values[fid]
                - u.cell_values[c.id]
                - float(grad @ (c.face_centres[i] - c.point))
            )
            got = residuals[c.cones][i]
            assert got == pytest.approx(expect, rel=1e-13, abs=1e-14)


def test_cone_gradients_match_componentwise(rng):
    mesh = sushi.gen_nonconforming_rect(1)
    u = random_zero_boundary(mesh, rng)
    a = DEFAULT_ALPHA
    field = gradient_field(mesh, u, a)
    grads = cell_gradients(mesh, u)
    residuals = stabilization_residuals(mesh, u, a)
    for c in cell_views(mesh):
        cones = field.cones[c.cones]
        grad = grads[c.id]
        for i, fid in enumerate(c.faces):
            r = residuals[c.cones][i]
            assert np.allclose(cones[i], grad + r * c.normals[i], atol=1e-12)


def test_y_vectors_reconstruct_cone_gradients(rng):
    mesh = sushi.gen_tilted_barrier(1)[0]
    for trial in range(10):
        u = random_zero_boundary(mesh, rng)
        field = gradient_field(mesh, u, DEFAULT_ALPHA)
        for cid in (0, 57, 105, 209):
            c = cell_views(mesh)[cid]
            y = y_vectors(mesh, cid)
            delta = u.face_values[c.faces] - u.cell_values[cid]
            rec = np.einsum("ijd,j->id", y, delta)
            cones = field.cones[c.cones]
            scale = np.abs(cones).max() + 1e-300
            assert np.abs(rec - cones).max() <= 1e-12 * scale


def test_y_vector_weighted_sum_identity():
    # sum over s' of (|s'| d(K,s') / d) y^{s' s} = |s| n(K,s)
    for mesh in (sushi.gen_tri(2), sushi.gen_nonconforming_rect(1)):
        d = DIM
        for c in cell_views(mesh):
            y = y_vectors(mesh, c.id)
            w = c.face_measures * c.dists / d
            lhs = np.einsum("j,jid->id", w, y)
            rhs = c.face_measures[:, None] * c.normals
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_y_vector_superadmissible_diagonal():
    # axis-aligned rectangle with centroid point: n = (x_s - x_K)/d, so the
    # diagonal correction factor uses n . (x_s - x_K) = d
    mesh = sushi.gen_rect(2, 3)
    for c in cell_views(mesh):
        for i in range(len(c.faces)):
            rel = c.face_centres[i] - c.point
            assert np.allclose(c.normals[i], rel / c.dists[i], atol=1e-13)
    alpha = 1.7
    c = cell_views(mesh)[0]
    y = y_vectors(mesh, 0, alpha)
    g = c.face_measures[:, None] * c.normals / c.measure
    for i in range(len(c.faces)):
        coef = 1.0 - c.face_measures[i] / c.measure * c.dists[i]
        expect = g[i] + (alpha / c.dists[i]) * coef * c.normals[i]
        assert np.allclose(y[i, i], expect, atol=1e-13)


def test_norm_equivalence_sample(rng):
    # c1 |u|_X <= ||grad_D u||_L2 <= c2 |u|_X with a finite nonzero ratio
    mesh = sushi.gen_rect(4, 4)
    for _ in range(5):
        u = random_zero_boundary(mesh, rng)
        cones = gradient_field(mesh, u).cones
        gnorm = math.sqrt(float(np.sum(mesh.cone_measure * np.sum(cones ** 2, axis=1))))
        xnorm = seminorm_x(mesh, u)
        assert 0.05 * xnorm <= gnorm <= 20.0 * xnorm


def test_gradient_consistency_order():
    quartic = lambda p: 16.0 * p[0] * (1 - p[0]) * p[1] * (1 - p[1])
    qgrad = lambda p: np.array(
        [16.0 * (1 - 2 * p[0]) * p[1] * (1 - p[1]),
         16.0 * p[0] * (1 - p[0]) * (1 - 2 * p[1])]
    )
    hs, errs = [], []
    for n in (16, 32, 64):
        mesh = sushi.gen_rect(n, n)
        u = pd_interpolant(mesh, quartic)
        hs.append(mesh.h)
        errs.append(math.sqrt(_cone_errors_sq(mesh, gradient_field(mesh, u), qgrad).max()))
    assert convergence_order(zip(hs, errs)) >= 0.9
