"""The per-cone vector passes against the expressions they replaced.

The gradient coefficients, the residuals R, the cell and cone gradients,
the sampled cone tensors, the cone fluxes and the error norms gather rows
of (n, 2) and (n, 2, 2) arrays with ``np.take`` and add the two components
of a row dot product one by one (``pair_sum``), where they used fancy
indexing and ``.sum(axis=...)``.  The references below are the earlier
expressions.  Both add the same terms in the same order, so every value
must be the same bit for bit, signed zeros included: arrays are compared
by their bytes.
"""

import numpy as np
import pytest

from conftest import anisotropic_per_cell, jittered_file_mesh, random_zero_boundary, smooth_tensor
from sushi.assembly import TensorField
from sushi.geometry import pair_sum, segment_sums, take_rows
from sushi.gradient import (
    _residuals,
    cell_gradients,
    cone_increments,
    gradient_coefficients,
    gradient_field,
    resolve_alpha,
)
from sushi.postproc import UNIT_SQUARE_SIDES, _cell_fluxes, boundary_flux_totals, error_norms
from sushi.problems import problem_anisotropic_smooth
from sushi.run import parse_mesh_spec, solve_problem
from sushi.spaces import DiscreteFunction, sample_field


def reference_cone_centroids(mesh, cones=slice(None)):
    cells, faces = mesh.cone_cell[cones], mesh.cone_face[cones]
    out = np.empty((2,) + cells.shape)
    for k in range(2):
        out[k] = (mesh.cell_point[cells, k] + 2.0 * mesh.face_centre[faces, k]) / 3.0
    return np.moveaxis(out, 0, -1)


def reference_gradient_coefficients(mesh, cones=slice(None)):
    return (mesh.face_measure[mesh.cone_face[cones]][..., None] * mesh.cone_normal[cones]
            / mesh.cell_measure[mesh.cone_cell[cones]][..., None])


def reference_residuals(mesh, cones, delta, grad, alpha):
    rel = mesh.face_centre[mesh.cone_face[cones]] - mesh.cell_point[mesh.cone_cell[cones]]
    proj = (rel * grad).sum(axis=-1)
    return (delta - proj) * (alpha / mesh.cone_dist[cones])


def reference_cell_gradients(mesh, u):
    delta = cone_increments(mesh, u)
    return segment_sums(delta[:, None] * reference_gradient_coefficients(mesh), mesh.cell_ptr)


def reference_gradient_field(mesh, u, alpha=None):
    grad = reference_cell_gradients(mesh, u)[mesh.cone_cell]
    residuals = reference_residuals(mesh, slice(None), cone_increments(mesh, u), grad,
                                    resolve_alpha(alpha))
    return grad + residuals[:, None] * mesh.cone_normal


def reference_cell_average(mesh, cones):
    w = mesh.cone_measure
    return (segment_sums(w[:, None] * cones, mesh.cell_ptr)
            / segment_sums(w, mesh.cell_ptr)[:, None])


def reference_cone_tensors(tensor, mesh, cones=slice(None)):
    """``tensor`` is a TensorField, or the callable a field was sampled from."""
    measure = mesh.cone_measure[cones]
    if callable(tensor):
        sampled = sample_field(tensor, reference_cone_centroids(mesh, cones).reshape(-1, 2),
                               "tensor", (2, 2))
        sampled = sampled.reshape(measure.shape + (2, 2))
    elif len(tensor.tensors) == 1:
        sampled = tensor.tensors
    else:
        sampled = tensor.tensors[mesh.cone_cell[cones]]
    return measure[..., None, None] * sampled


def reference_cell_fluxes(mesh, tensor, grad, a, cells):
    sizes = np.diff(mesh.cell_ptr)[cells]
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    cones = np.repeat(mesh.cell_ptr[cells] - ptr[:-1], sizes) + np.arange(ptr[-1])
    w = (reference_cone_tensors(tensor, mesh, cones) * grad[cones][:, None, :]).sum(axis=2)
    s = (a / mesh.cone_dist[cones]) * (mesh.cone_normal[cones] * w).sum(axis=1)
    rel = mesh.face_centre[mesh.cone_face[cones]] - mesh.cell_point[mesh.cone_cell[cones]]
    v = np.repeat(segment_sums(w - s[:, None] * rel, ptr), sizes, axis=0)
    return cones, -(s + (reference_gradient_coefficients(mesh, cones) * v).sum(axis=1))


def reference_boundary_flux_totals(mesh, tensor, u, alpha=None):
    faces = np.nonzero(mesh.face_boundary)[0]
    centres = mesh.face_centre[faces]
    side_of = np.full(len(faces), -1)
    for s, side in enumerate(UNIT_SQUARE_SIDES):
        axis, val = side.split("=")
        coord = centres[:, 0] if axis == "x" else centres[:, 1]
        side_of[(side_of < 0) & (np.abs(coord - float(val)) <= 1e-9)] = s
    a = resolve_alpha(alpha)
    cones = mesh.face_cones[faces, 0]
    owned, fluxes = reference_cell_fluxes(mesh, tensor, reference_gradient_field(mesh, u, a), a,
                                          np.unique(mesh.cone_cell[cones]))
    outflow = fluxes[np.searchsorted(owned, cones)]
    return {side: -float(outflow[side_of == s].sum())
            for s, side in enumerate(UNIT_SQUARE_SIDES)}


def reference_error_norms(mesh, u, exact, exact_grad, alpha=None):
    """The squared sums of ``error_norms`` before the square roots."""
    meas = mesh.cell_measure
    ux = sample_field(exact, mesh.cell_point, "exact")
    gx = sample_field(exact_grad, mesh.cell_point, "exact_grad", (2,))
    diff = reference_cell_gradients(mesh, u) - gx
    cone_diff = (reference_gradient_field(mesh, u, alpha)
                 - sample_field(exact_grad, reference_cone_centroids(mesh), "exact_grad", (2,)))
    return {"eps_u": float(np.sum(meas * (u.cell_values - ux) ** 2)),
            "eps_grad": float(np.sum(meas * np.sum(diff * diff, axis=1))),
            "ref_grad": float(np.sum(meas * np.sum(gx * gx, axis=1))),
            "eps_grad_stab": float(np.sum(mesh.cone_measure
                                          * np.sum(cone_diff * cone_diff, axis=1)))}


def assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
    assert got.tobytes() == ref.tobytes()


MESHES = ["rect:8x6", "tri:4", "ncrect:2", "barrier:1", "barrier:2", "barrier:3", "file"]


@pytest.fixture(params=MESHES)
def mesh(request, rng, tmp_path):
    if request.param == "file":
        return jittered_file_mesh(rng, tmp_path / "jittered.mesh")
    return parse_mesh_spec(request.param)[0]


def tensors(mesh, rng):
    """(field, what the references sample): the callable itself for the
    callable case, so its reference does not rest on ``from_callable``."""
    constant = TensorField.from_constant([[1.5, 0.5], [0.5, 1.5]])
    per_cell = anisotropic_per_cell(mesh, rng)
    return {"constant": (constant, constant), "per-cell": (per_cell, per_cell),
            "callable": (TensorField.from_callable(smooth_tensor, mesh), smooth_tensor)}


def grid_functions(mesh, rng):
    """The solution of the smooth problem, a random function and zero, whose
    face values -0.0 give signed-zero increments."""
    solved = solve_problem(problem_anisotropic_smooth(), mesh, policy="all-barycentric").u
    zero = DiscreteFunction(np.zeros(mesh.n_cells), np.full(mesh.n_faces, -0.0))
    return {"solved": solved, "random": random_zero_boundary(mesh, rng), "zero": zero}


@pytest.mark.parametrize("alpha", [None, 0.3])
def test_gradients_equal_reference_bit_for_bit(mesh, alpha, rng):
    for u in grid_functions(mesh, rng).values():
        assert_same_bits(cell_gradients(mesh, u), reference_cell_gradients(mesh, u))
        field = gradient_field(mesh, u, alpha)
        assert_same_bits(field.cones, reference_gradient_field(mesh, u, alpha))
        assert_same_bits(field.cell_average(mesh), reference_cell_average(mesh, field.cones))


def test_cone_terms_equal_reference_bit_for_bit(mesh, rng):
    # index arrays of several shapes, as assembly and the fluxes pass them,
    # and cell gradients with zero components for the signed zeros
    grad = rng.standard_normal((mesh.n_cones, 2))
    grad[::3] = 0.0
    grad[1::3, 0] = -0.0
    for cones in (slice(None), rng.integers(0, mesh.n_cones, 7),
                  rng.integers(0, mesh.n_cones, (4, 5)), rng.integers(0, mesh.n_cones, (3, 1, 4))):
        assert_same_bits(gradient_coefficients(mesh, cones),
                         reference_gradient_coefficients(mesh, cones))
        delta = rng.standard_normal(mesh.cone_dist[cones].shape)
        delta.reshape(-1)[::2] = -0.0
        g = grad[cones]
        assert_same_bits(_residuals(mesh, cones, delta, g, 1.3),
                         reference_residuals(mesh, cones, delta, g, 1.3))
        assert_same_bits(mesh.cone_centroids()[cones], reference_cone_centroids(mesh, cones))
        for tensor, reference in tensors(mesh, rng).values():
            assert_same_bits(tensor.cone_tensors(mesh, cones),
                             reference_cone_tensors(reference, mesh, cones))


def test_error_norms_equal_reference_bit_for_bit(mesh, rng):
    prob = problem_anisotropic_smooth()
    for u in grid_functions(mesh, rng).values():
        got = error_norms(mesh, u, prob.exact, prob.exact_grad)
        ref = reference_error_norms(mesh, u, prob.exact, prob.exact_grad)
        assert_same_bits(got.eps_u, np.sqrt(ref["eps_u"]))
        assert_same_bits(got.eps_grad, np.sqrt(ref["eps_grad"]))
        assert_same_bits(got.eps_grad_rel, np.sqrt(ref["eps_grad"] / ref["ref_grad"]))
        assert_same_bits(got.eps_grad_stab, np.sqrt(ref["eps_grad_stab"]))


@pytest.mark.parametrize("alpha", [None, 0.3])
def test_boundary_flux_totals_equal_reference_bit_for_bit(mesh, alpha, rng):
    # the totals, and the fluxes of every cone, which the totals sum only on
    # the boundary
    a = resolve_alpha(alpha)
    cells = np.arange(mesh.n_cells)
    for tensor, reference in tensors(mesh, rng).values():
        for u in grid_functions(mesh, rng).values():
            field = gradient_field(mesh, u, a)
            for got, ref in zip(_cell_fluxes(mesh, tensor, field, a, cells),
                                reference_cell_fluxes(mesh, reference, field.cones, a, cells)):
                assert_same_bits(got, ref)
            got = boundary_flux_totals(mesh, tensor, u, alpha)
            ref = reference_boundary_flux_totals(mesh, reference, u, alpha)
            assert list(got) == list(ref)
            for side in got:
                assert_same_bits(got[side], ref[side])


def test_take_rows_equals_fancy_indexing(rng):
    for a in (rng.standard_normal((20, 2)), rng.standard_normal((20, 2, 2)),
              rng.integers(0, 9, 20)):
        for index in (slice(None), slice(3, 11), rng.integers(0, 20, 6),
                      rng.integers(0, 20, (3, 4)), rng.integers(0, 20, (2, 3, 4))):
            assert_same_bits(take_rows(a, index), a[index])


def test_pair_sum_is_numpy_sum_over_a_pair():
    # every pair of signs and zeros: -0.0 + -0.0 is +0.0 in numpy's sum
    values = np.array([-0.0, 0.0, -1.5, 2.25, 1e-310])
    x, y = (a.ravel() for a in np.meshgrid(values, values))
    assert_same_bits(pair_sum(x, y), np.stack([x, y], axis=1).sum(axis=1))
    assert np.signbit(x + y).any()
