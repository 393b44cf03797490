"""The user-field contract: one call per point set, point axis first.

Each built-in field must give on a point array exactly the values it gives
point by point, so that moving from per-point calls to array calls changes
no bit of any assembled system or artifact.
"""

import json

import numpy as np
import pytest

import sushi
from oracles import problem_superadmissible_oracle
from sushi.assembly import TensorField, assemble, rhs_cell_integrals
from sushi.generators import (
    BARRIER_LEVEL,
    BARRIER_SLOPE,
    BARRIER_THICKNESS,
    barrier_region,
    phi1,
    phi2,
)
from sushi.postproc import error_norms
from sushi.problems import BUILTIN_PROBLEMS, load_problem_descriptor
from sushi.run import parse_mesh_spec, solve_problem
from sushi.spaces import DiscreteFunction, partition_faces, sample_field


def builtin_fields():
    """(label, field, shape) of every field a built-in problem carries."""
    probs = {name: make() for name, make in BUILTIN_PROBLEMS.items()}
    probs["superadmissible-oracle"] = problem_superadmissible_oracle(1.0, 100.0)
    out = []
    for name, prob in probs.items():
        for what in ("source", "dirichlet", "exact", "exact_grad"):
            field = getattr(prob, what)
            if field is not None:
                out.append((f"{name}.{what}", field, (2,) if what == "exact_grad" else ()))
    return out


def on_barrier_lines():
    """Points on the lines phi1 = 0 and phi2 = 0 and up to 4 ulps off them in y."""
    x = np.repeat(np.linspace(0.0, 1.0, 41), 9)
    steps = np.tile(np.arange(-4, 5), 41)
    lines = []
    for level in (BARRIER_LEVEL, BARRIER_LEVEL + BARRIER_THICKNESS):
        y = BARRIER_SLOPE * (x - 0.5) + level
        lines.append(np.stack([x, y + steps * np.spacing(y)], axis=1))
    return np.concatenate(lines)


def point_sets():
    sets = {}
    for spec in ("rect:8x6", "tri:4", "ncrect:2", "barrier:1"):
        mesh, _, _ = parse_mesh_spec(spec)
        sets[f"{spec} cone centroids"] = mesh.cone_centroids()
        sets[f"{spec} cell points"] = mesh.cell_point
        sets[f"{spec} face centres"] = mesh.face_centre
    sets["barrier lines"] = on_barrier_lines()
    return sets


def test_points_on_barrier_lines_keep_strict_region_tests():
    pts = on_barrier_lines()
    x, y = pts.T
    region = barrier_region(x, y)
    assert [int(barrier_region(*p)) for p in pts] == region.tolist()
    # phi1 = 0 exactly is inside the barrier (strict phi1 < 0 below it)
    on1 = phi1(x, y) == 0.0
    assert on1.sum() >= 10 and np.all(region[on1] == 2)
    # phi2 = phi1 - 0.05 is never exactly 0 in float64; next to the line
    # both signs occur, and only phi2 < 0 stays inside
    near2 = np.abs(phi2(x, y)) < 1e-15
    assert (phi2(x, y)[near2] < 0).any() and (phi2(x, y)[near2] > 0).any()
    assert np.array_equal(region[near2], np.where(phi2(x, y)[near2] < 0.0, 2, 3))
    mesh, regions = sushi.gen_tilted_barrier(1)
    assert regions.tolist() == [int(barrier_region(*p)) for p in mesh.cell_point]


@pytest.mark.parametrize("where,points", list(point_sets().items()))
def test_builtin_fields_on_arrays_equal_per_point_values(where, points):
    for label, field, shape in builtin_fields():
        got = sample_field(field, points, label, shape)
        ref = np.array([field(p) for p in points], dtype=float)
        assert got.shape == ref.shape, label
        assert np.array_equal(got, ref), f"{label} at {where}"


def test_json_polynomial_fields_match_per_term_reference(tmp_path, rng):
    coeffs = np.array([[0.3, -1.0, 2.0, 0.5],
                       [3.0, 0.25, -0.75, 0.0],
                       [-2.0, 1.5, 0.0, 0.0],
                       [0.125, 0.0, 0.0, 0.0]])
    lam = np.array([[2.0, 0.5], [0.5, 1.0]])
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"tensor": {"constant": lam.tolist()},
                                "exact_poly": coeffs.tolist()}))
    prob = load_problem_descriptor(path)
    pts = np.concatenate([rng.random((200, 2)), sushi.gen_tri(4).cone_centroids()])
    x, y = pts.T

    def term(i, j, di=0, dj=0):
        """d^di/dx^di d^dj/dy^dj of x^i y^j, as an array over the points."""
        fi = np.prod(np.arange(i - di + 1, i + 1)) if i >= di else 0.0
        fj = np.prod(np.arange(j - dj + 1, j + 1)) if j >= dj else 0.0
        return fi * fj * x ** max(i - di, 0) * y ** max(j - dj, 0)

    def ref(di, dj):
        return sum(coeffs[i, j] * term(i, j, di, dj)
                   for i in range(coeffs.shape[0]) for j in range(coeffs.shape[1]))

    expect = {
        "exact": (prob.exact, (), ref(0, 0)),
        "exact_grad": (prob.exact_grad, (2,), np.stack([ref(1, 0), ref(0, 1)], axis=1)),
        "source": (prob.source, (),
                   -(lam[0, 0] * ref(2, 0) + 2.0 * lam[0, 1] * ref(1, 1) + lam[1, 1] * ref(0, 2))),
        "dirichlet": (prob.dirichlet, (), ref(0, 0)),
    }
    for name, (field, shape, want) in expect.items():
        got = sample_field(field, pts, name, shape)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


def test_constants_are_broadcast():
    mesh = sushi.gen_rect(3, 2)
    assert np.array_equal(sample_field(lambda p: 2.5, mesh.cell_point, "c"),
                          np.full(mesh.n_cells, 2.5))
    grad = np.array([1.0, -2.0])
    got = sample_field(lambda p: grad[:, None], mesh.cell_point, "g", (2,))
    assert np.array_equal(got, np.tile(grad, (mesh.n_cells, 1)))
    values = sample_field(lambda p: p[0], mesh.face_centre, "x")
    values[0] = -1.0  # the result is the caller's own array
    assert values.flags.writeable and values.flags.c_contiguous


WRONG_SHAPES = ("source", "dirichlet", "tensor", "exact_grad-cells")


def _wrong_shape_call(case):
    """(field name, expected shape, call) of one wrongly shaped user field."""
    mesh = sushi.gen_rect(3, 3)
    part = partition_faces(mesh, "all-hybrid")
    u = DiscreteFunction(np.zeros(mesh.n_cells), np.zeros(mesh.n_faces))
    ident = TensorField.from_constant(np.eye(2))
    vector = lambda p: np.array([1.0, 2.0])
    return {
        "source": ("source", f"({mesh.n_cones},)",
                   lambda: rhs_cell_integrals(mesh, lambda p: np.stack([p[0], p[1]]))),
        "dirichlet": ("dirichlet", "(12,)",
                      lambda: assemble(mesh, part, None, ident, dirichlet=lambda p: np.ones(3))),
        "tensor": ("tensor", f"(2, 2, {mesh.n_cones})",
                   lambda: TensorField.from_callable(lambda p: np.eye(2), mesh)),
        "exact_grad-cells": ("exact_grad", f"(2, {mesh.n_cells})",
                             lambda: error_norms(mesh, u, lambda p: p[0], vector)),
    }[case]


@pytest.mark.parametrize("case", WRONG_SHAPES)
def test_wrong_result_shape_names_field_and_expected_shape(case):
    name, expected, call = _wrong_shape_call(case)
    with pytest.raises(ValueError) as info:
        call()
    assert f"'{name}'" in str(info.value) and expected in str(info.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_field_value_names_field(value):
    mesh = sushi.gen_rect(3, 3)
    prob = BUILTIN_PROBLEMS["anisotropic-smooth"]()
    prob.source = lambda p: np.where(p[0] > 0.5, value, 1.0)
    with pytest.raises(ValueError, match="field 'source' returned a non-finite value"):
        solve_problem(prob, mesh)
    with pytest.raises(ValueError, match="field 'tensor' returned a non-finite value"):
        TensorField.from_callable(lambda p: np.full((2, 2, 1), value), mesh)


def test_each_field_is_called_once_per_point_set():
    calls = {}

    def counted(name, field):
        def wrapper(p):
            calls[name] = calls.get(name, 0) + 1
            return field(p)
        return wrapper

    prob = BUILTIN_PROBLEMS["anisotropic-smooth"]()
    for what in ("source", "dirichlet", "exact", "exact_grad"):
        setattr(prob, what, counted(what, getattr(prob, what)))
    tensor = counted("tensor", lambda p: np.array([[1.5, 0.5], [0.5, 1.5]])[:, :, None])
    prob.make_tensor = lambda mesh, regions=None: TensorField.from_callable(tensor, mesh)
    mesh = sushi.gen_rect(6, 5)
    solve_problem(prob, mesh, policy="all-barycentric")
    # dirichlet: assembly and reconstruction; exact_grad: cell points and
    # cone centroids; the tensor: once, at the cone centroids
    assert calls == {"source": 1, "dirichlet": 2, "exact": 1, "exact_grad": 2, "tensor": 1}
