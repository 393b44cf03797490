import json

import numpy as np
import pytest

import sushi
from conftest import cell_views
from sushi.errors import ParseError
from sushi.generators import phi1
from sushi.problems import (
    BARRIER_CONTRAST,
    barrier_exact,
    barrier_exact_grad,
    load_problem_descriptor,
    problem_anisotropic_smooth,
    problem_quartic_isotropic,
    problem_tilted_barrier,
    problem_superadmissible_oracle,
)
from sushi.run import solve_problem


def fd_divergence(tensor_at, exact, p, step=1e-5):
    """Central-difference -div(Lambda grad u) at a point."""
    p = np.asarray(p, dtype=float)

    def flux_vec(q):
        g = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            g[i] = (exact(q + e) - exact(q - e)) / (2 * step)
        return tensor_at(q) @ g

    div = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        div += (flux_vec(p + e)[i] - flux_vec(p - e)[i]) / (2 * step)
    return -div


@pytest.mark.parametrize(
    "prob_fn",
    [problem_anisotropic_smooth, problem_quartic_isotropic],
)
def test_source_matches_finite_difference_oracle(prob_fn, rng):
    prob = prob_fn()
    lam = prob.make_tensor(sushi.gen_rect(1, 1)).constant
    pts = 0.1 + 0.8 * rng.random((100, 2))
    for p in pts:
        expect = fd_divergence(lambda q: lam, prob.exact, p)
        assert prob.source(p) == pytest.approx(expect, abs=1e-6, rel=1e-6)


def test_smooth_problem_boundary_values():
    prob = problem_anisotropic_smooth()
    for t in np.linspace(0.0, 1.0, 7):
        for p in [(t, 0.0), (t, 1.0), (0.0, t), (1.0, t)]:
            assert prob.exact(p) == pytest.approx(0.0, abs=1e-15)
    assert prob.exact((0.5, 0.5)) == 1.0


def test_gradient_consistent_with_exact(rng):
    prob = problem_anisotropic_smooth()
    step = 1e-6
    for p in 0.1 + 0.8 * rng.random((50, 2)):
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (prob.exact(p + e) - prob.exact(p - e)) / (2 * step)
            assert prob.exact_grad(p)[i] == pytest.approx(fd, abs=1e-7, rel=1e-7)


def test_barrier_exact_continuity_across_interfaces(rng):
    # continuity of u across both barrier lines, checked from both sides
    for x in rng.random(20):
        y1 = 0.2 * (x - 0.5) + 0.475
        y2 = y1 + 0.05
        eps = 1e-9
        below1 = barrier_exact((x, y1 - eps))
        above1 = barrier_exact((x, y1 + eps))
        assert above1 == pytest.approx(below1, abs=1e-6)
        below2 = barrier_exact((x, y2 - eps))
        above2 = barrier_exact((x, y2 + eps))
        assert above2 == pytest.approx(below2, abs=1e-6)


def test_barrier_flux_continuity():
    # co-normal flux lambda grad u . n is the same constant in all regions
    g1 = 1.0 * barrier_exact_grad((0.5, 0.0))
    g2 = BARRIER_CONTRAST * barrier_exact_grad((0.5, 0.5), region=2)
    g3 = 1.0 * barrier_exact_grad((0.5, 1.0))
    assert np.allclose(g1, g2)
    assert np.allclose(g2, g3)


def test_barrier_corner_value():
    assert phi1(0.0, 0.0) == pytest.approx(-0.375)
    assert barrier_exact((0.0, 0.0)) == pytest.approx(0.375)


def test_barrier_zero_source_weak_form():
    # piecewise-affine exact solution: zero source away from interfaces
    prob = problem_tilted_barrier()
    assert prob.source is None
    assert prob.exact_boundary_flux == {
        "x=0": -0.2, "x=1": 0.2, "y=0": 1.0, "y=1": -1.0,
    }


def test_barrier_problem_solves_exactly_with_hybrid_faces():
    prob = problem_tilted_barrier()
    mesh, regions = sushi.gen_tilted_barrier(1)
    r = solve_problem(prob, mesh, regions=regions, policy="discontinuity",
                      method="dense", with_errors=False)
    for c in cell_views(mesh):
        exact = barrier_exact(c.point, regions[c.id])
        assert r.solution[c.id] == pytest.approx(exact, abs=1e-10)


def test_superadmissible_oracle_validation():
    with pytest.raises(ValueError):
        problem_superadmissible_oracle(-1.0, 2.0)
    prob = problem_superadmissible_oracle(1.0, 100.0)
    mesh = sushi.gen_rect(4, 2)
    tensor = prob.make_tensor(mesh)
    lam = tensor.per_cell_tensors
    assert lam.shape == (8, 2, 2)
    assert {m[0, 0] for m in lam} == {1.0, 100.0}


def test_json_descriptor_constant_tensor(tmp_path, rng):
    desc = {
        "name": "poly-test",
        "tensor": {"constant": [[2.0, 0.5], [0.5, 1.0]]},
        # u = x^2 y + 3 x - y  ->  coefficient c[i][j] of x^i y^j
        "exact_poly": [[0.0, -1.0], [3.0, 0.0], [0.0, 1.0]],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(desc))
    prob = load_problem_descriptor(path)
    assert prob.name == "poly-test"
    lam = np.array(desc["tensor"]["constant"])
    for p in rng.random((50, 2)):
        u = p[0] ** 2 * p[1] + 3 * p[0] - p[1]
        assert prob.exact(p) == pytest.approx(u, rel=1e-12)
        expect = fd_divergence(lambda q: lam, prob.exact, p)
        assert prob.source(p) == pytest.approx(expect, abs=1e-5)


def test_json_descriptor_quadratic_is_solved_to_roundoff(tmp_path):
    # quadratic exact solution: the source is affine, integrated exactly,
    # but the scheme itself is only second order; use a fine-ish mesh
    desc = {
        "tensor": {"constant": [[1.0, 0.0], [0.0, 1.0]]},
        "exact_poly": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(desc))
    prob = load_problem_descriptor(path)
    r = solve_problem(prob, sushi.gen_rect(16, 16), policy="all-barycentric")
    assert r.errors.eps_u <= 5e-3


def test_json_descriptor_two_region(tmp_path):
    desc = {
        "tensor": {"two_region": {"split_x": 0.5, "left": 1.0, "right": 100.0}},
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(desc))
    prob = load_problem_descriptor(path)
    mesh = sushi.gen_rect(4, 4)
    tensor = prob.make_tensor(mesh)
    assert tensor.per_cell_tensors is not None


def test_json_descriptor_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_problem_descriptor(bad)
    nodesc = tmp_path / "empty.json"
    nodesc.write_text("{}")
    with pytest.raises(ParseError):
        load_problem_descriptor(nodesc)


@pytest.mark.parametrize("desc", [
    {"tensor": 5},
    [{"tensor": {"constant": [[1.0, 0.0], [0.0, 1.0]]}}],
    {"tensor": {"two_region": 3}},
    {"tensor": {"constant": [[1.0, 0.0], [0.0, 1.0]]}, "exact_poly": [1, 2]},
    {"tensor": {"constant": np.eye(3).tolist()}},
    {"tensor": {"two_region": {"left": 1.0}}},
    {"tensor": {"two_region": {"split_x": None, "left": 1, "right": 2}}},
    {"tensor": {"two_region": {"left": "one", "right": 2}}},
    {"tensor": {"two_region": {"left": [1.0], "right": 2}}},
    {"tensor": {"constant": [[1.0, None], [0.0, 1.0]]}},
    {"tensor": {"constant": [["1", 0.0], [0.0, 1.0]]}},
    {"tensor": {"constant": [[1.0, 0.0], [0.0]]}},
    {"tensor": {"constant": [[1.0, 0.0], [0.0, 1.0]]}, "exact_poly": [[1, None]]},
    {"tensor": {"constant": [[1.0, 0.0], [0.0, 1.0]]}, "exact_poly": [[1, {}]]},
], ids=["tensor-not-object", "top-level-list", "two-region-not-object",
        "exact-poly-1d", "constant-not-2x2", "two-region-without-right",
        "split-x-null", "left-string", "left-list", "constant-null-entry",
        "constant-string-entry", "constant-ragged", "exact-poly-null-entry",
        "exact-poly-object-entry"])
def test_json_descriptor_rejects_malformed_shapes(tmp_path, desc):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ParseError):
        load_problem_descriptor(path)
