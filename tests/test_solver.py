import logging
import math

import numpy as np
import pytest
import scipy.sparse as sp

import sushi
from sushi.assembly import LinearSystem, assemble
from sushi.errors import BreakdownNonSPD, MaxIterations, NotPositiveDefinite
from sushi.problems import problem_anisotropic_smooth
from sushi.solver import solve_cg, solve_dense, spd_certificate
from sushi.spaces import UnknownNumbering, compute_weights, partition_faces


def system_from_dense(mat, rhs):
    mat = np.asarray(mat, dtype=float)
    n = len(rhs)
    upper = sp.csr_matrix(np.triu(mat, k=1))
    numbering = UnknownNumbering(n_cells=n, hybrid_faces=[], face_index={})
    return LinearSystem(n=n, upper=upper, diag=np.diag(mat).copy(),
                        rhs=np.asarray(rhs, dtype=float),
                        numbering=numbering, nm=int(np.count_nonzero(mat)))


def test_cg_identity_single_iteration():
    b = np.array([1.0, -2.0, 3.0])
    sys_ = system_from_dense(np.eye(3), b)
    x, report = solve_cg(sys_)
    assert np.allclose(x, b)
    assert report.iterations == 1


def test_cg_matches_dense_oracle():
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_rect(8, 6)
    part = partition_faces(mesh, "all-barycentric")
    weights = compute_weights(mesh, part)
    system = assemble(mesh, part, weights, prob.make_tensor(mesh),
                      source=prob.source, dirichlet=prob.dirichlet)
    x_cg, report = solve_cg(system, tol=1e-12)
    x_dense, _ = solve_dense(system)
    assert report.relative_residual <= 1e-12
    # energy-norm agreement
    diff = x_cg - x_dense
    mat = system.to_dense()
    energy = float(diff @ mat @ diff) ** 0.5
    ref = float(x_dense @ mat @ x_dense) ** 0.5
    assert energy <= 1e-8 * ref


def test_cg_deterministic():
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_rect(4, 4)
    part = partition_faces(mesh, "all-hybrid")
    system = assemble(mesh, part, None, prob.make_tensor(mesh), source=prob.source)
    x1, r1 = solve_cg(system)
    x2, r2 = solve_cg(system)
    assert r1.iterations == r2.iterations
    assert np.array_equal(x1, x2)


def test_cg_breakdown_on_indefinite_matrix():
    mat = np.array([[1.0, 0.0], [0.0, -1.0]])
    sys_ = system_from_dense(mat, np.array([0.0, 1.0]))
    with pytest.raises(BreakdownNonSPD):
        solve_cg(sys_)


def test_cg_rejects_bad_arguments():
    sys_ = system_from_dense(np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        solve_cg(sys_, tol=0.0)


def test_cg_zero_rhs():
    sys_ = system_from_dense(np.eye(3), np.zeros(3))
    x, report = solve_cg(sys_)
    assert np.array_equal(x, np.zeros(3))
    assert report.iterations == 0


def test_cg_max_iterations():
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_rect(6, 6)
    part = partition_faces(mesh, "all-hybrid")
    system = assemble(mesh, part, None, prob.make_tensor(mesh), source=prob.source)
    with pytest.raises(MaxIterations) as exc:
        solve_cg(system, tol=1e-12, max_iters=3)
    assert exc.value.iterations == 3


def hybrid_rect_system(n):
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_rect(n, n)
    part = partition_faces(mesh, "all-hybrid")
    return assemble(mesh, part, None, prob.make_tensor(mesh),
                    source=prob.source, dirichlet=prob.dirichlet)


def test_cg_reaches_tol_below_float64_restart_floor(caplog):
    # Restarts from the float64 residual stall at ~1.1e-12 on this system
    # (N = 48,896), just above tol; without the stagnation exit CG crawls
    # to the 10 n cap (488,960 iterations).  The extended-precision
    # restart residual gets below that floor within a few restarts.
    system = hybrid_rect_system(128)
    caplog.set_level(logging.DEBUG, logger="sushi.solver")
    _, report = solve_cg(system, tol=1e-12)
    assert report.relative_residual <= 1e-12
    assert report.iterations <= 1500
    assert 1 <= report.restarts <= 4
    assert len(report.residual_history) == report.restarts
    restart_lines = [r for r in caplog.records if "CG restart" in r.getMessage()]
    assert len(restart_lines) == report.restarts


def test_cg_unreachable_tol_stops_on_stagnation():
    # 1e-16 is below the attainable floor: the stagnation exit stops CG
    # long before the 10 n cap (30,080 iterations here)
    system = hybrid_rect_system(32)
    with pytest.raises(MaxIterations) as exc:
        solve_cg(system, tol=1e-16)
    assert exc.value.iterations <= system.n
    assert math.isfinite(exc.value.residual)
    assert exc.value.residual > 1e-16


def test_dense_two_by_two():
    sys_ = system_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    x, report = solve_dense(sys_)
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)
    assert report.method == "dense-cholesky"


def test_dense_rejects_rank_deficient():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])
    sys_ = system_from_dense(mat, np.ones(2))
    with pytest.raises(NotPositiveDefinite):
        solve_dense(sys_)
    assert not spd_certificate(sys_)


def test_benchmark_system_is_spd():
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_nonconforming_rect(2)
    part = partition_faces(mesh, "all-hybrid")
    system = assemble(mesh, part, None, prob.make_tensor(mesh), source=prob.source)
    assert spd_certificate(system)


def test_report_manifest_excludes_wall_time():
    sys_ = system_from_dense(np.eye(2), np.ones(2))
    _, report = solve_cg(sys_)
    manifest = report.to_manifest()
    assert "wall_time" not in manifest
    assert set(manifest) == {"iterations", "relative_residual", "method"}
