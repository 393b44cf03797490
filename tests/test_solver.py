import dataclasses
import functools
import logging
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import sushi
from conftest import system_from_dense, traced_peak
from oracles import spd_certificate
from sushi.assembly import ROW_BLOCK, LinearSystem, assemble
from sushi.errors import BreakdownNonSPD, MaxIterations
from sushi.problems import problem_anisotropic_smooth, problem_tilted_barrier
from sushi.solver import (
    AMG_MIN_N,
    _cell_elimination,
    _norm,
    _residual,
    _smoothed_aggregation,
    _spd_factor,
    _superlu,
    solve_cg,
    solve_dense,
)
from sushi.spaces import UnknownNumbering, compute_weights, partition_faces


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
    mat = system.full().toarray()
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


def cellcentred_rect_system(n):
    prob = problem_anisotropic_smooth()
    mesh = sushi.gen_rect(n, n)
    part = partition_faces(mesh, "all-barycentric")
    return assemble(mesh, part, compute_weights(mesh, part), prob.make_tensor(mesh),
                    source=prob.source, dirichlet=prob.dirichlet)


def hybrid_system(spec):
    prob = problem_anisotropic_smooth()
    mesh, _, _ = sushi.parse_mesh_spec(spec)
    part = partition_faces(mesh, "all-hybrid")
    return assemble(mesh, part, None, prob.make_tensor(mesh),
                    source=prob.source, dirichlet=prob.dirichlet)


def cellcentred_system(spec):
    prob = problem_anisotropic_smooth()
    mesh, _, _ = sushi.parse_mesh_spec(spec)
    part = partition_faces(mesh, "all-barycentric")
    return assemble(mesh, part, compute_weights(mesh, part), prob.make_tensor(mesh),
                    source=prob.source, dirichlet=prob.dirichlet)


def barrier_system(spec):
    """The tilted-barrier system under ``discontinuity``; every barycentric
    face of the ``barrier`` meshes has a cell support."""
    prob = problem_tilted_barrier()
    mesh, regions, _ = sushi.parse_mesh_spec(spec)
    part = partition_faces(mesh, "discontinuity", regions)
    return assemble(mesh, part, compute_weights(mesh, part, regions),
                    prob.make_tensor(mesh, regions), source=prob.source,
                    dirichlet=prob.dirichlet)


def test_cg_reaches_tol_below_float64_restart_floor(caplog):
    # Restarts from the float64 residual stall at ~1.1e-12 on this system
    # (N = 48,896), just above tol; without the stagnation exit CG crawls
    # to the 10 n cap (488,960 iterations).  The extended-precision
    # restart residual gets below that floor within a few restarts.  This
    # system is above AMG_MIN_N, so CG eliminates the cells and runs on the
    # face Schur complement under the multigrid V-cycle: 24 iterations and
    # 1 restart, where the V-cycle on the full system took 36 and 1, and
    # Jacobi 810 and 1.
    system = hybrid_rect_system(128)
    caplog.set_level(logging.DEBUG, logger="sushi.solver")
    _, report = solve_cg(system, tol=1e-12)
    assert report.relative_residual <= 1e-12
    assert report.iterations <= 1500
    assert 1 <= len(report.residual_history) <= 4
    restart_lines = [r for r in caplog.records if "CG restart" in r.getMessage()]
    assert len(restart_lines) == len(report.residual_history)


def test_cg_unreachable_tol_stops_on_stagnation():
    # 1e-16 is below the attainable floor: the stagnation exit stops CG
    # long before the 10 n cap (30,080 iterations here)
    system = hybrid_rect_system(32)
    with pytest.raises(MaxIterations) as exc:
        solve_cg(system, tol=1e-16)
    assert exc.value.iterations <= system.n
    assert math.isfinite(exc.value.residual)
    assert exc.value.residual > 1e-16


@pytest.mark.parametrize("power", [-500, 500])
@pytest.mark.parametrize("solve", [solve_cg, solve_dense], ids=["cg", "dense"])
def test_rhs_scaled_by_a_power_of_two_scales_x_exactly(solve, power):
    # At 2^-500, ||r||^2 underflowed and both solvers reported a residual of 0.0
    system = cellcentred_rect_system(8)
    x, report = solve(system)
    scaled_x, scaled = solve(dataclasses.replace(system, rhs=np.ldexp(system.rhs, power)))
    assert np.array_equal(scaled_x, np.ldexp(x, power))
    assert 0.0 < scaled.relative_residual == report.relative_residual
    assert scaled.iterations == report.iterations


def exact_relative_residual(system, x):
    """||b - Kx|| / ||b|| in exact rational arithmetic, rounded at the end."""
    mat = system.full().tocoo()
    xs = [Fraction(v) for v in x.tolist()]
    r = [Fraction(v) for v in system.rhs.tolist()]
    for i, j, v in zip(mat.row.tolist(), mat.col.tolist(), mat.data.tolist()):
        r[i] -= Fraction(v) * xs[j]
    bb = sum(Fraction(v) ** 2 for v in system.rhs.tolist())
    return math.sqrt(sum(v * v for v in r) / bb)


@pytest.mark.parametrize("method", ["cg", "dense"])
def test_reported_residual_is_the_relative_residual_of_x(method):
    # barrier:3 (N = 270) ends CG without a restart.  A float64 evaluation
    # of b - Kx reads 7.39e-13 (CG) and 1.29e-13 (dense) here, 6% and 147%
    # above the exact 6.99e-13 and 5.25e-14; the extended one is within 1e-4
    mesh, regions, _ = sushi.parse_mesh_spec("barrier:3")
    result = sushi.solve_problem(problem_tilted_barrier(), mesh, regions,
                                 policy="discontinuity", method=method)
    report = result.report
    assert len(report.residual_history) == 0
    exact = exact_relative_residual(result.system, result.solution)
    assert report.relative_residual == pytest.approx(exact, rel=1e-4, abs=0.0)


def test_restarts_count_only_real_restarts():
    # At tol = 1e-14 this system restarts twice, from 5.9e-14 and 2.3e-14,
    # and the residual after the second restart ends the run
    tol = 1e-14
    _, report = solve_cg(hybrid_rect_system(16), tol=tol)
    assert len(report.residual_history) >= 1
    assert all(res > tol for res in report.residual_history)
    assert report.relative_residual <= tol


@pytest.mark.parametrize("mat,rhs", [
    ([[1.0, np.nan], [np.nan, 1.0]], [1.0, 1.0]),
    ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    ([[2.0, 1.0], [1.0, 2.0]], [1.0, np.nan]),
], ids=["nan-off-diagonal", "nan-diagonal", "nan-rhs"])
def test_cg_non_finite_system_breaks_down_at_once(mat, rhs):
    # a NaN curvature fails the positivity test at the first iteration,
    # instead of running to the 10 n cap
    with pytest.raises(BreakdownNonSPD, match="at iteration 1: .*not finite"):
        solve_cg(system_from_dense(mat, rhs))


@pytest.mark.parametrize("solve", [solve_cg, solve_dense], ids=["cg", "dense"])
@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
def test_infinite_rhs_is_rejected_before_any_work(solve, value):
    # before the check, dense returned x = (-inf, inf) with residual nan, and
    # CG warned on -inf and broke down only at iteration 2 on inf
    sys_ = system_from_dense([[2.0, 1.0], [1.0, 2.0]], [1.0, value])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BreakdownNonSPD, match="the right-hand side is not finite"):
            solve(sys_)


def test_non_finite_entry_stops_before_multigrid_setup(caplog):
    system = hybrid_rect_system(64)
    assert system.n >= AMG_MIN_N
    system.upper.data[system.upper.nnz // 2] = np.nan
    caplog.set_level(logging.DEBUG, logger="sushi.solver")
    with pytest.raises(BreakdownNonSPD, match="at iteration 1: the matrix is not finite"):
        solve_cg(system)
    assert not [r for r in caplog.records if "AMG setup" in r.getMessage()]


def test_multigrid_only_from_amg_min_n(caplog):
    caplog.set_level(logging.DEBUG, logger="sushi.solver")
    small, large = hybrid_rect_system(32), hybrid_rect_system(64)
    assert small.n < AMG_MIN_N <= large.n
    # below AMG_MIN_N the Jacobi iterates are kept: 197 iterations, as before
    assert solve_cg(small)[1].iterations == 197
    assert not [r for r in caplog.records if "AMG setup" in r.getMessage()]
    _, report = solve_cg(large)
    setups = [r.getMessage() for r in caplog.records if "AMG setup" in r.getMessage()]
    assert len(setups) == 1
    # all-hybrid: the hierarchy is built on the face Schur complement
    assert setups[0].startswith(f"AMG setup: levels {large.n - large.numbering.n_cells}/")
    assert "operator complexity" in setups[0]
    # 21 here; 31 with the V-cycle on the full system; Jacobi took 400
    assert report.iterations <= 40


AMG_SYSTEMS = {"rect:64x64 all-hybrid": lambda: hybrid_rect_system(64),
               "rect:128x128 all-barycentric": lambda: cellcentred_rect_system(128)}


def assert_spd_preconditioner(precond, rhs, rng):
    u, v = rng.standard_normal((2, len(rhs)))
    uv, vu = u @ precond(v), v @ precond(u)
    assert abs(uv - vu) <= 1e-12 * max(abs(uv), abs(vu))
    for w in (u, v, np.ones(len(rhs)), rhs):
        assert w @ precond(w) > 0.0


@pytest.mark.parametrize("build", AMG_SYSTEMS.values(), ids=AMG_SYSTEMS.keys())
def test_multigrid_preconditioner_is_symmetric_positive_definite(build, rng):
    system = build()
    assert system.n >= AMG_MIN_N
    assert_spd_preconditioner(_smoothed_aggregation(system.full(), system.diag),
                              system.rhs, rng)


def test_condensed_system_is_symmetric_with_spd_preconditioner(rng):
    system = hybrid_rect_system(64)
    elim = _cell_elimination(system)
    schur = elim.schur
    assert schur.shape == (system.n - system.numbering.n_cells,) * 2
    assert (schur != schur.T).nnz == 0
    assert_spd_preconditioner(_smoothed_aggregation(schur, schur.diagonal()),
                              elim.condense(system.rhs), rng)


# all-hybrid systems from AMG_MIN_N unknowns on: 12,160, 48,896, 11,424 and
# 12,208 unknowns
ELIMINATED = ["rect:64x64", "rect:128x128", "tri:48", "ncrect:16"]


def assert_same_csr(a, b):
    for name in ("data", "indices", "indptr"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("spec", ELIMINATED)
def test_elimination_from_the_triangle_is_the_one_sliced_from_the_full_matrix(spec):
    # K_FC and S once came from slices of system.full(); read from the
    # stored triangle, they are the same arrays, dtypes included
    system = hybrid_system(spec)
    assert system.n >= AMG_MIN_N
    elim = _cell_elimination(system)
    mat, nc = system.full(), system.numbering.n_cells
    face_cell = mat[nc:, :nc]
    schur = mat[nc:, nc:] - face_cell @ (sp.diags(1.0 / system.diag[:nc]) @ face_cell.T)
    assert_same_csr(elim.face_cell, face_cell)
    assert_same_csr(elim.schur, (0.5 * (schur + schur.T)).tocsr())


@pytest.mark.parametrize("build", [lambda: cellcentred_rect_system(128),
                                   lambda: barrier_system("barrier:2x4")],
                         ids=["rect:128x128 all-barycentric", "barrier:2x4 discontinuity"])
def test_no_elimination_where_the_cell_block_is_not_diagonal(build):
    system = build()
    assert system.n >= AMG_MIN_N
    assert _cell_elimination(system) is None


def test_condensed_solve_reports_the_full_system_residual():
    # CG iterates on the face Schur complement, but the reported residual is
    # that of the full system for the back-substituted x
    system = hybrid_rect_system(64)
    x, report = solve_cg(system)
    assert report.relative_residual <= 1e-12
    exact = exact_relative_residual(system, x)
    assert report.relative_residual == pytest.approx(exact, rel=1e-4, abs=0.0)


def test_barycentric_system_keeps_the_full_hierarchy(caplog):
    # a barycentric face couples cells: the cell block is not diagonal
    system = cellcentred_rect_system(128)
    caplog.set_level(logging.DEBUG, logger="sushi.solver")
    solve_cg(system)
    messages = [r.getMessage() for r in caplog.records]
    assert not [m for m in messages if "eliminated" in m]
    setups = [m for m in messages if "AMG setup" in m]
    assert len(setups) == 1
    assert setups[0].startswith(f"AMG setup: levels {system.n}/")


def test_condensed_solve_iteration_budget():
    # 24 iterations on the face Schur complement; 36 on the full system
    _, report = solve_cg(hybrid_rect_system(128))
    assert report.iterations <= 30


@pytest.mark.parametrize("build", AMG_SYSTEMS.values(), ids=AMG_SYSTEMS.keys())
def test_multigrid_solve_is_bitwise_reproducible(build):
    system = build()
    (x1, r1), (x2, r2) = solve_cg(system), solve_cg(system)
    assert np.array_equal(x1, x2)
    assert r1.to_manifest() == r2.to_manifest()
    assert r1.residual_history == r2.residual_history


def test_multigrid_setup_rejects_a_non_positive_diagonal():
    system = hybrid_rect_system(64)
    system.diag[100] = -system.diag[100]
    with pytest.raises(BreakdownNonSPD, match="diagonal entry 100 of multigrid level 0"):
        solve_cg(system)


def test_multigrid_coarse_pivot_that_is_not_positive():
    # three unknowns are within AMG_COARSEST, so the matrix itself is the
    # coarsest level, inverted exactly: its Cholesky meets the pivot 1 - 2 * 2
    mat = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(BreakdownNonSPD, match=r"coarse pivot -3\.0 of the multigrid hierarchy"):
        _smoothed_aggregation(mat, mat.diagonal())


def test_non_positive_face_diagonal_is_named_in_the_full_system():
    # the cells are not eliminated, so the setup names the system's unknown
    system = hybrid_rect_system(64)
    face = system.numbering.n_cells + 100
    system.diag[face] = -system.diag[face]
    with pytest.raises(BreakdownNonSPD, match=f"diagonal entry {face} of multigrid level 0"):
        solve_cg(system)


def test_multigrid_level_that_does_not_coarsen():
    # no off-diagonal entries: no unknown has a strong neighbour, so no
    # aggregate forms and the hierarchy stops at the fine level, smoothing there
    n = AMG_MIN_N
    numbering = UnknownNumbering(n_cells=n, hybrid_faces=np.array([], dtype=np.int64))
    rhs = np.linspace(1.0, 2.0, n)
    system = LinearSystem(upper=sp.csr_matrix((n, n)), diag=np.full(n, 2.0), rhs=rhs,
                          numbering=numbering, nm=n)
    x, report = solve_cg(system)
    assert report.iterations == 1
    assert np.allclose(x, rhs / 2.0, rtol=1e-15)


def test_dense_two_by_two():
    sys_ = system_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    x, report = solve_dense(sys_)
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)
    assert report.method == "dense-cholesky"


def test_dense_rejects_rank_deficient():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])
    sys_ = system_from_dense(mat, np.ones(2))
    with pytest.raises(BreakdownNonSPD, match="non-positive pivot"):
        solve_dense(sys_)
    assert not spd_certificate(sys_)


@pytest.mark.parametrize("mat", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[1.0, 2.0], [2.0, 1.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], ids=["zero-diagonal", "negative-pivot", "negative-diagonal"])
def test_dense_rejects_indefinite(mat):
    # the zero diagonal factors with positive pivots, (1, 1), but only by
    # pivoting off the diagonal
    sys_ = system_from_dense(mat, np.ones(2))
    with pytest.raises(BreakdownNonSPD, match="non-positive pivot"):
        solve_dense(sys_)
    assert not spd_certificate(sys_)


@pytest.mark.parametrize("build", [lambda: barrier_system("barrier:2"),
                                   lambda: hybrid_system("rect:8x8"),
                                   lambda: cellcentred_system("ncrect:2")],
                         ids=["barrier:2 discontinuity", "rect:8x8 all-hybrid",
                              "ncrect:2 all-barycentric"])
def test_factor_is_the_one_splu_gives_bit_for_bit(build):
    # _spd_factor calls SuperLU's extension with the arguments of this call
    from scipy.sparse.linalg import splu
    system = build()
    mat = system.full()
    lu = _spd_factor(mat)
    want = splu(mat.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, want.perm_r)
    assert np.array_equal(lu.perm_c, want.perm_c)
    for got, expected in ((lu.L, want.L), (lu.U, want.U)):
        assert type(got) is type(expected)
        assert_same_csr(got, expected)
    assert np.array_equal(lu.solve(system.rhs), want.solve(system.rhs))


def test_missing_superlu_extension_names_the_folder(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.sparse.linalg._dsolve._superlu", raising=False)
    monkeypatch.setattr(sp, "__file__", str(tmp_path / "__init__.py"))
    folder = tmp_path / "linalg" / "_dsolve"
    with pytest.raises(ImportError, match=f"_superlu is not in {re.escape(str(folder))}$"):
        _superlu.__wrapped__()


@pytest.mark.parametrize("build", [lambda: barrier_system("barrier:1"),
                                   lambda: barrier_system("barrier:2"),
                                   lambda: barrier_system("barrier:3"),
                                   lambda: hybrid_rect_system(32)],
                         ids=["barrier:1", "barrier:2", "barrier:3", "rect:32x32 all-hybrid"])
def test_full_matrix_stores_its_csc_arrays(build):
    # SuperLU is handed the CSR arrays of full() as its CSC arrays: they
    # must be those of its CSC copy
    mat = build().full()
    assert_same_csr(mat.T, mat.tocsc())


def test_dense_solve_allocates_no_dense_matrix():
    # a dense copy of this system (N = 3,136) alone takes 79 MB
    system = hybrid_rect_system(32)
    assert traced_peak(lambda: solve_dense(system)) < 20e6


def reference_residual(mat, b, bnorm, x):
    """b - Mx with all of M copied to ``np.longdouble`` at once."""
    r = b.astype(np.longdouble) - mat.astype(np.longdouble) @ x
    return r, _norm(r) / bnorm


def assert_same_residual(system, x) -> float:
    """``_residual``, read from the stored triangle, equals the reference on
    ``system.full()`` bit for bit; returns the relative residual."""
    r, res = _residual(system, x)
    ref_r, ref_res = reference_residual(system.full(), system.rhs, _norm(system.rhs), x)
    assert r.dtype == np.longdouble
    assert np.array_equal(r, ref_r)
    assert res == ref_res
    return res


def test_blocked_residual_is_the_extended_product_over_several_blocks(rng):
    system = hybrid_rect_system(64)
    assert system.n == 12_160 > 2 * ROW_BLOCK
    x, _ = solve_cg(system)
    for point in (x, rng.standard_normal(system.n), np.zeros(system.n)):
        assert_same_residual(system, point)


# every all-hybrid system CG eliminates, and two multigrid-sized systems it
# does not
RESIDUAL_SYSTEMS = {**{spec: functools.partial(hybrid_system, spec) for spec in ELIMINATED},
                    "rect:128x128 all-barycentric": lambda: cellcentred_rect_system(128),
                    "barrier:2x4 discontinuity": lambda: barrier_system("barrier:2x4")}


@pytest.mark.parametrize("build", RESIDUAL_SYSTEMS.values(), ids=RESIDUAL_SYSTEMS.keys())
def test_triangle_residual_is_the_extended_product_of_the_full_matrix(build, rng):
    system = build()
    assert_same_residual(system, rng.standard_normal(system.n))


def test_blocked_residual_keeps_the_dense_report_on_barrier():
    # the reported residual here is within 4.8e-5 of the exact one, against a
    # 1e-4 bound: no summation order may change
    mesh, regions, _ = sushi.parse_mesh_spec("barrier:3")
    result = sushi.solve_problem(problem_tilted_barrier(), mesh, regions,
                                 policy="discontinuity", method="dense")
    system = result.system
    res = assert_same_residual(system, result.solution)
    assert result.report.relative_residual == res


def test_blocked_residual_keeps_the_iterates_through_a_restart(monkeypatch):
    system = hybrid_rect_system(128)
    x, report = solve_cg(system)
    assert len(report.residual_history) == 1
    # CG eliminates the cells here, and its residual reads the stored
    # triangle; the reference is the product with all of system.full()
    mat = system.full()
    monkeypatch.setattr("sushi.solver._residual", lambda sys_, x: reference_residual(
        mat, sys_.rhs, _norm(sys_.rhs), x))
    ref_x, ref_report = solve_cg(system)
    assert np.array_equal(x, ref_x)
    assert report.iterations == ref_report.iterations
    assert report.residual_history == ref_report.residual_history
    assert report.relative_residual == ref_report.relative_residual


def test_cg_peak_memory_at_128x128():
    # A longdouble copy of K held for the whole solve peaked at 28.1 MB here,
    # and the residual by ROW_BLOCK rows at a time at 19.7 MB, set by the
    # slices of system.full() and the untrimmed sums of the elimination.
    # Read from the stored triangle, its transpose and two sparse sums per
    # block: 15.1 MB, set by the residual.  With the residual's kernels
    # adding into one vector, and CG's own vectors dropped before it, the
    # elimination sets the peak: 12.3 MB alone, 15.0 MB with untrimmed sums.
    system = hybrid_rect_system(128)
    assert traced_peak(lambda: solve_cg(system)) <= 13e6
    assert traced_peak(lambda: _cell_elimination(system)) <= 14e6


def test_residual_peak_memory_at_128x128():
    # x and r in longdouble (0.8 MB each) and one block of the triangle;
    # 5.3 MB with a transposed copy of the triangle and two sums per block
    system = hybrid_rect_system(128)
    x = np.ones(system.n)
    assert traced_peak(lambda: _residual(system, x)) <= 3.6e6


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


@pytest.mark.parametrize("method", ["bogus", "Dense", ""])
def test_solve_problem_rejects_unknown_method(method):
    with pytest.raises(ValueError, match="unknown method"):
        sushi.solve_problem(problem_anisotropic_smooth(), sushi.gen_rect(2, 2), method=method)


@pytest.mark.parametrize("method", ["cg", "dense"])
def test_solve_problem_rejects_a_tol_that_is_not_finite_before_any_stage(method, monkeypatch):
    # the direct solve does not read tol, but a run records it
    def stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr("sushi.run.partition_faces", stage)
    with pytest.raises(ValueError, match="tol must be finite and positive, got nan"):
        sushi.solve_problem(problem_anisotropic_smooth(), sushi.gen_rect(2, 2),
                            method=method, tol=math.nan)
