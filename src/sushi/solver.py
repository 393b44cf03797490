"""SPD linear solvers: preconditioned CG plus a dense Cholesky oracle."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BreakdownNonSPD, MaxIterations, NotPositiveDefinite


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    wall_time: float
    method: str

    def to_manifest(self) -> dict:
        # Wall time is excluded: run artifacts must be byte-deterministic.
        return {
            "iterations": self.iterations,
            "relative_residual": self.relative_residual,
            "method": self.method,
        }


def solve_cg(system, tol: float = 1e-12,
             max_iters: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Jacobi-preconditioned conjugate gradients on the assembled system.

    Stops when ||b - M x|| / ||b|| <= tol; ``tol`` must be finite and
    positive (``ValueError`` otherwise).  Raises ``MaxIterations`` on
    stagnation and ``BreakdownNonSPD`` on negative curvature (which would
    signal an assembly bug, not a solver failure).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    t0 = time.perf_counter()
    mat = system.full()
    b = system.rhs
    n = system.n
    if max_iters is None:
        max_iters = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, time.perf_counter() - t0, "cg")

    inv_diag = 1.0 / system.diag
    x = np.zeros(n)
    iterations = 0
    true_res = 1.0
    # Restart on the true residual: the recurrence residual can meet the
    # tolerance while floating-point drift leaves ||b - Mx|| slightly above.
    while iterations < max_iters:
        r = b - mat @ x
        true_res = float(np.linalg.norm(r)) / bnorm
        if true_res <= tol:
            break
        z = inv_diag * r
        p = z.copy()
        rz = float(r @ z)
        while iterations < max_iters:
            iterations += 1
            ap = mat @ p
            pap = float(p @ ap)
            if pap <= 0.0:
                raise BreakdownNonSPD(f"negative curvature at iteration {iterations}")
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            if np.linalg.norm(r) <= 0.25 * tol * bnorm:
                break
            z = inv_diag * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
    true_res = float(np.linalg.norm(b - mat @ x)) / bnorm
    if true_res > tol:
        raise MaxIterations(
            f"CG stalled at residual {true_res:.3e} after {iterations} iterations"
        )
    return x, SolveReport(iterations, true_res, time.perf_counter() - t0, "cg")


def solve_dense(system) -> tuple[np.ndarray, SolveReport]:
    """Dense Cholesky solve; doubles as an SPD certificate for small systems."""
    t0 = time.perf_counter()
    mat = system.to_dense()
    try:
        factor = scipy.linalg.cho_factor(mat, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    x = scipy.linalg.cho_solve(factor, system.rhs)
    bnorm = float(np.linalg.norm(system.rhs))
    res = float(np.linalg.norm(system.rhs - mat @ x)) / bnorm if bnorm else 0.0
    return x, SolveReport(0, res, time.perf_counter() - t0, "dense-cholesky")


def spd_certificate(system) -> bool:
    """True iff the dense Cholesky factorization succeeds (all pivots > 0)."""
    try:
        scipy.linalg.cho_factor(system.to_dense(), lower=True)
    except scipy.linalg.LinAlgError:
        return False
    return True
