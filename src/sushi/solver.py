"""SPD linear solvers: preconditioned CG plus a dense Cholesky oracle."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BreakdownNonSPD, MaxIterations, NotPositiveDefinite

log = logging.getLogger(__name__)

# Consecutive restarts without halving the extended-precision residual
# after which CG gives up: the residual has reached its attainable floor.
STAGNATION_RESTARTS = 5


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    wall_time: float
    method: str
    # CG only: restarts from a replaced residual, and the extended-precision
    # relative residual ||b - Mx|| / ||b|| computed at each of them.
    restarts: int = 0
    residual_history: list[float] = field(default_factory=list)

    def to_manifest(self) -> dict:
        # Wall time and the restart diagnostics are excluded: run artifacts
        # must be byte-deterministic and keep a fixed schema.
        return {
            "iterations": self.iterations,
            "relative_residual": self.relative_residual,
            "method": self.method,
        }


def solve_cg(system, tol: float = 1e-12,
             max_iters: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Jacobi-preconditioned conjugate gradients on the assembled system.

    Stops when the float64 relative residual ||b - M x|| / ||b|| is at
    most ``tol``; ``tol`` must be finite and positive (``ValueError``
    otherwise).  When the recurrence residual meets the tolerance but the
    true one does not, CG restarts from the true residual computed in
    ``np.longdouble``: float64 rounding puts a floor under ``b - Mx`` that
    can sit above ``tol``, and the extended-precision replacement lets the
    float64 iteration correct ``x`` below it (one step of mixed-precision
    iterative refinement).  Raises ``MaxIterations`` when that residual has
    not halved over ``STAGNATION_RESTARTS`` consecutive restarts or after
    ``max_iters`` iterations (default ``10 n``), and ``BreakdownNonSPD`` on
    negative curvature (which would signal an assembly bug, not a solver
    failure).
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
    r = b.copy()
    iterations = 0
    history: list[float] = []
    mat_ext = b_ext = None
    reference = math.inf
    stalls = 0
    while True:
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
        if true_res <= tol:
            break
        if iterations >= max_iters:
            raise MaxIterations(
                f"CG stopped at residual {true_res:.3e} after {iterations} "
                f"iterations (cap {max_iters})",
                residual=true_res, iterations=iterations,
            )
        if mat_ext is None:
            mat_ext = mat.astype(np.longdouble)
            b_ext = b.astype(np.longdouble)
        r_ext = b_ext - mat_ext @ x
        accurate = float(np.linalg.norm(r_ext)) / bnorm
        history.append(accurate)
        log.debug("CG restart %d after %d iterations: residual %.3e "
                  "(float64 %.3e)", len(history), iterations, accurate, true_res)
        if accurate <= 0.5 * reference:
            reference, stalls = accurate, 0
        else:
            stalls += 1
        if stalls >= STAGNATION_RESTARTS or accurate == 0.0:
            raise MaxIterations(
                f"CG stagnated at residual {true_res:.3e} (extended-precision "
                f"floor {min(history):.3e}) after {iterations} iterations and "
                f"{len(history)} restarts",
                residual=true_res, iterations=iterations,
            )
        r = r_ext.astype(np.float64)
    report = SolveReport(iterations, true_res, time.perf_counter() - t0, "cg",
                         restarts=len(history), residual_history=history)
    return x, report


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
