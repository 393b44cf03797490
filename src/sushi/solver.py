"""SPD linear solvers: preconditioned CG plus a certified direct solve."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BreakdownNonSPD, MaxIterations, NotPositiveDefinite

log = logging.getLogger(__name__)

# Consecutive restarts without halving the extended-precision residual
# after which CG gives up: the residual has reached its attainable floor.
STAGNATION_RESTARTS = 5


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product by NumPy's pairwise summation.

    ``a @ b`` and ``np.linalg.norm`` call BLAS, whose summation order
    changes with its thread count; the pairwise order depends only on the
    length, so CG takes the same iterates under every thread setting.
    """
    return float(np.add.reduce(a * b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


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
        return {"iterations": self.iterations,
                "relative_residual": self.relative_residual, "method": self.method}


def solve_cg(system, tol: float = 1e-12,
             max_iters: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Jacobi-preconditioned conjugate gradients on the assembled system.

    Stops when the float64 relative residual ||b - M x|| / ||b|| is at most
    ``tol``, which must be finite and positive (``ValueError`` otherwise).
    Float64 rounding can put the true residual's floor above ``tol`` when the
    recurrence residual is below it: CG then computes the true residual in
    ``np.longdouble``, stops if that is at most ``tol`` (and reports it), and
    else restarts from it (mixed-precision iterative refinement).  Raises
    ``MaxIterations`` when that residual has not halved over
    ``STAGNATION_RESTARTS`` consecutive restarts or after ``max_iters``
    iterations (default ``10 n``), and ``BreakdownNonSPD`` on negative
    curvature, which signals an assembly bug.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    t0 = time.perf_counter()
    mat = system.full()
    b = system.rhs
    n = system.n
    if max_iters is None:
        max_iters = 10 * n
    bnorm = _norm(b)
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
        rz = _dot(r, z)
        while iterations < max_iters:
            iterations += 1
            ap = mat @ p
            pap = _dot(p, ap)
            if pap <= 0.0:
                raise BreakdownNonSPD(f"negative curvature at iteration {iterations}")
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            if _norm(r) <= 0.25 * tol * bnorm:
                break
            z = inv_diag * r
            rz_new = _dot(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        true_res = _norm(b - mat @ x) / bnorm
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
        accurate = _norm(r_ext) / bnorm
        history.append(accurate)
        log.debug("CG restart %d after %d iterations: residual %.3e "
                  "(float64 %.3e)", len(history), iterations, accurate, true_res)
        if accurate <= tol:
            true_res = accurate
            break
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


def _spd_factor(mat):
    """SuperLU factor of the symmetric ``mat`` if every pivot of its symmetric
    elimination is > 0, i.e. ``mat`` is SPD; else ``None``.  SuperLU pivots off
    the diagonal only at an exact zero, which shows as ``perm_r != perm_c``."""
    from scipy.sparse.linalg import splu  # loaded here, off CG's start-up
    try:
        lu = splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    spd = np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)
    return lu if spd else None


def solve_dense(system) -> tuple[np.ndarray, SolveReport]:
    """Solve with the factor that certifies the system SPD, else ``NotPositiveDefinite``."""
    t0 = time.perf_counter()
    mat = system.full()
    lu = _spd_factor(mat)
    if lu is None:
        raise NotPositiveDefinite("the symmetric factorization found a non-positive pivot")
    x = lu.solve(system.rhs)
    res = _norm(system.rhs - mat @ x) / (_norm(system.rhs) or 1.0)
    return x, SolveReport(0, res, time.perf_counter() - t0, "dense-cholesky")


def spd_certificate(system) -> bool:
    """True iff the factorization of ``solve_dense`` finds every pivot > 0."""
    return _spd_factor(system.full()) is not None
