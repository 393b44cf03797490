"""SPD linear solvers: preconditioned CG plus a certified direct solve."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BreakdownNonSPD, MaxIterations, NotPositiveDefinite

log = logging.getLogger(__name__)

# Consecutive restarts without halving the relative residual after which
# CG gives up: the residual has reached its attainable floor.
STAGNATION_RESTARTS = 5

DEFAULT_TOL = 1e-12  # relative residual requested when none is given


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product by NumPy's pairwise summation.

    ``a @ b`` and ``np.linalg.norm`` call BLAS, whose summation order
    changes with its thread count; the pairwise order depends only on the
    length, so CG takes the same iterates under every thread setting.
    """
    return float(np.add.reduce(a * b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _residual(mat_ext, b_ext, bnorm: float, x: np.ndarray) -> tuple[np.ndarray, float]:
    """b - Mx and ||b - Mx|| / ``bnorm``, from the system in ``np.longdouble``:
    the module's one residual, clear of float64 rounding noise at 1e-12."""
    r = b_ext - mat_ext @ x
    return r, _norm(r) / bnorm


@dataclass
class SolveReport:
    """Iterations, wall time, method and the relative residual
    ||b - Mx|| / ||b|| of the returned x, evaluated in ``np.longdouble``."""

    iterations: int
    relative_residual: float
    wall_time: float
    method: str
    # CG only: restarts, and the relative residual each one started from.
    restarts: int = 0
    residual_history: list[float] = field(default_factory=list)

    def to_manifest(self) -> dict:
        # Wall time and the restart diagnostics are excluded: run artifacts
        # must be byte-deterministic and keep a fixed schema.
        return {"iterations": self.iterations,
                "relative_residual": self.relative_residual, "method": self.method}


def solve_cg(system, tol: float = DEFAULT_TOL,
             max_iters: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Jacobi-preconditioned conjugate gradients on the assembled system.

    Stops when the relative residual ||b - M x|| / ||b||, evaluated in
    ``np.longdouble``, is at most ``tol``, which must be finite and positive
    (``ValueError`` otherwise), and reports it.  CG checks it once the
    float64 recurrence residual is below ``tol / 4``; if it is above ``tol``,
    CG restarts from it (mixed-precision iterative refinement).  Raises
    ``MaxIterations`` when it has not halved over ``STAGNATION_RESTARTS``
    consecutive restarts or after ``max_iters`` iterations (default
    ``10 n``), and ``BreakdownNonSPD`` on a curvature p.Mp that is not
    positive, which signals an assembly bug or a non-finite system.
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

    mat_ext, b_ext = mat.astype(np.longdouble), b.astype(np.longdouble)
    inv_diag = 1.0 / system.diag
    x = np.zeros(n)
    r = b.copy()
    iterations = 0
    history: list[float] = []
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
            if not pap > 0.0:
                raise BreakdownNonSPD(f"curvature {pap} at iteration {iterations}: "
                                      "the system is not SPD or not finite")
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            if _norm(r) <= 0.25 * tol * bnorm:
                break
            z = inv_diag * r
            rz_new = _dot(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        r_ext, res = _residual(mat_ext, b_ext, bnorm, x)
        if res <= tol:
            break
        if iterations >= max_iters:
            raise MaxIterations(f"CG stopped at residual {res:.3e} after {iterations} "
                                f"iterations (cap {max_iters})", residual=res,
                                iterations=iterations)
        if res <= 0.5 * reference:
            reference, stalls = res, 0
        elif (stalls := stalls + 1) >= STAGNATION_RESTARTS:
            raise MaxIterations(f"CG stagnated at residual {res:.3e} (floor "
                                f"{min(res, *history):.3e}) after {iterations} iterations "
                                f"and {len(history)} restarts", residual=res,
                                iterations=iterations)
        history.append(res)
        log.debug("CG restart %d after %d iterations: residual %.3e",
                  len(history), iterations, res)
        r = r_ext.astype(np.float64)
    return x, SolveReport(iterations, res, time.perf_counter() - t0, "cg",
                          restarts=len(history), residual_history=history)


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
    """Solve with the factor that certifies the system SPD, else
    ``NotPositiveDefinite``; reports the relative residual as ``solve_cg`` does."""
    t0 = time.perf_counter()
    mat = system.full()
    lu = _spd_factor(mat)
    if lu is None:
        raise NotPositiveDefinite("the symmetric factorization found a non-positive pivot")
    x = lu.solve(system.rhs)
    _, res = _residual(mat.astype(np.longdouble), system.rhs.astype(np.longdouble),
                       _norm(system.rhs) or 1.0, x)
    return x, SolveReport(0, res, time.perf_counter() - t0, "dense-cholesky")


def spd_certificate(system) -> bool:
    """True iff the factorization of ``solve_dense`` finds every pivot > 0."""
    return _spd_factor(system.full()) is not None
