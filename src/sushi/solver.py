"""SPD linear solvers: CG preconditioned by Jacobi or by smoothed-aggregation
multigrid, plus a certified direct solve.

Where the cell block of a multigrid-sized system is diagonal (every face a
hybrid unknown), CG eliminates the cells exactly and iterates on the face
Schur complement; its stopping test and reported residual stay on the full
system.  On that path the full matrix is never built: the elimination
reads K_CF and K_FF from the stored upper triangle and the diagonal.

Both solvers certify x by one residual, ``_residual``, evaluated in
``np.longdouble`` from the float64 triangle and diagonal, a block of rows
at a time: no extended-precision or transposed copy of the matrix is kept
(Demmel et al., ACM TOMS 32, 2006).  It calls scipy's CSC and CSR
matrix-vector kernels directly because they add into their output, which
``@`` does not: so each row sums over the lower entries, the diagonal and
the upper entries in the order of ``LinearSystem.full()``, and every value
is the one a product with all of ``full()`` gives, bit for bit.

The direct solve calls SuperLU's ``gstrf`` (Demmel, Eisenstat, Gilbert,
Li & Liu, SIAM J. Matrix Anal. Appl. 20, 1999) from scipy's compiled
extension directly too, with the arguments ``scipy.sparse.linalg.splu``
would pass: importing that package also imports ``scipy.linalg``, which
costs a fresh process more than the factorizations it runs."""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .assembly import _row_blocks
from .errors import BreakdownNonSPD, MaxIterations, NumericalFailure

log = logging.getLogger(__name__)

# Consecutive restarts without halving the relative residual after which
# CG gives up: the residual has reached its attainable floor.
STAGNATION_RESTARTS = 5

DEFAULT_TOL = 1e-12  # relative residual requested when none is given

# From this many unknowns on, CG is preconditioned by one V-cycle of
# smoothed aggregation (Vaněk, Mandel & Brezina 1996); below it, Jacobi is
# as fast, because the hierarchy's setup costs more than it saves.
AMG_MIN_N = 10_000
# The hierarchy coarsens until a level has at most this many unknowns; that
# level is inverted exactly.
AMG_COARSEST = 150

_STRENGTH = 0.08  # a_ij is strong if |a_ij| >= _STRENGTH sqrt(a_ii a_jj)
_MIN_SHRINK = 0.8  # coarsening stops on a level that keeps more of its unknowns
_POWER_STEPS = 15  # power steps estimating the spectral radius of D^-1 A
_SWEEPS = 2  # damped-Jacobi sweeps before and after each coarse correction


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> float:
    """Dot product by NumPy's pairwise summation.

    ``a @ b`` and ``np.linalg.norm`` call BLAS, whose summation order
    changes with its thread count; the pairwise order depends only on the
    length, so CG takes the same iterates under every thread setting.
    ``out``, if given, is a scratch vector that receives the products.
    """
    return float(np.add.reduce(np.multiply(a, b, out=out)))


def _norm(a: np.ndarray, out: np.ndarray | None = None) -> float:
    return math.sqrt(_dot(a, a, out))


def _residual(system, x: np.ndarray) -> tuple[np.ndarray, float]:
    """b - Kx and ||b - Kx|| / ||b|| for K = ``system.full()``, evaluated in
    ``np.longdouble``: the module's one residual, clear of float64 rounding
    noise at 1e-12.

    Each row sums from 0.0 over K's row in its stored order, as a product
    with all of K in ``np.longdouble`` would, so r is the same bit for bit.
    ``ROW_BLOCK`` stored rows of the triangle at a time, the column-oriented
    kernel adds their entries to the rows below them (each row's lower
    entries arrive by ascending column), then d x is added, then the
    row-oriented kernel adds the upper entries.  The stored zeros that
    ``full()`` drops add 0 and change no sum.  Only one block of the
    triangle is held in extended precision (16 bytes per stored entry)."""
    bnorm = _norm(system.rhs) or 1.0
    n = system.n
    xl = x.astype(np.longdouble)
    r = np.zeros(n, dtype=np.longdouble)  # Kx, then b - Kx a block of rows at a time
    for rows, block in _row_blocks(system.upper):
        data, m = block.data.astype(np.longdouble), rows.stop - rows.start
        _sparsetools.csc_matvec(n, m, block.indptr, block.indices, data, xl[rows], r)
        r[rows] += system.diag[rows] * xl[rows]
        _sparsetools.csr_matvec(m, n, block.indptr, block.indices, data, xl, r[rows])
        np.subtract(system.rhs[rows], r[rows], out=r[rows])
    return r, _norm(r, xl) / bnorm


def check_tol(tol: float) -> None:
    """``ValueError`` unless the relative residual ``tol`` is finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _require_finite(system, where: str) -> None:
    """``BreakdownNonSPD`` unless every stored matrix and right-hand side
    entry of ``system`` is finite, ``NumericalFailure`` if ||b|| overflows."""
    for name, values in (("matrix", system.upper.data), ("matrix", system.diag),
                         ("right-hand side", system.rhs)):
        if not np.isfinite(values).all():
            raise BreakdownNonSPD(f"{where}the {name} is not finite")
    with np.errstate(over="ignore"):
        bnorm = _norm(system.rhs)
    if not math.isfinite(bnorm):
        raise NumericalFailure(f"{where}the right-hand side norm overflows float64 "
                               f"(largest entry {np.abs(system.rhs).max():.3e})")


def _scaled(system):
    """``system`` with b times the power of two 2^s that puts max|b| in
    [1/2, 1), and s (0 for b = 0).  The solvers solve K y = 2^s b and return
    x = 2^-s y: so neither ||b|| nor a curvature p.Kp underflows on a tiny
    but finite b.  Scaling by a power of two is exact, so x, its residual
    and every iterate are the unscaled ones, bit for bit, unless a value
    would be subnormal."""
    scale = -int(np.frexp(np.abs(system.rhs).max(initial=0.0))[1])
    return dataclasses.replace(system, rhs=np.ldexp(system.rhs, scale)), scale


def _aggregates(mat: sp.csr_matrix, diag: np.ndarray) -> np.ndarray:
    """Aggregate of each unknown, from a distance-2 maximal independent set
    of the strength graph found by array rounds (Bell, Dalton & Olson 2012).

    Each root of the set gathers its strong neighbours; the unknowns two
    steps from every root join an aggregate next to them.  An unknown with
    no strong neighbour joins none (-1) and is left to the smoother: as a
    one-unknown aggregate it would widen every coarser operator (operator
    complexity 11.7 against 3.0 at rect:128x128 all-hybrid with a tensor
    varying over four decades from cell to cell).
    """
    n = mat.shape[0]
    strong = np.empty(mat.nnz, dtype=bool)
    counts = np.empty(n, dtype=np.int64)
    for rows, block in _row_blocks(mat):
        row = np.repeat(np.arange(rows.start, rows.stop), np.diff(block.indptr))
        col = block.indices
        # the diagonal is kept, so every row of the strength graph is non-empty
        keep = (np.abs(block.data) >= _STRENGTH * np.sqrt(diag[row] * diag[col])) | (row == col)
        strong[mat.indptr[rows.start]:mat.indptr[rows.stop]] = keep
        counts[rows] = np.bincount(row[keep] - rows.start, minlength=rows.stop - rows.start)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    idx = mat.indices[strong]

    # Fixed priorities; a key state * n + rank orders roots (state 2) above
    # undecided unknowns (1) above excluded ones (0), then by rank.  An
    # undecided unknown wins if its key is the largest within two steps, and
    # is excluded if the largest one is a root's, old or new.
    rank = np.random.default_rng(0).permutation(n).astype(np.int32)
    by_rank = np.argsort(rank)
    state = np.ones(n, dtype=np.int32)
    state[np.diff(ptr) == 1] = 0
    while (undecided := state == 1).any():
        key = state * np.int32(n) + rank
        top = np.maximum.reduceat(np.maximum.reduceat(key[idx], ptr[:-1])[idx], ptr[:-1])
        won = undecided & (top == key)
        state[won] = 2
        state[undecided & ~won & (state[by_rank[top % n]] == 2)] = 0

    agg = np.full(n, -1, dtype=np.int32)
    roots = state == 2
    agg[roots] = np.arange(np.count_nonzero(roots))
    for _ in range(2):  # neighbours of roots, then the unknowns beyond them
        top = np.maximum.reduceat(np.where(agg >= 0, rank, -1)[idx], ptr[:-1])
        joins = (agg < 0) & (top >= 0)
        agg[joins] = agg[by_rank[top[joins]]]
    return agg


def _spectral_radius(mat: sp.csr_matrix, diag: np.ndarray) -> float:
    """Estimate of the largest eigenvalue of D^-1 A by power steps on the
    similar D^-1/2 A D^-1/2, from a fixed start."""
    scale = 1.0 / np.sqrt(diag)
    v = np.random.default_rng(0).random(len(diag))
    rho = 0.0
    for _ in range(_POWER_STEPS):
        v /= _norm(v)
        v = scale * (mat @ (scale * v))
        rho = _norm(v)
    return rho


def _spd_inverse(mat: sp.csr_matrix) -> np.ndarray:
    """Inverse of a small SPD matrix by Cholesky, elementwise: LAPACK would
    sum in an order that depends on the BLAS thread count.
    ``BreakdownNonSPD`` on a pivot that is not positive."""
    a = mat.toarray()
    n = len(a)
    low = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - np.add.reduce(low[j, :j] * low[j, :j])
        if not pivot > 0.0:
            raise BreakdownNonSPD(f"coarse pivot {pivot} of the multigrid hierarchy: "
                                  "the system is not SPD")
        low[j, j] = math.sqrt(pivot)
        low[j + 1:, j] = (a[j + 1:, j] - np.add.reduce(low[j + 1:, :j] * low[j, :j], axis=1)) \
            / low[j, j]
    inv_low = np.zeros_like(a)  # L^-1 by forward substitution, row by row
    for i in range(n):
        inv_low[i] = -np.add.reduce(low[i, :i, None] * inv_low[:i], axis=0)
        inv_low[i, i] += 1.0
        inv_low[i] /= low[i, i]
    return np.array([np.add.reduce(inv_low[:, i, None] * inv_low, axis=0) for i in range(n)])


def _smoothed_aggregation(mat: sp.csr_matrix, diag: np.ndarray) -> functools.partial:
    """One symmetric V-cycle of smoothed aggregation as CG's preconditioner.

    Each level keeps its matrix, its damped-Jacobi scaling w/D with
    w = 4 / (3 rho(D^-1 A)), and the prolongator (I - w D^-1 A) T that
    smooths the piecewise-constant aggregate basis T.  The cycle is
    symmetric and positive definite: the same smoother before and after
    each correction, restriction by P^T and an exact coarsest solve.
    """
    t0 = time.perf_counter()
    levels = []
    sizes, nnz = [mat.shape[0]], [mat.nnz]
    while mat.shape[0] > AMG_COARSEST:
        n = mat.shape[0]
        if not np.all(diag > 0.0):  # e_i^T A e_i, or (P e_i)^T A (P e_i), is not > 0
            bad = int(np.flatnonzero(~(diag > 0.0))[0])
            raise BreakdownNonSPD(f"diagonal entry {bad} of multigrid level {len(levels)} "
                                  f"is {diag[bad]}: the system is not SPD")
        smoother = (4.0 / 3.0) / (_spectral_radius(mat, diag) * diag)
        agg = _aggregates(mat, diag)
        n_coarse = int(agg.max()) + 1
        if not 0 < n_coarse <= _MIN_SHRINK * n:
            break
        grouped = np.flatnonzero(agg >= 0)
        tentative = sp.csr_matrix((np.ones(len(grouped)), (grouped, agg[grouped])),
                                  shape=(n, n_coarse))
        prolong = tentative - sp.diags(smoother) @ (mat @ tentative)
        restrict = prolong.T.tocsr()
        # P x runs as the column-wise product of the stored P^T: twice as
        # fast as a row-wise product with P's short rows
        levels.append((mat, smoother, restrict, restrict.T))
        mat = (restrict @ (mat @ prolong)).tocsr()
        diag = mat.diagonal()
        sizes.append(mat.shape[0])
        nnz.append(mat.nnz)
    # where coarsening stalled or found no aggregate, the last level gets one
    # damped-Jacobi step
    coarse = _spd_inverse(mat) if mat.shape[0] <= AMG_COARSEST else smoother
    log.debug("AMG setup: levels %s, operator complexity %.3f, %.3f s",
              "/".join(map(str, sizes)), sum(nnz) / nnz[0], time.perf_counter() - t0)
    return functools.partial(_v_cycle, levels, coarse)


def _v_cycle(levels: list, coarse: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The V-cycle of ``_smoothed_aggregation`` applied to ``r``, level by
    level with no recursion."""
    rhs, pre = [], []
    for mat, smoother, restrict, _ in levels:
        x = smoother * r
        for _ in range(_SWEEPS - 1):
            _smooth(mat, smoother, r, x)
        rhs.append(r)
        pre.append(x)
        r = restrict @ (r - mat @ x)
    x = np.add.reduce(coarse * r, axis=1) if coarse.ndim == 2 else coarse * r
    for (mat, smoother, _, prolong), b, x_pre in zip(levels[::-1], rhs[::-1], pre[::-1]):
        x = prolong @ x
        x += x_pre
        for _ in range(_SWEEPS):
            _smooth(mat, smoother, b, x)
    return x


def _smooth(mat: sp.csr_matrix, smoother: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    """One damped-Jacobi sweep x += w D^-1 (b - A x), in place."""
    t = mat @ x
    np.subtract(b, t, out=t)
    t *= smoother
    x += t


@dataclass
class _CellElimination:
    """The cell unknowns of a system whose cell block D is diagonal,
    eliminated exactly: CG iterates on the face Schur complement
    S = K_FF - K_FC D^-1 K_CF, made exactly symmetric, and each cycle
    maps the full residual to S and its face correction back."""

    n_cells: int
    inv_diag: np.ndarray  # D^-1
    face_cell: sp.csr_matrix  # K_FC; K_CF is its transpose
    schur: sp.csr_matrix

    def condense(self, r: np.ndarray) -> np.ndarray:
        """r_F - K_FC D^-1 r_C: the residual of S for the full residual r."""
        nc = self.n_cells
        return r[nc:] - self.face_cell @ (self.inv_diag * r[:nc])

    def back_substitute(self, x: np.ndarray, e: np.ndarray, r: np.ndarray) -> None:
        """x_F += e and x_C += D^-1 (r_C - K_CF e), in place, for the full
        residual r of x."""
        nc = self.n_cells
        x[nc:] += e
        x[:nc] += self.inv_diag * (r[:nc] - self.face_cell.T @ e)


def _cell_elimination(system) -> _CellElimination | None:
    """The elimination of the cell unknowns of ``system``, or None unless the
    system has a face unknown, its cell block stores no off-diagonal entry
    and every diagonal entry is > 0.  A system with a non-positive diagonal
    entry keeps the full path, whose multigrid setup names the unknown.

    K_FC and K_FF are those ``system.full()`` stores, read from the stored
    triangle: K_CF is the cell rows of ``upper`` (their columns are all
    faces), and K_FF is summed from the face block of ``upper``, its
    transpose and the face diagonal as ``full()`` sums them."""
    nc = system.numbering.n_cells
    upper = system.upper
    if not (nc < system.n and np.all(system.diag > 0.0)
            and not np.any(upper.indices[:upper.indptr[nc]] < nc)):
        return None
    inv_diag = 1.0 / system.diag[:nc]
    cell_face = upper[:nc, nc:]
    cell_face.eliminate_zeros()  # as the sums of full() drop exact zeros
    face_cell = cell_face.T.tocsr()
    del cell_face
    faces = upper[nc:, nc:]
    face_face = faces + faces.T + sp.diags(system.diag[nc:])
    del faces
    # Each sum keeps arrays sized for the entries of both operands; the
    # copies hold only their own.
    schur = (face_face - face_cell @ (sp.diags(inv_diag) @ face_cell.T)).copy()
    del face_face
    schur = (schur + schur.T).copy()
    schur.data *= 0.5
    log.debug("cell unknowns eliminated: CG on the face Schur complement, %d -> %d unknowns",
              system.n, schur.shape[0])
    return _CellElimination(nc, inv_diag, face_cell, schur)


@dataclass
class SolveReport:
    """Iterations, wall time, method and the relative residual
    ||b - Mx|| / ||b|| of the returned x, evaluated in ``np.longdouble``."""

    iterations: int
    relative_residual: float
    wall_time: float
    method: str
    # CG only: the relative residual each restart started from.
    residual_history: list[float] = field(default_factory=list)

    def to_manifest(self) -> dict:
        # Wall time and the restart diagnostics are excluded: run artifacts
        # must be byte-deterministic and keep a fixed schema.
        return {"iterations": self.iterations,
                "relative_residual": self.relative_residual, "method": self.method}


def solve_cg(system, tol: float = DEFAULT_TOL,
             max_iters: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients on the assembled system.

    Below ``AMG_MIN_N`` unknowns the preconditioner is Jacobi; from there on
    it is one symmetric V-cycle of smoothed aggregation, set up here on
    every call (``_smoothed_aggregation``).  Both run without BLAS, so the
    iterates do not depend on its thread count.  From ``AMG_MIN_N`` on, a
    system with a face unknown, no stored off-diagonal entry in its cell
    block and a positive diagonal (``all-hybrid``) has its cells
    eliminated exactly (``_cell_elimination``): the V-cycle is built on the
    face Schur complement S, each cycle of CG iterates on S from the
    condensed full residual, and its face correction is back-substituted
    into x.

    Stops when the relative residual ||b - M x|| / ||b||, evaluated in
    ``np.longdouble``, is at most ``tol``, which must be finite and positive
    (``ValueError`` otherwise), and reports it.  CG checks it once the
    float64 recurrence residual (of S, when the cells are eliminated) is
    below ``max(tol, eps) / 4``, eps being float64's machine epsilon; if it
    is above ``tol``, CG restarts from it (mixed-precision iterative
    refinement).  Raises ``MaxIterations`` when it has not halved over
    ``STAGNATION_RESTARTS`` consecutive restarts, so also for a ``tol``
    below what float64 can reach, or after ``max_iters`` iterations
    (default ``10 n``).  CG works on b scaled by a power of two
    (``_scaled``).  Raises ``BreakdownNonSPD`` before any work on a matrix or
    right-hand side entry that is not finite (``NumericalFailure`` if ||b||
    overflows); in the multigrid setup on a diagonal entry or coarsest
    pivot that is not positive; and on a curvature p.Mp that is not
    positive.  Each signals a system that is not finite or not SPD, from an
    assembly bug or a bad caller.
    """
    check_tol(tol)
    t0 = time.perf_counter()
    _require_finite(system, "CG stops at iteration 1: ")
    n = system.n
    if max_iters is None:
        max_iters = 10 * n
    if not system.rhs.any():
        return np.zeros(n), SolveReport(0, 0.0, time.perf_counter() - t0, "cg")

    elim = _cell_elimination(system) if n >= AMG_MIN_N else None
    if elim is None:
        cg_mat = system.full()
        precond = (functools.partial(np.multiply, 1.0 / system.diag) if n < AMG_MIN_N
                   else _smoothed_aggregation(cg_mat, system.diag))
    else:
        cg_mat = elim.schur
        precond = _smoothed_aggregation(cg_mat, cg_mat.diagonal())
    # scaled only now, so that its copy of b does not add to the setup's peak
    system, scale = _scaled(system)
    b = system.rhs
    x = np.zeros(n)
    r = b.copy()
    stop = 0.25 * max(tol, np.finfo(float).eps) * _norm(b)
    iterations = 0
    history: list[float] = []
    reference = math.inf
    stalls = 0
    while True:
        # CG runs on e with residual s: x and r themselves, or the face
        # correction from 0 and the condensed residual
        e, s = (x, r) if elim is None else (np.zeros(cg_mat.shape[0]), elim.condense(r))
        z = precond(s)
        p = z.copy()
        rz = _dot(s, z)
        # The products are written over a vector that is no longer read: z
        # until the next preconditioning, M p after it.  So an iteration
        # allocates only M p and the preconditioned residual.
        while iterations < max_iters:
            iterations += 1
            ap = cg_mat @ p
            pap = _dot(p, ap, z)
            if not pap > 0.0:
                raise BreakdownNonSPD(f"curvature {pap} at iteration {iterations}: "
                                      "the system is not SPD or not finite")
            alpha = rz / pap
            e += np.multiply(p, alpha, out=z)
            s -= np.multiply(ap, alpha, out=z)
            if _norm(s, z) <= stop:
                break
            z = precond(s)
            rz_new = _dot(s, z, ap)
            p *= rz_new / rz
            p += z
            rz = rz_new
        if elim is not None:
            elim.back_substitute(x, e, r)
        z = p = ap = e = s = r = None  # freed for the residual; a restart rebuilds them
        r_ext, res = _residual(system, x)
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
    return np.ldexp(x, -scale), SolveReport(iterations, res, time.perf_counter() - t0, "cg",
                                            residual_history=history)


@functools.cache
def _superlu():
    """scipy's compiled SuperLU extension, ``_superlu``, loaded from its file
    beside ``scipy.sparse`` so that neither ``scipy.sparse.linalg`` nor
    ``scipy.linalg`` is imported.  An extension already imported is the one
    returned, and a later import of the package finds the one loaded here.
    ``ImportError`` naming the folder if the file is not there."""
    import importlib.machinery
    import importlib.util
    import os
    import sys

    name = "scipy.sparse.linalg._dsolve._superlu"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(os.path.dirname(sp.__file__), "linalg", "_dsolve")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_superlu" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's SuperLU extension _superlu is not in {folder}")


def _spd_factor(mat):
    """SuperLU factor of the symmetric ``mat`` if every pivot of its symmetric
    elimination is > 0, i.e. ``mat`` is SPD; else ``None``.  SuperLU pivots off
    the diagonal only at an exact zero, which shows as ``perm_r != perm_c``.

    ``gstrf`` gets the arguments ``splu(mat.T, permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0, options={"SymmetricMode": True})`` would give
    it, so the factor is that one bit for bit.  ``mat`` is a canonical CSR
    matrix, exactly symmetric as ``full()`` builds it, so its arrays are
    also those of its CSC form: SuperLU is handed them, not a copy."""
    options = dict(DiagPivotThresh=0.0, ColPerm="MMD_AT_PLUS_A", PanelSize=None,
                   Relax=None, SymmetricMode=True)
    try:
        lu = _superlu().gstrf(mat.shape[0], mat.nnz, mat.data,
                              mat.indices.astype(np.intc, copy=False),
                              mat.indptr.astype(np.intc, copy=False),
                              csc_construct_func=sp.csc_array, ilu=False, options=options)
    except RuntimeError:  # exactly singular
        return None
    spd = np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)
    return lu if spd else None


def solve_dense(system) -> tuple[np.ndarray, SolveReport]:
    """Solve with the factor that certifies the system SPD, else
    ``BreakdownNonSPD``; reports the relative residual as ``solve_cg`` does.
    A matrix or right-hand side entry that is not finite, or ||b|| overflowing,
    raises as in ``solve_cg``, before the factorization.  Solves for b
    scaled by a power of two, as ``solve_cg`` does."""
    t0 = time.perf_counter()
    _require_finite(system, "the direct solve stops before factoring: ")
    lu = _spd_factor(system.full())
    if lu is None:
        raise BreakdownNonSPD("the symmetric factorization found a non-positive pivot")
    system, scale = _scaled(system)
    x = lu.solve(system.rhs)
    _, res = _residual(system, x)
    return np.ldexp(x, -scale), SolveReport(0, res, time.perf_counter() - t0, "dense-cholesky")
