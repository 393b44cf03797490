"""One pass of a workload, run by run.py in a fresh process.

Untraced, each case goes through ``sushi.cli.main``, the path a user's
``sushi solve`` takes.  Traced, the same public calls that
``sushi.cli.cmd_solve`` makes are made one at a time with a span around
each, so each module's time can be read off.  Either way a case that runs
past the per-case cap is stopped by SIGALRM and recorded as ``capped``.

The last line of standard output is one JSON object describing the pass.
With ``--probe`` the process only imports the program and reports how
long that took since ``--t0``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path

from sushi.cli import _load_problem, _manifest, manifest_alpha
from sushi.cli import main as sushi_main

IMPORTED = time.monotonic()

# The rest was loaded by `import sushi.cli` already.
import numpy as np  # noqa: E402
from sushi.assembly import assemble  # noqa: E402
from sushi.generators import gen_nonconforming_rect  # noqa: E402
from sushi.gradient import gradient_field  # noqa: E402
from sushi.meshfile import write_mesh  # noqa: E402
from sushi.postproc import boundary_flux_totals, error_norms, reconstruct_faces  # noqa: E402
from sushi.run import RunResult, parse_mesh_spec  # noqa: E402
from sushi.solver import solve_cg, solve_dense  # noqa: E402
from sushi.spaces import compute_weights, partition_faces  # noqa: E402
from sushi.vtkio import export_csv, export_vtk  # noqa: E402

from workloads import MESH_FILE, MESH_FILE_LEVEL, WORKLOADS, Case  # noqa: E402


class CaseTimeout(BaseException):
    """Raised by SIGALRM when a case runs past the cap.

    A BaseException, so the CLI's handlers for its own errors let it pass.
    """


def _on_alarm(signum, frame):
    raise CaseTimeout


def run_capped(fn, cap: float) -> tuple[str, float]:
    """Call ``fn`` with a wall cap; return (status, elapsed seconds).

    Status is ``ok``, ``exit <code>`` for a non-zero return, or ``capped``.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        code = fn()
        status = "ok" if code == 0 else f"exit {code}"
    except CaseTimeout:
        status = "capped"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    return status, elapsed


def _quiet(fn):
    """``fn`` with the program's stdout/stderr kept off the result channel."""
    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return fn()
    return call


class Tracer:
    """Spans kept in memory: (name, start, end, case id)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, str]] = []
        self.case = ""

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.case))

    def totals(self, case: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, owner in self.spans:
            if owner == case:
                out[name] += t1 - t0
        return dict(out)


def traced_solve(case: Case, out: Path, tracer: Tracer, counts: dict) -> int:
    """The calls of ``sushi.cli.cmd_solve``, in its order, one span each."""
    args = argparse.Namespace(problem=case.problem, mesh=case.mesh,
                              policy=case.policy, alpha=None, tol=case.tol,
                              method=case.method, out=str(out))
    span = tracer.span
    problem = _load_problem(args)
    with span("geometry"):
        mesh, regions, label = parse_mesh_spec(args.mesh)
    counts["geometry.cells"] = mesh.n_cells
    counts["geometry.faces"] = mesh.n_faces
    with span("spaces.partition"):
        partition = partition_faces(mesh, args.policy, regions)
    weights = None
    if partition.barycentric_faces():
        with span("spaces.weights"):
            weights = compute_weights(mesh, partition, regions)
        counts["spaces.weighted_faces"] = len(weights.support)
        counts["spaces.extended_faces"] = sum(
            any(kind == "face" for kind, _, _ in entries)
            for entries in weights.support.values()
        )
    with span("assembly"):
        tensor = problem.make_tensor(mesh, regions)
        system = assemble(mesh, partition, weights, tensor, source=problem.source,
                          dirichlet=problem.dirichlet, alpha=args.alpha)
    counts["assembly.N"] = system.n
    counts["assembly.NM"] = system.nm
    if args.method == "dense":
        with span("solver.dense"):
            solution, report = solve_dense(system)
    else:
        with span("solver.cg"):
            solution, report = solve_cg(system, tol=args.tol)
        counts["solver.cg_iterations"] = report.iterations
    with span("postproc.reconstruct"):
        u = reconstruct_faces(mesh, partition, weights, solution,
                              system.numbering, dirichlet=problem.dirichlet)
    with span("postproc.errors"):
        errors = error_norms(mesh, u, problem.exact, problem.exact_grad, args.alpha)
    with span("postproc.fluxes"):
        fluxes = boundary_flux_totals(mesh, tensor, u, args.alpha)
    result = RunResult(mesh=mesh, regions=regions, partition=partition,
                       weights=weights, tensor=tensor, alpha=args.alpha,
                       system=system, solution=solution, u=u, report=report,
                       errors=errors, fluxes=fluxes)
    out.mkdir(parents=True, exist_ok=True)
    with span("gradient"):
        grad = gradient_field(mesh, result.u, result.alpha)
        average = grad.cell_average(mesh)
    with span("vtkio"):
        scalars = {"u": result.u.cell_values}
        if regions is not None:
            scalars["region"] = np.asarray(regions, dtype=int)
        export_vtk(mesh, out / "solution.vtk", cell_scalars=scalars,
                   cell_vectors={"gradient": average},
                   title=f"{args.problem} on {label}")
        row = {"mesh": label, "policy": partition.policy,
               "alpha": manifest_alpha(result), "N": system.n, "NM": system.nm,
               "iterations": report.iterations,
               "residual": report.relative_residual,
               "eps_u": errors.eps_u, "eps_grad": errors.eps_grad}
        for side, key in (("x=0", "flux_x0"), ("x=1", "flux_x1"),
                          ("y=0", "flux_y0"), ("y=1", "flux_y1")):
            row[key] = fluxes[side]
        export_csv([row], out / "report.csv")
        (out / "manifest.json").write_text(
            json.dumps(_manifest(args, result, label), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    counts["vtkio.bytes"] = sum(
        (out / name).stat().st_size
        for name in ("solution.vtk", "report.csv", "manifest.json")
    )
    return 0


def warm_up(case: Case, out: Path) -> None:
    """Untimed: first BLAS reductions and a small solve of the workload's kind."""
    v = np.linspace(0.0, 1.0, 1 << 21)
    for _ in range(3):
        float(v @ v)
        float(np.linalg.norm(v))
    _quiet(lambda: sushi_main(case.argv(str(out))))()


def run_pass(workload: str, order: list[int], out: Path, cap: float,
             trace: bool) -> dict:
    spec = WORKLOADS[workload]
    if any(c.mesh == f"file:{MESH_FILE}" for c in spec.cases):
        write_mesh(gen_nonconforming_rect(MESH_FILE_LEVEL), MESH_FILE)
    warm_up(spec.warmup, out / "warmup")

    tracer = Tracer()
    cases = []
    t_pass = time.perf_counter()
    for i in order:
        case = spec.cases[i]
        case_out = out / case.id
        counts: dict[str, int] = {}
        if trace:
            tracer.case = case.id
            fn = lambda: traced_solve(case, case_out, tracer, counts)  # noqa: E731
        else:
            fn = lambda: sushi_main(case.argv(str(case_out)))  # noqa: E731
        status, elapsed = run_capped(_quiet(fn), cap)
        record = {"id": case.id, "status": status, "wall_s": elapsed}
        if trace:
            record["spans"] = tracer.totals(case.id)
            record["counts"] = counts
        cases.append(record)
    pass_s = time.perf_counter() - t_pass
    if trace:
        (out / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"cases": cases, "pass_s": pass_s, "peak_rss_mb": peak_kb / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before start")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--order", help="comma-separated case indices")
    parser.add_argument("--out", help="output directory of this pass")
    parser.add_argument("--cap", type=float, help="per-case wall cap, seconds")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = {"setup_s": IMPORTED - args.t0}
    if not args.probe:
        order = [int(t) for t in args.order.split(",")]
        result.update(run_pass(args.workload, order, Path(args.out), args.cap,
                               args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
