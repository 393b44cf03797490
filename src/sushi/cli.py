"""Command-line front end.

Subcommands: ``solve`` (one run, writes VTK/CSV/manifest), ``convergence``
(refinement study with fitted orders) and ``mesh-check`` (geometry
identities and regularity).  Exit codes: 0 success, 1 numerical failure
(``NumericalFailure``) or out of memory (``OutOfMemory``), 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InsufficientLevels, NumericalFailure, OutOfMemory, SushiError
from .geometry import theta_D, validate
from .gradient import resolve_alpha
from .postproc import FLUX_COLUMNS, convergence_order
from .problems import BUILTIN_PROBLEMS, load_problem_descriptor
from .run import FAMILIES, MESH_GRAMMAR, METHODS, family_spec, parse_mesh_spec, solve_problem
from .solver import DEFAULT_TOL
from .spaces import POLICIES
from .vtkio import export_csv, export_vtk


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _load_problem(args):
    if args.problem in BUILTIN_PROBLEMS:
        return BUILTIN_PROBLEMS[args.problem]()
    if args.problem.endswith(".json"):
        return load_problem_descriptor(args.problem)
    raise SushiError(
        f"unknown problem {args.problem!r}; builtins: {sorted(BUILTIN_PROBLEMS)}"
    )


def _manifest(args, result, label) -> dict:
    manifest = {
        "version": __version__,
        "problem": args.problem,
        "mesh": label,
        "policy": result.partition.policy,
        "alpha": manifest_alpha(result),
        "tol": args.tol,
        "N": result.system.n,
        "NM": result.system.nm,
        "solve": result.report.to_manifest(),
    }
    if result.errors is not None:
        manifest["errors"] = dataclasses.asdict(result.errors)
    if result.fluxes is not None:
        manifest["boundary_flux"] = result.fluxes
    return manifest


def manifest_alpha(result) -> float:
    return resolve_alpha(result.alpha)


def _csv_row(label: str, result) -> dict:
    """The report.csv / study.csv row of one run."""
    row = {
        "mesh": label, "policy": result.partition.policy,
        "alpha": manifest_alpha(result), "N": result.system.n, "NM": result.system.nm,
        "iterations": result.report.iterations,
        "residual": result.report.relative_residual,
    }
    if result.errors is not None:
        row["eps_u"] = result.errors.eps_u
        row["eps_grad"] = result.errors.eps_grad
    if result.fluxes is not None:
        row.update((FLUX_COLUMNS[side], total) for side, total in result.fluxes.items())
    return row


def _require_finite_outputs(result, **values) -> None:
    """``NumericalFailure`` naming the first value to be written that is not
    finite: ``values``, then the residual, the error norms and the flux
    totals of ``result``.  Strict JSON has no NaN or Infinity, and the VTK
    and CSV files are written before the manifest, so the check comes
    before all of them."""
    values["relative_residual"] = result.report.relative_residual
    if result.errors is not None:
        values.update(dataclasses.asdict(result.errors))
    if result.fluxes is not None:
        values.update((f"boundary flux {side}", total) for side, total in result.fluxes.items())
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise NumericalFailure(f"{name} is not finite: the run's values exceed float64 "
                                   "(no artifact written)")


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    mesh, regions, label = parse_mesh_spec(args.mesh)
    with np.errstate(over="ignore"):  # reported by _require_finite_outputs
        result = solve_problem(
            problem, mesh, regions=regions, policy=args.policy, alpha=args.alpha,
            tol=args.tol, method=args.method,
        )
        gradient = result.gradient.cell_average(mesh)
    _require_finite_outputs(result, u=result.u.cell_values, gradient=gradient)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scalars = {"u": result.u.cell_values}
    if result.regions is not None:
        scalars["region"] = np.asarray(result.regions, dtype=int)
    export_vtk(mesh, out / "solution.vtk", cell_scalars=scalars,
               cell_vectors={"gradient": gradient}, title=f"{args.problem} on {label}")
    export_csv([_csv_row(label, result)], out / "report.csv")
    (out / "manifest.json").write_text(
        json.dumps(_manifest(args, result, label), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    print(f"N={result.system.n} NM={result.system.nm} "
          f"iterations={result.report.iterations}")
    if result.errors is not None:
        print(f"eps_u={_fmt(result.errors.eps_u)} "
              f"eps_grad={_fmt(result.errors.eps_grad)}")
    if result.fluxes is not None:
        flux_str = " ".join(_fmt(result.fluxes[s]) for s in FLUX_COLUMNS)
        print(f"boundary fluxes: {flux_str}")
    return 0


def cmd_convergence(args) -> int:
    if args.check is not None:
        # Synthetic replay: fit stored (h, error) pairs only.
        pairs = []
        for tok in args.check.split(","):
            try:
                h, err = tok.split(":")
                pairs.append((float(h), float(err)))
            except ValueError:
                raise ValueError(f"bad --check pair {tok!r} in {args.check!r}; "
                                 "expected h:error,h:error,...") from None
        slope = convergence_order(pairs)
        print(f"slope(synthetic)={_fmt(slope)}")
        return 0
    problem = _load_problem(args)
    if problem.exact is None:
        raise SushiError("convergence study needs a problem with an exact solution")
    if args.family not in FAMILIES:
        raise SushiError(f"unknown family {args.family!r}; choose from {sorted(FAMILIES)}")
    try:
        levels = [int(t) for t in args.levels.split(",")]
    except ValueError:
        levels = []
    if not levels or min(levels) < 1:
        raise ValueError(f"bad --levels {args.levels!r}; expected comma-separated "
                         "resolutions N >= 1 of the family")
    if len(set(levels)) < 3:
        raise InsufficientLevels(f"need at least three distinct levels, got {args.levels!r}")
    rows, hs, eus, egs = [], [], [], []
    for n in levels:
        mesh, _, label = parse_mesh_spec(family_spec(args.family, n))
        with np.errstate(over="ignore"):  # reported by _require_finite_outputs
            result = solve_problem(problem, mesh, policy=args.policy,
                                   alpha=args.alpha, tol=args.tol)
        _require_finite_outputs(result)
        hs.append(mesh.h)
        eus.append(result.errors.eps_u)
        egs.append(result.errors.eps_grad)
        rows.append(_csv_row(label, result))
        print(f"{label} h={_fmt(mesh.h)} N={result.system.n} "
              f"eps_u={_fmt(result.errors.eps_u)} eps_grad={_fmt(result.errors.eps_grad)}")
    slope_u = convergence_order(zip(hs, eus))
    slope_g = convergence_order(zip(hs, egs))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_csv(rows, out / "study.csv")
    print(f"slope(eps_u)={_fmt(slope_u)} slope(eps_grad)={_fmt(slope_g)}")
    return 0


def cmd_mesh_check(args) -> int:
    mesh, regions, label = parse_mesh_spec(args.mesh)
    report = validate(mesh)
    td = theta_D(mesh)
    print(f"mesh {label}: cells={mesh.n_cells} faces={mesh.n_faces} h={_fmt(mesh.h)}")
    print(f"theta_D={_fmt(td)}")
    print(f"max identity residual={_fmt(float(np.max(report.identity_residuals)))}")
    print(f"max cone-sum residual={_fmt(float(np.max(report.cone_sum_residuals)))}")
    print(f"max closure residual={_fmt(float(np.max(report.closure_residuals)))}")
    print(f"volume residual={_fmt(report.volume_residual)}")
    if td > 100.0:
        print("warning: large theta_D (thin cells)")
    if report.passed:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sushi",
        description="Finite-volume diffusion solver on general polygonal meshes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", default="anisotropic-smooth",
                        help="builtin name or path to a JSON descriptor")
    common.add_argument("--policy", default="all-barycentric",
                        choices=POLICIES,
                        help="face partition policy")
    common.add_argument("--alpha", type=float, default=None,
                        help="stabilization coefficient (default sqrt(d))")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="CG relative residual tolerance")
    common.add_argument("--out", default="out", help="output directory")

    p_solve = sub.add_parser("solve", parents=[common], help="solve one run")
    p_solve.add_argument("--mesh", required=True, help=MESH_GRAMMAR)
    p_solve.add_argument("--method", default="cg", choices=METHODS)
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("convergence", parents=[common],
                            help="refinement study with fitted orders")
    p_conv.add_argument("--family", default="tri", help=" | ".join(FAMILIES))
    p_conv.add_argument("--levels", default="4,8,16,32",
                        help="comma-separated resolutions")
    p_conv.add_argument("--check", default=None,
                        help="synthetic h:error pairs, e.g. '0.5:0.25,0.25:0.0625'")
    p_conv.set_defaults(func=cmd_convergence)

    p_check = sub.add_parser("mesh-check", help="geometry identities and regularity")
    p_check.add_argument("--mesh", required=True)
    p_check.set_defaults(func=cmd_mesh_check)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        error = OutOfMemory(f"out of memory: {exc}" if str(exc) else "out of memory")
    except (OSError, ValueError, SushiError) as exc:
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return 1 if isinstance(error, (NumericalFailure, OutOfMemory)) else 2


if __name__ == "__main__":
    sys.exit(main())
