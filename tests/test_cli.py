import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import sushi
from conftest import system_from_dense
from sushi.cli import main
from sushi.errors import (
    BreakdownNonSPD,
    MaxIterations,
    NotPositiveDefinite,
    SingularAfterElimination,
    SushiError,
)
from sushi.generators import barrier_region
from sushi.geometry import compute_geometry
from sushi.gradient import default_alpha
from sushi.meshfile import write_mesh
from sushi.vtkio import read_csv


def parse_legacy_vtk(path):
    """Minimal reader for the legacy ASCII unstructured-grid format."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile Version 3.0")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    it = iter(range(4, len(lines)))
    points, cells, cell_data = [], [], {}
    i = 4
    while i < len(lines):
        tok = lines[i].split()
        if not tok:
            i += 1
            continue
        if tok[0] == "POINTS":
            n = int(tok[1])
            for j in range(n):
                points.append([float(x) for x in lines[i + 1 + j].split()])
            i += n + 1
        elif tok[0] == "CELLS":
            n = int(tok[1])
            for j in range(n):
                entry = [int(x) for x in lines[i + 1 + j].split()]
                assert entry[0] == len(entry) - 1
                cells.append(entry[1:])
            i += n + 1
        elif tok[0] == "CELL_TYPES":
            n = int(tok[1])
            assert all(lines[i + 1 + j].strip() == "7" for j in range(n))
            i += n + 1
        elif tok[0] == "CELL_DATA":
            i += 1
        elif tok[0] == "SCALARS":
            name = tok[1]
            assert lines[i + 1].startswith("LOOKUP_TABLE")
            vals = [float(lines[i + 2 + j]) for j in range(len(cells))]
            cell_data[name] = vals
            i += len(cells) + 2
        elif tok[0] == "VECTORS":
            vals = [[float(x) for x in lines[i + 1 + j].split()]
                    for j in range(len(cells))]
            cell_data[tok[1]] = vals
            i += len(cells) + 1
        else:
            raise AssertionError(f"unexpected VTK line: {lines[i]}")
    return points, cells, cell_data


def test_solve_writes_artifacts(tmp_path, capsys):
    code = main([
        "solve", "--problem", "anisotropic-smooth", "--mesh", "rect:8x6",
        "--policy", "all-barycentric", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "N=48" in out
    assert "NM=488" in out
    points, cells, cell_data = parse_legacy_vtk(tmp_path / "solution.vtk")
    assert len(cells) == 48
    assert len(cell_data["u"]) == 48
    assert "gradient" in cell_data
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["N"] == 48
    assert manifest["NM"] == 488
    assert (tmp_path / "report.csv").exists()


def test_solve_hybrid_counts(tmp_path, capsys):
    code = main([
        "solve", "--mesh", "rect:8x6", "--policy", "all-hybrid",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "N=130" in out and "NM=874" in out


@pytest.mark.parametrize("mesh,policy", [("rect:8x8", "all-barycentric"),
                                         ("ncrect:2", "all-hybrid")])
def test_solve_builds_each_operator_once(tmp_path, monkeypatch, mesh, policy):
    # B is built once, by local_matrices, from per-cell blocks.  No sparse
    # operator with a row per cone gradient component (G, or Lambda G) is
    # built at all: the post-processing evaluates both on cone arrays.
    gradient_rows = 2 * sushi.parse_mesh_spec(mesh)[0].n_cones
    calls = {"G": 0, "B": 0}

    def counted(key, func):
        def spy(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return spy

    def counted_init(init):
        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            calls["G"] += self.shape[0] == gradient_rows
        return spy

    for cls in (sp.bsr_matrix, sp.coo_matrix, sp.csc_matrix, sp.csr_matrix):
        monkeypatch.setattr(cls, "__init__", counted_init(cls.__init__))
    local_matrices = sushi.assembly.local_matrices
    spy = counted("B", local_matrices)
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("sushi")
                and getattr(module, "local_matrices", None) is local_matrices):
            monkeypatch.setattr(module, "local_matrices", spy)
    assert main(["solve", "--mesh", mesh, "--policy", policy, "--out", str(tmp_path)]) == 0
    assert calls == {"G": 0, "B": 1}


def test_solve_barrier_prints_fluxes(tmp_path, capsys):
    code = main([
        "solve", "--problem", "tilted-barrier", "--mesh", "barrier:1",
        "--policy", "discontinuity", "--out", str(tmp_path), "--method", "dense",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "-0.2 0.2 1 -1" in out
    _, _, cell_data = parse_legacy_vtk(tmp_path / "solution.vtk")
    assert "region" in cell_data
    (row,) = read_csv(tmp_path / "report.csv")
    totals = json.loads((tmp_path / "manifest.json").read_text())["boundary_flux"]
    for side, column in (("x=0", "flux_x0"), ("x=1", "flux_x1"),
                         ("y=0", "flux_y0"), ("y=1", "flux_y1")):
        assert float(row[column]) == totals[side]


def test_solve_barrier_problem_on_rect_writes_its_regions(tmp_path):
    assert main(["solve", "--problem", "tilted-barrier", "--mesh", "rect:4x4",
                 "--policy", "discontinuity", "--out", str(tmp_path)]) == 0
    _, _, cell_data = parse_legacy_vtk(tmp_path / "solution.vtk")
    mesh = sushi.gen_rect(4, 4)
    assert cell_data["region"] == barrier_region(*mesh.cell_point.T).tolist()


def test_solve_off_the_unit_square_writes_artifacts_without_fluxes(tmp_path, capsys):
    # the per-side flux totals name the sides of the unit square only
    mesh = sushi.gen_rect(4, 4)
    path = tmp_path / "big.mesh"
    write_mesh(compute_geometry(2.0 * mesh.vertices, mesh.loops()), path)
    out = tmp_path / "out"
    assert main(["solve", "--mesh", f"file:{path}", "--out", str(out)]) == 0
    assert "boundary fluxes" not in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert "boundary_flux" not in manifest and "errors" in manifest
    row = read_csv(out / "report.csv")[0]
    assert row["flux_x0"] == row["flux_y1"] == ""
    assert (out / "solution.vtk").exists()


@pytest.mark.parametrize("mat", [
    [[1.0, 1.0], [1.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[1.0, 2.0], [2.0, 1.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], ids=["singular", "zero-diagonal", "negative-pivot", "negative-diagonal"])
def test_solve_dense_non_spd_exits_1(tmp_path, capsys, monkeypatch, mat):
    monkeypatch.setattr("sushi.run.assemble",
                        lambda *args, **kwargs: system_from_dense(mat, np.ones(2)))
    code = main(["solve", "--mesh", "rect:2x2", "--method", "dense", "--out", str(tmp_path)])
    assert code == 1
    assert "non-positive pivot" in capsys.readouterr().err


def test_import_loads_only_what_cg_runs_use():
    src = str(Path(sushi.__file__).resolve().parents[1])
    probe = ("import sys, sushi.cli; "
             "print(sorted(m for m in ('scipy.linalg', 'scipy.io', 'scipy.sparse.linalg') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_solve_missing_mesh_file_exits_2(tmp_path, capsys):
    code = main(["solve", "--mesh", "file:does-not-exist.msh",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_problem_exits_2(tmp_path, capsys):
    code = main(["solve", "--problem", "nope", "--mesh", "rect:2x2",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("spec", ["rect:8", "rect:8x", "tri:", "rect:axb", "ncrect:two", "hex:4"])
def test_malformed_mesh_spec_names_itself_exits_2(tmp_path, capsys, spec):
    code = main(["solve", "--mesh", spec, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert repr(spec) in err
    assert "rect:NxM | tri:N | ncrect:N | barrier:V | file:PATH" in err
    assert "invalid literal" not in err


def test_malformed_levels_name_themselves_exits_2(tmp_path, capsys):
    code = main(["convergence", "--family", "rect", "--levels", "4,a,8",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'4,a,8'" in err
    assert "invalid literal" not in err
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("check,bad", [
    ("0.5,0.25,0.1", "'0.5'"),
    ("0.5:a,0.25:0.0625,0.125:0.015625", "'0.5:a'"),
    ("0.5:0.1:3,0.25:0.0625,0.125:0.015625", "'0.5:0.1:3'"),
], ids=["no-colon", "non-numeric", "three-fields"])
def test_malformed_check_pairs_name_themselves_exits_2(tmp_path, capsys, check, bad):
    code = main(["convergence", "--check", check, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad --check pair {bad}" in err
    assert "h:error,h:error,..." in err
    assert "unpack" not in err and "could not convert" not in err


@pytest.mark.parametrize("error,code", [
    (MaxIterations, 1), (BreakdownNonSPD, 1), (NotPositiveDefinite, 1),
    (SingularAfterElimination, 1), (SushiError, 2),
])
def test_exit_code_follows_error_class(tmp_path, capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("stop")

    monkeypatch.setattr("sushi.cli.solve_problem", fail)
    assert main(["solve", "--mesh", "rect:2x2", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == "error: stop\n"


@pytest.mark.parametrize("mesh,policy", [
    ("rect:8x6", "all-barycentric"), ("ncrect:2", "all-hybrid"),
])
def test_builtin_problem_equals_its_descriptor(tmp_path, mesh, policy):
    # anisotropic-smooth written out as a JSON descriptor gives the same run
    desc = {"name": "anisotropic-smooth",
            "tensor": {"constant": [[1.5, 0.5], [0.5, 1.5]]},
            "exact_poly": (16.0 * np.outer([0, 1, -1], [0, 1, -1])).tolist()}
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(desc))
    builtin, file = tmp_path / "builtin", tmp_path / "file"
    for problem, out in (("anisotropic-smooth", builtin), (str(path), file)):
        assert main(["solve", "--problem", problem, "--mesh", mesh, "--policy", policy,
                     "--out", str(out)]) == 0
    assert (builtin / "report.csv").read_bytes() == (file / "report.csv").read_bytes()
    vtk = [(d / "solution.vtk").read_text().splitlines() for d in (builtin, file)]
    del vtk[0][1], vtk[1][1]  # the title line names the problem
    assert vtk[0] == vtk[1]
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (builtin, file)]
    assert manifests[1].pop("problem") == str(path)
    assert manifests[0].pop("problem") == "anisotropic-smooth"
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("desc,key", [
    ({"tensor": {"constant": [[1.0, 0.0], [0.0, 1.0]]}, "exact_poly": [[0.0, math.nan]]},
     "'exact_poly'"),
    ({"tensor": {"two_region": {"left": math.inf, "right": 1.0}}}, "'left'"),
    ({"tensor": {"constant": [[1.0, 0.0], [0.0, -math.inf]]}}, "'constant'"),
    ({"tensor": {"two_region": {"left": 1.0, "right": 1.0}}, "exact_poly": [[0.0, 1.0]]},
     "'exact_poly'"),
], ids=["exact-poly-nan", "left-infinity", "constant-minus-infinity",
        "exact-poly-with-two-region"])
def test_bad_descriptor_number_exits_2_before_solving(tmp_path, capsys, desc, key):
    # Python's json reads NaN and Infinity; the descriptor is refused before
    # the mesh is built, where CG would run on a NaN system to its 10 n cap
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(desc))
    code = main(["solve", "--problem", str(path), "--mesh", "rect:128x128",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option,value", [
    ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "-1"), ("--alpha", "0"),
    ("--tol", "nan"), ("--tol", "inf"),
])
def test_solve_rejects_invalid_alpha_and_tol_exits_2(tmp_path, capsys, option, value):
    code = main(["solve", "--mesh", "rect:4x4", option, value, "--out", str(tmp_path)])
    assert code == 2
    assert "must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("alpha_args,expected", [
    (["--alpha", "1.5"], 1.5),
    ([], default_alpha(2)),
])
def test_solve_records_alpha(tmp_path, alpha_args, expected):
    assert main(["solve", "--mesh", "rect:4x4", *alpha_args,
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["alpha"] == expected
    assert float(read_csv(tmp_path / "report.csv")[0]["alpha"]) == expected


def test_solve_unreachable_tol_exits_1(tmp_path, capsys):
    # 1e-16 lies below the attainable residual floor of this system: CG
    # stops on stagnation with a numerical failure, well before 10 n steps
    code = main(["solve", "--mesh", "rect:32x32", "--policy", "all-hybrid",
                 "--tol", "1e-16", "--out", str(tmp_path)])
    assert code == 1
    assert "CG stagnated" in capsys.readouterr().err


def test_solve_default_tol_stops_on_extended_precision_residual(tmp_path):
    # At rect:192x192 all-hybrid the float64 evaluation of b - Kx stays near
    # 1.7e-12 while the iterate's residual, computed in extended precision,
    # is below the default tol of 1e-12: CG stops there and reports it.
    # CG on the face Schur complement with the multigrid preconditioner gets
    # there in 26 iterations (39 on the full system; Jacobi: 1,402)
    code = main(["solve", "--mesh", "rect:192x192", "--policy", "all-hybrid",
                 "--out", str(tmp_path)])
    assert code == 0
    solve = json.loads((tmp_path / "manifest.json").read_text())["solve"]
    assert solve["relative_residual"] <= 1e-12
    assert solve["iterations"] <= 80


def test_outputs_are_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([
            "solve", "--problem", "anisotropic-smooth", "--mesh", "ncrect:1",
            "--policy", "all-barycentric", "--out", str(out),
        ]) == 0
    for name in ("solution.vtk", "report.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_independent_of_blas_threads(tmp_path):
    cases = {
        # N = 12,160 is above the length from which OpenBLAS splits a dot
        # product across threads, so BLAS reductions would sum in another
        # order; it is also above AMG_MIN_N, so the cell elimination and
        # the multigrid setup and V-cycle on the face Schur complement run here
        "cg": ["--mesh", "rect:64x64", "--policy", "all-hybrid"],
        # the direct solve's SuperLU factorization calls BLAS
        "dense": ["--problem", "tilted-barrier", "--mesh", "barrier:2",
                  "--policy", "discontinuity", "--method", "dense"],
    }
    src = str(Path(sushi.__file__).resolve().parents[1])
    for name, args in cases.items():
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, "-m", "sushi.cli", "solve", *args, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outs.append((out / "manifest.json").read_bytes())
        assert outs[0] == outs[1], name


def test_convergence_synthetic_replay(tmp_path, capsys):
    code = main([
        "convergence", "--check", "0.5:0.25,0.25:0.0625,0.125:0.015625",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert "slope(synthetic)=2" in capsys.readouterr().out


def test_convergence_synthetic_replay_does_not_load_problem(tmp_path, capsys):
    code = main([
        "convergence", "--check", "0.5:0.25,0.25:0.0625,0.125:0.015625",
        "--problem", "nope", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "slope(synthetic)=2" in capsys.readouterr().out


def test_convergence_small_study(tmp_path, capsys):
    code = main([
        "convergence", "--family", "rect", "--levels", "2,4,8",
        "--policy", "all-barycentric", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "slope(eps_u)=" in out
    assert (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("args", [
    ["--check", "0.5:0,0.25:0,0.125:0"],
    ["--check", "0.5:0.25,0.25:nan,0.125:0.015625"],
    ["--check", "0.5:0.25,-0.25:0.0625,0.125:0.015625"],
    ["--check", "0.5:0.25,0.5:0.25,0.5:0.25"],
    ["--family", "rect", "--levels", "2,2,2"],
    ["--family", "rect", "--levels", "4,8"],
])
def test_convergence_degenerate_input_exits_2(tmp_path, capsys, args):
    # no slope is printed, and a study with too few levels solves nothing
    code = main(["convergence", *args, "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "slope" not in captured.out
    assert not (tmp_path / "study.csv").exists()


def test_mesh_check_pass(capsys):
    code = main(["mesh-check", "--mesh", "rect:4x4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "theta_D=2.82843" in out


def test_mesh_check_barrier_thin_layer_warning(capsys):
    code = main(["mesh-check", "--mesh", "barrier:3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "warning: large theta_D" in out


@pytest.mark.parametrize("option,value", [
    ("--problem", "nope"), ("--policy", "all-hybrid"), ("--alpha", "nan"),
    ("--tol", "inf"), ("--out", "out"),
])
def test_mesh_check_rejects_solve_options_exits_2(capsys, option, value):
    # mesh-check reads only --mesh; an option it would ignore is an input error
    with pytest.raises(SystemExit) as exc:
        main(["mesh-check", "--mesh", "rect:2x2", option, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mesh_check_reads_files_and_fails_on_corruption(tmp_path, capsys):
    good = tmp_path / "good.txt"
    write_mesh(sushi.gen_rect(2, 2), good)
    assert main(["mesh-check", "--mesh", f"file:{good}"]) == 0
    capsys.readouterr()

    # corruption: a duplicated cell gives an interior face three owners;
    # derived geometry is always self-consistent, so corruption surfaces
    # as a construction failure (input error), not a residual
    bad = tmp_path / "bad.txt"
    text = good.read_text().splitlines()
    idx = text.index("cells 4")
    text.insert(idx + 1, text[idx + 1])
    text[idx] = "cells 5"
    bad.write_text("\n".join(text) + "\n")
    code = main(["mesh-check", "--mesh", f"file:{bad}"])
    assert code == 2
    assert "more than two cells" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
