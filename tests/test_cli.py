import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sushi
from sushi.cli import main
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


def test_solve_missing_mesh_file_exits_2(tmp_path, capsys):
    code = main(["solve", "--mesh", "file:does-not-exist.msh",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_problem_exits_2(tmp_path, capsys):
    code = main(["solve", "--problem", "nope", "--mesh", "rect:2x2",
                 "--out", str(tmp_path)])
    assert code == 2


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
    # N = 12,160 is above the length from which OpenBLAS splits a dot
    # product across threads, so BLAS reductions would sum in another order
    src = str(Path(sushi.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "sushi.cli", "solve", "--mesh", "rect:64x64",
             "--policy", "all-hybrid", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outs.append((out / "manifest.json").read_bytes())
    assert outs[0] == outs[1]


def test_convergence_synthetic_replay(tmp_path, capsys):
    code = main([
        "convergence", "--check", "0.5:0.25,0.25:0.0625,0.125:0.015625",
        "--out", str(tmp_path),
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
