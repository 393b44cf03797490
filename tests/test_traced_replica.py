"""The benchmark's traced pass must write what ``sushi solve`` writes.

``perfbench/worker.py::traced_solve`` replays the public calls of
``sushi.cli.cmd_solve`` one at a time, with the library's mesh-level
signatures.  A library change that breaks that replay, or makes it write
different bytes, shows up here, not only in a traced benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from conftest import write_thin_barrier_rows
from sushi.generators import barrier_region
from sushi.run import parse_mesh_spec

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import BARRIER, SMOOTH, Case  # noqa: E402
import worker  # noqa: E402
from worker import Tracer, sushi_main, traced_solve  # noqa: E402

ARTIFACTS = ("solution.vtk", "report.csv", "manifest.json")


def assert_same_artifacts(tmp_path, case):
    assert sushi_main(case.argv(str(tmp_path / "cli"))) == 0
    tracer, counts = Tracer(), {}
    assert traced_solve(case, tmp_path / "traced", tracer, counts) == 0
    for name in ARTIFACTS:
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "cli" / name).read_bytes(), name
    assert counts["assembly.N"] > 0


@pytest.mark.parametrize("case", [
    Case(SMOOTH, "rect:8x6", "all-barycentric"),
    Case(SMOOTH, "ncrect:2", "all-hybrid"),
    Case(BARRIER, "barrier:1", "discontinuity", "dense"),
], ids=lambda case: case.id)
def test_traced_solve_writes_the_cli_bytes(tmp_path, case):
    assert_same_artifacts(tmp_path, case)


def test_traced_solve_keeps_thin_layer_faces_hybrid(tmp_path, monkeypatch):
    # The replica partitions and weighs on its own calls; on this mesh the
    # outer rows' internal faces have no cell support, and the replica must
    # complete the partition as ``sushi solve`` does.  It takes its region
    # map from ``parse_mesh_spec``, so that one returns the barrier's.
    path = tmp_path / "thin.mesh"
    write_thin_barrier_rows(path)

    def with_barrier_regions(spec):
        mesh, _, label = parse_mesh_spec(spec)
        return mesh, barrier_region(*mesh.cell_point.T), label

    monkeypatch.setattr(worker, "parse_mesh_spec", with_barrier_regions)
    assert_same_artifacts(tmp_path, Case(BARRIER, f"file:{path}", "discontinuity", "dense"))
