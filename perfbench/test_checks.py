"""Self-test of the benchmark's checks and per-case cap.

    python3 -m pytest perfbench/test_checks.py -q

Each check must reject a deliberately wrong output, and a case that runs
past the cap must be stopped and counted without stopping the pass.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_case, check_ladder, check_pass  # noqa: E402
from workloads import BARRIER, SMOOTH, Case  # noqa: E402
from worker import run_capped, sushi_main  # noqa: E402


@pytest.fixture
def work():
    path = ROOT / ".perfbench_selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


def solve(case: Case, out: Path) -> Path:
    assert sushi_main(case.argv(str(out))) == 0
    return out


def test_barrier_vtk_with_one_moved_cell_value_is_rejected(work):
    case = Case(BARRIER, "barrier:1", "discontinuity", "dense")
    out = solve(case, work / case.id)
    assert check_case(case, out)[0] == []

    vtk = out / "solution.vtk"
    lines = vtk.read_text(encoding="utf-8").splitlines()
    at = lines.index("SCALARS u double 1") + 2 + 17
    lines[at] = repr(float(lines[at]) + 1e-6)
    vtk.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems, _ = check_case(case, out)
    assert any("max cell error" in p for p in problems)


def test_ladder_with_finest_level_replaced_by_middle_fails_order_check(work):
    cases = [Case(SMOOTH, f"rect:{n}x{n}", "all-barycentric") for n in (8, 16, 32)]
    statuses = {c.id: "ok" for c in cases}
    for c in cases:
        solve(c, work / c.id)
    assert check_pass(cases, statuses, work) == []

    samples = [check_case(c, work / c.id)[1] for c in cases]
    samples[2] = dict(samples[1], h=samples[2]["h"])
    problems = check_ladder(samples)
    assert any("l2: fitted order" in p for p in problems)

    # Copying the middle level's outputs over the finest is caught as well.
    shutil.rmtree(work / cases[2].id)
    shutil.copytree(work / cases[1].id, work / cases[2].id)
    assert check_pass(cases, statuses, work) != []


def test_call_past_the_cap_is_one_failed_operation_and_the_pass_goes_on():
    calls = [lambda: time.sleep(5.0), lambda: 0, lambda: 0]
    t0 = time.perf_counter()
    results = [run_capped(fn, cap=0.2) for fn in calls]
    assert time.perf_counter() - t0 < 2.0
    statuses = [status for status, _ in results]
    assert statuses == ["capped", "ok", "ok"]
    assert sum(s != "ok" for s in statuses) == 1
    assert 0.2 <= results[0][1] < 1.0
    time.sleep(0.3)  # the timer is disarmed after each call
