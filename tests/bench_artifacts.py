"""Run every benchmark case through `sushi solve` and print a digest of its outputs.

    python3 tests/bench_artifacts.py OUT

The cases are those of ``perfbench/workloads.py``, imported and not
changed: each runs once through ``sushi.cli.main`` with its own ``--out``
directory under ``OUT``, with the working directory at ``OUT``, so the
``file:`` case's mesh is written to ``OUT/.perfbench_work`` and its label
stays relative, as in the benchmark.  One line per case: workload, case
id, exit code and the SHA-256 of ``manifest.json``, ``report.csv`` and
``solution.vtk`` (``-`` for a missing file); the runs' own summaries are
not printed.  A change that keeps every artifact byte for byte prints the
same lines as its parent, so parity is one ``diff`` of the two printouts.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("manifest.json", "report.csv", "solution.vtk")

# One BLAS thread, as in the benchmark's worker processes.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sushi.cli import main as sushi_main  # noqa: E402
from sushi.generators import gen_nonconforming_rect  # noqa: E402
from sushi.meshfile import write_mesh  # noqa: E402
from workloads import MESH_FILE, MESH_FILE_LEVEL, WORKLOADS  # noqa: E402


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    Path(MESH_FILE).parent.mkdir(parents=True, exist_ok=True)
    write_mesh(gen_nonconforming_rect(MESH_FILE_LEVEL), MESH_FILE)
    for name, workload in WORKLOADS.items():
        for case in workload.cases:
            case_out = out / name / case.id
            with redirect_stdout(io.StringIO()):  # the run's own summary
                code = sushi_main(case.argv(str(case_out)))
            print(name, case.id, code, *(digest(case_out / f) for f in ARTIFACTS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
