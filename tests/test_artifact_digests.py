"""The artifacts of every benchmark case, byte for byte, as a tier-1 test.

``tests/golden/bench_artifacts.txt`` holds the lines ``tests/bench_artifacts.py``
prints (workload, case, exit code and the SHA-256 of each artifact), under
a header naming the platform they were recorded on.  The bytes depend on an
80-bit ``np.longdouble`` in the residual, on NumPy's pairwise summation and
on scipy's product order, so on another platform fingerprint the test
skips and names both fingerprints rather than comparing.

A change that alters artifacts on purpose regenerates the file with

    python3 tests/test_artifact_digests.py > tests/golden/bench_artifacts.txt
"""

from __future__ import annotations

import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "bench_artifacts.txt"
SCRIPT = HERE / "bench_artifacts.py"
ARTIFACTS = ("manifest.json", "report.csv", "solution.vtk")


def fingerprint() -> str:
    return (f"# fingerprint: machine={platform.machine()} "
            f"longdouble_nmant={np.finfo(np.longdouble).nmant} "
            f"numpy={np.__version__} scipy={scipy.__version__}")


def digest_lines(out: Path) -> list[str]:
    """The lines the script prints for the cases run under ``out``."""
    proc = subprocess.run([sys.executable, str(SCRIPT), str(out)], capture_output=True,
                          text=True, check=True, timeout=300)
    return proc.stdout.splitlines()


def test_every_benchmark_artifact_is_the_recorded_one(tmp_path):
    header, *want = GOLDEN.read_text().splitlines()
    if header != fingerprint():
        pytest.skip(f"{GOLDEN.name} was recorded on '{header}', this is '{fingerprint()}'")
    got = digest_lines(tmp_path)
    assert [line.split()[:2] for line in got] == [line.split()[:2] for line in want], \
        f"the cases run differ from those of {GOLDEN}"
    for got_line, want_line in zip(got, want):
        workload, case, code, *digests = got_line.split()
        _, _, want_code, *want_digests = want_line.split()
        assert code == want_code, f"{workload} {case}: exit code {code}, recorded {want_code}"
        changed = [name for name, a, b in zip(ARTIFACTS, digests, want_digests) if a != b]
        assert not changed, f"{workload} {case}: {', '.join(changed)} differ from {GOLDEN}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        print(fingerprint(), *digest_lines(Path(out)), sep="\n")
