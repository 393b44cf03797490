"""The benchmark's workloads: the `sushi solve` cases one pass runs.

One operation is one case.  The reasons for each workload's make-up are
in README.md; the per-case numbers that the checks need (expected cell
count, ladder family and level) are kept here beside the case itself.
"""

from __future__ import annotations

from dataclasses import dataclass

# Work directory, relative to the checkout root, for outputs and the
# mesh file of the `file:` case.  Relative, so the `file:` label recorded
# in manifests is the same in every checkout.
WORK_DIR = ".perfbench_work"
MESH_FILE = f"{WORK_DIR}/ncrect16.mesh"
MESH_FILE_LEVEL = 16

SMOOTH = "anisotropic-smooth"
BARRIER = "tilted-barrier"
BARRIER_CELLS = {1: 210, 2: 1000, 3: 250}


@dataclass(frozen=True)
class Case:
    problem: str
    mesh: str
    policy: str
    method: str = "cg"
    tol: float = 1e-12

    @property
    def id(self) -> str:
        kind, _, arg = self.mesh.partition(":")
        if kind == "file":
            arg = f"ncrect{MESH_FILE_LEVEL}"
        return f"{kind}-{arg}-{self.method}"

    @property
    def family(self) -> str:
        kind = self.mesh.partition(":")[0]
        return "ncrect" if kind == "file" else kind

    @property
    def level(self) -> int:
        kind, _, arg = self.mesh.partition(":")
        if kind == "file":
            return MESH_FILE_LEVEL
        return int(arg.partition("x")[0])

    @property
    def cells(self) -> int:
        n = self.level
        return {"rect": n * n, "tri": 2 * n * n, "ncrect": 16 * n * n,
                "barrier": BARRIER_CELLS.get(n, 0)}[self.family]

    def argv(self, out: str) -> list[str]:
        return ["solve", "--problem", self.problem, "--mesh", self.mesh,
                "--policy", self.policy, "--method", self.method,
                "--tol", repr(self.tol), "--out", out]


@dataclass(frozen=True)
class Workload:
    cases: tuple[Case, ...]
    largest: str  # id of the case reported as largest_case_s
    warmup: Case  # small untimed case run in every pass process first


def _ladder(policy: str, meshes: list[str]) -> tuple[Case, ...]:
    return tuple(Case(SMOOTH, m, policy) for m in meshes)


WORKLOADS = {
    "cellcentred-ladder": Workload(
        cases=_ladder("all-barycentric", [
            "rect:32x32", "rect:64x64", "rect:128x128",
            "tri:16", "tri:32", "tri:64",
            "ncrect:4", "ncrect:8", f"file:{MESH_FILE}",
        ]),
        largest="rect-128x128-cg",
        warmup=Case(SMOOTH, "rect:8x8", "all-barycentric"),
    ),
    "hybrid-ladder": Workload(
        cases=_ladder("all-hybrid", [
            "rect:32x32", "rect:64x64", "rect:96x96", "rect:128x128",
        ]),
        largest="rect-128x128-cg",
        warmup=Case(SMOOTH, "rect:8x8", "all-hybrid"),
    ),
    "barrier-composite": Workload(
        cases=tuple(
            Case(BARRIER, f"barrier:{v}", "discontinuity", method)
            for method in ("cg", "dense") for v in (1, 2, 3)
        ),
        largest="barrier-2-cg",
        warmup=Case(BARRIER, "barrier:1", "discontinuity"),
    ),
}
