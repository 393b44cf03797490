"""Benchmark of `sushi solve`: three workloads, timed end to end and per module.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload hybrid-ladder --seed 3 --seconds 10 --trace 0

Run from anywhere; it works in the checkout that holds this file and
builds nothing (the program is put on PYTHONPATH from ``src``).  Each pass
of a workload runs in a fresh process (worker.py).  Untraced (``--trace
0``), passes are repeated until ``--seconds`` have gone by and the
end-to-end metrics are the medians over passes.  Traced (``--trace 1``),
one untraced and one traced pass are run, their outputs must agree byte
for byte, and the per-layer metrics come from the traced pass.  Every
successful case's outputs are checked by checks.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_pass
from workloads import WORK_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# One BLAS thread: with more, the first large reduction in a fresh process
# sometimes stalls for ~0.9 s while OpenBLAS starts its threads.
BLAS_THREADS = 1
# Per-case wall cap.  rect:128x128 all-hybrid needs ~8 s here once CG stops
# at its tolerance instead of crawling to the 10 n iteration cap.
CASE_CAP_S = 30.0
# Fresh processes that only import the program, for setup_s.
SETUP_PROBES = 5
# Every run ends well within 180 s; a pass that would end later is not begun.
DEADLINE_S = 170.0

# Per-layer metrics: (traced span or count) -> metric name.
SPAN_METRICS = {
    "geometry": "geometry.build_s",
    "spaces.weights": "spaces.weights_s",
    "assembly": "assembly.s",
    "solver.cg": "solver.cg_s",
    "solver.dense": "solver.dense_s",
    "postproc.reconstruct": "postproc.reconstruct_s",
    "postproc.errors": "postproc.errors_s",
    "postproc.fluxes": "postproc.fluxes_s",
    "gradient": "gradient.field_s",
    "vtkio": "vtkio.export_s",
}
COUNT_METRICS = ("geometry.cells", "geometry.faces", "spaces.weighted_faces",
                 "spaces.extended_faces", "assembly.N", "assembly.NM",
                 "solver.cg_iterations", "vtkio.bytes")
COMPARED_FILES = ("manifest.json", "report.csv", "solution.vtk")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process; return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--t0", repr(t0), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(name: str, order: list[int], tag: str, traced: bool,
             deadline: float) -> tuple[dict, list[str]]:
    """One pass in a fresh process, then the checks of its outputs."""
    out = ROOT / WORK_DIR / tag
    args = ["--workload", name, "--order", ",".join(map(str, order)),
            "--out", str(out.relative_to(ROOT)), "--cap", repr(CASE_CAP_S)]
    record = spawn(args + (["--trace"] if traced else []), deadline)
    statuses = {c["id"]: c["status"] for c in record["cases"]}
    return record, check_pass(list(WORKLOADS[name].cases), statuses, out)


def end_to_end(name: str, passes: list[dict], setups: list[float]) -> dict:
    largest = WORKLOADS[name].largest
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["pass_s"] for p in passes),
        "largest_case_s": statistics.median(
            c["wall_s"] for p in passes for c in p["cases"] if c["id"] == largest),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    """Sums over the traced pass's cases, plus glue and tracing overhead."""
    metrics = dict.fromkeys(list(SPAN_METRICS.values()) + list(COUNT_METRICS), 0.0)
    cg_ok_s, glue = 0.0, 0.0
    plain_wall = {c["id"]: c["wall_s"] for c in plain["cases"]}
    for case in traced["cases"]:
        for span, seconds in case["spans"].items():
            if span in SPAN_METRICS:
                metrics[SPAN_METRICS[span]] += seconds
        for key, value in case["counts"].items():
            metrics[key] += value
        if case["status"] == "ok":
            cg_ok_s += case["spans"].get("solver.cg", 0.0)
            glue += plain_wall[case["id"]] - sum(case["spans"].values())
    iters = metrics["solver.cg_iterations"]
    metrics["solver.s_per_iteration"] = cg_ok_s / iters if iters else 0.0
    metrics["cli.glue_s"] = glue
    metrics["trace.overhead_s"] = traced["pass_s"] - plain["pass_s"]
    return metrics


def compare_outputs(plain: dict, traced: dict) -> list[str]:
    """The traced pass must reproduce the untraced one exactly."""
    problems = []
    work = ROOT / WORK_DIR
    for a, b in zip(plain["cases"], traced["cases"]):
        if a["status"] != b["status"]:
            problems.append(f"{a['id']}: untraced {a['status']}, traced {b['status']}")
        elif a["status"] == "ok":
            for fname in COMPARED_FILES:
                if (work / "plain" / a["id"] / fname).read_bytes() != \
                        (work / "traced" / a["id"] / fname).read_bytes():
                    problems.append(f"{a['id']}: traced {fname} differs")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str]) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    order = list(range(len(WORKLOADS[name].cases)))
    random.Random(seed).shuffle(order)
    work = ROOT / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    spawn(["--probe"], deadline)  # untimed: warms the file cache and bytecode
    setups = [spawn(["--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    problems: list[str] = []
    passes: list[dict] = []
    if trace:
        plain, found = run_pass(name, order, "plain", False, deadline)
        traced, _ = run_pass(name, order, "traced", True, deadline)
        problems += found + compare_outputs(plain, traced)
        passes = [plain, traced]
        metrics = per_layer(plain, traced)
    else:
        t0 = time.monotonic()
        while True:
            began = time.monotonic()
            record, found = run_pass(name, order, f"pass{len(passes)}", False, deadline)
            passes.append(record)
            problems += found
            now = time.monotonic()
            if now - t0 >= seconds or now + (now - began) > deadline:
                break
        setups += [p["setup_s"] for p in passes]
        metrics = end_to_end(name, passes, setups)

    statuses = [c["status"] for p in passes for c in p["cases"]]
    for msg in problems:
        print(f"{name}: CHECK FAILED {msg}", file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": not problems,
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sushi solve benchmark")
    parser.add_argument("--workload", default="all",
                        choices=["all"] + sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sushi" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'sushi'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), units)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for n, res in results.items():
        print(f"{n}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={str(res['correct']).lower()}")
        for m, v in res["metrics"].items():
            print(f"  {m} = {v['value']:.6g} {v['unit']}")
    for res in results.values():
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
