"""Shows that the benchmark's correctness gate trips.

    python3 perfbench/selftest.py

1. Feeds a bad array and bad bound values through the gate's checks, and
   the matching good ones, which must pass.
2. Runs the benchmark with one output corrupted on purpose (``--inject``):
   a mutilated array on ``orbit-resample`` and a two_stage value above slj
   on ``bound-sweep``.  Each run must exit 1 and report ``"correct": false``.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   the benchmark's own files.  It must exit nonzero without a result line.

Prints one PASS/FAIL line per check and exits 0 only if all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

results: list[bool] = []


def report(name: str, ok: bool, detail: str):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


def expect(name: str, check, *, trips: bool):
    try:
        check()
    except worker.GateError as exc:
        report(name, trips, f"gate tripped: {exc}")
        return
    report(name, not trips, "gate passed")


def gate_checks():
    ck = worker.import_coverkit()
    params = ck.CAParams(3, 16, 4)
    array, _ = ck.construct.moser_tardos_build(
        params, ck.groups.make_frobenius(4), ck.BuildConfig(seed=1))
    good = ck.verify.full_check(array)
    bad, fixed = worker.mutilate(ck, array)
    bad_report = ck.verify.full_check(bad)

    expect("built array is covering", lambda: worker.check_verdict("built", good, True),
           trips=False)
    expect("mutilated array claimed covering",
           lambda: worker.check_verdict("mutilated", bad_report, True), trips=True)
    expect("mutilated array rejected with an uncovered witness",
           lambda: worker.check_rejection(ck, bad, fixed, bad_report), trips=False)
    expect("intact array passed off as the rejected copy",
           lambda: worker.check_rejection(ck, array, fixed, good), trips=True)

    expect("sweep row in order",
           lambda: worker.check_sweep_row({"k": 10, "discrete_slj": 90, "two_stage": 95,
                                           "slj": 100}), trips=False)
    expect("two_stage above slj",
           lambda: worker.check_sweep_row({"k": 10, "discrete_slj": 90, "two_stage": 101,
                                           "slj": 100}), trips=True)
    expect("discrete_slj above two_stage",
           lambda: worker.check_sweep_row({"k": 10, "discrete_slj": 96, "two_stage": 95,
                                           "slj": 100}), trips=True)
    known = {"slj": {"value": 17236}, "discrete_slj": {"value": 12853},
             "two_stage": {"value": 13162, "stage1_rows": 12402}}
    expect("(6,54,3) known values", lambda: worker.check_6_54_3(known), trips=False)
    off = dict(known, slj={"value": 17237})
    expect("(6,54,3) slj off by one", lambda: worker.check_6_54_3(off), trips=True)


def run_bench(cwd: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def injected_runs():
    for workload, fault in (("orbit-resample", "bad-array"), ("bound-sweep", "bad-bound")):
        rc, result = run_bench(ROOT, "--workload", workload, "--seconds", "1",
                               "--inject", fault)
        ok = rc == 1 and result is not None and result["correct"] is False
        report(f"{workload} with {fault}", ok,
               f"exit {rc}, correct={None if result is None else result['correct']}, "
               f"failed={None if result is None else result['failed']}")


def bare_directory():
    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, result = run_bench(bare, "--workload", "two-stage", "--seconds", "30")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    report("run without coverkit sources", rc != 0 and result is None,
           f"exit {rc}, result line {'printed' if result else 'absent'}")


def main() -> int:
    gate_checks()
    injected_runs()
    bare_directory()
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
