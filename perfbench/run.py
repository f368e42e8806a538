"""coverkit benchmark: one workload run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload two-stage --seed 1 --seconds 30 --trace 0

Runs from the root of a coverkit checkout and builds nothing: the workload
imports ``src/coverkit`` directly.  Set-up is timed in nine probe processes,
then the workload runs in one single-threaded worker process (see
``worker.py``).  Every output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every check passed, 1 when the correctness gate
tripped, and 2 when the run could not be made at all.  A record of the run
(job parameters, seeds, digests, per-pass times, versions) is written under
``perfbench/_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_GAUGE_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "_out"
WORK = HERE / "_work"

PROBES = 9
DEADLINE_S = 170

END_TO_END_UNITS = {
    "build_s": "s", "verify_s": "s", "bounds_s": "s", "wall_s": "s",
    "rows": "count", "ok_share": "share", "setup_s": "s", "peak_rss_mib": "MiB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COVERKIT_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=worker_env(),
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coverkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def end_to_end(raw: dict, setups: list[float]) -> dict:
    """Each time is the fastest of the run's passes over the same rounds, at
    the nominal host speed."""
    passes = raw["passes"]
    best = lambda kind: min(p["scaled_seconds"].get(kind, 0.0) for p in passes)  # noqa: E731
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "build_s": best("build"),
        "verify_s": best("verify"),
        "bounds_s": best("bounds"),
        "wall_s": best("wall"),
        "rows": passes[0]["rows"],
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


REFERENCE_NOTE = {True: "matches digests.json", False: "differs from digests.json",
                  None: "no reference in digests.json"}


def matches_reference(args, digest: str) -> bool | None:
    """Whether the outputs equal those recorded in digests.json for this
    workload, seed and --seconds: an observation, not part of the gate."""
    path = HERE / "digests.json"
    if args.inject or not path.is_file():
        return None
    ref = json.loads(path.read_text(encoding="ascii"))
    if ref.get("seconds") != args.seconds:
        return None
    expected = ref.get("output_sha256", {}).get(args.workload, {}).get(str(args.seed))
    return None if expected is None else expected == digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("bad-array", "bad-bound"),
                    help="corrupt one output so the correctness gate must trip (self-test)")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "coverkit" / "__init__.py").is_file():
        return fail(f"no coverkit sources under {ROOT / 'src'}; run from a coverkit checkout")

    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    common = ["--workdir", str(workdir)]
    try:
        setups = []
        if not args.trace:
            for _ in range(PROBES):
                t0 = time.monotonic()
                probe = run_worker(["--probe", *common], timeout=60)
                setups.append((probe["ready"] - t0) * REF_GAUGE_S / probe["gauge"])
        job_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace), *common]
        if args.inject:
            job_args += ["--inject", args.inject]
        if args.trace:
            job_args += ["--spans", str(OUT / f"{tag}-spans.json")]
        raw = run_worker(job_args, timeout=DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        return fail(f"{args.workload} run failed: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = raw["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    metrics = raw["layer_metrics"] if args.trace else end_to_end(raw, setups)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": raw["rounds"],
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "cpu_count": raw["cpu_count"], "python": raw["python"], "numpy": raw["numpy"],
        "setup_probes_s": setups, "metrics": metrics, "errors": errors,
        "output_sha256": passes[0]["output_sha256"],
        "sweep_csv_sha256": passes[0].get("sweep_csv_sha256"),
        "pass_seconds": [p["seconds"] for p in passes],
        "pass_scaled_seconds": [p["scaled_seconds"] for p in passes],
        "jobs": passes[0]["jobs"],
    }
    record["matches_reference"] = matches_reference(args, record["output_sha256"])
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    print(f"perfbench {args.workload} seed={args.seed} rounds={raw['rounds']} "
          f"trace={args.trace} cpus={raw['cpu_count']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  output sha256 {record['output_sha256']} "
          f"({REFERENCE_NOTE[record['matches_reference']]})")
    for e in errors:
        print(f"  FAILED: {e}")
    print(f"  record {record_path.relative_to(ROOT)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
