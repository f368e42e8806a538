"""One workload run in one process.

``run.py`` starts this file once per run (and a few times with ``--probe``
to time set-up).  It imports coverkit from the checkout's ``src``, runs the
workload's rounds, checks every output, and prints one JSON object as the
last line of its standard output: per pass, the seconds per job kind (raw
and scaled to the nominal host speed), rows, counts, digests and errors.
With ``--trace 1`` it runs the same rounds twice, once plain and once with
layer spans, and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("two-stage", "orbit-resample", "bound-sweep")

# A run makes up to PASSES passes over the same rounds, as many as fit in
# --seconds; each end-to-end time is that of the fastest pass.  The nominal
# seconds of one round on a 2-core Xeon VM set the number of rounds, so
# the outputs of a run are fixed by (seed, seconds).
PASSES = 2
ROUND_SECONDS = {"two-stage": 1.6, "orbit-resample": 0.6, "bound-sweep": 1.9}

# host_gauge() on a quiet 2-core Xeon VM.  End-to-end times are scaled
# to this speed, which cancels most of the shared host's throughput swings.
REF_GAUGE_S = 0.0007

SWEEP_METHODS = ("slj,discrete_slj,two_stage,gss,cyclic,frobenius,pgl,"
                 "conditional_lll,conditional_lll_density")
SWEEP_K = (10, 1000, 15)  # --k 10:1000:15, split into interleaved slices

# Known values from the package's bound regression suite.
KNOWN_6_54_3 = {"slj": 17236, "two_stage": 13162, "two_stage_n": 12402}


def import_coverkit():
    sys.path.insert(0, str(SRC))
    import coverkit

    where = Path(coverkit.__file__).resolve().parent
    if where != SRC / "coverkit":
        raise ImportError(f"coverkit imported from {where}, not from {SRC}")
    return coverkit


class GateError(Exception):
    """An output contradicts what the workload expects of it."""


def rounds_for(workload: str, seconds: float) -> int:
    rounds = max(1, round(seconds / (PASSES * ROUND_SECONDS[workload])))
    if workload == "bound-sweep":
        lo, hi, step = SWEEP_K
        rounds = min(rounds, (hi - lo) // step + 1)
    return rounds


def _gauge_index(row, cols):
    i = 0
    for c in cols:
        i = i * 3 + row[c]
    return i


def host_gauge() -> float:
    """Seconds of a fixed mix of the package's kinds of work, the fastest of
    three: integer arithmetic, a row loop filling a bitmap (as ``full_check``
    does) and small numpy rank-and-scatter steps (as the builders do).  It
    tells how fast the shared host runs this process right now."""
    rows = [tuple((i * 7 + j * 3) % 3 for j in range(8)) for i in range(120)]
    cells = np.array(rows[:40], dtype=np.int32)
    weights = np.array([9, 3, 1], dtype=np.int64)
    col_sets = ((0, 1, 2), (1, 3, 5), (2, 4, 7), (0, 5, 6))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += (i * i) % 7
        for cols in col_sets:
            mask = bytearray(27)
            for row in rows:
                mask[_gauge_index(row, cols)] = 1
        for cols in col_sets * 10:
            seen = np.zeros(27, dtype=bool)
            seen[cells[:, cols].astype(np.int64) @ weights] = True
        best = min(best, time.perf_counter() - start)
    return best


def subseed(seed: int, *path: int) -> int:
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, *path]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def array_digest(array) -> str:
    p = array.params
    h = hashlib.sha256(f"CA {array.n_rows} {p.t} {p.k} {p.v}\n".encode("ascii"))
    h.update(np.ascontiguousarray(array.cells, dtype=np.uint8).tobytes())
    return h.hexdigest()


class Session:
    """State of one pass over a workload's rounds."""

    def __init__(self, ck, workdir: Path, tracer=None, inject=None):
        self.ck = ck
        self.workdir = workdir
        self.tracer = tracer
        self.inject = inject
        self.timings: list[tuple[str, float, float]] = []  # (kind, seconds, gauge before)
        self.rows = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.jobs: list[dict] = []
        self.sweep_lines: dict[int, str] = {}
        self.round = 0

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    @contextlib.contextmanager
    def chain(self, name: str):
        """Jobs that depend on each other; the first failure ends the chain."""
        try:
            yield
        except GateError as exc:
            self.fail(f"{name}: {exc}")
        except Exception as exc:  # any raise from the library is a failed operation
            self.fail(f"{name}: {type(exc).__name__}: {exc}")

    def timed(self, kind: str, fn, span: str | None = None):
        self.attempted += 1
        gauge = host_gauge()
        ctx = self.tracer.span(f"job.{span or kind}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with ctx:
            result = fn()
        self.timings.append((kind, time.perf_counter() - start, gauge))
        return result

    # -- jobs --------------------------------------------------------------
    def bounds(self, t: int, k: int, v: int, methods: str) -> dict:
        """`coverkit bounds --json` in-process; returns records by method."""
        argv = ["bounds", "-t", str(t), "-k", str(k), "-v", str(v),
                "--methods", methods, "--json"]
        rc, out = self.timed("bounds", lambda: self.cli(argv))
        if rc != 0:
            raise GateError(f"coverkit {' '.join(argv)} exited {rc}")
        return {rec["method"]: rec for rec in json.loads(out)["results"]}

    def cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.ck.cli.main(argv)
        return rc, buf.getvalue()

    def build(self, name: str, params, make, record: dict):
        """Builder call plus write_array; returns (array, log, path)."""
        path = self.workdir / f"{name}.ca"

        def call():
            array, log = make()
            self.ck.arrayfile.write_array(str(path), array)
            return array, log

        array, log = self.timed("build", call)
        if self.inject == "bad-array":
            self.inject = None
            self.ck.arrayfile.write_array(str(path), mutilate(self.ck, array)[0])
        if log is not None:
            if not log.success:
                raise GateError(f"build failed: {log.failure_reason}")
            if log.total_rows != array.n_rows:
                raise GateError(f"log says {log.total_rows} rows, array has {array.n_rows}")
            record.update(stage1_rows=log.stage1_rows, stage1_attempts=log.stage1_attempts,
                          resamples=log.resample_count)
        record.update(job=name, round=self.round, params=[params.t, params.k, params.v],
                      rows=array.n_rows, digest=array_digest(array))
        self.jobs.append(record)
        self.rows += array.n_rows
        return array, log, path

    def verify(self, path: Path, expect_covering: bool = True):
        """read_array plus full_check; the verdict must match the expectation."""
        def call():
            array = self.ck.arrayfile.read_array(str(path))
            return array, self.ck.verify.full_check(array)

        array, report = self.timed("verify", call, span="verify" if expect_covering else "reject")
        check_verdict(path.name, report, expect_covering)
        path.unlink()
        return array, report


def mutilate(ck, array):
    """The array without the rows matching one fixed interaction."""
    t = array.params.t
    fixed = ck.Interaction(tuple(range(t)), tuple(s % array.params.v for s in range(t)))
    match = (array.cells[:, list(fixed.columns)] == np.array(fixed.symbols)).all(axis=1)
    return ck.SymbolArray(array.params, array.cells[~match]), fixed


# -- correctness gate --------------------------------------------------------

def check_verdict(name: str, report, expect_covering: bool):
    if report.is_covering != expect_covering:
        want = "covering" if expect_covering else "not covering"
        raise GateError(f"{name}: full_check says is_covering={report.is_covering}, "
                        f"expected {want} ({report.uncovered_count} uncovered)")


def check_rejection(ck, bad, fixed, report):
    """The mutilated copy misses the removed interaction, and the verifier's
    witness is really uncovered."""
    if report.uncovered_count < 1 or ck.core.covers(bad, fixed):
        raise GateError("mutilated copy still covers the removed interaction")
    if report.first_witness is None or ck.core.covers(bad, report.first_witness):
        raise GateError(f"witness {report.first_witness} is covered")


def check_sweep_row(row: dict):
    ds, ts, slj = (int(row[m]) for m in ("discrete_slj", "two_stage", "slj"))
    if not ds <= ts <= slj:
        raise GateError(f"k={row['k']}: discrete_slj {ds}, two_stage {ts}, slj {slj} "
                        "break discrete_slj <= two_stage <= slj")


def check_6_54_3(recs: dict):
    got = {"slj": recs["slj"]["value"], "two_stage": recs["two_stage"]["value"],
           "two_stage_n": recs["two_stage"]["stage1_rows"]}
    if got != KNOWN_6_54_3:
        raise GateError(f"(6,54,3) gave {got}, expected {KNOWN_6_54_3}")
    if not recs["discrete_slj"]["value"] <= got["two_stage"]:
        raise GateError("(6,54,3): discrete_slj above two_stage")


# -- workloads -------------------------------------------------------------

TWO_STAGE_JOBS = ((3, 30, 3), (4, 16, 3))  # many sets and a 27-entry table; fewer, 81
DENSITY_JOB = (3, 10, 3)


def two_stage_round(s: Session, seed: int, r: int, rounds: int):
    ck = s.ck
    for j, (t, k, v) in enumerate(TWO_STAGE_JOBS):
        with s.chain(f"two_stage({t},{k},{v})"):
            bound = s.bounds(t, k, v, "two_stage")["two_stage"]
            params = ck.CAParams(t, k, v)
            config = ck.BuildConfig(seed=subseed(seed, r, j))
            array, log, path = s.build(
                f"two_stage-{t}-{k}-{v}", params,
                lambda: ck.construct.two_stage_build(params, config),
                {"config": {"seed": config.seed}})
            if log.stage1_rows != bound["stage1_rows"] or array.n_rows > bound["value"]:
                raise GateError(f"{array.n_rows} rows from n={log.stage1_rows}; bound is "
                                f"{bound['value']} at n={bound['stage1_rows']}")
            s.verify(path)
    t, k, v = DENSITY_JOB
    with s.chain(f"density({t},{k},{v})"):
        s.bounds(t, k, v, "discrete_slj")
        params = ck.CAParams(t, k, v)
        _, _, path = s.build(
            f"density-{t}-{k}-{v}", params,
            lambda: (ck.construct.density_build(ck.SymbolArray.empty(params)), None), {})
        s.verify(path)


MT_JOBS = (  # strategy, (t, k, v), share of the bound's stage-1 rows
    ("cyclic", (3, 20, 3), 0.85),
    ("frobenius", (3, 16, 4), 0.75),
)


def orbit_round(s: Session, seed: int, r: int, rounds: int):
    ck = s.ck
    for j, (kind, (t, k, v), share) in enumerate(MT_JOBS):
        with s.chain(f"mt_{kind}({t},{k},{v})"):
            bound = s.bounds(t, k, v, kind)[kind]
            params = ck.CAParams(t, k, v)
            n = int(share * bound["stage1_rows"])
            config = ck.BuildConfig(seed=subseed(seed, r, j), n_override=n)
            make_action = getattr(ck.groups, f"make_{kind}")
            array, log, path = s.build(
                f"mt_{kind}-{t}-{k}-{v}", params,
                lambda: ck.construct.moser_tardos_build(params, make_action(v), config),
                {"config": {"seed": config.seed, "n_override": n}})
            if array.n_rows != log.group_order * n + log.short_orbit_rows:
                raise GateError(f"{array.n_rows} rows from n={n} x{log.group_order}")
            array, _ = s.verify(path)
        if kind == "frobenius":
            with s.chain("mutilated"):
                bad, fixed = mutilate(ck, array)
                bad_path = s.workdir / "mutilated.ca"
                ck.arrayfile.write_array(str(bad_path), bad)
                bad, report = s.verify(bad_path, expect_covering=False)
                check_rejection(ck, bad, fixed, report)
    with s.chain("pgl(3,16,4)"):
        bound = s.bounds(3, 16, 4, "pgl")["pgl"]
        params = ck.CAParams(3, 16, 4)
        config = ck.BuildConfig(seed=subseed(seed, r, len(MT_JOBS)))
        _, log, path = s.build("pgl-3-16-4", params,
                               lambda: ck.construct.pgl_build(params, config),
                               {"config": {"seed": config.seed}})
        if log.stage1_rows != bound["stage1_rows"]:
            raise GateError(f"pgl stage 1 has {log.stage1_rows} rows, bound says "
                            f"{bound['stage1_rows']}")
        s.verify(path)


def sweep_round(s: Session, seed: int, r: int, rounds: int):
    lo, hi, step = SWEEP_K
    with s.chain(f"sweep slice {r}"):
        out = s.workdir / f"sweep-{r}.csv"
        argv = ["sweep", "-t", "6", "-v", "3", "--k", f"{lo + step * r}:{hi}:{step * rounds}",
                "--methods", SWEEP_METHODS, "--out", str(out)]
        rc, _ = s.timed("bounds", lambda: s.cli(argv))
        if rc != 0:
            raise GateError(f"coverkit {' '.join(argv)} exited {rc}")
        with open(out, newline="", encoding="ascii") as fh:
            lines = fh.read().splitlines(keepends=True)
        out.unlink()
        header = lines[0].strip().split(",")
        for line in lines[1:]:
            row = dict(zip(header, next(csv.reader([line]))))
            if s.inject == "bad-bound":
                s.inject = None
                row["two_stage"] = str(int(row["slj"]) + 1)
            check_sweep_row(row)
            s.sweep_lines[int(row["k"])] = line
        s.sweep_lines[-1] = lines[0]
    if r == 0:
        with s.chain("bounds(6,54,3)"):
            check_6_54_3(s.bounds(6, 54, 3, "slj,discrete_slj,two_stage,frobenius"))
        with s.chain("bounds(6,50,5)"):
            recs = s.bounds(6, 50, 5, "discrete_slj,two_stage,frobenius")
            if not recs["discrete_slj"]["value"] <= recs["two_stage"]["value"]:
                raise GateError("(6,50,5): discrete_slj above two_stage")
    with s.chain("spot build (6,10,3)"):
        # `coverkit build -t 6 -k 10 -v 3` at the CLI's default seed, once per
        # slice: the sweep's first two_stage value, realized and checked.
        ck = s.ck
        bound = s.bounds(6, 10, 3, "two_stage")["two_stage"]
        params = ck.CAParams(6, 10, 3)
        array, _, path = s.build("two_stage-6-10-3", params,
                                 lambda: ck.construct.two_stage_build(params, ck.BuildConfig()),
                                 {"config": {"seed": ck.DEFAULT_SEED}})
        if array.n_rows > bound["value"]:
            raise GateError(f"{array.n_rows} rows above the two_stage bound {bound['value']}")
        s.verify(path)


ROUNDS = {"two-stage": two_stage_round, "orbit-resample": orbit_round,
          "bound-sweep": sweep_round}


def run_pass(ck, workload, seed, rounds, workdir, tracer=None, inject=None) -> Session:
    s = Session(ck, workdir, tracer, inject)
    for r in range(rounds):
        s.round = r
        ROUNDS[workload](s, seed, r, rounds)
    s.timings.append(("end", 0.0, host_gauge()))
    return s


def totals(s: Session, *, scaled: bool) -> dict:
    """Seconds per job kind over the pass, raw or at the nominal host speed:
    each job's time times REF_GAUGE_S over the mean of the gauges taken just
    before it and just after it."""
    out = defaultdict(float)
    for (kind, secs, before), (_, _, after) in zip(s.timings, s.timings[1:]):
        factor = REF_GAUGE_S / ((before + after) / 2) if scaled else 1.0
        out[kind] += secs * factor
        out["wall"] += secs * factor
    return dict(out)


def summary(s: Session) -> dict:
    out = {
        "attempted": s.attempted,
        "failed": s.failed,
        "errors": s.errors,
        "seconds": totals(s, scaled=False),
        "scaled_seconds": totals(s, scaled=True),
        "rows": s.rows,
        "jobs": s.jobs,
    }
    if s.sweep_lines:
        text = "".join(s.sweep_lines[k] for k in sorted(s.sweep_lines))
        out["sweep_csv_sha256"] = hashlib.sha256(text.encode("ascii")).hexdigest()
    h = hashlib.sha256()
    for job in s.jobs:
        h.update(job["digest"].encode("ascii"))
    h.update(out.get("sweep_csv_sha256", "").encode("ascii"))
    out["output_sha256"] = h.hexdigest()
    return out


def warm_up(ck, workdir: Path):
    """One small call through every layer the workloads use."""
    with contextlib.redirect_stdout(io.StringIO()):
        ck.cli.main(["bounds", "-t", "2", "-k", "4", "-v", "3", "--methods",
                     "slj,discrete_slj,two_stage,cyclic,frobenius,pgl", "--json"])
    params = ck.CAParams(2, 4, 3)
    array, _ = ck.construct.two_stage_build(params, ck.BuildConfig(seed=0))
    path = workdir / "warm-up.ca"
    ck.arrayfile.write_array(str(path), array)
    ck.verify.full_check(ck.arrayfile.read_array(str(path)))
    path.unlink()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where the traced pass writes its spans")
    ap.add_argument("--inject", choices=("bad-array", "bad-bound"))
    ap.add_argument("--probe", action="store_true", help="time set-up only")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)

    ck = import_coverkit()
    import coverkit.cli  # noqa: F401  (imported by the CLI entry point, not by coverkit)

    warm_up(ck, workdir)
    if args.probe:
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "gauge": host_gauge()}))
        return 0

    rounds = rounds_for(args.workload, args.seconds)
    result = {
        "rounds": rounds,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    if not args.trace:
        passes = []
        start = time.monotonic()
        while len(passes) < PASSES:
            passes.append(run_pass(ck, args.workload, args.seed, rounds, workdir,
                                   inject=None if passes else args.inject))
            elapsed = time.monotonic() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break  # another pass would overrun --seconds
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracing import Tracer

        plain = run_pass(ck, args.workload, args.seed, rounds, workdir, inject=args.inject)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ck, args.workload, args.seed, rounds, workdir, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        metrics = tracer.layer_metrics(totals(traced, scaled=False)["wall"],
                                       totals(traced, scaled=True)["wall"]
                                       / totals(plain, scaled=True)["wall"] - 1)
        result["layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if args.spans:
            tracer.write(args.spans)
    result["passes"] = [summary(p) for p in passes]
    digests = {p["output_sha256"] for p in result["passes"]}
    if len(digests) > 1:
        result["passes"][-1]["failed"] += 1
        result["passes"][-1]["errors"].append("passes over the same rounds built different outputs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
