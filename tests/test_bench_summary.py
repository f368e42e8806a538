"""Tests for tools/bench_summary.py on two small synthetic checkouts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_summary.py"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def write_records(checkout: Path, workload: str, values: dict[int, dict[str, float]], *,
                  seconds: float = 30.0, outputs: dict[int, str] | None = None,
                  matches: dict[int, bool | None] | None = None) -> None:
    """One untraced record per seed; metrics missing from values read 1.0,
    a seed's output digest is its own unless outputs names another, and it
    matches its reference digest unless matches says otherwise."""
    out = checkout / "perfbench" / "_out"
    out.mkdir(parents=True, exist_ok=True)
    for seed, given in values.items():
        rec = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "output_sha256": (outputs or {}).get(seed, f"out-{workload}-{seed}"),
            "trace": 0,
            "git_sha": None,
            "source_sha256": f"src-{checkout.name}",
            "cpu_count": 2,
            "matches_reference": (matches or {}).get(seed, True),
            "metrics": {
                m["name"]: {"value": given.get(m["name"], 1.0), "unit": m["unit"]}
                for m in END_TO_END
            },
        }
        (out / f"{workload}-seed{seed}.json").write_text(json.dumps(rec), encoding="ascii")


def summarise(tmp_path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--out", str(tmp_path / "bench.json")],
        capture_output=True, text=True, timeout=60,
    )


@pytest.fixture
def summary(tmp_path):
    write_records(tmp_path / "parent", "two-stage", {
        1: {"build_s": 2.0, "ok_share": 0.5},
        2: {"build_s": 3.0, "ok_share": 0.5},
        3: {"build_s": 4.0, "ok_share": 1.0},
    })
    write_records(tmp_path / "change", "two-stage", {
        1: {"build_s": 1.0, "ok_share": 1.0},  # both better
        2: {"build_s": 2.0, "ok_share": 1.0},  # both better
        3: {"build_s": 5.0, "ok_share": 1.0},  # slower; ok_share tied
        4: {"build_s": 9.0},                   # no parent record: not a pair
    })
    done = summarise(tmp_path)
    assert done.returncode == 0, done.stderr
    return json.loads((tmp_path / "bench.json").read_text(encoding="ascii"))


def test_medians_of_paired_seeds(summary):
    wl = summary["workloads"]["two-stage"]
    assert wl["seeds"] == [1, 2, 3]
    build, ok = wl["metrics"]["build_s"], wl["metrics"]["ok_share"]
    assert (build["parent"]["median"], build["change"]["median"]) == (3.0, 2.0)
    assert (ok["parent"]["median"], ok["change"]["median"]) == (0.5, 1.0)
    assert summary["change"]["source_sha256"] == ["src-change"]


def test_prints_one_line_per_workload_and_metric(tmp_path):
    write_records(tmp_path / "parent", "bound-sweep", {1: {"bounds_s": 0.04}, 2: {"bounds_s": 0.05}})
    write_records(tmp_path / "parent", "two-stage", {1: {"rows": 0.0}})
    write_records(tmp_path / "change", "bound-sweep", {1: {"bounds_s": 0.03}, 2: {"bounds_s": 0.05}})
    write_records(tmp_path / "change", "two-stage", {1: {"rows": 0.0}})
    done = summarise(tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 * len(END_TO_END)
    assert "bound-sweep bounds_s: parent 0.045 change 0.04 ratio 0.889 w/t/l 1/1/0" in lines
    assert "two-stage rows: parent 0 change 0 ratio - w/t/l 0/1/0" in lines
    assert "bound-sweep wall_s: parent 1 change 1 ratio 1.000 w/t/l 0/2/0" in lines


def test_wins_follow_the_better_direction(summary):
    metrics = summary["workloads"]["two-stage"]["metrics"]
    lower, higher = metrics["build_s"], metrics["ok_share"]
    assert (lower["better"], higher["better"]) == ("lower", "higher")
    assert (lower["wins"], lower["ties"], lower["losses"]) == (2, 0, 1)
    assert (higher["wins"], higher["ties"], higher["losses"]) == (2, 1, 0)


def test_no_pairs_exits_nonzero_naming_both_outs(tmp_path):
    write_records(tmp_path / "parent", "two-stage", {1: {}})
    write_records(tmp_path / "change", "orbit-resample", {1: {}})
    done = summarise(tmp_path)
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    assert str(tmp_path / "parent" / "perfbench" / "_out") in done.stderr
    assert str(tmp_path / "change" / "perfbench" / "_out") in done.stderr
    assert not (tmp_path / "bench.json").exists()


def test_outputs_identical_when_every_pair_agrees(summary):
    assert summary["workloads"]["two-stage"]["outputs_identical"] is True
    assert summary["seconds"] == [30.0]


def test_one_differing_output_is_flagged(tmp_path):
    write_records(tmp_path / "parent", "two-stage", {1: {}, 2: {}})
    write_records(tmp_path / "parent", "bound-sweep", {1: {}})
    write_records(tmp_path / "change", "two-stage", {1: {}, 2: {}}, outputs={2: "other"})
    write_records(tmp_path / "change", "bound-sweep", {1: {}})
    done = summarise(tmp_path)
    assert done.returncode == 0, done.stderr
    workloads = json.loads((tmp_path / "bench.json").read_text(encoding="ascii"))["workloads"]
    assert workloads["two-stage"]["outputs_identical"] is False
    assert workloads["bound-sweep"]["outputs_identical"] is True


def test_pairs_run_at_different_seconds_exit_nonzero(tmp_path):
    write_records(tmp_path / "parent", "two-stage", {1: {}, 2: {}}, seconds=20.0)
    write_records(tmp_path / "change", "two-stage", {1: {}, 2: {}}, seconds=30.0)
    done = summarise(tmp_path)
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    assert "workload two-stage seed 1" in done.stderr
    assert "20.0" in done.stderr and "30.0" in done.stderr
    assert not (tmp_path / "bench.json").exists()


def test_seeds_without_a_reference_are_counted_not_judged(tmp_path):
    # perfbench/run.py writes null for a seed past its reference digests
    write_records(tmp_path / "parent", "two-stage", {1: {}, 11: {}}, matches={11: None})
    write_records(tmp_path / "change", "two-stage", {1: {}, 11: {}, 12: {}},
                  matches={1: False, 11: None, 12: None})
    done = summarise(tmp_path)
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / "bench.json").read_text(encoding="ascii"))
    parent, change = summary["parent"], summary["change"]
    assert (parent["all_match_digests"], parent["without_reference"]) == (True, 1)
    assert (change["all_match_digests"], change["without_reference"]) == (False, 1)
