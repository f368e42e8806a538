#!/usr/bin/env python3
"""Summarise paired perfbench runs into one BENCH_<n>.json file.

    python3 tools/bench_summary.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \
        --out BENCH_6.json

Each checkout holds the records that ``perfbench/run.py`` wrote to its
``perfbench/_out/`` (untraced runs, one per workload and seed).  For every
workload and end-to-end metric named in ``BENCHMARK.json``, the file gives
the parent and change medians, their quartiles (``statistics.quantiles``,
exclusive method) and IQR, and how many seed pairs the change won, tied
and lost in the metric's better direction, and whether every paired run
wrote the same output (``outputs_identical``, by ``output_sha256``).  A
pair whose two runs used different ``--seconds`` is an error: the tool
exits nonzero naming the first such pair.  The seeds, and for each side
the git SHA and SHA-256 of the ``src/coverkit`` sources that the records
carry and ``os.cpu_count()`` of its runs, are recorded alongside, with
``all_match_digests``: whether every record that has a reference digest
(``perfbench/digests.json``) matched it, and ``without_reference``: how
many records have none (a seed past the reference set).  A record
has a git SHA only when its checkout has a ``.git`` (``git clone``); for an
uncommitted change it is null and the source digest identifies the code.

While it writes the file, the tool prints one line per workload and
metric: the parent and change medians, their ratio (change over parent,
"-" when the parent median is 0) and the wins/ties/losses of the change.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def out_dir(checkout: Path) -> Path:
    return checkout / "perfbench" / "_out"


def load_records(checkout: Path) -> dict:
    """(workload, seed) -> record, for every untraced run in the checkout."""
    out = {}
    for path in sorted(out_dir(checkout).glob("*.json")):
        rec = json.loads(path.read_text(encoding="ascii"))
        if isinstance(rec, dict) and rec.get("trace") == 0:
            out[(rec["workload"], rec["seed"])] = rec
    return out


def spread(values: list[float]) -> dict:
    # quantiles needs two points; one run is its own quartiles
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def side(records: dict) -> dict:
    # a seed without a reference digest has matches_reference null: it is
    # counted, not judged
    checked = [r["matches_reference"] for r in records.values()
               if r["matches_reference"] is not None]
    return {
        "git_sha": next(iter(records.values()))["git_sha"],
        "source_sha256": sorted({r["source_sha256"] for r in records.values()}),
        "cpu_count": sorted({r["cpu_count"] for r in records.values()}),
        "all_match_digests": all(checked),
        "without_reference": len(records) - len(checked),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="", help="free text stored with the summary")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent, change = load_records(args.parent), load_records(args.change)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        sys.exit(
            f"no untraced (workload, seed) record is in both {out_dir(args.parent)} "
            f"and {out_dir(args.change)}"
        )
    for key in pairs:
        if parent[key]["seconds"] != change[key]["seconds"]:
            sys.exit(
                f"workload {key[0]} seed {key[1]} ran at --seconds "
                f"{parent[key]['seconds']} in the parent and {change[key]['seconds']} "
                "in the change; pair runs made at the same --seconds"
            )

    workloads = {}
    for wl in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == wl]
        metrics = {}
        for name, direction in better.items():
            p = [parent[wl, s]["metrics"][name]["value"] for s in seeds]
            c = [change[wl, s]["metrics"][name]["value"] for s in seeds]
            sign = 1 if direction == "higher" else -1
            diffs = [sign * (b - a) for a, b in zip(p, c)]
            metrics[name] = {
                "unit": parent[wl, seeds[0]]["metrics"][name]["unit"],
                "better": direction,
                "parent": spread(p),
                "change": spread(c),
                "wins": sum(d > 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
                "losses": sum(d < 0 for d in diffs),
            }
        workloads[wl] = {
            "seeds": seeds,
            "outputs_identical": all(
                parent[wl, s]["output_sha256"] == change[wl, s]["output_sha256"] for s in seeds
            ),
            "metrics": metrics,
        }

    summary = {
        "note": args.note,
        "seconds": sorted({parent[k]["seconds"] for k in pairs}),
        "parent": side({k: parent[k] for k in pairs}),
        "change": side({k: change[k] for k in pairs}),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    for wl, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(summary_line(wl, name, m))


def summary_line(workload: str, name: str, m: dict) -> str:
    before, after = m["parent"]["median"], m["change"]["median"]
    ratio = f"{after / before:.3f}" if before else "-"
    return (f"{workload} {name}: parent {before:.6g} change {after:.6g} ratio {ratio} "
            f"w/t/l {m['wins']}/{m['ties']}/{m['losses']}")


if __name__ == "__main__":
    main()
