#!/usr/bin/env python3
"""Bound curves over k, written as CSV for external plotting.

Reproduces three characteristic pictures at t=6, v=3:

* slj vs discrete_slj vs two_stage over a wide k range,
* the two-stage objective as a function of the stage-1 size n at k=54,
  whose minimum (13,162 rows at n=12,402) beats the one-shot bound,
* the conditional-LLL two-stage bound against the plain local lemma
  bound, which it beats up to a crossover in the low hundreds of k.
"""

import csv
import sys

from coverkit import CAParams, bounds

OUT = sys.argv[1] if len(sys.argv) > 1 else "."


def sweep_main_bounds(path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "slj", "discrete_slj", "two_stage"])
        for k in range(10, 1001, 15):
            p = CAParams(6, k, 3)
            w.writerow(
                [
                    k,
                    bounds.slj_bound(p).value,
                    bounds.discrete_slj_bound(p)[0].value,
                    bounds.two_stage_bound(p).value,
                ]
            )
    print(f"wrote {path}")


def sweep_objective_curve(path: str) -> None:
    p = CAParams(6, 54, 3)
    center = bounds.two_stage_bound(p).stage1_rows
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "objective"])
        ns = range(center - 800, center + 801, 4)
        w.writerows(zip(ns, bounds.two_stage_objectives(p, ns)))
    print(f"wrote {path} (minimum at n={center})")


def sweep_conditional(path: str) -> None:
    crossover = None
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "conditional_lll", "conditional_lll_density", "gss"])
        for k in range(10, 501, 5):
            p = CAParams(6, k, 3)
            one = bounds.conditional_lll_two_stage_bound(p, "one_row_each").value
            dens = bounds.conditional_lll_two_stage_bound(p, "discrete_slj").value
            plain = bounds.gss_lll_bound(p).value
            if crossover is None and one >= plain:
                crossover = k
            w.writerow([k, one, dens, plain])
    print(f"wrote {path} (one-row-each crossover near k={crossover})")


def main() -> None:
    sweep_main_bounds(f"{OUT}/sweep_t6_v3.csv")
    sweep_objective_curve(f"{OUT}/two_stage_objective_t6_k54_v3.csv")
    sweep_conditional(f"{OUT}/conditional_vs_plain_t6_v3.csv")


if __name__ == "__main__":
    main()
