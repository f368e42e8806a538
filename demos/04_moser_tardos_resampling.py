#!/usr/bin/env python3
"""Orbit resampling walkthrough.

The resampling builder keeps an n x k random array and scans column t-sets
in a fixed order.  Whenever an orbit of tuples with at least l distinct
symbols (l = 2 for the Frobenius group) is uncovered on a set, it redraws
those t columns entirely and restarts the scan.  At the row
count the local lemma prescribes, the expected number of redraws is small;
the witness trace below names the column set of each (the last 16 at most).
"""

from coverkit import CAParams, bounds
from coverkit.construct import BuildConfig, moser_tardos_build
from coverkit.groups import make_frobenius
from coverkit.verify import full_check


def main() -> None:
    p = CAParams(t=3, k=8, v=3)
    action = make_frobenius(3)
    plan = bounds.frobenius_lll_bound(p)
    print(
        f"t={p.t}, k={p.k}, v={p.v}: resample target is every orbit with at least "
        f"{action.sharp_transitivity} distinct symbols on all {8*7*6//6} column triples"
    )
    print(
        f"stage-1 rows n={plan.stage1_rows}; after development x{action.order} "
        f"plus {p.v} constant rows the bound is {plan.value} rows\n"
    )

    for seed in range(6):
        array, log = moser_tardos_build(p, action, BuildConfig(seed=seed))
        ok = full_check(array).is_covering
        trace = ", ".join(f"set#{pos}" for pos in log.resample_witness) or "none"
        print(
            f"seed {seed}: {log.resample_count} resamples ({trace}); "
            f"{array.n_rows} rows, covering={ok}"
        )

    print("\nEach resample redraws all n entries of the offending t columns;")
    print("the scan then restarts from the first column set.")


if __name__ == "__main__":
    main()
