#!/usr/bin/env python3
"""Orbit resampling walkthrough.

The resampling builder keeps an n x k random array and scans column t-sets
in colex order.  Whenever an orbit of tuples with at least l distinct
symbols (l = 2 for the Frobenius group) is uncovered on a set, it redraws
those t columns entirely and scans again from C(a, t), the first set
ending at a, the lowest column it redrew: every set before that holds no
redrawn column and was already hit.  At the row count the local lemma
prescribes, Moser and Tardos bound the expected number of redraws by
C(k, t) / d, d + 1 being the dependence factor of the bound; the mean over
seeds 0-5 is printed beside it.  The witness trace below names the column
set of each redraw (the last 16 at most).
"""

from math import comb

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
        f"{action.sharp_transitivity} distinct symbols on all {comb(p.k, p.t)} column triples"
    )
    print(
        f"stage-1 rows n={plan.stage1_rows}; after development x{action.order} "
        f"plus {p.v} constant rows the bound is {plan.value} rows\n"
    )

    counts = []
    for seed in range(6):
        array, log = moser_tardos_build(p, action, BuildConfig(seed=seed))
        ok = full_check(array).is_covering
        trace = ", ".join(f"set#{pos}" for pos in log.resample_witness) or "none"
        print(
            f"seed {seed}: {log.resample_count} resamples ({trace}); "
            f"{array.n_rows} rows, covering={ok}"
        )
        counts.append(log.resample_count)

    d = plan.notes["d_plus_1"] - 1
    sets = comb(p.k, p.t)
    print(
        f"\nmean resamples over seeds 0-{len(counts) - 1}: {sum(counts) / len(counts):.2f}; "
        f"Moser-Tardos bound C(k,t)/d = {sets}/{d} = {sets / d:.2f}"
    )
    print("Each resample redraws all n entries of the offending t columns;")
    print("the scan then starts again at C(a, t), the first column set ending at")
    print("the lowest redrawn column a: no set before it holds a redrawn column.")


if __name__ == "__main__":
    main()
