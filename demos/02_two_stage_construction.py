#!/usr/bin/env python3
"""Two-stage construction walkthrough.

Stage 1 draws random arrays of the size that minimizes the completed total,
retrying until the leftover count is within the expected-value target.
Stage 2 patches the surviving uncovered interactions: one dedicated row
each, or first-fit colouring, which puts each leftover into the first
patch row that agrees with it.  Both start from the same stage-1 array
for a given seed.  The verifier then confirms the result independently.
"""

from coverkit import CAParams, bounds
from coverkit.construct import BuildConfig, count_uncovered, two_stage_build
from coverkit.verify import full_check


def main() -> None:
    p = CAParams(t=2, k=10, v=2)
    plan = bounds.two_stage_bound(p)
    print(f"Target: covering array for t={p.t}, k={p.k}, v={p.v}")
    print(
        f"Plan: {plan.stage1_rows} random rows, expecting about "
        f"{plan.expected_leftover:.0f} leftovers, total bound {plan.value} rows"
    )
    print(f"For scale, the one-shot random bound needs {bounds.slj_bound(p).value} rows.\n")

    array, log = two_stage_build(p, BuildConfig(seed=2024))
    for line in log.summary_lines():
        print(line)

    report = full_check(array)
    print(f"\nverifier: covering={report.is_covering}, uncovered={report.uncovered_count}")
    print(f"streaming counter agrees: {count_uncovered(array)} uncovered")
    assert report.is_covering
    assert array.n_rows <= plan.value

    coloured, colour_log = two_stage_build(p, BuildConfig(seed=2024, second_stage="colour"))
    print(f"\nstage 2 from the same {log.uncovered_after_stage1} leftovers:")
    print(f"  one_row_each {log.stage2_rows} rows")
    print(f"  colour       {colour_log.stage2_rows} rows")
    assert full_check(coloured).is_covering
    assert colour_log.stage2_rows <= log.stage2_rows

    print(f"\nThe exact optimum here is CAN(2,10,2) = {bounds.katona_kleitman_exact(10)};")
    print(f"the builds used {array.n_rows} and {coloured.n_rows} rows against the bound's {plan.value}.")


if __name__ == "__main__":
    main()
