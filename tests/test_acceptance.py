"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.

Criterion 6a checks the bound ordering discrete_slj <= two_stage < slj
pointwise at (t=6, v=3).  Proof of the non-strict part: with y = 1 - 1/v**t,
each recurrence step gives r(i) <= floor(y*r(i-1)) <= r(i-1) - 1, so
r(n) <= floor(M*y**n) and the step count is at most
n + floor(M*y**n) = two_stage_objective(n) for every n, hence at most the
two-stage minimum; and two_stage_objective(slj) == slj.  The strict
two_stage < slj is the alteration bound's improvement over SLJ.
"""

import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

from coverkit import bounds
from coverkit.construct import (
    BuildConfig,
    count_uncovered,
    moser_tardos_build,
    random_array,
    two_stage_build,
)
from coverkit.core import CAParams
from coverkit.groups import enumerate_orbits, make_cyclic, make_frobenius, make_pgl
from coverkit.verify import exhaustive_can, full_check


def _leftover_counts(start: int, vt: int) -> list[int]:
    """r(0..N) of the leftover recurrence in its two-branch form, with
    y = 1 - 1/v**t: floor(y*r) on the first step and whenever v**t does not
    divide r, y*r - 1 on the other steps."""
    counts = [start]
    while counts[-1] > 0:
        r = counts[-1]
        counts.append(r * (vt - 1) // vt - (len(counts) > 1 and r % vt == 0))
    return counts


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {name}: {detail}"


def test_criterion_1_bound_regression():
    t0 = time.perf_counter()
    p = CAParams(6, 54, 3)
    slj = bounds.slj_bound(p).value
    two = bounds.two_stage_bound(p)
    elapsed = time.perf_counter() - t0
    ok = slj == 17236 and two.value == 13162 and two.stage1_rows == 12402 and elapsed < 1.0
    _report(
        "1 bound regression",
        ok,
        f"slj={slj} two_stage={two.value}@n={two.stage1_rows} in {elapsed:.3f}s",
    )


def test_criterion_2_discrete_slj_sandwich():
    t0 = time.perf_counter()
    violations = []
    for t in (2, 3):
        for v in (2, 3):
            for k in range(4, 21):
                p = CAParams(t, k, v)
                rep, trace = bounds.discrete_slj_bound(p)
                n = rep.value
                c = math.comb(k, t)
                vt = p.tuple_count
                lower_ok = vt**n > (c + 1) * (vt - 1) ** n
                eps = trace.least_deficit
                ref = _leftover_counts(p.interaction_space_size, vt)
                eps_ok = eps == min(Fraction(r * (vt - 1), vt) - nxt
                                    for r, nxt in zip(ref[1 : n - 1], ref[2:n]))
                a, b = eps.numerator, eps.denominator
                upper_ok = a * vt**n <= (b * c + a) * (vt - 1) ** n
                if not (lower_ok and upper_ok and eps_ok):
                    violations.append((t, v, k, lower_ok, upper_ok, eps_ok))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 10.0
    _report(
        "2 discrete-slj sandwich",
        ok,
        f"68 parameter triples, exact arithmetic, {elapsed:.2f}s"
        + (f"; violations: {violations}" if violations else ""),
    )


def test_criterion_3_orbit_census():
    t0 = time.perf_counter()
    problems = []
    for v in (2, 3, 4, 5):
        for t in (2, 3):
            table = enumerate_orbits(make_cyclic(v), t)
            if table.n_orbits != v ** (t - 1) or set(table.lengths) != {v}:
                problems.append(("cyclic", t, v))
            if sum(table.lengths) != v**t:
                problems.append(("cyclic-sum", t, v))

            if v in (2, 3, 4, 5):  # all prime powers
                table = enumerate_orbits(make_frobenius(v), t)
                counts = Counter(table.lengths)
                full = (v ** (t - 1) - 1) // (v - 1)
                expected = Counter({v * (v - 1): full})
                expected[v] += 1
                if counts != expected:
                    problems.append(("frobenius", t, v, dict(counts)))
                if sum(table.lengths) != v**t:
                    problems.append(("frobenius-sum", t, v))

            if v >= 3 and v - 1 in (2, 3, 4):
                table = enumerate_orbits(make_pgl(v), t)
                counts = Counter(table.lengths)
                full = (v ** (t - 1) - (v - 1) * (2 ** (t - 1) - 1) - 1) // ((v - 1) * (v - 2))
                if counts[v * (v - 1) * (v - 2)] != full and not (
                    v == 3  # v(v-1)(v-2) = 6 = v(v-1) when v=3: lengths collide
                ):
                    problems.append(("pgl-full", t, v, dict(counts)))
                if v > 3 and counts[v * (v - 1)] != 2 ** (t - 1) - 1:
                    problems.append(("pgl-two", t, v, dict(counts)))
                if sum(table.lengths) != v**t:
                    problems.append(("pgl-sum", t, v))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    _report(
        "3 orbit census",
        ok,
        f"v in 2..5, t in 2..3, exhaustive, {elapsed:.2f}s"
        + (f"; problems: {problems}" if problems else ""),
    )


def test_criterion_4_constructive_soundness():
    t0 = time.perf_counter()
    param_grid = [CAParams(2, 4, 2), CAParams(2, 6, 3), CAParams(3, 5, 2), CAParams(2, 5, 4)]
    strategies = ("two_stage", "mt_cyclic", "mt_frobenius")
    runs = 0
    failures = []
    for p in param_grid:
        for strategy in strategies:
            for seed in range(17):
                config = BuildConfig(seed=seed)
                if strategy == "two_stage":
                    arr, log = two_stage_build(p, config)
                elif strategy == "mt_cyclic":
                    arr, log = moser_tardos_build(p, make_cyclic(p.v), config)
                else:
                    arr, log = moser_tardos_build(p, make_frobenius(p.v), config)
                runs += 1
                structural = (
                    log.total_rows
                    == log.stage1_rows * log.group_order + log.short_orbit_rows + log.stage2_rows
                )
                if not (
                    log.success
                    and structural
                    and log.total_rows == arr.n_rows
                    and full_check(arr).is_covering
                ):
                    failures.append((p, strategy, seed))
    elapsed = time.perf_counter() - t0
    ok = runs >= 200 and not failures and elapsed < 120.0
    _report(
        "4 constructive soundness",
        ok,
        f"{runs} seeded runs verified in {elapsed:.1f}s"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )


def test_criterion_5_oracle_agreement():
    t0 = time.perf_counter()
    mismatches = []
    for k in range(2, 7):
        got = exhaustive_can(CAParams(2, k, 2), 8)
        want = bounds.katona_kleitman_exact(k)
        if got != want:
            mismatches.append((k, got, want))

    rng = np.random.default_rng(123)
    disagreements = 0
    for _ in range(100):
        t = int(rng.integers(2, 4))
        k = t + int(rng.integers(0, 4))
        v = int(rng.integers(2, 4))
        p = CAParams(t, k, v)
        arr = random_array(p, int(rng.integers(0, 10)), seed=int(rng.integers(2**31)))
        if full_check(arr).uncovered_count != count_uncovered(arr):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = not mismatches and disagreements == 0 and elapsed < 60.0
    _report(
        "5 oracle agreement",
        ok,
        f"exhaustive==formula for k=2..6, 100 cross-checked arrays, {elapsed:.1f}s"
        + (f"; mismatches: {mismatches}, disagreements: {disagreements}" if mismatches or disagreements else ""),
    )


def test_criterion_6a_pointwise_bound_ordering():
    # discrete_slj <= two_stage < slj pointwise at (t=6, v=3): the recurrence
    # retires at least one leftover per step, so its step count is at most
    # n + floor(M*y^n) for every n, i.e. at most two_stage, and
    # two_stage_objective(slj) == slj (see module docstring).
    t0 = time.perf_counter()
    grid = list(range(10, 1001, 45))
    violations = []
    for k in grid:
        p = CAParams(6, k, 3)
        slj = bounds.slj_bound(p).value
        dslj = bounds.discrete_slj_bound(p)[0].value
        two = bounds.two_stage_bound(p).value
        broken = []
        if dslj > two:
            broken.append("discrete_slj <= two_stage")
        if two >= slj:
            broken.append("two_stage < slj")
        if broken:
            violations.append((k, dslj, two, slj, broken))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 30.0
    detail = f"grid of {len(grid)} k values in {elapsed:.1f}s"
    if violations:
        k, dslj, two, slj, broken = violations[0]
        detail += (
            f"; {' and '.join(broken)} broken at {len(violations)}/{len(grid)} points, "
            f"first at (k, discrete_slj, two_stage, slj) = ({k}, {dslj}, {two}, {slj})"
        )
    _report("6a figure ordering discrete_slj <= two_stage < slj", ok, detail)


def test_criterion_6b_coefficient_ordering():
    t0 = time.perf_counter()
    f = bounds.asymptotic_coefficient("frobenius", 6, 3)
    c = bounds.asymptotic_coefficient("cyclic", 6, 3)
    g = bounds.asymptotic_coefficient("gss", 6, 3)
    elapsed = time.perf_counter() - t0
    ok = f < c < g and elapsed < 30.0
    _report(
        "6b coefficient ordering",
        ok,
        f"frobenius={f:.1f} < cyclic={c:.1f} < gss={g:.1f} at (t=6,v=3)",
    )


def test_criterion_6c_conditional_crossover():
    t0 = time.perf_counter()
    crossover = None
    below_ok = True
    for k in range(10, 1001, 2):
        p = CAParams(6, k, 3)
        cond = bounds.conditional_lll_two_stage_bound(p, "one_row_each").value
        plain = bounds.gss_lll_bound(p).value
        if cond < plain:
            if crossover is not None:
                below_ok = False  # curve dipped back after crossing
        elif crossover is None:
            crossover = k
        if crossover is not None and k > 450:
            break
    elapsed = time.perf_counter() - t0
    ok = crossover is not None and 100 <= crossover <= 400 and below_ok and elapsed < 30.0
    _report(
        "6c conditional-LLL crossover",
        ok,
        f"conditional beats plain LLL up to k={crossover} (accepted range 100..400), {elapsed:.1f}s",
    )


def test_criterion_7_moser_tardos_liveness():
    t0 = time.perf_counter()
    p = CAParams(3, 8, 3)
    action = make_frobenius(3)
    resample_counts = []
    successes = 0
    for seed in range(100):
        _, log = moser_tardos_build(p, action, BuildConfig(seed=seed))
        resample_counts.append(log.resample_count)
        if log.success:
            successes += 1
    elapsed = time.perf_counter() - t0
    ok = successes >= 99 and elapsed < 120.0
    _report(
        "7 moser-tardos liveness",
        ok,
        f"{successes}/100 seeds under cap; resamples min/mean/max = "
        f"{min(resample_counts)}/{sum(resample_counts)/100:.2f}/{max(resample_counts)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_memory_contract(monkeypatch):
    monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "64")
    p = CAParams(4, 40, 3)
    tracemalloc.start()
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    arr, log = two_stage_build(p, BuildConfig(seed=0))
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    leftover = count_uncovered(arr)
    # independent spot verification on a sample of column sets
    rng = np.random.default_rng(1)
    rows = [tuple(int(x) for x in r) for r in arr.cells]
    sample = rng.choice(math.comb(40, 4), size=200, replace=False)
    all_sets = list(combinations(range(40), 4))
    spot_ok = True
    for idx in sample:
        cols = all_sets[int(idx)]
        seen = set()
        for row in rows:
            seen.add(tuple(row[c] for c in cols))
        if len(seen) != 81:
            spot_ok = False
    cap = 64 * (1 << 20)
    ok = log.success and leftover == 0 and spot_ok and peak < cap
    _report(
        "8 memory contract",
        ok,
        f"built {arr.n_rows}x40 in {elapsed:.1f}s, peak {peak / (1 << 20):.1f} MiB "
        f"under 64 MiB cap, leftover={leftover}",
    )
