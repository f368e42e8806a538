"""Tests for the bound computations.

Derived expectations are either recomputed here with exact Fraction
arithmetic or cross-checked against independently evaluated inequalities;
regression values carry the arithmetic that produced them.
"""

import math
import sys
import threading
from collections.abc import Mapping
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import _numeric, bounds, limits
from coverkit.core import CAParams
from coverkit.errors import ResourceLimitError, UnsupportedParameterError


@st.composite
def small_params(draw, max_t=4, max_k=30, max_v=5):
    t = draw(st.integers(2, max_t))
    return CAParams(t, draw(st.integers(t, max_k)), draw(st.integers(2, max_v)))


def leftover_count(start, vt):
    """``bounds._leftover_count`` under the caps the environment sets now."""
    return bounds._leftover_count(start, vt, limits.Budget.from_env())


def reference_leftover_counts(start, vt):
    """r(0..N) of the leftover recurrence in its two-branch form: floor(y*r)
    on the first step and whenever v**t does not divide r, y*r - 1 on the
    other steps, with y = 1 - 1/v**t."""
    counts, first = [start], True
    while counts[-1] > 0:
        r = counts[-1]
        nxt = r * (vt - 1) // vt
        if not first and r % vt == 0:
            nxt -= 1
        counts.append(nxt)
        first = False
    return counts


def exact_two_stage_minimum(params, lo, hi):
    """(smallest minimizing n, minimum) of n + floor(M*y**n) over lo..hi,
    by exact big-integer arithmetic."""
    vt = params.tuple_count
    a, b = params.interaction_space_size * (vt - 1) ** lo, vt**lo
    best = None
    for n in range(lo, hi + 1):
        val = n + a // b
        if best is None or val < best[1]:
            best = (n, val)
        a, b = a * (vt - 1), b * vt
    return best


class TestSljBound:
    def test_reference_value_6_54_3(self):
        # C(54,6)*3^6 = 18,828,003,285 total interactions
        assert bounds.slj_bound(CAParams(6, 54, 3)).value == 17236

    def test_smallest_binary_case(self):
        # ceil(log 4 / log(4/3)) = ceil(4.8188) = 5
        assert bounds.slj_bound(CAParams(2, 2, 2)).value == 5

    def test_leftover_brackets_one(self):
        # 4*(3/4)^5 < 1 <= 4*(3/4)^4, by exact rationals
        n = bounds.slj_bound(CAParams(2, 2, 2)).value
        assert 4 * Fraction(3, 4) ** n < 1
        assert 4 * Fraction(3, 4) ** (n - 1) >= 1

    def test_exact_inequality_at_value(self):
        for t, k, v in [(2, 10, 2), (3, 8, 3), (2, 20, 4)]:
            p = CAParams(t, k, v)
            n = bounds.slj_bound(p).value
            m = p.interaction_space_size
            y = Fraction(p.tuple_count - 1, p.tuple_count)
            assert m * y**n < 1
            assert m * y ** (n - 1) >= 1


class TestDiscreteSlj:
    def test_tiny_trace(self):
        rep, trace = bounds.discrete_slj_bound(CAParams(2, 2, 2))
        assert reference_leftover_counts(trace.start, trace.tuple_count) == [4, 3, 2, 1, 0]
        assert rep.value == trace.steps == 4
        # interior deficits: 3/4 * 3 - 2 = 1/4 and 3/4 * 2 - 1 = 1/2
        assert trace.least_deficit == Fraction(1, 4)

    def test_first_deficit_zero(self):
        _, trace = bounds.discrete_slj_bound(CAParams(3, 6, 2))
        vt = trace.tuple_count
        r0, r1 = reference_leftover_counts(trace.start, vt)[:2]
        assert Fraction(r0 * (vt - 1), vt) - r1 == 0

    def test_deficits_in_unit_interval(self):
        _, trace = bounds.discrete_slj_bound(CAParams(2, 12, 3))
        vt = trace.tuple_count
        counts = reference_leftover_counts(trace.start, vt)
        assert all(0 <= Fraction(r * (vt - 1), vt) - nxt <= 1
                   for r, nxt in zip(counts, counts[1:]))
        assert 0 < trace.least_deficit <= 1

    def test_counts_strictly_decreasing(self):
        _, trace = bounds.discrete_slj_bound(CAParams(2, 12, 3))
        counts = reference_leftover_counts(trace.start, trace.tuple_count)
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_exact_divisor_step_subtracts_one(self):
        # r=4 with v^t=4 after the first row: next is y*r - 1 = 2
        _, trace = bounds.discrete_slj_bound(CAParams(2, 4, 2))
        counts = reference_leftover_counts(trace.start, trace.tuple_count)
        assert counts[0] == 24
        for i in range(1, len(counts) - 1):
            r = counts[i]
            if r % 4 == 0:
                assert counts[i + 1] == r * 3 // 4 - 1

    def test_never_above_slj(self):
        for t, k, v in [(2, 2, 2), (2, 10, 2), (3, 8, 3), (2, 15, 4)]:
            p = CAParams(t, k, v)
            rep, _ = bounds.discrete_slj_bound(p)
            assert rep.value <= bounds.slj_bound(p).value

    def test_sandwich_exact_sample(self):
        # estimate < N <= (log(C+eps) - log eps)/log x, exact rationals
        for t, k, v in [(2, 7, 2), (3, 9, 2), (2, 11, 3)]:
            p = CAParams(t, k, v)
            rep, trace = bounds.discrete_slj_bound(p)
            n = rep.value
            c = math.comb(k, t)
            vt = p.tuple_count
            assert vt**n > (c + 1) * (vt - 1) ** n  # lower, strict
            eps = trace.least_deficit
            ref = reference_leftover_counts(p.interaction_space_size, vt)
            assert eps == min(Fraction(r * (vt - 1), vt) - nxt
                              for r, nxt in zip(ref[1 : n - 1], ref[2:n]))
            a, b = eps.numerator, eps.denominator
            assert a * vt**n <= (b * c + a) * (vt - 1) ** n  # upper

    def test_regression_6_54_3(self):
        p = CAParams(6, 54, 3)
        rep, _ = bounds.discrete_slj_bound(p)
        assert rep.value == 12853
        assert rep.value > bounds.discrete_slj_estimate(p)

    @settings(max_examples=100, deadline=None, database=None)
    @given(small_params())
    @example(CAParams(6, 54, 3))
    def test_value_alone_never_walks(self, p):
        # reading the value, as a sweep does, leaves the walk to the least
        # deficit undone; the first read of either walks once, then it is kept
        rep, trace = bounds.discrete_slj_bound(p)
        assert rep.value == trace.steps
        assert "least_deficit" not in vars(trace)
        assert isinstance(rep.notes._notes["deficit_min"], bounds._Later)
        least = trace.least_deficit
        assert vars(trace)["least_deficit"] is least
        assert rep.notes["deficit_min"] == (None if least is None else float(least))

    @settings(max_examples=150, deadline=None, database=None)
    @given(small_params())
    @example(CAParams(6, 54, 3))
    @example(CAParams(2, 2, 2))
    @example(CAParams(2, 4, 2))
    def test_trace_matches_two_branch_recurrence(self, p):
        vt = p.tuple_count
        ref = reference_leftover_counts(p.interaction_space_size, vt)
        rep, trace = bounds.discrete_slj_bound(p)
        assert (trace.start, trace.tuple_count) == (ref[0], vt)
        assert rep.value == trace.steps == len(ref) - 1
        deficits = [Fraction(r * (vt - 1), vt) - nxt for r, nxt in zip(ref, ref[1:])]
        assert trace.least_deficit == min(deficits[1:-1], default=None)
        interior = [r * (vt - 1) - nxt * vt for r, nxt in zip(ref[1:-2], ref[2:-1])]
        assert rep.notes["deficit_min"] == (min(interior) / vt if interior else None)

    @settings(max_examples=300, deadline=None, database=None)
    @given(start=st.integers(0, 10**7), vt=st.integers(2, 3000))
    @example(start=0, vt=4)
    @example(start=24, vt=4)
    @example(start=10**7, vt=2)  # top is vt - 1 at the second step
    @example(start=10**7, vt=3000)
    def test_walk_finds_the_largest_interior_remainder(self, start, vt):
        ref = reference_leftover_counts(start, vt)
        top = max((r % vt for r in ref[1:-2]), default=-1)
        assert bounds._leftover_top(start, vt) == top
        assert leftover_count(start, vt) == len(ref) - 1

    @settings(max_examples=100, deadline=None, database=None)
    @given(calls=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 9, 27, 64, 729])),
        min_size=1, max_size=6,
    ))
    @example(calls=[(10**6, 729), (5, 729), (10**5, 729)])
    @example(calls=[(10**6, 4), (10**6, 9), (10**3, 4)])
    @example(calls=[(4, 4), (24, 4)])  # v**t divides r(0): the first step is floor(y*r)
    def test_shared_thresholds_match_the_counts_in_any_order(self, calls):
        # from empty tables, in the drawn order, then again by descending
        # start on the tables those calls left
        bounds._thresholds.cache_clear()
        refs = {call: reference_leftover_counts(*call) for call in calls}
        for start, vt in calls:
            ref = refs[start, vt]
            top = max((r % vt for r in ref[1:-2]), default=-1)
            assert leftover_count(start, vt) == len(ref) - 1
            assert bounds._leftover_top(start, vt) == top
        for start, vt in sorted(calls, reverse=True):
            assert leftover_count(start, vt) == len(refs[start, vt]) - 1

    def test_threshold_table_is_checked_before_it_grows(self, monkeypatch):
        bounds._thresholds.cache_clear()
        assert leftover_count(10**5, 729) == len(reference_leftover_counts(10**5, 729)) - 1
        table = bounds._thresholds(729)
        held = table.marks
        whole = list(held)
        assert leftover_count(10**6, 729) == len(reference_leftover_counts(10**6, 729)) - 1
        # growing published a longer copy; a reader holding the old one sees it whole
        marks = table.marks
        assert held == whole and len(marks) > len(held) and marks[: len(held)] == held
        # room for the table as it stands, not for the marks up to C(1000,6) * 729
        room = len(marks) * (8 + sys.getsizeof(marks[-1]))
        monkeypatch.setattr(limits, "memory_cap_bytes", lambda: room)
        assert leftover_count(10**5, 729) == len(reference_leftover_counts(10**5, 729)) - 1
        with pytest.raises(ResourceLimitError, match="discrete recurrence threshold table needs"):
            bounds.discrete_slj_bound(CAParams(6, 1000, 3))
        assert table.marks is marks and bounds._thresholds(729) is table

    def test_threads_growing_one_table_agree_with_the_counts(self):
        # ascending starts grow the table on nearly every call; a lost
        # update may publish a shorter table, never a wrong one
        starts = [3**e + d for e in range(4, 13) for d in range(2)]
        want = {s: len(reference_leftover_counts(s, 729)) - 1 for s in starts}
        orders = [starts, starts[::-1], starts[::2] + starts[1::2]] * 3
        got = [None] * len(orders)
        together = threading.Barrier(len(orders))

        def count(i):
            together.wait(timeout=60)
            got[i] = [leftover_count(s, 729) for s in orders[i]]

        bounds._thresholds.cache_clear()
        threads = [threading.Thread(target=count, args=(i,)) for i in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want[s] for s in order] for order in orders]
        mark = 1
        for kept in bounds._thresholds(729).marks:
            assert kept == mark
            for _ in range(64):
                mark += -(-mark // 728)

    def test_every_read_of_the_notes_sees_the_computed_value(self):
        # each read on a fresh report, whose deficit_min is not yet computed
        p = CAParams(6, 54, 3)

        def unread():
            notes = bounds.discrete_slj_bound(p)[0].notes
            assert isinstance(notes._notes["deficit_min"], bounds._Later)
            return notes

        notes = unread()
        assert "deficit_min" in notes and "no such note" not in notes
        assert isinstance(notes._notes["deficit_min"], bounds._Later)  # in reads no value
        want = {key: notes[key] for key in notes}
        assert isinstance(want["deficit_min"], float)
        assert dict(unread().items()) == want
        assert list(unread().values()) == list(want.values())
        assert unread().get("deficit_min") == want["deficit_min"]
        assert unread().get("no such note") is None and unread().get("no such note", 0) == 0
        assert not unread() != want
        assert unread() != {**want, "deficit_min": None}
        assert dict(unread()) == want

    def test_value_under_a_small_cap_counts_on_read(self, monkeypatch):
        # 268,091 steps: their counts would take about 14 MiB, the value and
        # the least deficit none of it
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "4")
        rep, trace = bounds.discrete_slj_bound(CAParams(6, 50, 5))
        assert rep.value == trace.steps == 268091
        assert float(trace.least_deficit) == rep.notes["deficit_min"]

    def test_length_over_the_step_cap_is_refused_first(self, monkeypatch):
        p = CAParams(2, 12, 3)
        length = math.ceil(bounds.discrete_slj_estimate(p))
        monkeypatch.setenv("COVERKIT_MAX_COLUMN_SETS", str(length))
        assert bounds.discrete_slj_bound(p)[0].value > length
        monkeypatch.setenv("COVERKIT_MAX_COLUMN_SETS", str(length - 1))
        with pytest.raises(ResourceLimitError) as exc:
            bounds.discrete_slj_bound(p)
        assert str(exc.value) == (
            f"discrete recurrence trace would take {length} steps, above the cap of {length - 1}"
        )


class TestNotes:
    @pytest.mark.parametrize("method", bounds.METHODS)
    def test_every_report_has_read_only_notes(self, method):
        p = CAParams(2, 6, 2) if method == "katona" else CAParams(3, 8, 3)
        rep = bounds.METHODS[method](p, "simple")
        assert type(rep.notes) is bounds._Notes
        with pytest.raises(TypeError):
            rep.notes["value"] = 0

    def test_reads_come_from_the_mapping_abc(self):
        assert issubclass(bounds._Notes, Mapping)
        inherited = ("get", "keys", "items", "values", "copy", "__eq__", "__ne__")
        assert [name for name in inherited if name in vars(bounds._Notes)] == []
        notes = bounds._Notes({"a": 1, "b": bounds._Later(int, "2")})
        assert repr(notes) == "{'a': 1, 'b': 2}" and len(notes) == 2
        assert notes == {"a": 1, "b": 2} == notes and not notes != {"b": 2, "a": 1}


class TestPastTheFloats:
    """Past v**t of about 1e308, ln(v**t / (v**t - 1)) rounds to 0 in
    binary64: nothing divides by it."""

    P = CAParams(200, 201, 100)

    def test_recurrence_is_refused_by_its_length(self):
        # at least (v^t - 1) * ln(C(201,200) + 1) = (v^t - 1) * ln 202 steps
        vt = self.P.tuple_count
        steps = bounds._least_steps(self.P.interaction_space_size, vt)
        assert (vt - 1) * 5308 // 1000 <= steps <= (vt - 1) * 5309 // 1000
        assert len(str(steps)) == 401 and str(steps).startswith("5308267")
        # a count past 15 digits is named by six digits and a power of ten
        with pytest.raises(ResourceLimitError, match=r"would take 5\.30827e\+400 steps"):
            bounds.discrete_slj_bound(self.P)

    def test_estimate_and_coefficients_are_refused(self):
        with pytest.raises(ValueError, match="too close to 1 for binary64"):
            bounds.discrete_slj_estimate(self.P)
        for method in ("slj", "gss", "cyclic"):
            with pytest.raises(ValueError, match="too close to 1 for binary64"):
                bounds.asymptotic_coefficient(method, 200, 100)


class TestMethodTable:
    def test_dependence_is_read_exactly_by_the_dependence_methods(self):
        # every method answers at one of these shapes or more; a report
        # changes with --dependence exactly when its method is listed
        answered = set()
        for t, k, v in [(2, 2, 2), (2, 10, 2), (3, 8, 3), (3, 10, 4), (6, 54, 3), (4, 30, 5)]:
            p = CAParams(t, k, v)
            for name, report in bounds.METHODS.items():
                try:
                    simple = report(p, "simple")
                except UnsupportedParameterError:
                    continue
                answered.add(name)
                changed = report(p, "improved") != simple
                assert changed == (name in bounds.DEPENDENCE_METHODS), (name, p)
        assert answered == set(bounds.METHODS)


class TestDiscreteSljEstimate:
    def test_small_value(self):
        est = bounds.discrete_slj_estimate(CAParams(2, 2, 2))
        assert est == pytest.approx(math.log(2) / math.log(4 / 3), rel=1e-12)
        assert est == pytest.approx(2.409, abs=5e-4)

    def test_below_recurrence_value(self):
        for t, k, v in [(2, 5, 2), (2, 14, 3), (3, 10, 2), (3, 7, 3)]:
            p = CAParams(t, k, v)
            rep, _ = bounds.discrete_slj_bound(p)
            assert bounds.discrete_slj_estimate(p) < rep.value

    def test_formula_identity_with_slj_shape(self):
        # the estimate is the slj expression with C(k,t)+1 in place of C(k,t)*v^t
        p = CAParams(3, 9, 2)
        lnx = math.log(p.tuple_count / (p.tuple_count - 1))
        assert bounds.discrete_slj_estimate(p) == pytest.approx(
            math.log(math.comb(9, 3) + 1) / lnx, rel=1e-12
        )


class TestTwoStage:
    def test_reference_minimum_6_54_3(self):
        rep = bounds.two_stage_bound(CAParams(6, 54, 3))
        assert rep.value == 13162
        assert rep.stage1_rows == 12402

    def test_reference_objective_values(self):
        p = CAParams(6, 54, 3)
        assert bounds.two_stage_objective(p, 12402) == 13162
        assert bounds.two_stage_bound(p).value < bounds.slj_bound(p).value

    def test_objective_at_zero_is_space_size(self):
        p = CAParams(2, 2, 2)
        assert bounds.two_stage_objective(p, 0) == 4
        p2 = CAParams(3, 7, 3)
        assert bounds.two_stage_objective(p2, 0) == p2.interaction_space_size

    def test_objective_lower_bounds(self):
        p = CAParams(2, 8, 3)
        for n in (0, 3, 10, 40, 200):
            val = bounds.two_stage_objective(p, n)
            assert val >= n
            assert val >= val - n >= 0

    def test_objective_matches_fraction_oracle(self):
        p = CAParams(2, 6, 2)
        m = p.interaction_space_size
        for n in range(0, 40):
            expect = n + int(m * Fraction(3, 4) ** n)
            assert bounds.two_stage_objective(p, n) == expect

    def test_batched_objectives_match_single(self):
        p = CAParams(3, 12, 3)
        ns = [0, 5, 40, 40, 3, 200]
        assert bounds.two_stage_objectives(p, ns) == [
            bounds.two_stage_objective(p, n) for n in ns
        ]
        with pytest.raises(ValueError, match="exponent must be nonnegative"):
            bounds.two_stage_objectives(p, [1, -1])

    def test_bound_is_window_minimum(self):
        # the reported value is minimal over a wide brute-forced range
        p = CAParams(2, 10, 2)
        rep = bounds.two_stage_bound(p)
        brute = min(bounds.two_stage_objective(p, n) for n in range(0, 200))
        assert rep.value == brute
        firsts = [n for n in range(0, 200) if bounds.two_stage_objective(p, n) == brute]
        assert rep.stage1_rows == firsts[0]

    @pytest.mark.parametrize(
        "t,k,v",
        [(2, 2, 2), (2, 10, 2), (3, 10, 3), (3, 30, 3), (4, 16, 3), (5, 30, 2), (6, 54, 3)],
    )
    def test_bound_is_minimum_of_window_four_times_wider(self, t, k, v):
        self._check_wide_window(CAParams(t, k, v))

    @settings(max_examples=60, deadline=None, database=None)
    @given(small_params(max_t=4, max_k=40, max_v=4))
    def test_bound_is_minimum_of_wide_window_hypothesis(self, p):
        self._check_wide_window(p)

    @staticmethod
    def _check_wide_window(p):
        rep = bounds.two_stage_bound(p)
        lo, hi = rep.notes["search_window"]
        center = math.floor(rep.notes["analytic_optimum_n"])
        radius = hi - center
        wide = (max(0, center - 4 * radius), center + 4 * radius)
        assert (rep.stage1_rows, rep.value) == exact_two_stage_minimum(p, *wide)

    def test_below_analytic_ceiling(self):
        for t, k, v in [(2, 10, 2), (3, 12, 2), (2, 30, 3), (6, 54, 3)]:
            p = CAParams(t, k, v)
            rep = bounds.two_stage_bound(p)
            assert rep.value <= math.ceil(rep.notes["analytic_value"])


def fifty_digit_window(p):
    """The two-stage window as 50 digits place it: floor(n*) plus or minus
    max(64, isqrt(ceil(3 / ln x)) + 8), with n* = ln(M ln x) / ln x (0
    where M ln x <= 1) and ln x rounded to a float."""
    vt = p.tuple_count
    with localcontext() as ctx:
        ctx.prec = 50
        lnx = Decimal(vt).ln() - Decimal(vt - 1).ln()
        scaled = p.interaction_space_size * lnx
        nstar = float(scaled.ln() / lnx) if scaled > 1 else 0.0
    radius = max(64, math.isqrt(math.ceil(3 / float(lnx))) + 8)
    return max(0, math.floor(nstar) - radius), math.floor(nstar) + radius


def with_float_tier_off(f, *args):
    """f(*args) with no float estimate clearing the guard."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_numeric, "_FLOAT_GUARD", math.inf)
        return f(*args)


class TestFloatWindow:
    """The two-stage window is placed in binary64 where the floats are
    clear, and gives what the 50-digit centre gives."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(small_params(max_t=5, max_k=10**6, max_v=6))
    @example(CAParams(6, 54, 3))
    @example(CAParams(2, 2, 2))  # M ln x <= 1: n* is 0
    def test_matches_the_fifty_digit_centre(self, p):
        rep = bounds.two_stage_bound(p)
        assert rep.notes["search_window"] == fifty_digit_window(p)
        slow = with_float_tier_off(bounds.two_stage_bound, p)
        assert (rep.value, rep.stage1_rows, rep.notes["search_window"]) == (
            slow.value, slow.stage1_rows, slow.notes["search_window"])

    def test_guard_forces_the_fallback(self, monkeypatch):
        calls, logs = [], []
        optimum, ln = _numeric.optimum_exponent, _numeric.dec_ln
        monkeypatch.setattr(_numeric, "optimum_exponent", lambda *a: calls.append(a) or optimum(*a))
        monkeypatch.setattr(_numeric, "dec_ln", lambda x: logs.append(x) or ln(x))
        p = CAParams(6, 54, 3)
        total, vt = p.interaction_space_size, p.tuple_count
        assert _numeric.optimum_window(total, vt, vt - 1) == (12433, 2186)
        fast = bounds.two_stage_bound(p)
        assert calls == [] and logs == []  # floats place it; the note is not read yet
        monkeypatch.setattr(_numeric, "_FLOAT_GUARD", math.inf)
        assert _numeric.optimum_window(total, vt, vt - 1) == (12433, 2186)
        assert calls == [(total, vt, vt - 1)] and {vt, vt - 1} <= set(logs)
        slow = bounds.two_stage_bound(p)
        assert calls == [(total, vt, vt - 1)] * 2
        assert slow.notes["search_window"] == fast.notes["search_window"] == (12369, 12497)
        assert slow.value == fast.value and slow.stage1_rows == fast.stage1_rows


class TestOrbitCensusMemo:
    def test_remembered_per_action(self):
        bounds._orbit_census.cache_clear()
        first = bounds._orbit_census("frobenius", 6, 3)
        assert bounds._orbit_census("frobenius", 6, 3) is first
        assert bounds._orbit_census.cache_info().hits == 1
        assert bounds._orbit_census("cyclic", 6, 3) != first

    def test_a_refusal_is_not_remembered(self):
        for _ in range(2):
            with pytest.raises(UnsupportedParameterError, match="prime-power"):
                bounds.frobenius_lll_bound(CAParams(6, 54, 6))
        with pytest.raises(ValueError, match="unknown method"):
            bounds._orbit_census("nope", 6, 3)


class TestGss:
    def test_coefficient_ratio_to_slj(self):
        for t in range(2, 7):
            for v in (2, 3, 5):
                ratio = bounds.asymptotic_coefficient("slj", t, v) / bounds.asymptotic_coefficient("gss", t, v)
                assert ratio == pytest.approx(t / (t - 1), rel=1e-12)

    def test_normalized_value_approaches_coefficient(self):
        coef = bounds.asymptotic_coefficient("gss", 6, 3)
        r1 = bounds.gss_lll_bound(CAParams(6, 10**6, 3)).value / math.log(10**6)
        r2 = bounds.gss_lll_bound(CAParams(6, 10**9, 3)).value / math.log(10**9)
        assert abs(r2 / coef - 1) < abs(r1 / coef - 1)
        assert r1 / coef == pytest.approx(1.0, abs=0.08)

    def test_dependence_options_reported(self):
        p = CAParams(3, 10, 2)
        simple = bounds.gss_lll_bound(p, "simple")
        improved = bounds.gss_lll_bound(p, "improved")
        assert simple.notes["d_plus_1"] == 3 * math.comb(10, 2)
        assert improved.notes["d_plus_1"] == 3 * math.comb(9, 2) + 1
        assert improved.value <= simple.value

    def test_exact_inequality_at_value(self):
        # e*v^t*y^N*(d+1) <= 1 at N, > 1 at N-1 (checked in logs)
        p = CAParams(2, 6, 2)
        rep = bounds.gss_lll_bound(p)
        n = rep.value
        factor = rep.notes["d_plus_1"] * p.tuple_count
        lhs = lambda j: 1 + math.log(factor) - j * math.log(p.tuple_count / (p.tuple_count - 1))
        assert lhs(n) <= 1e-12
        assert lhs(n - 1) > 0


class TestCyclic:
    def test_hand_computed_binary_case(self):
        # e*2*(1/2)^n*2*C(4,1) < 1 first at n=6, so N = 12
        rep = bounds.cyclic_lll_bound(CAParams(2, 4, 2))
        assert rep.stage1_rows == 6
        assert rep.value == 12
        assert 16 * math.e * 0.5**6 < 1 < 16 * math.e * 0.5**5

    def test_orbit_bookkeeping(self):
        rep = bounds.cyclic_lll_bound(CAParams(3, 5, 3))
        assert rep.notes["orbit_count"] == 9
        assert rep.notes["orbit_length"] == 3
        assert rep.notes["orbit_count"] * rep.notes["orbit_length"] == 27

    def test_coefficient_beats_gss_on_grid(self):
        for t in range(2, 7):
            for v in range(2, 8):
                assert bounds.asymptotic_coefficient("cyclic", t, v) < bounds.asymptotic_coefficient("gss", t, v)

    def test_value_is_multiple_of_v(self):
        for v in (2, 3, 5):
            rep = bounds.cyclic_lll_bound(CAParams(2, 7, v))
            assert rep.value == v * rep.stage1_rows


class TestFrobenius:
    def test_non_prime_power_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            bounds.frobenius_lll_bound(CAParams(2, 8, 6))
        with pytest.raises(UnsupportedParameterError):
            bounds.asymptotic_coefficient("frobenius", 3, 12)

    def test_orbit_arithmetic_v3_t2(self):
        rep = bounds.frobenius_lll_bound(CAParams(2, 5, 3))
        assert rep.notes["full_orbit_count"] == 1       # (3-1)/(3-1)... = (v^{t-1}-1)/(v-1)
        assert rep.notes["full_orbit_length"] == 6
        assert rep.notes["short_orbit_rows"] == 3
        assert 3 + 1 * 6 == 9  # orbit sizes partition v^t

    def test_structure_of_value(self):
        rep = bounds.frobenius_lll_bound(CAParams(3, 8, 4))
        assert rep.value == 4 * 3 * rep.stage1_rows + 4

    def test_coefficient_beats_cyclic_where_defined(self):
        for t in range(2, 7):
            for v in (3, 4, 5, 7):
                assert bounds.asymptotic_coefficient("frobenius", t, v) < bounds.asymptotic_coefficient("cyclic", t, v)

    def test_reference_ordering_6_3(self):
        f = bounds.asymptotic_coefficient("frobenius", 6, 3)
        c = bounds.asymptotic_coefficient("cyclic", 6, 3)
        g = bounds.asymptotic_coefficient("gss", 6, 3)
        assert f < c < g

    def test_coefficient_close_to_series_form(self):
        # v^t (t-1) / (1 + (v-1)/(2 v^(t-1))) approximates the coefficient
        for t, v in [(3, 3), (4, 4), (6, 3), (5, 5)]:
            exact = bounds.asymptotic_coefficient("frobenius", t, v)
            approx = v**t * (t - 1) / (1 + (v - 1) / (2 * v ** (t - 1)))
            assert exact == pytest.approx(approx, rel=0.02)


class TestPgl:
    def test_full_orbit_count_formula(self):
        # (25 - 4*3 - 1) / (4*3) = 1
        notes = bounds.pgl_lll_bound(CAParams(3, 8, 5)).notes
        assert notes["full_orbit_count"] == 1
        assert notes["two_symbol_orbit_count"] == 3
        assert bounds.pgl_lll_bound(CAParams(2, 8, 5)).notes["full_orbit_count"] == 0

    def test_orbit_size_accounting(self):
        # constants, 2**(t-1) - 1 two-symbol orbits of length v(v-1) and
        # the full orbits of length v(v-1)(v-2) partition the v**t tuples
        from coverkit._numeric import is_prime_power

        for t in range(2, 10):
            for v in (v for v in range(3, 40) if is_prime_power(v - 1)):
                base, two = v ** (t - 1), 2 ** (t - 1) - 1
                full = (base - (v - 1) * two - 1) // ((v - 1) * (v - 2))
                census = bounds._orbit_census("pgl", t, v)
                assert census == (full, base, (v - 1) * (v - 2), v * (v - 1) * (v - 2))
                assert v + v * (v - 1) * two + v * (v - 1) * (v - 2) * full == v**t

    def test_parameter_validation(self):
        with pytest.raises(UnsupportedParameterError):
            bounds.pgl_lll_bound(CAParams(3, 8, 7))  # v-1 = 6 not a prime power
        with pytest.raises(UnsupportedParameterError):
            bounds.asymptotic_coefficient("pgl", 3, 7)

    def test_value_decomposition(self):
        p = CAParams(3, 8, 4)
        rep = bounds.pgl_lll_bound(p)
        assert rep.value == rep.notes["full_stage_addend"] + rep.notes["pair_addend"]
        assert rep.notes["pair_addend"] == math.comb(4, 2) * bounds.cyclic_lll_bound(
            CAParams(3, 8, 2)
        ).value

    def test_frobenius_tighter_at_t5_through_v29(self):
        # one-sided check of the stated range; both coefficients defined at
        # v in {3,4,5,8,9,17} below 29 (v and v-1 both prime powers)
        for v in (3, 4, 5, 8, 9, 17):
            f = bounds.asymptotic_coefficient("frobenius", 5, v)
            g = bounds.asymptotic_coefficient("pgl", 5, v)
            assert f < g

    def test_coefficient_is_sum_of_two_terms(self):
        t, v = 4, 5
        base = v ** (t - 1)
        full = v * (v - 1) * (v - 2) * (t - 1) / math.log(base / (base - (v - 1) * (v - 2)))
        pairs = v * (v - 1) * (t - 1) / math.log(2 ** (t - 1) / (2 ** (t - 1) - 1))
        assert bounds.asymptotic_coefficient("pgl", t, v) == pytest.approx(full + pairs, rel=1e-12)

    @pytest.mark.parametrize("v", [3, 4, 5, 6])
    def test_coefficient_at_t2_is_the_pair_term_alone(self, v):
        # at t = 2 no tuple has three distinct symbols, so there are no full
        # orbits and the bound grows only through its binary pair stage
        coef = bounds.asymptotic_coefficient("pgl", 2, v)
        assert coef == pytest.approx(
            math.comb(v, 2) * bounds.asymptotic_coefficient("cyclic", 2, 2), rel=1e-12
        )
        lo, hi = (bounds.pgl_lll_bound(CAParams(2, k, v)) for k in (10**6, 10**12))
        assert lo.notes["full_orbit_count"] == hi.notes["full_orbit_count"] == 0
        assert (hi.value - lo.value) / math.log(10**6) == pytest.approx(coef, rel=0.01)


class TestConditional:
    def test_discrete_variant_never_worse(self):
        for k in (50, 100, 200, 400, 1000):
            p = CAParams(6, k, 3)
            one = bounds.conditional_lll_two_stage_bound(p, "one_row_each")
            dens = bounds.conditional_lll_two_stage_bound(p, "discrete_slj")
            assert dens.value <= one.value
            assert dens.stage1_rows == one.stage1_rows
            e2 = dens.notes["expected_leftover_floor"]
            assert dens.notes["stage2_rows"] == len(reference_leftover_counts(e2, 729)) - 1

    def test_second_term_roughly_linear(self):
        p1 = bounds.conditional_lll_two_stage_bound(CAParams(6, 300, 3))
        p2 = bounds.conditional_lll_two_stage_bound(CAParams(6, 600, 3))
        ratio = p2.notes["stage2_rows"] / p1.notes["stage2_rows"]
        assert 1.7 < ratio < 2.3

    def test_loose_form_reported(self):
        p = CAParams(6, 54, 3)
        rep = bounds.conditional_lll_two_stage_bound(p)
        # floor(k * e^t (v^t-1)/t^2 * (1-1/t)^(t-1)), the coarse closed form
        loose = int(54 * math.e**6 * 728 / 36 * (5 / 6) ** 5)
        assert abs(rep.notes["loose_linear_leftover"] - loose) <= 1
        assert rep.notes["expected_leftover_floor"] < rep.notes["loose_linear_leftover"]


    @pytest.mark.parametrize("k", [10**49, 10**55, 10**70])
    def test_leftover_floor_past_fifty_digits(self, k):
        # E2 has 51, 57 and 72 digits; a 150-digit evaluation gives each
        # of them, and n1 solves its inequality
        rep = bounds.conditional_lll_two_stage_bound(CAParams(6, k, 3))
        n1 = rep.stage1_rows
        with localcontext() as ctx:
            ctx.prec = 150
            y, e = Decimal(728) / 729, ctx.exp(1)
            e2 = int(e * math.comb(k, 6) * 728 * y**n1)
            assert e * 6 * math.comb(k, 5) * y**n1 <= 1 < e * 6 * math.comb(k, 5) * y ** (n1 - 1)
        assert rep.notes["expected_leftover_floor"] == e2 and len(str(e2)) > 50
        assert rep.value == n1 + e2

    # k at which log E2 sits about 0.01 below and above 200 at t=6, v=3
    K_BELOW_OVERFLOW = 354 * 10**83
    K_ABOVE_OVERFLOW = 3612 * 10**82

    def test_overflow_boundary(self):
        rep = bounds.conditional_lll_two_stage_bound(CAParams(6, self.K_BELOW_OVERFLOW, 3))
        assert math.log(rep.notes["expected_leftover_floor"]) == pytest.approx(199.99, abs=5e-3)
        with pytest.raises(ResourceLimitError, match="conditional leftover estimate overflows"):
            bounds.conditional_lll_two_stage_bound(CAParams(6, self.K_ABOVE_OVERFLOW, 3))


class TestKatonaKleitman:
    def test_reference_values(self):
        # k=4: C(4,3)=4 >= 4 at N=5 while C(3,2)=3 < 4
        assert bounds.katona_kleitman_exact(4) == 5
        # k=10: C(5,3)=10 >= 10 at N=6
        assert bounds.katona_kleitman_exact(10) == 6
        assert bounds.katona_kleitman_exact(2) == 4

    def test_monotone_in_k(self):
        vals = [bounds.katona_kleitman_exact(k) for k in range(2, 60)]
        assert vals == sorted(vals)


class TestCrossBoundProperties:
    GRID = [(2, 5, 2), (2, 8, 2), (2, 5, 3), (3, 6, 2), (3, 8, 3), (2, 6, 5)]

    def _all_bounds(self, p: CAParams):
        out = {
            "slj": bounds.slj_bound(p).value,
            "discrete_slj": bounds.discrete_slj_bound(p)[0].value,
            "two_stage": bounds.two_stage_bound(p).value,
            "gss": bounds.gss_lll_bound(p).value,
            "cyclic": bounds.cyclic_lll_bound(p).value,
            "conditional": bounds.conditional_lll_two_stage_bound(p).value,
        }
        from coverkit._numeric import is_prime_power

        if is_prime_power(p.v):
            out["frobenius"] = bounds.frobenius_lll_bound(p).value
        if p.v >= 3 and is_prime_power(p.v - 1):
            out["pgl"] = bounds.pgl_lll_bound(p).value
        return out

    def test_all_bounds_at_least_tuple_count(self):
        for t, k, v in self.GRID:
            p = CAParams(t, k, v)
            for name, val in self._all_bounds(p).items():
                assert val >= p.tuple_count, (name, p)

    def test_all_bounds_at_least_katona_for_binary_pairs(self):
        for k in (4, 6, 10, 20):
            p = CAParams(2, k, 2)
            floor = bounds.katona_kleitman_exact(k)
            for name, val in self._all_bounds(p).items():
                assert val >= floor, (name, k)

    def test_monotone_in_k(self):
        for t, v in [(2, 2), (2, 3), (3, 2)]:
            for name in ("slj", "discrete_slj", "two_stage", "gss", "cyclic"):
                prev = None
                for k in range(max(t, 4), 16, 2):
                    val = self._all_bounds(CAParams(t, k, v))[name]
                    if prev is not None:
                        assert val >= prev, (name, t, v, k)
                    prev = val

    def test_monotone_in_v(self):
        for name in ("slj", "discrete_slj", "two_stage", "gss", "cyclic"):
            prev = None
            for v in (2, 3, 4, 5):
                val = self._all_bounds(CAParams(2, 8, v))[name]
                if prev is not None:
                    assert val >= prev, (name, v)
                prev = val

    def test_recurrence_never_exceeds_two_stage(self):
        # each recurrence step removes at least one leftover, so the step
        # count is at most n + floor(M y^n) for every n, hence at most the
        # two-stage minimum
        for t, k, v in self.GRID + [(6, 54, 3)]:
            p = CAParams(t, k, v)
            assert bounds.discrete_slj_bound(p)[0].value <= bounds.two_stage_bound(p).value

    def test_two_stage_never_exceeds_slj(self):
        for t, k, v in self.GRID + [(6, 54, 3)]:
            p = CAParams(t, k, v)
            assert bounds.two_stage_bound(p).value <= bounds.slj_bound(p).value

    @pytest.mark.parametrize("dependence", ["simple", "improved"])
    def test_lll_rows_solve_each_stated_inequality(self, dependence):
        # e * events * y**n * (d+1) < 1 (<= for gss) holds at the reported n
        # and fails at n - 1, with each action's events and y written out
        def actions(t, v):
            b = v ** (t - 1)
            yield "gss", v**t, 1 - 1 / v**t, False
            yield "cyclic", b, 1 - 1 / b, True
            if v in (2, 3, 4, 5, 7, 8, 9):
                yield "frobenius", (b - 1) // (v - 1), 1 - (v - 1) / b, True
            if v in (3, 4, 5, 6, 8, 9, 10):
                full = (b - (v - 1) * (2 ** (t - 1) - 1) - 1) // ((v - 1) * (v - 2))
                yield "pgl", full, 1 - (v - 1) * (v - 2) / b, True

        for t, k, v in self.GRID + [(3, 20, 4), (4, 30, 5), (5, 12, 9)]:
            p = CAParams(t, k, v)
            for name, events, y, strict in actions(t, v):
                rep = getattr(bounds, f"{name}_lll_bound")(p, dependence)
                n = rep.value if name == "gss" else rep.stage1_rows
                if events == 0:
                    assert n == 0
                    continue
                lhs = lambda j: 1 + math.log(events * rep.notes["d_plus_1"]) + j * math.log(y)
                assert (lhs(n) < 0) if strict else (lhs(n) <= 1e-12), (name, p)
                assert n == 0 or lhs(n - 1) >= 0, (name, p)

    def test_coefficients_match_the_bounds_growth(self):
        # the slope of each local lemma bound between k = 10^6 and 10^12
        for t in (3, 4):
            for v in (3, 4, 5):
                for name in ("gss", "cyclic", "frobenius", "pgl"):
                    lo, hi = (getattr(bounds, f"{name}_lll_bound")(CAParams(t, k, v)).value
                              for k in (10**6, 10**12))
                    slope = (hi - lo) / math.log(10**6)
                    coef = bounds.asymptotic_coefficient(name, t, v)
                    assert slope == pytest.approx(coef, rel=0.01), (name, t, v)
