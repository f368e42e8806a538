"""Tests for the high-precision numeric helpers."""

import contextlib
import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import _numeric, bounds, cli
from coverkit.core import CAParams
from coverkit._numeric import (
    floor_e_scaled_power,
    floor_scaled_powers,
    is_prime_power,
    least_exponent,
)


def one_floor(m, num, den, n):
    """floor(m * (num/den)**n) for one n, through the batched entry."""
    return floor_scaled_powers(m, num, den, (n,))[0]


class TestLeastPowerExponent:
    def test_exact_powers_strict(self):
        # (2/1)**n > 8 first at n=4
        assert least_exponent(8, 2, 1) == 4

    def test_fractional_ratio(self):
        # (3/2)**n > 10: 1.5**5 = 7.59, 1.5**6 = 11.39
        assert least_exponent(10, 3, 2) == 6

    def test_trivial_threshold(self):
        assert least_exponent(1, 5, 4) == 1

    def test_matches_brute_force(self):
        for m in (1, 2, 7, 100, 12345):
            for num, den in ((2, 1), (3, 2), (729, 728), (10, 9)):
                n = least_exponent(m, num, den)
                assert Fraction(num, den) ** n > m
                assert n == 0 or Fraction(num, den) ** (n - 1) <= m


class TestFloorScaledPower:
    @pytest.mark.parametrize("m,num,den", [(24, 3, 4), (1000, 7, 9), (18828003285, 728, 729)])
    def test_matches_fraction_oracle(self, m, num, den):
        for n in (0, 1, 5, 17, 100):
            expect = int(Fraction(m) * Fraction(num, den) ** n)
            assert one_floor(m, num, den, n) == expect

    def test_boundary_exactness(self):
        # 64 * (1/2)**6 == 1 exactly; the floor must be 1, not 0
        assert one_floor(64, 1, 2, 6) == 1
        # 81 * (2/3)**4 == 16 exactly
        assert one_floor(81, 2, 3, 4) == 16

    def test_zero_cases(self):
        assert one_floor(0, 1, 2, 10) == 0
        assert one_floor(7, 1, 2, 0) == 7


def exact_floor(m, num, den, n):
    return (m * num**n) // den**n


@st.composite
def proper_fractions(draw, max_den=1000):
    den = draw(st.integers(2, max_den))
    return draw(st.integers(1, den - 1)), den


@st.composite
def near_integer_cases(draw):
    """(m, num, den, n) where m*(num/den)**n is an integer, or an integer
    plus or minus d*(num/den)**n with d small: fractional parts at, just
    above 0 and just below 1, often inside the 1e-9 guard band."""
    num, den = draw(proper_fractions(max_den=20))
    n = draw(st.integers(1, 60))
    whole = draw(st.integers(0, 10**6))
    d = draw(st.sampled_from([0, 1, 2, -1, -2]))
    m = whole * den**n + d
    return max(m, 0), num, den, n


class TestFloorScaledPowerExact:
    """One floor at a time against the exact big-integer floor."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(m=st.integers(0, 10**80), frac=proper_fractions(), n=st.integers(0, 400))
    @example(m=10**60, frac=(728, 729), n=100)  # value near 8.7e59, past 50 digits
    @example(m=18828003285 * 10**40, frac=(728, 729), n=12402)
    def test_matches_exact_floor(self, m, frac, n):
        num, den = frac
        assert one_floor(m, num, den, n) == exact_floor(m, num, den, n)

    @settings(max_examples=300, deadline=None, database=None)
    @given(near_integer_cases())
    @example((5 * 10**12 + 1, 1, 10, 12))  # 5 + 1e-12: inside the guard
    @example((6 * 10**12 - 1, 1, 10, 12))  # 6 - 1e-12: inside the guard
    @example((5 * 10**8 + 1, 1, 10, 8))  # 5 + 1e-8: just outside the guard
    @example((6 * 10**8 - 1, 1, 10, 8))  # 6 - 1e-8: just outside the guard
    @example((64, 1, 2, 6))  # exactly 1
    # an integer near 5e38, whose 50-digit estimate is 1.1e-9 below it
    @example((697363996128588383383374009608639543587219, 6, 7, 47))
    def test_near_integer_values(self, case):
        m, num, den, n = case
        assert one_floor(m, num, den, n) == exact_floor(m, num, den, n)

    def test_values_above_fifty_digits(self):
        for m in (10**55 + 7, 3**200, 2**300 - 1):
            for num, den, n in ((728, 729, 5000), (1, 3, 20), (99, 100, 1)):
                got = one_floor(m, num, den, n)
                assert got == exact_floor(m, num, den, n)


class TestFloorScaledPowers:
    """The batched helper against the exact floor, n by n."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        m=st.integers(0, 10**80),
        frac=proper_fractions(),
        ns=st.lists(st.integers(0, 400), max_size=20),
    )
    def test_matches_exact_floor(self, m, frac, ns):
        num, den = frac
        assert floor_scaled_powers(m, num, den, ns) == [
            exact_floor(m, num, den, n) for n in ns
        ]

    @settings(max_examples=200, deadline=None, database=None)
    @given(near_integer_cases())
    @example((697363996128588383383374009608639543587219, 6, 7, 47))
    def test_near_integer_values(self, case):
        m, num, den, n = case
        ns = [0, n, n + 1, max(n - 1, 0), n]
        assert floor_scaled_powers(m, num, den, ns) == [
            exact_floor(m, num, den, j) for j in ns
        ]

    def test_window_of_the_two_stage_objective(self):
        m, ns = 18828003285, range(12300, 12500)
        assert floor_scaled_powers(m, 728, 729, ns) == [
            exact_floor(m, 728, 729, n) for n in ns
        ]

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            floor_scaled_powers(5, 1, 2, [3, -1])


@st.composite
def exponent_runs(draw):
    """A list of n: consecutive, with gaps, descending or with repeats."""
    moves = draw(st.sampled_from([[1], [1, 2, 3, 7], [-1], [0, 1], [-3, 0, 1, 2]]))
    ns = [draw(st.integers(0, 400))]
    for move in draw(st.lists(st.sampled_from(moves), max_size=40)):
        ns.append(max(ns[-1] + move, 0))
    return ns


class TestChainedFloors:
    """Consecutive n take one exp and then one multiplication each; every
    other n, and every n after a zero floor, takes a fresh exp."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(m=st.integers(0, 10**80), frac=proper_fractions(), ns=exponent_runs())
    @example(m=10**60, frac=(728, 729), ns=list(range(0, 400)))
    def test_runs_match_exact_floor(self, m, frac, ns):
        num, den = frac
        assert floor_scaled_powers(m, num, den, ns) == [
            exact_floor(m, num, den, n) for n in ns
        ]

    @settings(max_examples=300, deadline=None, database=None)
    @given(near_integer_cases())
    @example((5 * 10**12 + 1, 1, 10, 12))  # 5 + 1e-12 reached by 5 products
    @example((697363996128588383383374009608639543587219, 6, 7, 47))
    def test_near_integer_values_mid_chain(self, case):
        m, num, den, n = case
        ns = range(max(n - 5, 0), n + 5)
        assert floor_scaled_powers(m, num, den, ns) == [
            exact_floor(m, num, den, j) for j in ns
        ]

    def test_exact_fallback_mid_chain(self, monkeypatch):
        # m * (1/2)**n is w * 2**(40-n) + 2**-n for w odd: within the guard
        # of an integer up to n = 40, then half-integers and quarters
        calls = []
        check = _numeric._check_power
        monkeypatch.setattr(_numeric, "_check_power", lambda *a: calls.append(a) or check(*a))
        m, ns = (10**6 + 1) * 2**40 + 1, range(38, 46)
        assert floor_scaled_powers(m, 1, 2, ns) == [exact_floor(m, 1, 2, n) for n in ns]
        assert calls == [(2, 38), (2, 39), (2, 40)]

    def test_zero_floors_restart_the_chain(self):
        # 180 * (3/4)**n is 1.01 at n = 18 and 0.76 at n = 19
        m, ns = 180, [*range(14, 23), *range(10, 16), 30, 18, 19, 17, 18]
        floors = floor_scaled_powers(m, 3, 4, ns)
        assert floors == [exact_floor(m, 3, 4, n) for n in ns]
        assert floors[4:9] == [1, 0, 0, 0, 0]


def exponent_holds(m, num, den, n):
    return num**n > m * den**n


class TestLeastPowerExponentMinimal:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        m=st.integers(1, 10**40),
        den=st.integers(1, 80),
        step=st.integers(1, 80),
    )
    @example(m=8, den=1, step=1)
    @example(m=1, den=4, step=1)
    def test_minimal(self, m, den, step):
        num = den + step
        n = least_exponent(m, num, den)
        assert exponent_holds(m, num, den, n)
        assert n == 0 or not exponent_holds(m, num, den, n - 1)

    @settings(max_examples=200, deadline=None, database=None)
    @given(num=st.integers(2, 50), j=st.integers(0, 80), shift=st.sampled_from([-1, 0, 1]))
    def test_exact_powers(self, num, j, shift):
        # m = num**j makes q = ln m / ln num an integer; m +- 1 sits next to it
        m = num**j + shift
        if m < 1:
            return
        n = least_exponent(m, num, 1)
        assert exponent_holds(m, num, 1, n)
        assert n == 0 or not exponent_holds(m, num, 1, n - 1)
        if shift == 0:
            assert n == j + 1

    @pytest.mark.parametrize("t,v", [(6, 3), (4, 4), (3, 7)])
    def test_slj_shapes(self, t, v):
        # the slj inequality C(k,t)*v^t*(1-1/v^t)^N < 1 over a k range
        vt = v**t
        for k in range(t, 400, 37):
            m = math.comb(k, t) * vt
            n = least_exponent(m, vt, vt - 1)
            assert exponent_holds(m, vt, vt - 1, n)
            assert not exponent_holds(m, vt, vt - 1, n - 1)


class TestPowerQuotientErrorBound:
    """The one error bound both primitives read: err(n) from _log_estimate
    covers the 50-digit ln m + n * step, with the 1/4 slack floor_scaled_powers
    relies on, for ratios on both sides of 1."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        m=st.integers(1, 10**40),
        den=st.one_of(st.integers(1, 10**4), st.integers(1, 10**45)),
        step=st.integers(1, 3),
        n=st.one_of(st.integers(0, 100), st.integers(0, 10**50)),
    )
    @example(m=18828003285, den=728, step=1, n=12402)
    @example(m=10**30, den=10**44, step=1, n=10**45)  # ln num - ln den cancels 44 digits
    def test_bound_covers_the_error(self, m, den, step, n):
        ctx = Context(prec=200)
        for a, b in ((den + step, den), (den, den + step)):
            ln_m, log_step, err = _numeric._log_estimate(m, a, b)
            with localcontext() as ctx50:
                ctx50.prec = _numeric.PRECISION
                estimate = ln_m + n * log_step
            exact = ctx.add(ctx.ln(m), ctx.multiply(n, ctx.subtract(ctx.ln(a), ctx.ln(b))))
            assert abs(ctx.subtract(estimate, exact)) <= 3 * err(n) / 4

    def test_ratio_lost_to_cancellation_is_rejected(self):
        # ln(10**60 + 1) and ln(10**60) agree to all 50 digits
        with pytest.raises(ValueError, match="too close to 1"):
            least_exponent(5, 10**60 + 1, 10**60)


class TestOptimumWindowSpan:
    """optimum_window's span, ceil(3 / ln x), at near-ties.  Each num/den is
    a continued-fraction convergent of e**(3/N), so 3 / ln(num/den) lies
    within 1e-12 of the integer N, closer than binary64 places it.  At
    widths past about 10**7 binary64's own error exceeds the 1e-9 guard, so
    the float slack must scale with the width; below about 2.8 * 10**5 the
    guard is most of the slack, so it must be added.  In each case a float
    ceil with that part of the slack cut lands on the wrong side of N."""

    @pytest.mark.parametrize("num, den", [
        # widths of 2-10 * 10**8: the slack's error term decides
        (8729922311968745, 8729922179833042),
        (207514566586303636, 207514565942076089),
        (61742294828666698, 61742294477262959),
        # widths of 0.9-2 * 10**5: the guard decides
        (97271723146, 97270260285),
        (90442573313, 90440819740),
        (10115852077, 10115503669),
    ])
    def test_span_is_the_exact_ceiling(self, num, den):
        with localcontext() as ctx:
            ctx.prec = 100
            width = 3 / (Decimal(num).ln() - Decimal(den).ln())
        assert abs(width - round(width)) < Decimal("1e-12")
        assert _numeric.optimum_window(10**6, num, den)[1] == math.ceil(width)


class TestAgainstExactArithmetic:
    """Both primitives against Fraction arithmetic, with exponents up to
    1e5: floors of 0, floors at exact ties, and least exponents at exact
    powers, where 50 digits cannot decide and the exact path must."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        m=st.integers(0, 10**40),
        frac=proper_fractions(),
        ns=st.lists(st.integers(0, 10**5), max_size=8),
        tie=st.one_of(st.none(), st.integers(0, 200)),
    )
    @example(m=180, frac=(3, 4), ns=[0, 18, 19, 10**5], tie=None)  # zero floors
    @example(m=1, frac=(1, 2), ns=[0, 3, 10**5], tie=3)  # 8 * (1/2)**3 is exactly 1
    def test_floors(self, m, frac, ns, tie):
        num, den = frac
        if tie is not None:  # m * (num/den)**tie is the integer m * num**tie
            m, ns = m * den**tie, ns + [tie]
        ratio = Fraction(num, den)
        assert floor_scaled_powers(m, num, den, ns) == [math.floor(m * ratio**n) for n in ns]

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        m=st.integers(1, 10**40),
        den=st.integers(1, 1000),
        step=st.integers(1, 3),
        power=st.one_of(st.none(), st.integers(0, 10**5)),
    )
    @example(m=10**40, den=1000, step=1, power=None)  # n near 92,000
    @example(m=1, den=1, step=1, power=10**5)  # (2/1)**n > 2**100000
    def test_least_exponent(self, m, den, step, power):
        num = den + step
        if power is not None:  # ln m / ln(num/den) is exactly the integer power
            num, den, m = step + 1, 1, (step + 1) ** power
        ratio = Fraction(num, den)
        n = least_exponent(m, num, den)
        assert ratio**n > m and (n == 0 or ratio ** (n - 1) <= m)


class TestExactCheckIsAFallback:
    @pytest.fixture
    def exact_calls(self, monkeypatch):
        # every exact path checks the size of its powers first
        calls = []
        check = _numeric._check_power

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(_numeric, "_check_power", counted)
        return calls

    def test_sweep_grid_never_needs_it(self, exact_calls):
        for k in range(10, 1001, 15):
            bounds.slj_bound(CAParams(6, k, 3))
        assert exact_calls == []

    def test_two_stage_windows_never_need_it(self, exact_calls):
        # 8,643 floors, none of them through the big-integer quotient
        for k in range(10, 1001, 15):
            bounds.two_stage_bound(CAParams(6, k, 3))
        assert exact_calls == []

    def test_exact_power_takes_it(self, exact_calls):
        # ln 8 / ln 2 = 3 exactly: 50 digits cannot tell > from >=
        assert least_exponent(8, 2, 1) == 4
        assert len(exact_calls) == 1


def with_float_tier_off(f, *args, **kwargs):
    """f(*args, **kwargs) with the float tier off: no float estimate clears
    an infinite guard, so the 50-digit and exact tiers decide everything."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_numeric, "_FLOAT_GUARD", math.inf)
        return f(*args, **kwargs)


def exact_e_floor(m, num, den, n):
    """floor(e * m * (num/den)**n) at 60 digits past its integer part."""
    with localcontext() as ctx:
        ctx.prec = 60 + len(str(m * num**n // den**n)) + 1
        return int(ctx.exp(1) * m * num**n / den**n)


@st.composite
def floor_near_ties(draw):
    """(m, num, den, n) with m * (num/den)**n = W * num**n + d * (num/den)**n
    an integer or within 1e-12 of one: m = W * den**n + d, with n large
    enough that 2 * (num/den)**n <= 1e-12."""
    num, den = draw(proper_fractions(max_den=20))
    n = math.ceil(math.log(2e12) / math.log(den / num)) + draw(st.integers(0, 10))
    d = draw(st.sampled_from([0, 1, 2, -1, -2]))
    return draw(st.integers(1, 10**6)) * den**n + d, num, den, n


@st.composite
def exponent_near_ties(draw):
    """(m, num, den) with ln m within 1e-12 of j * ln(num/den) for an
    integer j: m = floor((num/den)**j) + s with (num/den)**j >= 2e12."""
    den = draw(st.integers(1, 20))
    num = den + draw(st.integers(1, 20))
    j = math.ceil(math.log(2e12) / math.log(num / den)) + draw(st.integers(0, 10))
    return num**j // den**j + draw(st.sampled_from([-1, 0, 1])), num, den


@st.composite
def e_threshold_near_ties(draw):
    """(w, num, den) with 1 + ln w within 1e-12 of j * ln(num/den) for an
    integer j: w = floor((num/den)**j / e) + s with (num/den)**j >= 1e13."""
    den = draw(st.integers(1, 20))
    num = den + draw(st.integers(1, 20))
    j = math.ceil(math.log(1e13) / math.log(num / den)) + draw(st.integers(0, 10))
    with localcontext() as ctx:
        ctx.prec = 60
        w = int(ctx.divide(num**j, den**j) / ctx.exp(1))
    return w + draw(st.sampled_from([0, 1])), num, den


@st.composite
def e_floor_near_ties(draw):
    """(m, num, den, n) with e * m * (num/den)**n within 1e-12 of an integer
    K: m is K / (e * (num/den)**n) rounded, with e * (num/den)**n <= 2e-12."""
    num, den = draw(proper_fractions(max_den=20))
    n = math.ceil(math.log(1.4e12) / math.log(den / num)) + draw(st.integers(0, 10))
    with localcontext() as ctx:
        ctx.prec = 60
        m = round(draw(st.integers(1, 10**6)) * ctx.divide(den**n, num**n) / ctx.exp(1))
    return max(m, 1), num, den, n


def float_rung_is_sure(m, num, den, c):
    """Whether the float rung of the least-exponent ladder decides the
    least n with (num/den)**n past e**c * m."""
    estimate = _numeric._float_log_estimate(m, den, num, c)
    return estimate is not None and _numeric._crossing(*estimate, _numeric._FLOAT_GUARD)[1]


def beyond_e_times(w, num, den, n):
    """(num/den)**n > e * w, by logs at 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        return n * (ctx.ln(num) - ctx.ln(den)) > 1 + ctx.ln(w)


class TestFloatTier:
    """Each decider gives what it gives with the float tier off, on random
    inputs, and on built near-ties, which the float tier must leave to the
    tiers after it."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        m=st.integers(1, 10**400),
        den=st.one_of(st.integers(1, 10**4), st.integers(1, 10**45)),
        step=st.integers(1, 3),
        n=st.one_of(st.integers(0, 10**5), st.integers(0, 2**53)),
        c=st.sampled_from([0, 1]),
    )
    @example(m=18828003285, den=728, step=1, n=12402, c=0)
    @example(m=18828003285, den=728, step=1, n=12402, c=1)
    @example(m=2**1100 + 1, den=1, step=1, n=0, c=1)  # m split by frexp
    def test_error_bound_covers_the_float_error(self, m, den, step, n, c):
        # the float sum, and the log of its exp (numpy's, which the floors
        # over many n take, and math's, which the conditional bound's
        # leftover takes), are within tau(n) / 2 of c + ln m + n * ln(num/den),
        # for ratios on both sides of 1
        ctx = Context(prec=80)
        for a, b in ((den + step, den), (den, den + step)):
            at_zero, log_step, tau = _numeric._float_log_estimate(m, a, b, c)
            log = at_zero + np.array([n], dtype=np.float64) * log_step
            exact = ctx.add(c + ctx.ln(m), ctx.multiply(n, ctx.subtract(ctx.ln(a), ctx.ln(b))))
            assert abs(ctx.subtract(Decimal(log[0]), exact)) <= Decimal(tau(n)) / 2
            if -700 < log[0] < 700:
                for value in (np.exp(log)[0], math.exp(float(log[0]))):
                    error = ctx.subtract(ctx.ln(Decimal(value)), exact)
                    assert abs(error) <= Decimal(tau(n)) / 2

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        m=st.integers(1, 10**40),
        den=st.integers(1, 1000),
        step=st.integers(1, 80),
    )
    @example(m=18828003285 * 729, den=728, step=1)  # slj at (6,54,3)
    def test_least_power_exponent(self, m, den, step):
        num = den + step
        n = least_exponent(m, num, den)
        assert n == with_float_tier_off(least_exponent, m, num, den)
        assert exponent_holds(m, num, den, n)
        assert n == 0 or not exponent_holds(m, num, den, n - 1)

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=exponent_near_ties())
    @example(case=(2**41, 2, 1))  # ln m / ln 2 is exactly 41
    def test_least_power_exponent_near_ties(self, case):
        m, num, den = case
        assert not float_rung_is_sure(m, num, den, 0)
        n = least_exponent(m, num, den)
        assert n == with_float_tier_off(least_exponent, m, num, den)
        assert exponent_holds(m, num, den, n)
        assert not exponent_holds(m, num, den, n - 1)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        w=st.integers(1, 10**40),
        den=st.integers(1, 1000),
        step=st.integers(1, 80),
    )
    @example(w=729 * 6 * math.comb(54, 5), den=728, step=1)  # gss at (6,54,3)
    def test_least_power_past_e(self, w, den, step):
        num = den + step
        n = least_exponent(w, num, den, 1)
        assert n == with_float_tier_off(least_exponent, w, num, den, 1)
        assert beyond_e_times(w, num, den, n)
        assert n == 0 or not beyond_e_times(w, num, den, n - 1)

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=e_threshold_near_ties())
    def test_least_power_past_e_near_ties(self, case):
        w, num, den = case
        assert not float_rung_is_sure(w, num, den, 1)
        # the digits double until the estimate decides: a rung that never
        # decides fails at 1000 digits rather than hanging
        with pytest.MonkeyPatch.context() as mp:
            digit_stop(mp)
            n = least_exponent(w, num, den, 1)
            assert n == with_float_tier_off(least_exponent, w, num, den, 1)
        assert beyond_e_times(w, num, den, n)
        assert not beyond_e_times(w, num, den, n - 1)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        m=st.integers(0, 10**80),
        frac=proper_fractions(),
        ns=st.lists(st.integers(0, 2000), max_size=20),
    )
    @example(m=18828003285, frac=(728, 729), ns=list(range(12300, 12500)))
    def test_floor_scaled_powers(self, m, frac, ns):
        num, den = frac
        floors = floor_scaled_powers(m, num, den, ns)
        assert floors == with_float_tier_off(floor_scaled_powers, m, num, den, ns)
        assert floors == [exact_floor(m, num, den, n) for n in ns]

    @settings(max_examples=200, deadline=None, database=None)
    @given(floor_near_ties())
    @example((10**6 * 10**12 + 1, 1, 10, 12))  # 10**6 + 1e-12
    def test_floor_scaled_powers_near_ties(self, case):
        m, num, den, n = case
        ns = [n, n + 1, n]
        assert _numeric._float_floors(m, num, den, [n]) == [None]
        floors = floor_scaled_powers(m, num, den, ns)
        assert floors == with_float_tier_off(floor_scaled_powers, m, num, den, ns)
        assert floors == [exact_floor(m, num, den, j) for j in ns]

    @settings(max_examples=200, deadline=None, database=None)
    @given(m=st.integers(1, 10**40), frac=proper_fractions(), n=st.integers(0, 3000))
    @example(m=math.comb(54, 6) * 728, frac=(728, 729), n=11000)
    def test_floor_e_scaled_power(self, m, frac, n):
        num, den = frac
        floor = floor_e_scaled_power(m, num, den, n, log_below=200)
        assert floor == with_float_tier_off(floor_e_scaled_power, m, num, den, n, log_below=200)
        assert floor == exact_e_floor(m, num, den, n)

    @settings(max_examples=200, deadline=None, database=None)
    @given(e_floor_near_ties())
    def test_floor_e_scaled_power_near_ties(self, case):
        m, num, den, n = case
        calls = []
        exact = _numeric._floor_e_exact
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_numeric, "_floor_e_exact", lambda *a: calls.append(a) or exact(*a))
            floor = floor_e_scaled_power(m, num, den, n, log_below=200)
        assert len(calls) == 1
        assert floor == with_float_tier_off(floor_e_scaled_power, m, num, den, n, log_below=200)
        assert floor == exact_e_floor(m, num, den, n)

    def test_log_cap(self):
        # ln(e * m) is 200 - 1e-12 and 200 + 1e-12 at these m, too close for
        # floats: the 50-digit log decides, as before the float tier
        with localcontext() as ctx:
            ctx.prec = 60
            at = ctx.exp(199)
        below, above = int(at * (1 - Decimal("1e-12"))), int(at * (1 + Decimal("1e-12")))
        assert floor_e_scaled_power(below, 1, 2, 0, log_below=200) == exact_e_floor(below, 1, 2, 0)
        assert floor_e_scaled_power(above, 1, 2, 0, log_below=200) is None
        assert floor_e_scaled_power(10**90, 1, 2, 0, log_below=200) is None


class TestFiftyDigitsIsAFallback:
    """The bench grid takes every bound value, and the two-stage search
    windows, from the float tier: no 50-digit log, estimate, threshold,
    leftover floor or exp.  The notes that print 50-digit values are
    computed only when read, and a sweep reads none."""

    METHODS = ("slj,discrete_slj,two_stage,gss,cyclic,frobenius,pgl,"
               "conditional_lll,conditional_lll_density")
    KS = range(10, 1001, 15)

    @pytest.mark.parametrize("guard", [_numeric._FLOAT_GUARD, math.inf], ids=["on", "off"])
    def test_bench_grid(self, tmp_path, capsys, monkeypatch, guard):
        logs, tiers = [], []
        ln = _numeric.dec_ln
        monkeypatch.setattr(_numeric, "dec_ln", lambda x: logs.append(x) or ln(x))
        estimate, exact = _numeric._log_estimate, _numeric._floor_e_exact

        def counted(m, num, den, prec=_numeric.PRECISION, c=0):
            tiers.append(("_log_estimate", c))  # with its power of e
            return estimate(m, num, den, prec, c)

        monkeypatch.setattr(_numeric, "_log_estimate", counted)
        monkeypatch.setattr(_numeric, "_floor_e_exact",
                            lambda *a: tiers.append(("_floor_e_exact",)) or exact(*a))
        monkeypatch.setattr(_numeric, "_FLOAT_GUARD", guard)
        argv = ["sweep", "-t", "6", "-v", "3", "--k", "10:1000:15", "--methods", self.METHODS,
                "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
        if guard == math.inf:  # the counters see the 50-digit tiers when they run
            assert {("_log_estimate", 0), ("_log_estimate", 1)} <= set(tiers)
            # the windows are placed at 50 digits, from ln 729 - ln 728, but
            # loose_linear_leftover's ln(728 k) is still never taken
            assert {729, 728} <= set(logs)
            assert not {728 * k for k in self.KS} & set(logs)
        else:
            assert tiers == []
            assert logs == []


def digit_stop(mp):
    """Make a decimal rung of the ladder past 1000 digits fail, through the
    monkeypatch mp, so that a ladder that never decides fails in seconds
    instead of doubling its digits without end.  Returns the list of the
    precisions its decimal rungs run at."""
    precs = []
    estimate = _numeric._log_estimate

    def counted(m, num, den, prec=_numeric.PRECISION, c=0):
        if prec > 1000:
            raise AssertionError("no decision at 1000 digits")
        precs.append(prec)
        return estimate(m, num, den, prec, c)

    mp.setattr(_numeric, "_log_estimate", counted)
    return precs


@contextlib.contextmanager
def six_digit_ladder():
    """The least-exponent ladder with its first decimal rung at 6 digits
    and the float tier off, so that the later rungs are needed at guesses
    the exact check can still confirm.  Yields the precisions its decimal
    rungs run at; the exact tier, or a rung past 1000 digits, fails."""

    def no_exact(*args):
        raise AssertionError("the exact tier was reached")

    with pytest.MonkeyPatch.context() as mp:
        precs = digit_stop(mp)
        mp.setattr(_numeric, "PRECISION", 6)
        mp.setattr(_numeric, "_FLOAT_GUARD", math.inf)
        mp.setattr(_numeric, "_least_power_exact", no_exact)
        _numeric.dec_ln.cache_clear()  # the memo must not keep 6-digit logs
        try:
            yield precs
        finally:
            _numeric.dec_ln.cache_clear()


@pytest.fixture
def six_digits():
    with six_digit_ladder() as precs:
        yield precs


def e_convergent_past(bound):
    """The first denominator of a continued-fraction convergent of e
    (e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]) past bound: e * q is then within
    1/q of an integer."""
    q, q_prev = 1, 0
    for a in itertools.chain.from_iterable((1, 2 * i, 1) for i in itertools.count(1)):
        q, q_prev = a * q + q_prev, q
        if q > bound:
            return q


class TestPastTheFloats:
    """Where the float tier gives up or leaves its one value undecided, the
    decimal and exact tiers give the exact floor."""

    def test_step_below_float_resolution(self):
        # ln(1 - 10**-210) is about -1e-210: below 1e-200 the quotient may
        # have lost its digits, so no float estimate is made
        vt = 10**210
        m = 211 * vt
        assert _numeric._float_log_estimate(m, vt - 1, vt) is None
        ns = [0, 1, 2, 3]
        assert floor_scaled_powers(m, vt - 1, vt, ns) == [m * (vt - 1)**n // vt**n for n in ns]

    def test_quotient_below_the_float_range(self):
        # 1 / 10**400 underflows to 0.0, whose log is no float
        m, den = 7 * 10**400, 10**400
        assert _numeric._float_log_estimate(m, 1, den) is None
        assert floor_scaled_powers(m, 1, den, [0, 1, 2]) == [m, 7, 0]

    def test_exponents_past_two_to_the_53(self):
        # a float cannot hold every n past 2**53, so floats decide no floor
        # of the window and the decimal tiers decide them all
        ns = [0, 1, 2**53 + 1]
        assert _numeric._float_floors(5, 1, 2, ns) == [None] * 3
        assert floor_scaled_powers(5, 1, 2, [2**53 + 1]) == [0]
        assert floor_scaled_powers(5, 1, 2, ns) == [5, 2, 0]

    def test_e_floor_doubles_its_digits(self):
        # e * q is within 1e-61 of an integer for this 62-digit q: neither
        # floats nor 50 digits past its integer part clear that, so the
        # decimal rungs run at 50 plus the 63 digits of e * q, then twice that
        q = e_convergent_past(10**60)
        assert len(str(q)) == 62
        with pytest.MonkeyPatch.context() as mp:
            precs = digit_stop(mp)
            floor = floor_e_scaled_power(q, 1, 2, 0, log_below=200)
        with localcontext() as ctx:
            ctx.prec = 400
            assert floor == int(ctx.exp(1) * q)
        assert precs == [113, 226]


class TestLeastPowerRetry:
    """Where 50 digits leave the least exponent in doubt, one retry at 50
    plus twice the guess's digits decides it before the exact tier."""

    @pytest.mark.parametrize("t, k, v", [(6, 54, 3), (6, 1000, 3), (4, 30, 5), (3, 10, 7)])
    def test_retry_decides(self, six_digits, t, k, v):
        # at 6 digits err(n) is over a step of ln(v^t/(v^t-1)); at 6 + 2d,
        # with d the guess's digits, far below one
        vt = v**t
        m = math.comb(k, t) * vt
        n = least_exponent(m, vt, vt - 1)
        assert six_digits == [6, 6 + 2 * len(str(n))]
        assert exponent_holds(m, vt, vt - 1, n)
        assert not exponent_holds(m, vt, vt - 1, n - 1)


class TestLeastPowerPastEDoubling:
    """For the factor e, which never ties, the ladder doubles the digits
    past 50 plus twice the guess's digits, on err(n) alone: a guard of
    1e-9 of one step would leave these built near-ties undecided at every
    precision."""

    @settings(max_examples=50, deadline=None, database=None)
    @given(case=e_threshold_near_ties())
    def test_near_ties_decide_past_the_retry(self, case):
        w, num, den = case
        with six_digit_ladder() as precs:
            n = least_exponent(w, num, den, 1)
        assert beyond_e_times(w, num, den, n)
        assert not beyond_e_times(w, num, den, n - 1)
        # 6 digits, 6 plus twice the guess's digits, then doubled
        assert precs[0] == 6 and precs[1] - 6 in (2, 4, 6) and len(precs) >= 3
        assert all(b == 2 * a for a, b in zip(precs[1:], precs[2:]))


class TestLogThreshold:
    """The least n with n * ln(num/den) past the threshold c + ln m, on the
    ladder that decides both least exponents."""

    def test_plain_threshold(self):
        # ln(10)/ln(2) = 3.32: first n with n*ln2 > ln10 is 4;
        # 1 + ln 10 = ln 27.18..., first passed by 2**5
        assert least_exponent(10, 2, 1, 0) == 4
        assert least_exponent(10, 2, 1, 1) == 5

    def test_result_brackets_threshold(self):
        for m in (3, 10, 1000, 18828003285):
            n = least_exponent(m, 2, 1, 0)
            assert 2**n > m >= 2 ** (n - 1)
            n = least_exponent(m, 2, 1, 1)
            assert beyond_e_times(m, 2, 1, n) and not beyond_e_times(m, 2, 1, n - 1)

    def test_negative_threshold(self):
        # m = 0: the threshold ln m is -inf, passed at n = 0
        for c in (0, 1):
            assert least_exponent(0, 2, 1, c) == 0

    def test_ln_ratio_sign(self):
        # the step ln(num/den) the thresholds are measured in, both ways round
        for num, den in ((729, 728), (728, 729)):
            step = _numeric._log_estimate(1, num, den)[1]
            assert (step > 0) == (num > den)
            assert float(step) == pytest.approx(math.log(num / den), rel=1e-12)


class TestFloatLogRatio:
    """The one float ln(num/den), read by the float tier and the bounds'
    float notes."""

    @pytest.mark.parametrize("num, den", [(729, 728), (2, 1), (3, 2), (10**20 + 1, 10**20)])
    def test_above_one_is_log1p(self, num, den):
        # above 1 the log1p branch, bit for bit: every ratio the bounds pass
        assert _numeric.float_log_ratio(num, den) == math.log1p((num - den) / den)

    def test_keeps_its_digits_near_one(self):
        # num / den rounds to 1.0, whose log is 0; the log1p branch keeps
        # ln(1 + 1e-20) = 1e-20 - 5e-41, and the log branch takes 1/3
        assert math.log((10**20 + 1) / 10**20) == 0.0
        assert _numeric.float_log_ratio(10**20 + 1, 10**20) == 1e-20
        assert _numeric.float_log_ratio(1, 3) == math.log(1 / 3)
        assert _numeric.float_log_ratio(728, 729) == pytest.approx(-math.log(729 / 728), rel=1e-12)


class TestLnMemo:
    def test_matches_a_fresh_50_digit_ln(self):
        ctx = Context(prec=_numeric.PRECISION)
        for x in (1, 2, 728, 729, 18828003285, 10**60 + 1, 3**200):
            assert _numeric.dec_ln(x) == ctx.ln(x)

    def test_stays_bounded(self):
        for x in range(1, 2000):
            _numeric.dec_ln(x)
        info = _numeric.dec_ln.cache_info()
        assert info.maxsize == 256 and info.currsize <= 256


class TestPrimePower:
    def test_primes_and_powers(self):
        assert is_prime_power(2) == (2, 1)
        assert is_prime_power(9) == (3, 2)
        assert is_prime_power(8) == (2, 3)
        assert is_prime_power(27) == (3, 3)
        assert is_prime_power(1024) == (2, 10)

    def test_composites(self):
        for n in (1, 6, 10, 12, 15, 100):
            assert is_prime_power(n) is None
