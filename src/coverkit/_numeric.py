"""Numeric helpers behind the bound computations, on one ladder of tiers.

Every bound reduces to a question about integers m, num, den, n and c in
{0, 1}, c being the power of e: the least n with (num/den)**n > e**c * m
(``least_exponent``; c = 1 for the local lemma thresholds, where e * m
is irrational, so that >= would give the same n), or
floor(e**c * m * (num/den)**n) (``floor_scaled_powers`` over any n,
``floor_e_scaled_power`` for the conditional bound's leftover).  The
two-stage search window, floor(n*) and ceil(3 / ln x) for
n* = ln(m ln x) / ln x (``optimum_window``), is read from the same
estimates.  Each is answered by one ladder (Ziv's strategy): estimate
c + ln m + n * ln(num/den), compare it against a proven bound on the
estimate's own error, and add digits until the estimate decides.  A rung
decides only where it clears its bound, so each gives the value the next
would give.

1. **binary64** (``_float_log_estimate``, its step ``float_log_ratio``,
   the one float ln(num/den) the bounds' float notes read too), with a
   bound tau(n) on the error.  It decides where it clears tau(n) plus a
   guard of 1e-9 (of one step for an exponent, relative to the value for
   a floor), and ``floor_scaled_powers`` makes one numpy pass over all
   its n.  The bound rests on IEEE arithmetic (+, -, *, / and
   int-to-float conversion correctly rounded, u = 2**-53) and on one
   assumption: math.log, math.log1p, math.exp (the conditional bound's
   leftover) and numpy's exp each err by at most 4 ulp (8u of their
   result); they measure under 1 ulp on x86-64 Linux with numpy 2.4.
   Under it, tau(n) = 2**-48 * (c + ln m + n|step| + 1) bounds the error of
   c + ln m + n * step, exp included, with a factor 2 to spare
   (``_float_log_estimate`` has the sum).  On the bench shapes tau(n) is
   below 1e-12, so the guard is over a thousand times the error.  The next
   rung gets only values near a tie and floors past about 1e9, whose
   fractional part a float cannot place within the guard.
2. **50 digits** (``_log_estimate``), with a proven bound err(n) plus the
   same guard.  The 50-digit log of each integer is computed once
   (``dec_ln``, a bounded memo).  A run of consecutive n takes one 50-digit
   exp and then one multiplication by num/den per n.
3. **More digits**, with err(n) alone: a guard would keep a near tie
   undecided at any precision.  A least exponent is tried at 50 plus twice
   the digits of its guess, as err(n) grows as n times the unit of the
   last digit while the step shrinks about as 1/n, so that 50 digits
   cannot decide past guesses of about 1e24.  The floor with the factor e
   starts at 50 digits more than it has.
4. **Exact.**  The rational question (c = 0) is decided by the exact
   integers, once the memory cap has passed the powers they build.  This
   tier, reached only where the wider estimates still tie, reads the caps
   (``limits.Budget.from_env``) once for each power it builds.  The
   questions with the factor e never tie, as e times a rational is
   irrational: their digits are doubled until the estimate decides.
"""

import functools
import math
from decimal import Decimal, localcontext
from typing import Callable, Iterable

import numpy as np

from . import limits

PRECISION = 50
_GUARD = Decimal("1e-9")
# Decimal's ln, exp and arithmetic are correctly rounded, so each 50-digit
# operation errs by at most half a unit in the 50th digit: _ULP / 2 of its
# result.  The error bound below is built from this.
_ULP = Decimal(10) ** (1 - PRECISION)
# the float tier's guard (a float, so a test can set it to inf to turn the
# tier off) and the factor of its error bound tau(n)
_FLOAT_GUARD = 1e-9
_FLOAT_ERR = 2.0**-48
_TOO_CLOSE = "ratio too close to 1 for 50-digit logarithms"


@functools.lru_cache(maxsize=256)
def dec_ln(x: int) -> Decimal:
    """ln x of an exact positive integer, to 50 digits.  Decimal's ln is
    correctly rounded, so a remembered value is the one a new call gives."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return Decimal(x).ln()


def float_log_ratio(num: int, den: int) -> float:
    """ln(num/den) in floats, for integers num, den >= 1: log below 1/2 and
    log1p((num - den)/den) otherwise, which keeps its precision where the
    ratio is barely above or below 1."""
    return math.log(num / den) if 2 * num < den else math.log1p((num - den) / den)


def _floor_if_clear(value, slack):
    """floor(value), for a float or Decimal value >= 0 known to within
    slack, where its fractional part clears slack on both sides, else
    None."""
    whole = math.floor(value)
    return whole if slack < value - whole < 1 - slack else None


def _float_log_estimate(
    m: int, num: int, den: int, c: int = 0
) -> tuple[float, float, Callable] | None:
    """c + ln m and step = ln(num/den) in floats, for integers m, num, den
    >= 1 and c in {0, 1}, and tau(n), which bounds how far c + ln m +
    n * step, evaluated in floats, and the exp of that sum are from their
    exact values in the log domain, for every n >= 0 (a float or an
    array); None when a float cannot hold the step.

    The step is ``float_log_ratio``: log(num/den) below 1/2 and
    log1p((num - den)/den) otherwise, so rounding the quotient moves it by
    at most 1.5u of its size, and it errs by at most 9.5u|step|.  ln m
    errs by at most 8u ln m + 8u (m is rounded to a float first, or split
    by frexp past 2**1024).  The sum c + ln m, the product n * step (with
    n rounded to a float) and the total each add a rounding, and exp 8u
    more: 10u(c + ln m) + 12.5u n|step| + 16u in all, within half of
    tau(n) = 32u (c + ln m + n|step| + 1).
    """
    try:
        step = float_log_ratio(num, den)
    except (OverflowError, ValueError):  # the quotient over or under the float range
        return None
    if abs(step) < 1e-200:  # the quotient may have lost digits to underflow
        return None
    at_zero = c + math.log(m)
    return at_zero, step, lambda n: _FLOAT_ERR * (at_zero + n * abs(step) + 1)


def _log_estimate(
    m: int, num: int, den: int, prec: int = PRECISION, c: int = 0
) -> tuple[Decimal, Decimal, Callable[[int], Decimal]]:
    """c + ln m and step = ln num - ln den at ``prec`` digits (50 unless
    given), for integers m, num, den >= 1 and c in {0, 1}, and err(n): a
    bound on how far c + ln m + n * step, evaluated at those digits, is from
    c + ln(m * (num/den)**n), for every n >= 0.

    With ulp = 10**(1 - prec), ln m, c + ln m, ln num, ln den, the step,
    n * step and the sum each err by at most ulp / 2 of their computed size,
    and the sum is at most c + ln m + n|step| up to a factor 1 + 2 * ulp.
    So the total error is at most ulp/2 * (3(c + ln m) + n * (ln num +
    ln den + 4|step|)), which is at most 3/4 of err(n) = ulp * (2(c + ln m)
    + n * (ln num + ln den + 3|step|)).  The 50-digit logs are read from
    the ``dec_ln`` memo.
    """
    ulp = Decimal(10) ** (1 - prec)
    with localcontext() as ctx:
        ctx.prec = prec
        ln = dec_ln if prec == PRECISION else (lambda x: Decimal(x).ln())
        at_zero, ln_num, ln_den = c + ln(m), ln(num), ln(den)
        step = ln_num - ln_den
        err_at_zero = 2 * ulp * at_zero
        per_n = ulp * (ln_num + ln_den + 3 * abs(step))
    return at_zero, step, lambda n: err_at_zero + n * per_n


def _check_power(base: int, n: int) -> None:
    """Raise ResourceLimitError before base**n would pass the memory cap."""
    limits.Budget.from_env().check_table_bytes(
        n, -(-base.bit_length() // 8), f"the exact power {base}**{n}")


def _crossing(at_zero, step, bound, guard) -> tuple[int, bool]:
    """The guess n = floor(at_zero / -step) + 1 for the least n >= 0 with
    L(n) = at_zero + n * step < 0, step < 0, from an estimate of L whose
    error ``bound`` gives, and whether it is sure: L(n) < -e and
    L(n-1) > e for e = bound(n) plus ``guard`` of one step, as bound grows
    with n.  The exact L then crosses 0 strictly between n - 1 and n."""
    n = math.floor(at_zero / -step) + 1
    e = bound(n) - guard * step
    return n, at_zero + n * step < -e and at_zero + (n - 1) * step > e


def least_exponent(m: int, num: int, den: int, c: int = 0) -> int:
    """The least n >= 0 with (num/den)**n > e**c * m, for integers m,
    num > den >= 1 and c in {0, 1}.

    Each rung estimates L(n) = c + ln m - n ln(num/den) and decides where
    ``_crossing`` is sure of its guess.  The rungs are floats with tau(n)
    plus the 1e-9 guard, 50 digits with err(n) plus the guard, then 50 plus
    twice the guess's digits with err(n) alone, and last, for c = 0, the
    exact integer inequality num**n > m * den**n, stepping from the last
    guess, or, for c = 1, twice the digits again until the estimate is
    sure.
    """
    if num <= den:
        raise ValueError("ratio must exceed 1")
    if m < 1:
        return 0
    estimate = _float_log_estimate(m, den, num, c)
    if estimate is not None:
        n, sure = _crossing(*estimate, _FLOAT_GUARD)
        if sure:
            return n
    prec, guard = PRECISION, _GUARD
    while True:
        at_zero, step, err = _log_estimate(m, den, num, prec, c)
        if step == 0:
            raise ValueError(_TOO_CLOSE)
        with localcontext() as ctx:
            ctx.prec = prec
            n, sure = _crossing(at_zero, step, err, guard)
        if sure:
            return n
        if prec == PRECISION:
            prec, guard = PRECISION + 2 * len(str(n)), 0
        elif c == 0:
            return _least_power_exact(m, num, den, n)
        else:
            prec *= 2


def _least_power_exact(m: int, num: int, den: int, n: int) -> int:
    """Smallest n >= 0 with num**n > m * den**n, found from the candidate n
    by exact integer steps: the powers are built once, then moved by one
    multiplication or division per step."""
    _check_power(num, n)
    lhs, rhs = num**n, m * den**n
    while lhs <= rhs:
        n, lhs, rhs = n + 1, lhs * num, rhs * den
    while n > 0 and lhs // num > rhs // den:
        n, lhs, rhs = n - 1, lhs // num, rhs // den
    return n


def optimum_exponent(m: int, num: int, den: int) -> float:
    """n* = ln(m ln x) / ln x at 50 digits, as a float, for x = num/den > 1
    (0 where m ln x <= 1): the real n >= 0 where n + m * x**-n is least."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        lnx = dec_ln(num) - dec_ln(den)
        scaled = Decimal(m) * lnx
        return float(scaled.ln() / lnx) if scaled > 1 else 0.0


def optimum_window(m: int, num: int, den: int) -> tuple[int, int]:
    """(floor(n*), ceil(3 / ln x)) for x = num/den > 1 and n* as
    ``optimum_exponent`` gives it, and ln x to 50 digits rounded to a
    float; ValueError where 50 digits cannot tell x from 1.  Each is
    decided in binary64 where it clears a proven error bound and the guard,
    else at 50 digits.

    With ln m and L = ln x from ``_float_log_estimate`` (errors at most
    8u ln m + 8u and 9.5u L), n* = (ln m + ln L) / L in floats errs by at
    most 10u (ln m + |ln L| + 2) / L + 11u n*, within half of tau =
    2**-48 ((ln m + |ln L| + 2) / L + n* + 1).  The 50-digit n* is far
    closer to the exact one, and rounding it to a float moves it by at most
    u n*, both inside the half of tau to spare.  So with the guard of 1e-9
    (of one step of n) on top, floor(n*) is 0 where n* + tau + guard < 1
    (the 50-digit n* is then below 1, or 0 when m ln x <= 1), and the
    float's integer part where its fractional part clears tau + guard.
    3 / L errs by at most 12u of itself against 3 over the 50-digit L in
    floats, so its ceil is decided where its fractional part clears 2**-48
    of it plus the guard."""
    centre = span = None
    estimate = _float_log_estimate(m, num, den)
    if estimate is not None:
        ln_m, lnx, _ = estimate
        ln_lnx = math.log(lnx)
        nstar = (ln_m + ln_lnx) / lnx
        slack = _FLOAT_ERR * ((ln_m + abs(ln_lnx) + 2) / lnx + abs(nstar) + 1) + _FLOAT_GUARD
        centre = 0 if nstar + slack < 1 else _floor_if_clear(nstar, slack)
        width = 3 / lnx
        whole = _floor_if_clear(width, _FLOAT_ERR * width + _FLOAT_GUARD)
        span = None if whole is None else whole + 1
    if span is None:
        lnx = _log_estimate(1, num, den)[1]
        if lnx == 0:
            raise ValueError(_TOO_CLOSE)
        span = math.ceil(3 / float(lnx))
    if centre is None:
        centre = math.floor(optimum_exponent(m, num, den))
    return centre, span


def _float_floors(m: int, num: int, den: int, ns: list[int]) -> list[int | None]:
    """[floor(m * (num/den)**n) for n in ns] where floats decide it,
    None elsewhere, in one numpy pass.  A floor is 0 where the log
    estimate L is below -(tau(n) + 1e-9).  Otherwise, with |L - exact| <=
    tau(n), the float value x = exp(L) is within 2 tau(n) x of the exact
    value (|e**d - 1| <= 2|d| for |d| <= 1), and its integer part is the
    floor where its fractional part is clear of x * (2 tau(n) + 1e-9), which
    no x above about 1e9 is."""
    estimate = _float_log_estimate(m, num, den)
    if estimate is None or max(ns, default=0) > 2**53:
        return [None] * len(ns)
    at_zero, step, tau = estimate
    n = np.array(ns, dtype=np.float64)
    log, err = at_zero + n * step, tau(n)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(log)
        whole = np.floor(value)
        frac, slack = value - whole, value * (2 * err + _FLOAT_GUARD)
        sure = (slack < frac) & (frac < 1 - slack)
    zero = log < -(err + _FLOAT_GUARD)
    floors = np.where(zero, 0.0, np.where(sure, whole, -1.0)).astype(np.int64).tolist()
    return [None if f < 0 else f for f in floors]


def floor_scaled_powers(m: int, num: int, den: int, ns: Iterable[int]) -> list[int]:
    """[floor(m * (num/den)**n) for n in ns], exactly, for m >= 0 and
    0 < num < den.

    One float pass (``_float_floors``) decides what it can; the n it leaves
    take the 50-digit chain below, in order.  There, err grows with n, so
    e = err(max) bounds every estimate L of ln(m * (num/den)**n).  Each n
    costs a multiply-add and, unless L + e < 0 makes the floor 0, one
    50-digit value of m * (num/den)**n: the exp of L or, when n is the
    previous n + 1 and that floor was not 0, the previous value times the
    ratio num/den.  An exp is within a factor exp(+-3/4 e) and
    1 +- _ULP / 2 of the exact value.  The ratio and each product are
    correctly rounded, so each adds a factor within 1 +- _ULP / 2, and the
    value j products after an exp is within a factor exp(+-x) of the exact
    value, x = 3/4 e + (j + 1/2) * _ULP up to a factor 1 + _ULP on the
    second term.  While e < 1/2 (and j < 10**48), x < 1/2 and
    exp(x) - 1 <= 2x, so that value is within 2 * (e + _ULP + j * _ULP) of
    its own size; from e = 1/2 on that bound is at least the value itself,
    so the exact quotient decides.  A value's integer part is trusted only
    when its fractional part is clear of this bound and of the 1e-9 guard.
    """
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return [0] * len(ns)
    out = _float_floors(m, num, den, ns)
    rest = [n for n, f in zip(ns, out) if f is None]
    if rest:
        fifty = iter(_floor_chain(m, num, den, rest))
        out = [next(fifty) if f is None else f for f in out]
    return out


def _floor_chain(m: int, num: int, den: int, ns: list[int]) -> list[int]:
    """The 50-digit and exact tiers of ``floor_scaled_powers``."""
    ln_m, step, err = _log_estimate(m, num, den)
    out = []
    with localcontext() as ctx:
        ctx.prec = PRECISION
        bound = err(max(ns))
        rel, below = 2 * (bound + _ULP), -bound
        ratio = Decimal(num) / Decimal(den)
        chain = -1  # the n whose value is the last value times the ratio
        for n in ns:
            log_e = ln_m + n * step
            if log_e < below:  # log_e + bound < 0, without aligning the digits
                out.append(0)
                chain = -1
                continue
            if n == chain:
                est, slack = est * ratio, slack + 2 * _ULP
            else:
                est, slack = log_e.exp(), rel
            chain = n + 1
            whole = _floor_if_clear(est, max(_GUARD, est * slack))
            if whole is None:
                _check_power(den, n)
                whole = (m * num**n) // den**n
            out.append(whole)
    return out


def floor_e_scaled_power(m: int, num: int, den: int, n: int, *, log_below: int) -> int | None:
    """floor(e * m * (num/den)**n) exactly, for m >= 1, 0 < num < den and
    n >= 0, or None when the log of the value is at least ``log_below``.

    Floats decide both where they are clear, the floor by the rule of
    ``_float_floors`` for one n.  Where they are not, the 50-digit log
    decides the cap, and ``_floor_e_exact`` evaluates the floor with as
    many digits more than 50 as it has."""
    estimate = _float_log_estimate(m, num, den, 1)
    if estimate is not None:
        at_zero, step, tau = estimate
        log, err = at_zero + n * step, tau(n)
        if log + err + _FLOAT_GUARD < log_below:
            value = math.exp(log)
            whole = _floor_if_clear(value, value * (2 * err + _FLOAT_GUARD))
            return _floor_e_exact(m, num, den, n, log) if whole is None else whole
    at_zero, step, _ = _log_estimate(m, num, den, PRECISION, 1)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        log = at_zero + n * step
    return None if log >= log_below else _floor_e_exact(m, num, den, n, float(log))


def _floor_e_exact(m: int, num: int, den: int, n: int, log: float) -> int:
    """floor(e * m * (num/den)**n), with log about the log of the value.

    At precision p, with ulp = 10**(1-p), the log from ``_log_estimate``
    errs by at most 3/4 of err(n), and its exp, rounded once more, is within
    2 (err(n) + ulp) of its own size while err(n) <= 1/4; past that, this
    slack is at least the value and decides nothing.  The floor is the
    value's integer part where the fractional part clears that; p starts at
    50 plus the value's digits and doubles until it does, which it must, as
    the value is irrational."""
    prec = PRECISION + max(0, math.ceil(log / math.log(10)))
    while True:
        at_zero, step, err = _log_estimate(m, num, den, prec, 1)
        with localcontext() as ctx:
            ctx.prec = prec
            value = (at_zero + n * step).exp()
            whole = _floor_if_clear(value, 2 * value * (err(n) + Decimal(10) ** (1 - prec)))
        if whole is not None:
            return whole
        prec *= 2


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, m) with n == p**m and p prime, or None.

    Trial factorization; intended for alphabet sizes, where n stays small.
    """
    if n < 2:
        return None
    p = None
    for cand in range(2, math.isqrt(n) + 1):
        if n % cand == 0:
            p = cand
            break
    if p is None:
        return (n, 1)
    m = 0
    rest = n
    while rest % p == 0:
        rest //= p
        m += 1
    return (p, m) if rest == 1 else None
