"""Numeric helpers behind the bound computations, in three tiers.

Every bound reduces to one of four questions about integers m, w, num,
den and n: the least n with (num/den)**n past m (``least_power_exponent``)
or past e*w (``least_power_past_e``, the local lemma thresholds), floor(m *
(num/den)**n) over many n (``floor_scaled_powers``, one-n form
``floor_scaled_power``) and floor(e * m * (num/den)**n)
(``floor_e_scaled_power``, the conditional bound's leftover).  Each is
answered by the first of three tiers that can decide it; a tier decides
only where its estimate clears a proven bound on its own error, so every
tier gives the value the next would give.

1. **binary64** (``_float_log_estimate``).  ln m + n * ln(num/den) in
   floats, with a bound tau(n) on its error.  It decides where it clears
   tau(n) plus a guard of 1e-9 (of one step for an exponent, relative to
   the value for a floor), and ``floor_scaled_powers`` makes one numpy
   pass over all its n.  The bound rests on IEEE arithmetic (+, -, *, /
   and int-to-float conversion correctly rounded, u = 2**-53) and on one
   assumption: math.log, math.log1p and numpy's exp each err by at most 4
   ulp (8u of their result); they measure under 1 ulp on x86-64 Linux
   with numpy 2.4.  Under it, tau(n) = 2**-48 * (c + ln m + n|step| + 1)
   bounds the error of c + ln m + n * step (c is 1 for the factor e), exp
   included, with a factor 2 to spare (``_float_log_estimate`` has the
   sum).  On the bench shapes tau(n) is below 1e-12, so the guard is over
   a thousand times the error.  The next tier gets only values near a tie
   and floors past about 1e9, whose fractional part a float cannot place
   within the guard.
2. **50 digits** (``_log_estimate``).  The same estimate from 50-digit
   logs, with a proven bound err(n); ``least_power_exponent`` tries once
   more with 50 digits plus twice those of its guess before the next
   tier.  The 50-digit log of each integer is computed once (``_ln``, a
   bounded memo).  A run of consecutive n takes one 50-digit exp and then
   one multiplication by num/den per n.
3. **Exact.**  For the rational questions, the exact integers decide, once
   the memory cap has passed the powers they build.  The questions with
   the factor e never tie, as e times a rational is irrational: the
   threshold is compared at 50 digits outright
   (``least_n_for_log_threshold``), and the floor of e * m * (num/den)**n
   is evaluated with as many more digits as it has, more until its
   fractional part clears the error (Ziv's strategy).
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


@functools.lru_cache(maxsize=256)
def _ln(x: int) -> Decimal:
    """ln x of an exact positive integer, to 50 digits.  Decimal's ln is
    correctly rounded, so a remembered value is the one a new call gives."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return Decimal(x).ln()


def dec_ln(x: int) -> Decimal:
    """Natural log of an exact positive integer, to 50 digits."""
    return _ln(x)


def ln_ratio(num: int, den: int) -> Decimal:
    """ln(num/den) for exact integers, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return _ln(num) - _ln(den)


def least_n_for_log_threshold(threshold: Decimal, step: Decimal, *, strict: bool) -> int:
    """Smallest integer n >= 0 with n*step > threshold (or >= when not strict).

    ``step`` must be positive.  Thresholds at or below zero yield 0 (or 1 for
    a strict comparison against exactly zero).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    with localcontext() as ctx:
        ctx.prec = PRECISION
        q = threshold / step
    n = math.floor(q) + 1 if strict else math.ceil(q)
    return max(n, 0)


def _float_log_estimate(
    m: int, num: int, den: int, c: int = 0
) -> tuple[float, float, Callable] | None:
    """c + ln m and step = ln(num/den) in floats, for integers m, num, den
    >= 1 and c in {0, 1}, and tau(n), which bounds how far c + ln m +
    n * step, evaluated in floats, and the exp of that sum are from their
    exact values in the log domain, for every n >= 0 (a float or an
    array); None when a float cannot hold the step.

    The step is log(num/den) below 1/2 and log1p((num - den)/den) otherwise,
    so rounding the quotient moves it by at most 1.5u of its size, and it
    errs by at most 9.5u|step|.  ln m errs by at most 8u ln m + 8u (m is
    rounded to a float first, or split by frexp past 2**1024).  The sum
    c + ln m, the product n * step (with n rounded to a float) and the
    total each add a rounding, and exp 8u more: 10u(c + ln m) +
    12.5u n|step| + 16u in all, within half of tau(n) = 32u (c + ln m +
    n|step| + 1).
    """
    try:
        step = math.log(num / den) if 2 * num < den else math.log1p((num - den) / den)
    except (OverflowError, ValueError):  # the quotient over or under the float range
        return None
    if abs(step) < 1e-200:  # the quotient may have lost digits to underflow
        return None
    at_zero = c + math.log(m)
    return at_zero, step, lambda n: _FLOAT_ERR * (at_zero + n * abs(step) + 1)


def _float_least_exponent(m: int, num: int, den: int, c: int) -> int | None:
    """The least n >= 0 with (num/den)**n past e**c * m, for num > den, as
    both comparisons give it, when floats decide it, else None.  With L(n)
    the float estimate of c + ln m - n ln(num/den) and e = tau(n) plus 1e-9
    of one step, the guess n = floor(q) + 1 for the float quotient q is the
    answer when L(n) < -e and L(n-1) > e: the exact value crosses 0
    strictly between n - 1 and n."""
    estimate = _float_log_estimate(m, den, num, c)
    if estimate is None:
        return None
    at_zero, step, tau = estimate
    n = math.floor(at_zero / -step) + 1
    e = tau(n) - _FLOAT_GUARD * step
    if at_zero + n * step < -e and at_zero + (n - 1) * step > e:
        return n
    return None


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


def _log_estimate(
    m: int, num: int, den: int, prec: int = PRECISION
) -> tuple[Decimal, Decimal, Callable[[int], Decimal]]:
    """ln m and step = ln num - ln den at ``prec`` digits (50 unless given),
    for integers m, num, den >= 1, and err(n): a bound on how far
    ln m + n * step, evaluated at those digits, is from
    ln(m * (num/den)**n), for every n >= 0.

    With ulp = 10**(1 - prec), ln m, ln num, ln den, the step, n * step and
    the sum each err by at most ulp / 2 of their computed size, and the sum
    is at most |ln m| + n|step| up to a factor 1 + 2 * ulp.  So the total
    error is at most ulp/2 * (3 ln m + n * (ln num + ln den + 4|step|)),
    which is at most 3/4 of err(n) = ulp * (2 ln m + n * (ln num + ln den +
    3|step|)).  The 50-digit logs are read from the ``_ln`` memo.
    """
    ulp = Decimal(10) ** (1 - prec)
    with localcontext() as ctx:
        ctx.prec = prec
        ln = _ln if prec == PRECISION else (lambda x: Decimal(x).ln())
        ln_m, ln_num, ln_den = ln(m), ln(num), ln(den)
        step = ln_num - ln_den
        at_zero = 2 * ulp * ln_m
        per_n = ulp * (ln_num + ln_den + 3 * abs(step))
    return ln_m, step, lambda n: at_zero + n * per_n


def _check_power(base: int, n: int) -> None:
    """Raise ResourceLimitError before base**n would pass the memory cap."""
    limits.check_table_bytes(n, -(-base.bit_length() // 8), f"the exact power {base}**{n}")


def least_power_exponent(m: int, num: int, den: int, *, strict: bool = True) -> int:
    """Smallest n >= 0 with (num/den)**n > m (or >= m when not strict).

    Requires num > den >= 1.  Floats decide first (``_float_least_exponent``).
    Then, with L(n) the 50-digit estimate of ln(m * (den/num)**n) and
    e = err(n) plus a guard of 1e-9 of one step ln(num/den), the guess
    n = floor(ln m / ln(num/den)) + 1 is the answer to both comparisons when
    L(n) < -e and L(n-1) > e (err grows with n): m * (den/num)**n then
    crosses 1 strictly between n - 1 and n.  Where 50 digits leave it in
    doubt, the same test is made once more with 50 digits plus twice as many
    as the guess has: err(n) grows as n times the unit of the last digit
    while the step shrinks about as 1/n, so 50 digits alone cannot decide
    past guesses of about 1e24.  Otherwise the exact integer inequality
    num**n ? m * den**n decides, stepping from the last guess.
    """
    if num <= den:
        raise ValueError("ratio must exceed 1")
    if m < 1:
        return 0
    n = _float_least_exponent(m, num, den, 0)
    if n is not None:
        return n
    prec = PRECISION
    while True:
        ln_m, step, err = _log_estimate(m, den, num, prec)
        if step == 0:
            raise ValueError("ratio too close to 1 for 50-digit logarithms")
        with localcontext() as ctx:
            ctx.prec = prec
            n = math.floor(ln_m / -step) + 1
            e = err(n) - _GUARD * step
            if ln_m + n * step < -e and ln_m + (n - 1) * step > e:
                return n
        if prec > PRECISION:
            return _least_power_exact(m, num, den, n, strict)
        prec = PRECISION + 2 * len(str(n))


def _least_power_exact(m: int, num: int, den: int, n: int, strict: bool) -> int:
    """Smallest n >= 0 with num**n > m * den**n (>= when not strict), found
    from the candidate n by exact integer steps: the powers are built once,
    then moved by one multiplication or division per step."""
    _check_power(num, n)
    lhs, rhs = num**n, m * den**n

    def holds(a: int, b: int) -> bool:
        return a > b if strict else a >= b

    while not holds(lhs, rhs):
        n, lhs, rhs = n + 1, lhs * num, rhs * den
    while n > 0 and holds(lhs // num, rhs // den):
        n, lhs, rhs = n - 1, lhs // num, rhs // den
    return n


def least_power_past_e(w: int, num: int, den: int, *, strict: bool) -> int:
    """Smallest n >= 0 with (num/den)**n > e * w (>= when not strict), for
    integers w >= 1 and num > den >= 1.  e * w is irrational, so the two
    comparisons agree.  Floats decide first (``_float_least_exponent``),
    then the 50-digit comparison of n * ln(num/den) with 1 + ln w."""
    n = _float_least_exponent(w, num, den, 1)
    if n is not None:
        return n
    with localcontext() as ctx:
        ctx.prec = PRECISION
        threshold = 1 + _ln(w)
    return least_n_for_log_threshold(threshold, ln_ratio(num, den), strict=strict)


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
            whole = int(est)
            guard = max(_GUARD, est * slack)
            if guard < est - whole < 1 - guard:
                out.append(whole)
            else:
                _check_power(den, n)
                out.append((m * num**n) // den**n)
    return out


def floor_scaled_power(m: int, num: int, den: int, n: int) -> int:
    """floor(m * (num/den)**n) computed exactly, for m >= 0, 0 < num < den."""
    return floor_scaled_powers(m, num, den, (n,))[0]


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
            whole, slack = math.floor(value), value * (2 * err + _FLOAT_GUARD)
            if slack < value - whole < 1 - slack:
                return whole
            return _floor_e_exact(m, num, den, n, log)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        log = 1 + _ln(m) - n * ln_ratio(den, num)
    return None if log >= log_below else _floor_e_exact(m, num, den, n, float(log))


def _floor_e_exact(m: int, num: int, den: int, n: int, log: float) -> int:
    """floor(e * m * (num/den)**n), with log about the log of the value.

    At precision p, with ulp = 10**(1-p), ln m, ln num, ln den, their
    differences, sums and product with n each err by at most ulp/2 of
    their size, so the log errs by at most err = ulp * (2 + 2 ln m +
    n(ln num + ln den + 3|step|) + |log|), and its exp, rounded once more,
    is within 2 (err + ulp) of its own size while err <= 1.  The floor is
    its integer part where the fractional part clears that; p starts at 50
    plus the value's digits and doubles until it does, which it must, as
    the value is irrational."""
    prec = PRECISION + max(0, math.ceil(log / math.log(10)))
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            ulp = Decimal(10) ** (1 - prec)
            ln_m, ln_num, ln_den = (Decimal(x).ln() for x in (m, num, den))
            step = ln_num - ln_den
            log_v = 1 + ln_m + n * step
            err = ulp * (2 + 2 * ln_m + n * (ln_num + ln_den + 3 * abs(step)) + abs(log_v))
            value = log_v.exp()
            whole = int(value)
            slack = 2 * value * (err + ulp)
            if slack < value - whole < 1 - slack:
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
