"""High-precision numeric helpers backing the bound computations.

The rational questions - the least n with (num/den)**n past an integer m
(``least_power_exponent``) and floor(m * (num/den)**n) over many n
(``floor_scaled_powers``, one-n form ``floor_scaled_power``) - read one
estimate, ``_log_estimate``: ln m and ln(num/den) at 50 digits, and a
proven bound err(n) on the error of ln m + n * ln(num/den) evaluated from
them.  The estimate decides only where it is clear of err(n) plus a 1e-9
guard (of one step for the exponent, of one unit for a floor), and a
floor is 0 as soon as estimate + err(n) < 0.  A run of consecutive n
takes one 50-digit exp and then one multiplication by num/den per n.
Elsewhere the exact integers decide, once the memory cap has passed the
powers they build.  The 50-digit log of each integer is computed once
(``_ln``, a bounded memo) and read by every helper here.

``least_n_for_log_threshold`` - smallest n with n*step past a threshold,
both already in the log domain as 50-digit Decimals - serves thresholds
containing the transcendental factor e, where exact equality is
impossible and 50 digits decide the comparison outright.
"""

import functools
import math
from decimal import Decimal, localcontext
from typing import Callable, Iterable

from . import limits

PRECISION = 50
_GUARD = Decimal("1e-9")
# Decimal's ln, exp and arithmetic are correctly rounded, so each 50-digit
# operation errs by at most half a unit in the 50th digit: _ULP / 2 of its
# result.  The error bound below is built from this.
_ULP = Decimal(10) ** (1 - PRECISION)


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


def _log_estimate(
    m: int, num: int, den: int
) -> tuple[Decimal, Decimal, Callable[[int], Decimal]]:
    """ln m and step = ln num - ln den at 50 digits, for integers m, num,
    den >= 1, and err(n): a bound on how far ln m + n * step, evaluated at
    50 digits, is from ln(m * (num/den)**n), for every n >= 0.

    ln m, ln num, ln den, the step, n * step and the sum each err by at
    most _ULP / 2 of their computed size, and the sum is at most
    |ln m| + n|step| up to a factor 1 + 2 * _ULP.  So the total error is at
    most _ULP/2 * (3 ln m + n * (ln num + ln den + 4|step|)), which is at
    most 3/4 of err(n) = _ULP * (2 ln m + n * (ln num + ln den + 3|step|)).
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ln_m, ln_num, ln_den = _ln(m), _ln(num), _ln(den)
        step = ln_num - ln_den
        at_zero = 2 * _ULP * ln_m
        per_n = _ULP * (ln_num + ln_den + 3 * abs(step))
    return ln_m, step, lambda n: at_zero + n * per_n


def _check_power(base: int, n: int) -> None:
    """Raise ResourceLimitError before base**n would pass the memory cap."""
    limits.check_table_bytes(n, -(-base.bit_length() // 8), f"the exact power {base}**{n}")


def least_power_exponent(m: int, num: int, den: int, *, strict: bool = True) -> int:
    """Smallest n >= 0 with (num/den)**n > m (or >= m when not strict).

    Requires num > den >= 1.  With L(n) the estimate of ln(m * (den/num)**n)
    and e = err(n) plus a guard of 1e-9 of one step ln(num/den), the guess
    n = floor(ln m / ln(num/den)) + 1 is the answer to both comparisons when
    L(n) < -e and L(n-1) > e (err grows with n): m * (den/num)**n then
    crosses 1 strictly between n - 1 and n.  Otherwise the exact integer
    inequality num**n ? m * den**n decides, stepping from the guess.
    """
    if num <= den:
        raise ValueError("ratio must exceed 1")
    if m < 1:
        return 0
    ln_m, step, err = _log_estimate(m, den, num)
    if step == 0:
        raise ValueError("ratio too close to 1 for 50-digit logarithms")
    with localcontext() as ctx:
        ctx.prec = PRECISION
        n = math.floor(ln_m / -step) + 1
        e = err(n) - _GUARD * step
        if ln_m + n * step < -e and ln_m + (n - 1) * step > e:
            return n
    return _least_power_exact(m, num, den, n, strict)


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


def floor_scaled_powers(m: int, num: int, den: int, ns: Iterable[int]) -> list[int]:
    """[floor(m * (num/den)**n) for n in ns], exactly, for m >= 0 and
    0 < num < den.

    err grows with n, so e = err(max(ns)) bounds every estimate L of
    ln(m * (num/den)**n) here.  Each n costs a multiply-add and, unless
    L + e < 0 makes the floor 0, one 50-digit value of m * (num/den)**n:
    the exp of L or, when n is the previous n + 1 and that floor was not
    0, the previous value times the ratio num/den.  An exp is within a
    factor exp(+-3/4 e) and 1 +- _ULP / 2 of the exact value.  The ratio
    and each product are correctly rounded, so each adds a factor within
    1 +- _ULP / 2, and the value j products after an exp is within a factor
    exp(+-x) of the exact value, x = 3/4 e + (j + 1/2) * _ULP up to a
    factor 1 + _ULP on the second term.  While e < 1/2 (and j < 10**48),
    x < 1/2 and exp(x) - 1 <= 2x, so that value is within
    2 * (e + _ULP + j * _ULP) of its own size; from e = 1/2 on that bound
    is at least the value itself, so the exact quotient decides.  A
    value's integer part is trusted only when its fractional part is clear
    of this bound and of the 1e-9 guard.
    """
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return [0] * len(ns)
    ln_m, step, err = _log_estimate(m, num, den)
    out = []
    with localcontext() as ctx:
        ctx.prec = PRECISION
        bound = err(max(ns, default=0))
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
