"""High-precision numeric helpers backing the bound computations.

Every "smallest n such that an inequality holds" question in this package
reduces to one of two primitives:

* ``least_power_exponent`` - smallest n with (num/den)**n beyond an integer
  threshold.  The quotient ln m / ln(num/den) is computed at 50 digits
  with a proven error bound.  When the quotient is farther from every
  integer than that bound plus a 1e-9 guard, the 50-digit arithmetic
  decides the answer; otherwise the exact integer inequality is checked.
* ``least_n_for_log_threshold`` - smallest n with n*step past a threshold,
  both already in the log domain as 50-digit Decimals.  Used when the
  threshold contains the transcendental factor e, where exact equality is
  impossible and 50 digits decide the comparison outright.

``floor_scaled_powers`` computes floor(m * (num/den)**n) over many n with
one pair of logarithms.  The 50-digit estimate is trusted only when its
fractional part is farther from an integer than both a 1e-9 guard and the
estimate's own proven error bound; otherwise the exact big-integer quotient
is used.  ``floor_scaled_power`` is its one-n form.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable

PRECISION = 50
_FLOOR_GUARD = Decimal("1e-9")
# Decimal's ln, exp and arithmetic are correctly rounded, so each 50-digit
# operation errs by at most half a unit in the 50th digit: _ULP / 2 of its
# result.  The error bounds below are built from this.
_ULP = Decimal(10) ** (1 - PRECISION)


def dec_ln(x: int | Fraction) -> Decimal:
    """Natural log of an exact positive integer or fraction, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        if isinstance(x, Fraction):
            return Decimal(x.numerator).ln() - Decimal(x.denominator).ln()
        return Decimal(x).ln()


def ln_ratio(num: int, den: int) -> Decimal:
    """ln(num/den) for exact integers, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return Decimal(num).ln() - Decimal(den).ln()


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


def least_power_exponent(m: int, num: int, den: int, *, strict: bool = True) -> int:
    """Smallest n >= 0 with (num/den)**n > m (or >= m when not strict).

    Requires num > den >= 1 and m >= 1.  With Q = ln m / ln(num/den), the
    answer is floor(Q) + 1 for either comparison unless Q is an integer.
    When the 50-digit estimate q is farther from every integer than its
    error bound plus the 1e-9 guard, Q is not an integer and floor(q) + 1
    is the answer.  Otherwise the exact integer inequality
    num**n ? m * den**n decides, stepping from the estimate.
    """
    if num <= den:
        raise ValueError("ratio must exceed 1")
    if m < 1:
        return 0
    q, err = _power_quotient(m, num, den)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        frac = q - math.floor(q)
        clear = min(frac, 1 - frac) > _FLOOR_GUARD + err
    if clear:
        return math.floor(q) + 1
    n = math.floor(q) + 1 if strict else math.ceil(q)
    return _least_power_exact(m, num, den, n, strict)


def _power_quotient(m: int, num: int, den: int) -> tuple[Decimal, Decimal]:
    """q = ln m / ln(num/den) at 50 digits, and a bound on |q - ln m / ln(num/den)|.

    ln m and the quotient each add a relative error of at most _ULP / 2.  The
    step ln num - ln den carries the absolute errors of both logs plus its
    own rounding, a relative error of at most step_rel / 2 with
    step_rel = (ln num + ln den + step) / step * _ULP.  This is the
    cancellation term: large when num/den is close to 1, as v**t/(v**t - 1)
    is for large v**t.  While step_rel <= 1/4 the bound returned,
    2 * (q + 1) * (2 * _ULP + step_rel), is four times the first-order error
    and covers the higher-order terms; past that it is infinite, so the
    exact check decides.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ln_num, ln_den = Decimal(num).ln(), Decimal(den).ln()
        step = ln_num - ln_den
        if step <= 0:
            raise ValueError("ratio too close to 1 for 50-digit logarithms")
        q = Decimal(m).ln() / step
        step_rel = (ln_num + ln_den + step) / step * _ULP
        if step_rel > Decimal("0.25"):
            return q, Decimal("Infinity")
        return q, 2 * (q + 1) * (2 * _ULP + step_rel)


def _least_power_exact(m: int, num: int, den: int, n: int, strict: bool) -> int:
    """Smallest n >= 0 with num**n > m * den**n (>= when not strict), found
    from the candidate n by exact integer steps: the powers are built once,
    then moved by one multiplication or division per step."""
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

    ln m and ln num - ln den are computed once, then each n costs one 50-digit
    exp.  An estimate is trusted only when its fractional part is farther
    from an integer than both the 1e-9 guard and the estimate's own error
    bound; otherwise the exact big-integer quotient is used.
    """
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return [0] * len(ns)
    out = []
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ln_m, ln_num, ln_den = Decimal(m).ln(), Decimal(num).ln(), Decimal(den).ln()
        step = ln_num - ln_den
        # Relative error bound for every estimate below.  ln m, the step (from
        # two logs), n * step and the sum each err by at most _ULP / 2 of
        # their size, and |log_e| <= |ln m| + n|step|, so log_e is off by at
        # most _ULP/2 * (2|ln m| + n*(|ln num| + |ln den| + 3|step|)); exp
        # adds _ULP / 2.  Taken at the largest n and doubled, this covers
        # the higher-order terms.  Times the estimate, it exceeds the 1e-9
        # guard only far above any bound's floors: above about 6e34 for n
        # near 12,400 and v**t = 729.
        rel = _ULP * (
            2 * abs(ln_m) + max(ns, default=0) * (abs(ln_num) + abs(ln_den) + 3 * abs(step)) + 1
        )
        for n in ns:
            if n == 0:
                out.append(m)
                continue
            est = (ln_m + n * step).exp()
            frac = est - int(est)
            guard = max(_FLOOR_GUARD, est * rel)
            if frac < guard or frac > 1 - guard:
                out.append((m * num**n) // den**n)
            else:
                out.append(int(est))
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
