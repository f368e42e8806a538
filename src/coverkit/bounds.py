"""Upper bounds on the minimum covering array size CAN(t, k, v).

Five families of bounds are implemented, all returning a ``BoundReport``:

* ``slj_bound``            - expectation argument on a fully random array:
  the smallest N with C(k,t) * v**t * (1 - 1/v**t)**N < 1.
* ``discrete_slj_bound``   - row-at-a-time refinement: repeatedly take the
  integer floor of the expected leftover count until it reaches zero.  The
  step count is the bound; the full trace of counts and per-step deficits
  is returned alongside.
* ``two_stage_bound``      - alteration: minimize over n the total
  n + floor(C(k,t) * v**t * (1 - 1/v**t)**n), a random partial array plus
  one patch row per surviving uncovered interaction.
* ``gss_lll_bound`` and the group-action variants ``cyclic_lll_bound``,
  ``frobenius_lll_bound``, ``pgl_lll_bound`` - local lemma bounds.  Each
  bad event is "some (orbit of) symbol tuples on a fixed column t-set is
  uncovered"; a bad event depends on at most d others, where d counts the
  column t-sets sharing a column, and e*p*(d+1) <= 1 guarantees a good
  outcome.  The group variants count orbits instead of tuples and pay a
  factor of the group order (plus short-orbit patch rows) on the way back.
* ``conditional_lll_two_stage_bound`` - a local lemma first stage that
  covers one designated interaction per column set, followed by patching;
  the leftover count after stage one is estimated under the distribution
  conditioned on the first stage succeeding.

All "smallest n satisfying an inequality" computations are solved in
50-digit arithmetic.  When the inequality is purely rational, that result
decides only if it clears a proven error bound, and the exact integer
comparison decides otherwise (see ``_numeric``).  Counts such as
C(k,t) * v**t are exact integers throughout; nothing is ever silently
truncated to machine floats except in report fields documented as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from typing import Iterator, Literal, Sequence

from . import _numeric as num
from .core import CAParams
from .errors import ResourceLimitError, UnsupportedParameterError

__all__ = [
    "BoundReport",
    "DiscreteSljTrace",
    "slj_bound",
    "discrete_slj_bound",
    "discrete_slj_estimate",
    "two_stage_bound",
    "two_stage_objective",
    "two_stage_objectives",
    "gss_lll_bound",
    "cyclic_lll_bound",
    "frobenius_lll_bound",
    "pgl_lll_bound",
    "conditional_lll_two_stage_bound",
    "asymptotic_coefficient",
    "katona_kleitman_exact",
]

Dependence = Literal["simple", "improved"]
SecondStage = Literal["one_row_each", "discrete_slj"]

COEFFICIENT_METHODS = ("slj", "gss", "cyclic", "frobenius", "pgl")


@dataclass(frozen=True)
class BoundReport:
    """A named bound value plus the intermediate quantities behind it."""

    method: str
    value: int
    stage1_rows: int | None = None
    expected_leftover: float | None = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stage1_rows is not None and self.stage1_rows > self.value:
            raise ValueError("stage-1 rows cannot exceed the total bound")


@dataclass(frozen=True)
class DiscreteSljTrace:
    """Exact leftover counts r(0..N) of the row-at-a-time recurrence, and
    its per-step deficits derived from them on access.  deficits[i] =
    y*r(i) - r(i+1) as an exact rational, where y = 1 - 1/v**t."""

    counts: tuple[int, ...]
    tuple_count: int

    @property
    def steps(self) -> int:
        return len(self.counts) - 1

    @property
    def deficits(self) -> tuple[Fraction, ...]:
        vt = self.tuple_count
        return tuple(
            Fraction(r * (vt - 1), vt) - nxt
            for r, nxt in zip(self.counts, self.counts[1:])
        )


def _dependence_counts(params: CAParams) -> dict:
    """Both dependence estimates for column-t-set events.

    A column set's event depends only on events of sets sharing a column:
    at most t*C(k-1, t-1) of them, commonly relaxed to t*C(k, t-1).  Under a
    sharply transitive symbol action the sets sharing exactly one column can
    be discounted, giving t*C(k-1, t-1) - C(k-t, t-1).
    """
    t, k = params.t, params.k
    return {
        "d_simple": t * math.comb(k, t - 1),
        "d_improved": t * math.comb(k - 1, t - 1) - math.comb(k - t, t - 1),
    }


def _lll_event_factor(params: CAParams, dependence: Dependence, *, improved_count: int) -> int:
    """The (d+1) factor used in e*p*(d+1) <= 1 under the chosen estimate."""
    if dependence == "simple":
        # t*C(k,t-1) strictly exceeds the true d, so it serves as d+1
        return params.t * math.comb(params.k, params.t - 1)
    if dependence == "improved":
        return improved_count + 1
    raise ValueError(f"unknown dependence estimate {dependence!r}")


def slj_bound(params: CAParams) -> BoundReport:
    """Smallest N with C(k,t) * v**t * (1 - 1/v**t)**N < 1."""
    vt = params.tuple_count
    total = params.interaction_space_size
    n = num.least_power_exponent(total, vt, vt - 1, strict=True)
    leftover = math.exp(math.log(total) - n * _log_ratio_float(vt, vt - 1))
    return BoundReport(
        method="slj",
        value=n,
        expected_leftover=leftover,
        notes={
            "total_interactions": total,
            "inequality": "C(k,t)*v^t*(1-1/v^t)^N < 1",
        },
    )


def _log_ratio_float(numer: int, denom: int) -> float:
    # log1p keeps precision when numer/denom is barely above 1
    return math.log1p((numer - denom) / denom)


def discrete_slj_bound(
    params: CAParams, *, max_steps: int | None = None
) -> tuple[BoundReport, DiscreteSljTrace]:
    """Run the row-at-a-time leftover recurrence down to zero.

    r(0) = C(k,t)*v**t and, with y = 1 - 1/v**t,

        r(i) = floor(y * r(i-1))   if i == 1 or v**t does not divide r(i-1)
        r(i) = y * r(i-1) - 1      otherwise (the product is then integral).

    The second branch reflects that after the first row, a best row always
    covers strictly more than the expected number of new interactions.  The
    bound is the step count N with r(N) = 0.  Exact integer arithmetic;
    ``max_steps`` guards runtime and raises ResourceLimitError if exceeded.
    """
    vt = params.tuple_count
    counts = [params.interaction_space_size]
    steps = _leftover_recurrence(counts[0], vt)
    if max_steps is None:
        counts.extend(steps)
    else:
        counts.extend(islice(steps, max(max_steps, 0)))
        if counts[-1] > 0:
            raise ResourceLimitError(
                f"discrete recurrence exceeded {max_steps} steps at r={counts[-1]}"
            )
    # interior steps 1..N-2 have deficit (v**t - r % v**t) / v**t
    interior = counts[1:-2]
    deficit_min = (vt - max(r % vt for r in interior)) / vt if interior else None
    report = BoundReport(
        method="discrete_slj",
        value=len(counts) - 1,
        notes={"estimate": discrete_slj_estimate(params), "deficit_min": deficit_min},
    )
    return report, DiscreteSljTrace(tuple(counts), vt)


def _leftover_recurrence(start: int, vt: int) -> Iterator[int]:
    """r(1), r(2), ..., 0 of the leftover recurrence from r(0) = start.

    Both branches after the first step come to r - (r // vt + 1): when vt
    divides r that is y*r - 1, and otherwise it is r - ceil(r / vt).
    """
    r = start
    if r > 0:
        r -= -(-r // vt)
        yield r
    while r > 0:
        r -= r // vt + 1
        yield r


def discrete_slj_estimate(params: CAParams) -> float:
    """log(C(k,t) + 1) / log(v**t / (v**t - 1)), a sharp underestimate of the
    discrete recurrence length."""
    vt = params.tuple_count
    return math.log(math.comb(params.k, params.t) + 1) / _log_ratio_float(vt, vt - 1)


def two_stage_objective(params: CAParams, n: int) -> int:
    """n + floor(C(k,t) * v**t * (1 - 1/v**t)**n), the completed-array size
    when a random n-row array is patched one row per uncovered interaction."""
    return two_stage_objectives(params, (n,))[0]


def two_stage_objectives(params: CAParams, ns: Sequence[int]) -> list[int]:
    """``two_stage_objective`` at each n of ns, with the logarithms behind
    the floors computed once.  A negative n raises ValueError."""
    vt = params.tuple_count
    floors = num.floor_scaled_powers(params.interaction_space_size, vt - 1, vt, ns)
    return [n + f for n, f in zip(ns, floors)]


def two_stage_bound(params: CAParams) -> BoundReport:
    """Minimize the two-stage objective over the stage-1 row count n.

    The search window is centered on the real-valued optimum
    n* = ln(M * ln x) / ln x with M = C(k,t)*v**t and x = v**t/(v**t - 1).
    Because the floor makes the objective jagged, integer minimizers can sit
    as far as about sqrt(2/ln x) from n*, so the window radius scales with
    sqrt(3/ln x) (never below 64).  The smallest minimizing n is reported.
    """
    vt = params.tuple_count
    total = params.interaction_space_size
    with localcontext() as ctx:
        ctx.prec = num.PRECISION
        lnx = num.ln_ratio(vt, vt - 1)
        scaled = Decimal(total) * lnx
        nstar = float(scaled.ln() / lnx) if scaled > 1 else 0.0
    radius = max(64, math.isqrt(math.ceil(3 / float(lnx))) + 8)
    lo = max(0, math.floor(nstar) - radius)
    hi = math.floor(nstar) + radius

    values = two_stage_objectives(params, range(lo, hi + 1))
    best_val = min(values)
    best_n = lo + values.index(best_val)

    leftover = best_val - best_n
    analytic = _two_stage_analytic_value(params)
    return BoundReport(
        method="two_stage",
        value=best_val,
        stage1_rows=best_n,
        expected_leftover=float(leftover),
        notes={
            "analytic_optimum_n": nstar,
            "analytic_value": analytic,
            "search_window": (lo, hi),
        },
    )


def _two_stage_analytic_value(params: CAParams) -> float:
    """The closed-form objective value at the real-valued optimum:
    (log C(k,t) + t log v + log log x + 1) / log x."""
    vt = params.tuple_count
    lnx = _log_ratio_float(vt, vt - 1)
    return (math.log(math.comb(params.k, params.t)) + params.t * math.log(params.v)
            + math.log(lnx) + 1) / lnx


def gss_lll_bound(params: CAParams, dependence: Dependence = "simple") -> BoundReport:
    """Local lemma bound without a group action.

    The bad event for a column t-set is "some of its v**t tuples is
    uncovered", with probability at most p = v**t * (1 - 1/v**t)**N.  The
    finite inequality solved is

        e * v**t * (1 - 1/v**t)**N * (d+1) <= 1,

    with the (d+1) factor from the chosen dependence estimate; it is
    recorded in the report notes.
    """
    vt = params.tuple_count
    deps = _dependence_counts(params)
    improved = params.t * math.comb(params.k - 1, params.t - 1)
    factor = _lll_event_factor(params, dependence, improved_count=improved)
    threshold = 1 + num.dec_ln(vt * factor)
    n = num.least_n_for_log_threshold(threshold, num.ln_ratio(vt, vt - 1), strict=False)
    return BoundReport(
        method="gss",
        value=n,
        notes={
            "p": math.exp(-n * _log_ratio_float(vt, vt - 1) + math.log(vt)),
            "d_plus_1": factor,
            "d_simple": deps["d_simple"],
            "d_improved_option": improved,
            "dependence": dependence,
            "inequality": "e*v^t*(1-1/v^t)^N*(d+1) <= 1",
        },
    )


def cyclic_lll_bound(params: CAParams, dependence: Dependence = "simple") -> BoundReport:
    """Local lemma bound under the sharply transitive cyclic symbol action.

    The v**t tuples on a column set fall into v**(t-1) orbits of length v;
    covering one member of each orbit and developing the array over the
    group multiplies the rows by v but shrinks the event probability to
    v**(t-1) * (1 - 1/v**(t-1))**n.
    """
    t, v = params.t, params.v
    base = v ** (t - 1)
    deps = _dependence_counts(params)
    factor = _lll_event_factor(params, dependence, improved_count=deps["d_improved"])
    threshold = 1 + num.dec_ln(base * factor)
    n = num.least_n_for_log_threshold(threshold, num.ln_ratio(base, base - 1), strict=True)
    return BoundReport(
        method="cyclic",
        value=v * n,
        stage1_rows=n,
        notes={
            "orbit_count": base,
            "orbit_length": v,
            "group_order": v,
            "p": math.exp(math.log(base) - n * _log_ratio_float(base, base - 1)),
            "d_plus_1": factor,
            "d_simple": deps["d_simple"],
            "d_improved_option": deps["d_improved"],
            "dependence": dependence,
            "inequality": "e*v^(t-1)*(1-1/v^(t-1))^n*(d+1) < 1; N = v*n",
        },
    )


def frobenius_lll_bound(params: CAParams, dependence: Dependence = "simple") -> BoundReport:
    """Local lemma bound under the sharply 2-transitive affine action x -> ax+b.

    Needs v to be a prime power.  Constant tuples form one short orbit of
    length v, covered afterwards by v constant rows; the remaining
    (v**(t-1) - 1)/(v - 1) orbits have full length v(v-1) and each is hit
    with probability 1 - (1 - (v-1)/v**(t-1))**n.
    """
    t, v = params.t, params.v
    if num.is_prime_power(v) is None:
        raise UnsupportedParameterError(
            f"frobenius action requires a prime-power alphabet, got v={v}"
        )
    base = v ** (t - 1)
    full_orbits = (base - 1) // (v - 1)
    deps = _dependence_counts(params)
    factor = _lll_event_factor(params, dependence, improved_count=deps["d_improved"])
    threshold = 1 + num.dec_ln(full_orbits * factor)
    n = num.least_n_for_log_threshold(
        threshold, num.ln_ratio(base, base - (v - 1)), strict=True
    )
    return BoundReport(
        method="frobenius",
        value=v * (v - 1) * n + v,
        stage1_rows=n,
        notes={
            "full_orbit_count": full_orbits,
            "full_orbit_length": v * (v - 1),
            "short_orbit_rows": v,
            "group_order": v * (v - 1),
            "p": math.exp(
                math.log(full_orbits) - n * _log_ratio_float(base, base - (v - 1))
            ),
            "d_plus_1": factor,
            "d_simple": deps["d_simple"],
            "d_improved_option": deps["d_improved"],
            "dependence": dependence,
            "inequality": (
                "e*((v^(t-1)-1)/(v-1))*(1-(v-1)/v^(t-1))^n*(d+1) < 1; "
                "N = v*(v-1)*n + v"
            ),
        },
    )


def pgl_orbit_counts(t: int, v: int) -> dict:
    """Orbit census of symbol t-tuples under the sharply 3-transitive
    fractional-linear action: constants (length v), two-symbol tuples
    (length v(v-1)), and r full orbits of length v(v-1)(v-2)."""
    numer = v ** (t - 1) - (v - 1) * (2 ** (t - 1) - 1) - 1
    denom = (v - 1) * (v - 2)
    if numer % denom:
        raise ArithmeticError(f"full-orbit count is not integral for t={t}, v={v}")
    return {
        "full_orbits": numer // denom,
        "two_symbol_orbits": 2 ** (t - 1) - 1,
        "constant_orbits": 1,
    }


def pgl_lll_bound(params: CAParams, dependence: Dependence = "simple") -> BoundReport:
    """Local lemma bound under the sharply 3-transitive fractional-linear
    action on v = q+1 symbols, q a prime power.

    Full orbits (tuples with three or more distinct symbols) are covered by
    an n-row array developed over the group; two-symbol tuples are covered
    by a binary covering array replicated over every symbol pair, priced by
    the cyclic bound at v=2; constants cost v extra rows.
    """
    t, k, v = params.t, params.k, params.v
    if v < 3 or num.is_prime_power(v - 1) is None:
        raise UnsupportedParameterError(
            f"pgl action requires v >= 3 with v-1 a prime power, got v={v}"
        )
    census = pgl_orbit_counts(t, v)
    r = census["full_orbits"]
    base = v ** (t - 1)
    deps = _dependence_counts(params)
    factor = _lll_event_factor(params, dependence, improved_count=deps["d_improved"])
    if r > 0:
        threshold = 1 + num.dec_ln(r * factor)
        n = num.least_n_for_log_threshold(
            threshold, num.ln_ratio(base, base - (v - 1) * (v - 2)), strict=True
        )
    else:
        n = 0
    full_part = v * (v - 1) * (v - 2) * n + v
    binary = cyclic_lll_bound(CAParams(t, k, 2), dependence)
    pair_part = math.comb(v, 2) * binary.value
    return BoundReport(
        method="pgl",
        value=full_part + pair_part,
        stage1_rows=n,
        notes={
            "full_orbit_count": r,
            "two_symbol_orbit_count": census["two_symbol_orbits"],
            "group_order": v * (v - 1) * (v - 2),
            "full_stage_addend": full_part,
            "pair_addend": pair_part,
            "binary_bound_per_pair": binary.value,
            "d_plus_1": factor,
            "d_simple": deps["d_simple"],
            "d_improved_option": deps["d_improved"],
            "dependence": dependence,
            "inequality": (
                "e*r*(1-(v-1)(v-2)/v^(t-1))^n*(d+1) < 1; "
                "N = v(v-1)(v-2)*n + v + C(v,2)*cyclic(t,k,2)"
            ),
        },
    )


def conditional_lll_two_stage_bound(
    params: CAParams, second_stage: SecondStage = "one_row_each"
) -> BoundReport:
    """Local lemma first stage plus patching.

    Stage 1 covers one designated interaction per column t-set: the smallest
    n1 with e * t * C(k, t-1) * (1 - 1/v**t)**n1 <= 1.  Conditioned on that
    success, any other interaction stays uncovered with probability at most
    e * (1 - 1/v**t)**n1, so the expected leftover count is at most

        E2 = e * C(k,t) * (v**t - 1) * (1 - 1/v**t)**n1.

    With ``one_row_each`` the bound is n1 + floor(E2).  With
    ``discrete_slj`` the second stage is priced by running the leftover
    recurrence of ``discrete_slj_bound`` from floor(E2) down to zero, which
    brings the growth in k back to logarithmic.

    The coarser closed form floor(k * e**t * (v**t - 1)/t**2 * (1-1/t)**(t-1))
    obtained by bounding the binomials is reported in the notes for
    reference; it badly overestimates the leftovers and is not used.

    E2 is only evaluated while ln E2 < 200 (E2 below about 7e86).  At
    ln E2 >= 200 the bound raises ResourceLimitError("conditional leftover
    estimate overflows"); at t=6, v=3 that happens near k = 3.58e85.
    """
    t, k, v = params.t, params.k, params.v
    vt = params.tuple_count
    lnx = num.ln_ratio(vt, vt - 1)
    threshold = 1 + num.dec_ln(t * math.comb(k, t - 1))
    n1 = num.least_n_for_log_threshold(threshold, lnx, strict=False)

    with localcontext() as ctx:
        ctx.prec = num.PRECISION
        log_e2 = 1 + num.dec_ln(math.comb(k, t) * (vt - 1)) - n1 * lnx
        e2 = int(log_e2.exp()) if log_e2 < 200 else None
        loose = int(
            (Decimal(t) + num.dec_ln(k * (vt - 1)) - num.dec_ln(t * t)
             + (t - 1) * (num.dec_ln(t - 1) - num.dec_ln(t))).exp()
        )
    if e2 is None:
        raise ResourceLimitError("conditional leftover estimate overflows")

    if second_stage == "one_row_each":
        stage2 = e2
    elif second_stage == "discrete_slj":
        stage2 = sum(1 for _ in _leftover_recurrence(e2, vt))
    else:
        raise ValueError(f"unknown second stage {second_stage!r}")

    return BoundReport(
        method=f"conditional_lll[{second_stage}]",
        value=n1 + stage2,
        stage1_rows=n1,
        expected_leftover=float(e2),
        notes={
            "second_stage": second_stage,
            "stage2_rows": stage2,
            "expected_leftover_floor": e2,
            "loose_linear_leftover": loose,
            "inequality": "n1: e*t*C(k,t-1)*(1-1/v^t)^n1 <= 1",
        },
    )


def asymptotic_coefficient(method: str, t: int, v: int) -> float:
    """Coefficient of log k in the named bound as k grows, for fixed t, v."""
    if t < 2 or v < 2:
        raise ValueError("need t >= 2 and v >= 2")
    if method == "slj":
        return t / _log_ratio_float(v**t, v**t - 1)
    if method == "gss":
        return (t - 1) / _log_ratio_float(v**t, v**t - 1)
    if method == "cyclic":
        base = v ** (t - 1)
        return v * (t - 1) / _log_ratio_float(base, base - 1)
    if method == "frobenius":
        if num.is_prime_power(v) is None:
            raise UnsupportedParameterError(
                f"frobenius coefficient requires a prime-power v, got {v}"
            )
        base = v ** (t - 1)
        return v * (v - 1) * (t - 1) / _log_ratio_float(base, base - (v - 1))
    if method == "pgl":
        if v < 3 or num.is_prime_power(v - 1) is None:
            raise UnsupportedParameterError(
                f"pgl coefficient requires v >= 3 with v-1 a prime power, got {v}"
            )
        base = v ** (t - 1)
        full = v * (v - 1) * (v - 2) * (t - 1) / _log_ratio_float(
            base, base - (v - 1) * (v - 2)
        )
        pairs = v * (v - 1) * (t - 1) / _log_ratio_float(2 ** (t - 1), 2 ** (t - 1) - 1)
        return full + pairs
    raise ValueError(f"unknown method {method!r}; expected one of {COEFFICIENT_METHODS}")


def katona_kleitman_exact(k: int) -> int:
    """Exact CAN(2, k, 2): the smallest N with k <= C(N-1, ceil(N/2))."""
    if k < 2:
        raise ValueError("need k >= 2")
    n = 2
    while k > math.comb(n - 1, (n + 1) // 2):
        n += 1
    return n
