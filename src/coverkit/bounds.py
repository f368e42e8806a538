"""Upper bounds on the minimum covering array size CAN(t, k, v).

Six families of bounds are implemented, all returning a ``BoundReport``;
``METHODS`` names each way the command line asks for one:

* ``slj_bound``            - expectation argument on a fully random array:
  the smallest N with C(k,t) * v**t * (1 - 1/v**t)**N < 1.
* ``discrete_slj_bound``   - row-at-a-time refinement: repeatedly take the
  integer floor of the expected leftover count until it reaches zero.  The
  step count is the bound, read after the first step from a table of the
  recurrence's thresholds kept per v**t and shared by every call with that
  v**t.  The walk to the least interior deficit runs only when it is read.
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
  All four, the conditional bound's first stage and
  ``asymptotic_coefficient`` read one orbit census (events per column set,
  the chance a row hits one, the group order), computed for every action
  from its degree of sharp transitivity, and share one solver.
* ``conditional_lll_two_stage_bound`` - a local lemma first stage that
  covers one designated interaction per column set, followed by patching;
  the leftover count after stage one is estimated under the distribution
  conditioned on the first stage succeeding.

Every "smallest n satisfying an inequality", every floor of M * y**n and
the two-stage search window's centre and radius are answered by
``_numeric`` on one ladder: an estimate of the log, compared against a
proven bound on its own error, with more digits until it decides
(binary64 with a 1e-9 guard, then 50 digits, then more digits, then the
exact integers where the inequality is rational).  No value here builds a
Decimal where the floats are clear.  The two notes that print
50-digit values, ``analytic_optimum_n`` and ``loose_linear_leftover``, are
computed only when read (``BoundReport.notes``), so a caller that reads
only ``value``, as ``coverkit sweep`` does, takes no 50-digit log.  Counts
such as C(k,t) * v**t are exact integers throughout; nothing is ever
silently truncated to machine floats except in report fields documented as
floats.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Sequence

from . import _numeric as num
from .core import CAParams
from .errors import ResourceLimitError, UnsupportedParameterError
from .limits import Budget

__all__ = [
    "BoundReport",
    "DiscreteSljTrace",
    "slj_bound",
    "discrete_slj_bound",
    "discrete_slj_estimate",
    "two_stage_bound",
    "two_stage_objective",
    "two_stage_objectives",
    "two_stage_entry_bytes",
    "TWO_STAGE_CALL_BYTES",
    "gss_lll_bound",
    "cyclic_lll_bound",
    "frobenius_lll_bound",
    "pgl_lll_bound",
    "conditional_lll_two_stage_bound",
    "asymptotic_coefficient",
    "katona_kleitman_exact",
]

# the dependence counts a local lemma bound can use (``_lll_solve``)
DEPENDENCE_ESTIMATES = ("simple", "improved")

_FLOAT_TOO_CLOSE = "ratio too close to 1 for binary64 logarithms"


class _Later(functools.partial):
    """A note's value, computed by a call the first time the note is read
    (``_Notes``)."""


class _Notes(Mapping):
    """A report's notes, read-only, where a value given as a ``_Later`` is
    computed the first time it is read and kept in its place.  ``get``,
    ``items``, ``values``, ``==`` and ``dict(notes)`` come from the
    ``Mapping`` ABC and read through ``__getitem__``, so each sees the
    computed value; a note never read, even when tested with ``in``, is
    never computed."""

    __slots__ = ("_notes",)

    def __init__(self, notes: dict) -> None:
        self._notes = notes

    def __getitem__(self, key):
        value = self._notes[key]
        if isinstance(value, _Later):
            value = self._notes[key] = value()
        return value

    def __iter__(self):
        return iter(self._notes)

    def __len__(self) -> int:
        return len(self._notes)

    def __contains__(self, key) -> bool:  # the ABC's would compute the note
        return key in self._notes

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class BoundReport:
    """A named bound value plus the intermediate quantities behind it.  The
    notes are a read-only mapping (``_Notes``) whose costly values, the
    least deficit and the 50-digit notes, are computed when first read;
    ``dict(report.notes)`` gives a plain dict, computing them."""

    method: str
    value: int | float
    stage1_rows: int | None = None
    expected_leftover: float | None = None
    notes: Mapping = field(default_factory=lambda: _Notes({}))

    def __post_init__(self) -> None:
        if self.stage1_rows is not None and self.stage1_rows > self.value:
            raise ValueError("stage-1 rows cannot exceed the total bound")


@dataclass(frozen=True)
class DiscreteSljTrace:
    """The row-at-a-time recurrence from r(0) = start with v**t =
    tuple_count: its step count N and, walked when first read and then
    kept, its least interior deficit."""

    start: int
    tuple_count: int
    steps: int

    @functools.cached_property
    def least_deficit(self) -> Fraction | None:
        """The least y*r(i) - r(i+1) over the steps 1 <= i <= N-2, exact
        (None when there is none), with y = 1 - 1/v**t: (v**t - top) / v**t
        for the largest remainder top that ``_leftover_top`` walks to."""
        vt = self.tuple_count
        top = _leftover_top(self.start, vt)
        return Fraction(vt - top, vt) if top >= 0 else None


def slj_bound(params: CAParams) -> BoundReport:
    """Smallest N with C(k,t) * v**t * (1 - 1/v**t)**N < 1."""
    vt = params.tuple_count
    total = params.interaction_space_size
    n = num.least_exponent(total, vt, vt - 1)
    leftover = math.exp(math.log(total) - n * num.float_log_ratio(vt, vt - 1))
    return BoundReport(
        method="slj",
        value=n,
        expected_leftover=leftover,
        notes=_Notes({"total_interactions": total, "inequality": "C(k,t)*v^t*(1-1/v^t)^N < 1"}),
    )


def _over_log_ratio(x: float, numer: int, denom: int) -> float:
    """x / ln(numer/denom) for x >= 0 and numer > denom, or ValueError where
    that passes the floats, as where ln(numer/denom) rounds to 0 (numer past
    about 1e308): decided before dividing by a rounded zero."""
    ratio = num.float_log_ratio(numer, denom)
    if not x < ratio * sys.float_info.max:
        raise ValueError(_FLOAT_TOO_CLOSE)
    return x / ratio


def discrete_slj_bound(params: CAParams) -> tuple[BoundReport, DiscreteSljTrace]:
    """Run the row-at-a-time leftover recurrence down to zero.

    r(0) = C(k,t)*v**t and, with y = 1 - 1/v**t,

        r(i) = floor(y * r(i-1))   if i == 1 or v**t does not divide r(i-1)
        r(i) = y * r(i-1) - 1      otherwise (the product is then integral).

    The second branch reflects that after the first row, a best row always
    covers strictly more than the expected number of new interactions.  The
    bound is the step count N with r(N) = 0, in exact integer arithmetic:
    the first step, then the steps left read from the thresholds shared by
    every call with this v**t (``_leftover_count``, which refuses a
    recurrence too long for the column-set cap before its first step).  The
    walk to the least interior deficit runs only when the trace's
    ``least_deficit`` or the note ``deficit_min`` is first read, so a caller
    that reads only ``value``, as ``coverkit sweep`` does, never walks.
    """
    vt = params.tuple_count
    start = params.interaction_space_size
    trace = DiscreteSljTrace(start, vt, _leftover_count(start, vt, Budget.from_env()))
    report = BoundReport(
        method="discrete_slj",
        value=trace.steps,
        notes=_Notes({"estimate": discrete_slj_estimate(params),
                      "deficit_min": _Later(_deficit_min, trace)}),
    )
    return report, trace


def _deficit_min(trace: DiscreteSljTrace) -> float | None:
    least = trace.least_deficit  # correctly rounded by float()
    return None if least is None else float(least)


def _leftover_top(start: int, vt: int) -> int:
    """The largest r(i) % vt over the interior steps 1 <= i <= N-2 of the
    leftover recurrence from r(0) = start, those whose next count is above
    0 (-1 if none).

    Both branches of the recurrence after the first step come to
    r - (r // vt + 1): when vt divides r that is y*r - 1, and otherwise it
    is r - ceil(r / vt).  The walk, no longer than the recurrence
    ``_leftover_count`` let through the cap, stops once top is vt - 1.
    """
    r, top = start - -(-start // vt), -1
    while r and top < vt - 1:
        q, rem = divmod(r, vt)
        r -= q + 1
        if r and rem > top:
            top = rem
    return top


def _leftover_count(start: int, vt: int, budget: Budget) -> int:
    """N alone, the steps of the leftover recurrence from r(0) = start to
    0: the first step, then ``_steps_left``.  Raises ResourceLimitError
    before the first step when the recurrence, at least ``_least_steps``
    long, is over the column-set cap."""
    budget.check_steps(_least_steps(start, vt), "discrete recurrence trace")
    return 1 + _steps_left(start - -(-start // vt), vt, budget) if start else 0


def _least_steps(r: int, vt: int) -> int:
    """A lower bound on the steps from r to 0: each step leaves r + vt at
    least y = 1 - 1/vt times what it was, so there are at least
    ln(r/vt + 1) / ln(1/y) of them; past the floats, (vt - 1) * ln(r/vt + 1)
    of them, as ln(1/y) <= 1/(vt - 1)."""
    log = math.log(r + vt) - math.log(vt)
    try:
        return math.ceil(_over_log_ratio(log, vt, vt - 1))
    except ValueError:
        return math.floor((vt - 1) * Fraction(log))


# one threshold of the leftover recurrence in this many is kept
_MARK_EVERY = 64


def _steps_left(r: int, vt: int, budget: Budget) -> int:
    """The steps of the leftover recurrence from r(i) = r, i >= 1, to 0.

    With u = r + 1, a step r -> r - (r // vt + 1) is u -> floor(u*(vt-1)/vt),
    a nondecreasing map, and r = 0 is u = 1.  So the steps left are the
    number of j >= 1 with L_j <= u, where L_0 = 1 and
    L_{j+1} = L_j + ceil(L_j / (vt-1)) is the least u that takes j+1
    steps.  L depends on vt alone; ``_Thresholds`` keeps every 64th of it,
    and a call bisects those and takes at most 63 steps of L.
    """
    u, q = r + 1, vt - 1
    table = _thresholds(vt)
    marks = table.marks
    if marks[-1] <= u:
        marks = table.grow(u, budget)
    i = bisect.bisect_right(marks, u) - 1
    j, nxt = i * _MARK_EVERY, marks[i] + -(-marks[i] // q)
    while nxt <= u:
        j, nxt = j + 1, nxt + -(-nxt // q)
    return j


class _Thresholds:
    """L_0, L_64, L_128, ... of the leftover recurrence for one v**t (see
    ``_steps_left``), as far as the largest u asked for.  ``marks`` is
    never changed in place: ``grow`` extends a copy and publishes it in one
    assignment, so a reader, concurrent or not, sees a whole table."""

    def __init__(self, vt: int) -> None:
        self.vt = vt
        self.marks = [1]

    def grow(self, u: int, budget: Budget) -> list[int]:
        """The marks extended until the last is above u, once the memory
        cap has passed them.  At most min(u - 1, ln u / ln(vt/(vt-1)))
        thresholds past L_0 are <= u, since L_{j+1} >= L_j * vt/(vt-1), and
        the first mark above u is at most 2**64 * u, since L_{j+1} <= 2 * L_j."""
        marks, q = self.marks, self.vt - 1
        most = min(u - 1, _over_log_ratio(math.log(u), self.vt, q))
        entries = int(most) // _MARK_EVERY + 3
        budget.check_table_bytes(
            entries, 8 + sys.getsizeof(u << 64), "discrete recurrence threshold table"
        )
        grown, x = list(marks), marks[-1]
        while x <= u:
            for _ in range(_MARK_EVERY):
                x += -(-x // q)
            grown.append(x)
        self.marks = grown
        return grown


@functools.lru_cache(maxsize=32)
def _thresholds(vt: int) -> _Thresholds:
    """The threshold table of v**t, one per v**t for the last 32 asked for."""
    return _Thresholds(vt)


def discrete_slj_estimate(params: CAParams) -> float:
    """log(C(k,t) + 1) / log(v**t / (v**t - 1)), a sharp underestimate of the
    discrete recurrence length (ValueError past the floats)."""
    vt = params.tuple_count
    return _over_log_ratio(math.log(math.comb(params.k, params.t) + 1), vt, vt - 1)


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


# what a ``two_stage_objectives`` call holds whatever its length: the float
# pass's scalars and, under ``sweep --n``, the output file's buffer
TWO_STAGE_CALL_BYTES = 1 << 18


def two_stage_entry_bytes(params: CAParams) -> int:
    """The memory price per n of ``two_stage_objectives`` at its peak, in
    its float pass, with the caller's list of ns: two list slots and ints
    (n and its floor) sized as C(k,t) * v**t, and twelve 8-byte entries of
    the float pass beyond them (its float64 arrays, their int64 copy and
    the lists made from it).  ``TWO_STAGE_CALL_BYTES`` is priced once per
    call on top.  Measured with tracemalloc in tests/test_limits.py."""
    return 96 + 2 * (8 + sys.getsizeof(params.interaction_space_size))


def two_stage_bound(params: CAParams) -> BoundReport:
    """Minimize the two-stage objective over the stage-1 row count n.

    The search window is centered on the real-valued optimum
    n* = ln(M * ln x) / ln x with M = C(k,t)*v**t and x = v**t/(v**t - 1).
    Because the floor makes the objective jagged, integer minimizers can sit
    as far as about sqrt(2/ln x) from n*, so the window radius scales with
    sqrt(3/ln x) (never below 64).  The smallest minimizing n is reported.
    floor(n*) and ceil(3/ln x) come from ``_numeric.optimum_window``; the
    note ``analytic_optimum_n``, n* to 50 digits, is computed when read.
    """
    vt = params.tuple_count
    total = params.interaction_space_size
    centre, span = num.optimum_window(total, vt, vt - 1)
    radius = max(64, math.isqrt(span) + 8)
    lo, hi = max(0, centre - radius), centre + radius
    Budget.from_env().check_table_bytes(
        hi - lo + 1, two_stage_entry_bytes(params), "two-stage search window", TWO_STAGE_CALL_BYTES)

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
        notes=_Notes({
            "analytic_optimum_n": _Later(num.optimum_exponent, total, vt, vt - 1),
            "analytic_value": analytic,
            "search_window": (lo, hi),
        }),
    )


def _two_stage_analytic_value(params: CAParams) -> float:
    """The closed-form objective value at the real-valued optimum:
    (log C(k,t) + t log v + log log x + 1) / log x."""
    vt = params.tuple_count
    lnx = num.float_log_ratio(vt, vt - 1)
    return (math.log(math.comb(params.k, params.t)) + params.t * math.log(params.v)
            + math.log(lnx) + 1) / lnx


# symbol action -> (l, which alphabets it acts on, the error otherwise).
# Each action is sharply l-transitive, so it moves every tuple with at
# least l distinct symbols freely; "gss" is the trivial action, with l = 0.
_ACTIONS: dict[str, tuple[int, Callable[[int], bool], str]] = {
    "gss": (0, lambda v: True, ""),
    "cyclic": (1, lambda v: True, ""),
    "frobenius": (2, lambda v: num.is_prime_power(v) is not None,
                  "frobenius action requires a prime-power alphabet, got v={v}"),
    "pgl": (3, lambda v: v >= 3 and num.is_prime_power(v - 1) is not None,
            "pgl action requires v >= 3 with v-1 a prime power, got v={v}"),
}
# the local lemma bounds, one per action, read the dependence estimate
DEPENDENCE_METHODS = tuple(_ACTIONS)
COEFFICIENT_METHODS = ("slj", *_ACTIONS)


def _sharp_transitivity(kind: str, v: int) -> int:
    """l of the symbol action ``kind``, or, where it does not act on v
    symbols, UnsupportedParameterError, in the one wording that bounds and
    the group builders (``groups.make_frobenius``, ``make_pgl``) give."""
    ell, acts_on, refusal = _ACTIONS[kind]
    if not acts_on(v):
        raise UnsupportedParameterError(refusal.format(v=v))
    return ell


@functools.lru_cache(maxsize=64)
def _orbit_census(kind: str, t: int, v: int) -> tuple[int, int, int, int]:
    """What a symbol action costs the local lemma: (events, base, hit, order).

    Each column t-set has ``events`` bad events (orbits of symbol t-tuples
    developed in full), a random row hits a given one with probability
    hit/base, and developing the array multiplies its rows by ``order``.
    A sharply l-transitive action has order v!/(v-l)!, and its full orbits
    are those of the tuples with at least l distinct symbols: all v**t
    tuples but the C(v, j) * surj(t, j) with j < l distinct symbols, where
    surj(t, j) counts the maps of t positions onto j symbols.  Remembered
    for the last 64 (kind, t, v) asked for; a refusal is raised again on
    every call, as nothing is remembered for it.
    """
    if kind not in _ACTIONS:
        raise ValueError(f"unknown method {kind!r}; expected one of {COEFFICIENT_METHODS}")
    ell = _sharp_transitivity(kind, v)
    order = math.perm(v, ell)
    short = sum(
        math.comb(v, j) * sum((-1) ** i * math.comb(j, i) * (j - i) ** t for i in range(j + 1))
        for j in range(ell)
    )
    g = math.gcd(order, v)
    return (v**t - short) // order, v**t // g, order // g, order


def _lll_solve(
    params: CAParams, kind: str, dependence: str = "simple", *, weight: int | None = None
) -> tuple[int, tuple[int, int, int, int], dict]:
    """Smallest n >= 0 with e * weight * (1 - hit/base)**n * (d+1) < 1 under
    the action's census, returned with the census and the dependence and
    ``p`` notes.  The plain bound is stated with <=, which gives the same n:
    e times a positive rational is irrational, so the product never equals
    1.  ``weight`` defaults to the census's event count; with none, n is 0.

    A column set's events depend only on those of sets sharing a column: at
    most t*C(k-1, t-1) of them, which "simple" relaxes to t*C(k, t-1) and
    uses as d+1.  Under a group action the sets sharing exactly one column
    can be discounted, C(k-t, t-1) of them.
    """
    t, k = params.t, params.k
    events, base, hit, order = census = _orbit_census(kind, t, params.v)
    weight = events if weight is None else weight
    d_simple = t * math.comb(k, t - 1)
    d_improved = t * math.comb(k - 1, t - 1) - (math.comb(k - t, t - 1) if order > 1 else 0)
    if dependence == "simple":
        factor = d_simple
    elif dependence == "improved":
        factor = d_improved + 1
    else:
        raise ValueError(f"unknown dependence estimate {dependence!r}")
    n, p = 0, 0.0
    if weight:
        n = num.least_exponent(weight * factor, base, base - hit, 1)
        p = math.exp(math.log(weight) - n * num.float_log_ratio(base, base - hit))
    return n, census, {
        "p": p,
        "d_plus_1": factor,
        "d_simple": d_simple,
        "d_improved_option": d_improved,
        "dependence": dependence,
    }


def gss_lll_bound(params: CAParams, dependence: str = "simple") -> BoundReport:
    """Local lemma bound without a group action.

    The bad event for a column t-set is "some of its v**t tuples is
    uncovered", with probability at most p = v**t * (1 - 1/v**t)**N.  The
    finite inequality solved is

        e * v**t * (1 - 1/v**t)**N * (d+1) <= 1,

    with the (d+1) factor from the chosen dependence estimate; it is
    recorded in the report notes.
    """
    n, _, notes = _lll_solve(params, "gss", dependence)
    notes["inequality"] = "e*v^t*(1-1/v^t)^N*(d+1) <= 1"
    return BoundReport(method="gss", value=n, notes=_Notes(notes))


def cyclic_lll_bound(params: CAParams, dependence: str = "simple") -> BoundReport:
    """Local lemma bound under the sharply transitive cyclic symbol action.

    The v**t tuples on a column set fall into v**(t-1) orbits of length v;
    covering one member of each orbit and developing the array over the
    group multiplies the rows by v but shrinks the event probability to
    v**(t-1) * (1 - 1/v**(t-1))**n.
    """
    n, (orbits, _, _, order), notes = _lll_solve(params, "cyclic", dependence)
    return BoundReport(
        method="cyclic",
        value=order * n,
        stage1_rows=n,
        notes=_Notes({
            "orbit_count": orbits,
            "orbit_length": order,
            "group_order": order,
            **notes,
            "inequality": "e*v^(t-1)*(1-1/v^(t-1))^n*(d+1) < 1; N = v*n",
        }),
    )


def frobenius_lll_bound(params: CAParams, dependence: str = "simple") -> BoundReport:
    """Local lemma bound under the sharply 2-transitive affine action x -> ax+b.

    Needs v to be a prime power.  Constant tuples form one short orbit of
    length v, covered afterwards by v constant rows; the remaining
    (v**(t-1) - 1)/(v - 1) orbits have full length v(v-1) and each is hit
    with probability 1 - (1 - (v-1)/v**(t-1))**n.
    """
    v = params.v
    n, (full_orbits, _, _, order), notes = _lll_solve(params, "frobenius", dependence)
    return BoundReport(
        method="frobenius",
        value=order * n + v,
        stage1_rows=n,
        notes=_Notes({
            "full_orbit_count": full_orbits,
            "full_orbit_length": order,
            "short_orbit_rows": v,
            "group_order": order,
            **notes,
            "inequality": (
                "e*((v^(t-1)-1)/(v-1))*(1-(v-1)/v^(t-1))^n*(d+1) < 1; "
                "N = v*(v-1)*n + v"
            ),
        }),
    )


def pgl_lll_bound(params: CAParams, dependence: str = "simple") -> BoundReport:
    """Local lemma bound under the sharply 3-transitive fractional-linear
    action on v = q+1 symbols, q a prime power.

    Full orbits (tuples with three or more distinct symbols) are covered by
    an n-row array developed over the group; two-symbol tuples are covered
    by a binary covering array replicated over every symbol pair, priced by
    the cyclic bound at v=2; constants cost v extra rows.
    """
    t, k, v = params.t, params.k, params.v
    n, (r, _, _, order), notes = _lll_solve(params, "pgl", dependence)
    del notes["p"]
    full_part = order * n + v
    binary = cyclic_lll_bound(CAParams(t, k, 2), dependence)
    pair_part = math.comb(v, 2) * binary.value
    return BoundReport(
        method="pgl",
        value=full_part + pair_part,
        stage1_rows=n,
        notes=_Notes({
            "full_orbit_count": r,
            "two_symbol_orbit_count": 2 ** (t - 1) - 1,
            "group_order": order,
            "full_stage_addend": full_part,
            "pair_addend": pair_part,
            "binary_bound_per_pair": binary.value,
            **notes,
            "inequality": (
                "e*r*(1-(v-1)(v-2)/v^(t-1))^n*(d+1) < 1; "
                "N = v(v-1)(v-2)*n + v + C(v,2)*cyclic(t,k,2)"
            ),
        }),
    )


def conditional_lll_two_stage_bound(
    params: CAParams, second_stage: str = "one_row_each"
) -> BoundReport:
    """Local lemma first stage plus patching.

    Stage 1 covers one designated interaction per column t-set: the smallest
    n1 with e * t * C(k, t-1) * (1 - 1/v**t)**n1 <= 1.  Conditioned on that
    success, any other interaction stays uncovered with probability at most
    e * (1 - 1/v**t)**n1, so the expected leftover count is at most

        E2 = e * C(k,t) * (v**t - 1) * (1 - 1/v**t)**n1.

    With ``one_row_each`` the bound is n1 + floor(E2).  With
    ``discrete_slj`` the second stage is priced by the step count of the
    leftover recurrence of ``discrete_slj_bound`` from floor(E2) down to
    zero, which brings the growth in k back to logarithmic.  Only the count
    is read: its first step is taken, and the rest is looked up in the
    thresholds shared by every call with this v**t (``_leftover_count``).

    The coarser closed form floor(k * e**t * (v**t - 1)/t**2 * (1-1/t)**(t-1))
    obtained by bounding the binomials is reported in the notes for
    reference, computed at 50 digits when read; it badly overestimates the
    leftovers and is not used.

    floor(E2) is exact: where a float cannot place it, it is evaluated
    with 50 digits more than it has.  E2 is only evaluated while ln E2 is
    below ``_numeric.E_FLOOR_LOG_CAP``, 200 (E2 below about 7e86).  At
    ln E2 >= 200 the bound raises ResourceLimitError("conditional leftover
    estimate overflows"); at t=6, v=3 that happens near k = 3.58e85.
    """
    t, k, v = params.t, params.k, params.v
    vt = params.tuple_count
    # the plain local lemma solve with one designated event per column set
    n1, _, _ = _lll_solve(params, "gss", weight=1)
    e2 = num.floor_e_scaled_power(math.comb(k, t) * (vt - 1), vt - 1, vt, n1)
    if e2 is None:
        raise ResourceLimitError("conditional leftover estimate overflows")

    if second_stage == "one_row_each":
        stage2 = e2
    elif second_stage == "discrete_slj":
        stage2 = _leftover_count(e2, vt, Budget.from_env())
    else:
        raise ValueError(f"unknown second stage {second_stage!r}")

    return BoundReport(
        method=f"conditional_lll[{second_stage}]",
        value=n1 + stage2,
        stage1_rows=n1,
        expected_leftover=float(e2),
        notes=_Notes({
            "second_stage": second_stage,
            "stage2_rows": stage2,
            "expected_leftover_floor": e2,
            "loose_linear_leftover": _Later(_loose_linear_leftover, t, k, vt),
            "inequality": "n1: e*t*C(k,t-1)*(1-1/v^t)^n1 <= 1",
        }),
    )


def _loose_linear_leftover(t: int, k: int, vt: int) -> int:
    """floor(k * e**t * (vt - 1)/t**2 * (1-1/t)**(t-1)) at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = num.PRECISION
        return int(
            (Decimal(t) + num.dec_ln(k * (vt - 1)) - num.dec_ln(t * t)
             + (t - 1) * (num.dec_ln(t - 1) - num.dec_ln(t))).exp()
        )


def asymptotic_coefficient(method: str, t: int, v: int) -> float:
    """Coefficient of log k in the named bound as k grows, for fixed t, v.

    A local lemma bound grows as order*(t-1)*log k / log(base/(base-hit))
    with the action's orbit census, with no such term when the census has
    no events; pgl adds C(v,2) binary cyclic bounds for its two-symbol
    orbits.  A coefficient past the floats raises ValueError.
    """
    if t < 2 or v < 2:
        raise ValueError("need t >= 2 and v >= 2")
    if method == "slj":
        return _over_log_ratio(t, v**t, v**t - 1)
    events, base, hit, order = _orbit_census(method, t, v)
    coef = _over_log_ratio(order * (t - 1), base, base - hit) if events else 0.0
    if method == "pgl":
        coef += math.comb(v, 2) * asymptotic_coefficient("cyclic", t, 2)
    return coef


def katona_kleitman_exact(k: int) -> int:
    """Exact CAN(2, k, 2): the smallest N with k <= C(N-1, ceil(N/2))."""
    if k < 2:
        raise ValueError("need k >= 2")
    n = 2
    while k > math.comb(n - 1, (n + 1) // 2):
        n += 1
    return n


def _katona_report(params: CAParams) -> BoundReport:
    if params.t != 2 or params.v != 2:
        raise UnsupportedParameterError("katona gives exact CAN(2,k,2) and requires t=2, v=2")
    return BoundReport(
        method="katona", value=katona_kleitman_exact(params.k), notes=_Notes({"exact": True})
    )


# method name -> (params, dependence) -> BoundReport, for `coverkit bounds`
# and `sweep`.  Each entry looks its function up by name when called, so a
# wrapper put on this module's functions sees every call.
METHODS: dict[str, Callable[[CAParams, str], BoundReport]] = {
    "slj": lambda p, d: slj_bound(p),
    "discrete_slj": lambda p, d: discrete_slj_bound(p)[0],
    "dslj_estimate": lambda p, d: BoundReport(
        method="dslj_estimate", value=discrete_slj_estimate(p)
    ),
    "two_stage": lambda p, d: two_stage_bound(p),
    "gss": lambda p, d: gss_lll_bound(p, d),
    "cyclic": lambda p, d: cyclic_lll_bound(p, d),
    "frobenius": lambda p, d: frobenius_lll_bound(p, d),
    "pgl": lambda p, d: pgl_lll_bound(p, d),
    "conditional_lll": lambda p, d: conditional_lll_two_stage_bound(p, "one_row_each"),
    "conditional_lll_density": lambda p, d: conditional_lll_two_stage_bound(p, "discrete_slj"),
    "katona": lambda p, d: _katona_report(p),
}
