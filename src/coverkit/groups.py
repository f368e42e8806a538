"""Finite fields and sharply transitive permutation groups on the symbols.

Three group actions on {0, ..., v-1} are provided, each acting on symbol
t-tuples coordinatewise and partitioning them into orbits:

* ``make_cyclic``     - x -> x + c (mod v); sharply 1-transitive, order v.
* ``make_frobenius``  - x -> a*x + b over GF(v), a != 0; sharply
  2-transitive, order v(v-1).  Needs v to be a prime power.
* ``make_pgl``        - x -> (a*x + b)/(c*x + d) on the projective line
  GF(q) + {infinity} with v = q + 1 and ad - bc != 0; sharply 3-transitive,
  order v(v-1)(v-2).  Needs v - 1 to be a prime power.

Symbol identification is fixed and documented: the elements of GF(p**m) are
numbered 0..q-1 by their coefficient vectors, element i having the
polynomial whose coefficients are the base-p digits of i (constant term
least significant).  GF(q) is held as two read-only q x q tables, addition
and multiplication, and the Frobenius and PGL permutations are read off
them.  The modulus is the monic irreducible polynomial of degree m whose
non-leading coefficient vector encodes the smallest integer: the moduli are
tried in that order and the first whose multiplication table gives every
nonzero element an inverse is kept, since the quotient ring is a field
exactly when the modulus is irreducible.  Distributivity is then checked on
every triple.  The projective point at infinity is the extra symbol q, i.e.
the last one.

Each action is one read-only int32 table ``perms``, row g holding element
g's images, identity first, and priced against the memory cap before it is
built.  ``enumerate_orbits`` tabulates the orbit partition of all v**t
symbol tuples, one gather per orbit; ``develop`` replaces every row of an
array by its images under every element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import _numeric as num, bounds
from .core import CAParams, SymbolArray, place_values, symbols_unrank
from .limits import Budget
from .errors import UnsupportedParameterError

__all__ = [
    "FiniteField",
    "GroupAction",
    "OrbitTable",
    "finite_field",
    "make_cyclic",
    "make_frobenius",
    "make_pgl",
    "make_trivial",
    "enumerate_orbits",
    "develop",
    "constant_rows",
]


@dataclass(frozen=True, eq=False)
class FiniteField:
    """GF(p**m) on the integer codes 0..q-1 described in the module docstring.

    ``add_table`` and ``mul_table`` are read-only q x q arrays: entry
    [a, b] is a + b, respectively a * b.
    """

    p: int
    m: int
    modulus: tuple[int, ...]  # monic, length m+1, constant term first
    q: int
    add_table: np.ndarray = field(repr=False)
    mul_table: np.ndarray = field(repr=False)


def finite_field(q: int) -> FiniteField:
    """GF(q) as its tables, with the modulus and the field check of the
    module docstring; raises ArithmeticError if the check fails."""
    pm = num.is_prime_power(q)
    if pm is None:
        raise UnsupportedParameterError(f"{q} is not a prime power")
    p, m = pm
    budget = Budget.from_env()
    # the two tables plus one q x q x m digit temporary
    budget.check_table_bytes(q * q * (m + 2), 8, f"GF({q}) tables")
    powers = p ** np.arange(m)
    digits = np.arange(q)[:, None] // powers % p  # row i: base-p digits of i
    add = (digits[:, None] + digits) % p @ powers
    for tail in digits:
        mul = _mul_digits(digits, tail, p) @ powers
        if (mul[1:] == 1).any(axis=1).all():
            break
    else:
        raise ArithmeticError(f"no modulus of degree {m} makes GF({q}) a field")
    budget.check_table_bytes(q**3, 17, f"GF({q}) distributivity check")
    if not np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]]):
        raise ArithmeticError(f"a(b + c) != ab + ac for some triple in GF({q})")
    add.setflags(write=False)
    mul.setflags(write=False)
    return FiniteField(p, m, tuple(tail.tolist()) + (1,), q, add, mul)


def _mul_digits(digits: np.ndarray, tail: np.ndarray, p: int) -> np.ndarray:
    """Digits of a*b mod x**m + tail for all codes a, b.  Entry i of
    ``powers_times_b`` is x**i * b, reduced by folding x**m = -tail back."""
    powers_times_b = [digits]
    for _ in range(1, len(tail)):
        prev = powers_times_b[-1]
        shifted = np.pad(prev[:, :-1], ((0, 0), (1, 0)))
        powers_times_b.append((shifted - prev[:, -1:] * tail) % p)
    return np.einsum("ai,ibk->abk", digits, np.stack(powers_times_b)) % p


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A permutation group on the symbols: row g of the int32 table ``perms``
    (order x v) holds element g's images.  The table is made read-only, in
    place if it is already C-contiguous int32 and in a copy otherwise.

    ``sharp_transitivity`` is the l for which the action is sharply
    l-transitive (0 for the trivial action).  Construction checks that the
    rows are distinct permutations, one the identity, and that the action is
    regular on (0, ..., l-1); with closure that is sharp l-transitivity.
    ``validate`` checks closure and every l-tuple exhaustively.
    """

    kind: str
    degree: int
    perms: np.ndarray = field(repr=False)
    sharp_transitivity: int

    def __post_init__(self) -> None:
        v, ell = self.degree, self.sharp_transitivity
        perms = np.ascontiguousarray(self.perms, dtype=np.int32)
        perms.setflags(write=False)
        object.__setattr__(self, "perms", perms)
        if perms.ndim != 2 or perms.shape[1] != v:
            raise ValueError(f"not a permutation of 0..{v - 1}: a table of shape {perms.shape}")
        bad = (np.sort(perms, axis=1) != np.arange(v)).any(axis=1)
        if bad.any():
            raise ValueError(f"not a permutation of 0..{v - 1}: {tuple(perms[bad].tolist()[0])}")
        if not (perms == np.arange(v)).all(axis=1).any():
            raise ValueError("identity element missing")
        if _distinct_rows(perms) != len(perms):
            raise ValueError("duplicate group elements")
        images = _distinct_rows(perms[:, :ell] @ place_values(ell, v)[:, None])  # of (0, ..., l-1)
        if ell and (images != len(perms) or len(perms) != math.perm(v, ell)):
            raise ValueError(f"action is not sharply {ell}-transitive on {v} symbols")

    @property
    def order(self) -> int:
        return len(self.perms)

    def validate(self) -> None:
        """Exhaustive closure and sharp transitivity checks (small v only)."""
        perms, v, ell = self.perms, self.degree, self.sharp_transitivity
        Budget.from_env().check_table_bytes(
            len(perms) ** 2 * v, 2 * perms.itemsize, "closure check")
        # a after b over all pairs holds every element; no more iff closed
        if _distinct_rows(perms[:, perms].reshape(-1, v)) != len(perms):
            raise ValueError("group is not closed under composition")
        sources = np.array(list(permutations(range(v), ell)), dtype=np.intp, ndmin=2)
        places = place_values(ell, v)
        # column j: source j's image ranks, each l-tuple's once if sharp
        reached = np.sort(perms[:, sources] @ places, axis=0)
        misses = (reached != (sources @ places)[:, None]).any(axis=0)
        if misses.any():
            src = tuple(sources[misses.argmax()].tolist())
            raise ValueError(f"not sharply {ell}-transitive: source {src} misses targets")


def _distinct_rows(table: np.ndarray) -> int:
    """The number of distinct rows of a C-contiguous 2-d table.  Asked for
    counts, np.unique sorts; without them, numpy 2.x's np.unique imports
    numpy.ma on its first call, which no other orbit step needs."""
    return len(np.unique(table.view(f"V{table.shape[1] * table.itemsize}"), return_counts=True)[1])


# Bytes per entry of a permutation table, its temporaries and its checks
_PERM_BYTES = 24


def make_cyclic(v: int) -> GroupAction:
    """The v translations x -> x + c (mod v), in c order."""
    if v < 2:
        raise ValueError("need at least two symbols")
    Budget.from_env().check_table_bytes(v * v, _PERM_BYTES, f"cyclic group table on {v} symbols")
    shifts = np.arange(v, dtype=np.int32)
    return GroupAction("cyclic", v, np.add.outer(shifts, shifts) % v, 1)


def make_frobenius(v: int) -> GroupAction:
    """The v(v-1) affine maps x -> a*x + b over GF(v), a != 0, in (a, b)
    order, so the identity (a = 1, b = 0) comes first.  An alphabet that is
    not a prime power is refused as ``frobenius_lll_bound`` refuses it."""
    ell = bounds._sharp_transitivity("frobenius", v)
    fld = finite_field(v)
    Budget.from_env().check_table_bytes(v**3, _PERM_BYTES, f"Frobenius group table on {v} symbols")
    images = fld.add_table[fld.mul_table[1:, None, :], np.arange(v)[:, None]]
    return GroupAction("frobenius", v, images.reshape(-1, v), ell)


def make_pgl(v: int) -> GroupAction:
    """The v(v-1)(v-2) fractional-linear maps on GF(q) + {infinity}, v = q+1.

    Matrices (a b; c d) with ad - bc != 0 are taken one per projective
    class by normalizing the first nonzero entry of (a, b, c, d) to 1, in
    lexicographic order with the identity moved first.  Infinity is the
    symbol q; it maps to a/c (or stays at infinity when c = 0), and the
    pole -d/c maps to infinity.  An alphabet with v < 3 or v - 1 not a
    prime power is refused as ``pgl_lll_bound`` refuses it.
    """
    ell = bounds._sharp_transitivity("pgl", v)
    q = v - 1
    fld = finite_field(q)
    add, mul = fld.add_table, fld.mul_table
    neg = add.argmin(axis=1)  # row a of add holds 0 at column -a
    inv = (mul == 1).argmax(axis=1)  # inv[0] = 0 is never read
    # 2q^3 candidates (a is 0 or 1 after normalizing), each with v images
    # and three int64 temporaries per image while the images are built
    Budget.from_env().check_table_bytes(2 * q**3 * (v + 4), 24, f"PGL(2, {q}) images")
    a, b, c, d = np.indices((2, q, q, q)).reshape(4, -1)
    keep = (add[mul[a, d], neg[mul[b, c]]] != 0) & ((a == 1) | (b == 1))
    a, b, c, d = (coef[keep, None] for coef in (a, b, c, d))
    x = np.arange(q)
    den = add[mul[c, x], d]
    finite = np.where(den == 0, q, mul[add[mul[a, x], b], inv[den]])
    infinite = np.where(c != 0, mul[a, inv[c]], q)
    images = np.hstack([finite, infinite])
    identity = (images == np.arange(v)).all(axis=1)
    return GroupAction("pgl", v, images[np.argsort(~identity, kind="stable")], ell)


def make_trivial(v: int) -> GroupAction:
    """Identity-only action; orbit checking under it degenerates to plain
    coverage checking.  Test affordance, not one of the bound families."""
    if v < 1:
        raise ValueError("need at least one symbol")
    Budget.from_env().check_table_bytes(v, _PERM_BYTES, f"trivial group table on {v} symbols")
    return GroupAction("trivial", v, np.arange(v, dtype=np.int32)[None, :], 0)


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """Orbit partition of all v**t symbol tuples under a group action.

    ``orbit_id_of[rank]`` maps a tuple's base-v rank to its orbit index;
    representatives are the lexicographically least members.
    """

    t: int
    action: GroupAction
    representatives: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    orbit_id_of: np.ndarray

    @property
    def n_orbits(self) -> int:
        return len(self.representatives)

    @property
    def full_orbit_ids(self) -> tuple[int, ...]:
        """Orbits of tuples with at least ``sharp_transitivity`` distinct
        symbols: the local lemma's events.  Not every full-length orbit is
        one (PGL's two-symbol orbits at v = 3, Frobenius's constants at 2)."""
        ell = self.action.sharp_transitivity
        return tuple(i for i, rep in enumerate(self.representatives) if len(set(rep)) >= ell)


def enumerate_orbits(action: GroupAction, t: int) -> OrbitTable:
    """Tabulate the orbit partition of symbol t-tuples under the action.

    Tuples are visited in rank (= lexicographic) order, so the first member
    seen in each orbit is its lexicographically least one.  Each new orbit
    is one gather: the ranks of its first member's images under every element.
    """
    v = action.degree
    total = v**t
    Budget.from_env().check_table_bytes(total, 8, "orbit table")
    orbit_id = np.full(total, -1, dtype=np.int64)
    places = place_values(t, v)
    reps: list[tuple[int, ...]] = []
    for rank in range(total):
        if orbit_id[rank] < 0:
            reps.append(symbols_unrank(rank, t, v))
            orbit_id[action.perms[:, reps[-1]] @ places] = len(reps) - 1
    orbit_id.setflags(write=False)
    lengths = tuple(np.bincount(orbit_id).tolist())
    return OrbitTable(t, action, tuple(reps), lengths, orbit_id)


def develop(array: SymbolArray, action: GroupAction) -> SymbolArray:
    """Replace every row by its images under all group elements.

    Output row order: input row i contributes rows i*|G| .. (i+1)*|G| - 1,
    one per group element in element order.
    """
    if action.degree != array.params.v:
        raise ValueError(f"action degree {action.degree} does not match v={array.params.v}")
    # int32 images
    Budget.from_env().check_table_bytes(action.order * array.cells.size, 4, "developed rows")
    # (n, order, k) in one allocation: row i's image under element g
    images = action.perms[np.arange(action.order)[None, :, None], array.cells[:, None, :]]
    return SymbolArray(array.params, images.reshape(-1, array.params.k))


def constant_rows(params: CAParams) -> SymbolArray:
    """The v rows (s, s, ..., s) for s = 0..v-1."""
    rows = np.repeat(np.arange(params.v, dtype=np.int32)[:, None], params.k, axis=1)
    return SymbolArray(params, rows)
