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

``enumerate_orbits`` tabulates the orbit partition of all v**t symbol
tuples; ``develop`` replaces every row of an array by its full set of
images under a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import _numeric as num
from . import limits
from .core import CAParams, SymbolArray, symbols_rank, symbols_unrank
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

    ``add_table`` and ``mul_table`` are read-only q x q arrays; every
    operation is a lookup in them.
    """

    p: int
    m: int
    modulus: tuple[int, ...]  # monic, length m+1, constant term first
    q: int
    add_table: np.ndarray = field(repr=False)
    mul_table: np.ndarray = field(repr=False)

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.add_table[a].argmin())  # row a holds 0 at column -a

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int((self.mul_table[a] == 1).argmax())

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))


def finite_field(q: int) -> FiniteField:
    """GF(q) as its tables, with the modulus and the field check of the
    module docstring; raises ArithmeticError if the check fails."""
    pm = num.is_prime_power(q)
    if pm is None:
        raise UnsupportedParameterError(f"{q} is not a prime power")
    p, m = pm
    # the two tables plus one q x q x m digit temporary
    limits.check_table_bytes(q * q * (m + 2), 8, f"GF({q}) tables")
    powers = p ** np.arange(m)
    digits = np.arange(q)[:, None] // powers % p  # row i: base-p digits of i
    add = (digits[:, None] + digits) % p @ powers
    for tail in digits:
        mul = _mul_digits(digits, tail, p) @ powers
        if (mul[1:] == 1).any(axis=1).all():
            break
    else:
        raise ArithmeticError(f"no modulus of degree {m} makes GF({q}) a field")
    limits.check_table_bytes(q**3, 17, f"GF({q}) distributivity check")
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


@dataclass(frozen=True)
class GroupAction:
    """A permutation group on the symbols, stored as explicit permutations.

    ``sharp_transitivity`` is the degree l for which the action is sharply
    l-transitive (0 for the trivial test-only action).  Construction checks
    that the identity is present and that the action is regular on one
    ordered l-tuple of distinct symbols, which together with closure pins
    down sharp l-transitivity; ``validate`` reruns both exhaustively.
    """

    kind: str
    degree: int
    elements: tuple[tuple[int, ...], ...]
    sharp_transitivity: int

    def __post_init__(self) -> None:
        v = self.degree
        for perm in self.elements:
            if len(perm) != v or sorted(perm) != list(range(v)):
                raise ValueError(f"not a permutation of 0..{v - 1}: {perm}")
        if tuple(range(v)) not in self.elements:
            raise ValueError("identity element missing")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate group elements")
        ell = self.sharp_transitivity
        if ell > 0:
            base = tuple(range(ell))
            images = {tuple(perm[x] for x in base) for perm in self.elements}
            expected = 1
            for i in range(ell):
                expected *= v - i
            if len(images) != len(self.elements) or len(self.elements) != expected:
                raise ValueError(
                    f"action is not sharply {ell}-transitive on {v} symbols"
                )

    @property
    def order(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        """Exhaustive closure and sharp transitivity checks (small v only)."""
        members = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                composed = tuple(a[b[x]] for x in range(self.degree))
                if composed not in members:
                    raise ValueError("group is not closed under composition")
        ell = self.sharp_transitivity
        if ell == 0:
            return
        tuples = [
            tup
            for tup in product(range(self.degree), repeat=ell)
            if len(set(tup)) == ell
        ]
        for src in tuples:
            images = [tuple(perm[x] for x in src) for perm in self.elements]
            if sorted(images) != sorted(tuples):
                raise ValueError(
                    f"not sharply {ell}-transitive: source {src} misses targets"
                )


def make_cyclic(v: int) -> GroupAction:
    """The v translations x -> x + c (mod v)."""
    if v < 2:
        raise ValueError("need at least two symbols")
    elements = tuple(tuple((x + c) % v for x in range(v)) for c in range(v))
    return GroupAction("cyclic", v, elements, 1)


def make_frobenius(v: int) -> GroupAction:
    """The v(v-1) affine maps x -> a*x + b over GF(v), a != 0, in (a, b)
    order, so the identity (a = 1, b = 0) comes first."""
    fld = finite_field(v)  # raises UnsupportedParameterError if not a prime power
    # the images as an array, as lists and as tuples
    limits.check_table_bytes(v**3, 3 * 8, f"Frobenius group on {v} symbols")
    images = fld.add_table[fld.mul_table[1:, None, :], np.arange(v)[:, None]]
    elements = tuple(map(tuple, images.reshape(-1, v).tolist()))
    return GroupAction("frobenius", v, elements, 2)


def make_pgl(v: int) -> GroupAction:
    """The v(v-1)(v-2) fractional-linear maps on GF(q) + {infinity}, v = q+1.

    Matrices (a b; c d) with ad - bc != 0 are taken one per projective
    class by normalizing the first nonzero entry of (a, b, c, d) to 1, in
    lexicographic order with the identity moved first.  Infinity is the
    symbol q; it maps to a/c (or stays at infinity when c = 0), and the
    pole -d/c maps to infinity.
    """
    if v < 3:
        raise UnsupportedParameterError("pgl needs at least three symbols")
    q = v - 1
    if num.is_prime_power(q) is None:
        raise UnsupportedParameterError(
            f"pgl requires v-1 to be a prime power, got v-1={q}"
        )
    fld = finite_field(q)
    add, mul = fld.add_table, fld.mul_table
    neg = add.argmin(axis=1)  # row a of add holds 0 at column -a
    inv = (mul == 1).argmax(axis=1)  # inv[0] = 0 is never read
    # 2q^3 candidates (a is 0 or 1 after normalizing), each with v images
    limits.check_table_bytes(2 * q**3 * (v + 4), 8, f"PGL(2, {q}) images")
    a, b, c, d = np.indices((2, q, q, q)).reshape(4, -1)
    keep = (add[mul[a, d], neg[mul[b, c]]] != 0) & ((a == 1) | (b == 1))
    a, b, c, d = (coef[keep, None] for coef in (a, b, c, d))
    x = np.arange(q)
    den = add[mul[c, x], d]
    finite = np.where(den == 0, q, mul[add[mul[a, x], b], inv[den]])
    infinite = np.where(c != 0, mul[a, inv[c]], q)
    identity = tuple(range(v))
    elements = sorted(map(tuple, np.hstack([finite, infinite]).tolist()),
                      key=lambda perm: perm != identity)
    return GroupAction("pgl", v, tuple(elements), 3)


def make_trivial(v: int) -> GroupAction:
    """Identity-only action; orbit checking under it degenerates to plain
    coverage checking.  Test affordance, not one of the bound families."""
    if v < 1:
        raise ValueError("need at least one symbol")
    return GroupAction("trivial", v, (tuple(range(v)),), 0)


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

    def length_of(self, representative: tuple[int, ...]) -> int:
        rank = symbols_rank(representative, self.action.degree)
        return self.lengths[int(self.orbit_id_of[rank])]


def enumerate_orbits(action: GroupAction, t: int) -> OrbitTable:
    """Tabulate the orbit partition of symbol t-tuples under the action.

    Tuples are visited in rank (= lexicographic) order, so the first member
    seen in each orbit is its lexicographically least one.
    """
    v = action.degree
    total = v**t
    limits.check_table_bytes(total, 8, "orbit table")
    orbit_id = np.full(total, -1, dtype=np.int64)
    reps: list[tuple[int, ...]] = []
    lengths: list[int] = []
    for rank in range(total):
        if orbit_id[rank] >= 0:
            continue
        oid = len(reps)
        tup = symbols_unrank(rank, t, v)
        members = set()
        for perm in action.elements:
            image = tuple(perm[s] for s in tup)
            members.add(symbols_rank(image, v))
        for r in members:
            orbit_id[r] = oid
        reps.append(tup)
        lengths.append(len(members))
    orbit_id.setflags(write=False)
    return OrbitTable(t, action, tuple(reps), tuple(lengths), orbit_id)


def develop(array: SymbolArray, action: GroupAction) -> SymbolArray:
    """Replace every row by its images under all group elements.

    Output row order: input row i contributes rows i*|G| .. (i+1)*|G| - 1,
    one per group element in element order.
    """
    if action.degree != array.params.v:
        raise ValueError(
            f"action degree {action.degree} does not match v={array.params.v}"
        )
    perms = np.array(action.elements, dtype=np.int32)
    limits.check_table_bytes(len(perms) * array.cells.size, perms.itemsize, "developed rows")
    # (n, order, k) in one allocation: row i's image under element g
    images = perms[np.arange(len(perms))[None, :, None], array.cells[:, None, :]]
    return SymbolArray(array.params, images.reshape(-1, array.params.k))


def constant_rows(params: CAParams) -> SymbolArray:
    """The v rows (s, s, ..., s) for s = 0..v-1."""
    rows = np.repeat(np.arange(params.v, dtype=np.int32)[:, None], params.k, axis=1)
    return SymbolArray(params, rows)
