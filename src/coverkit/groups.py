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
least significant).  The modulus is the monic irreducible polynomial of
degree m whose non-leading coefficient vector encodes the smallest integer.
The projective point at infinity is the extra symbol q, i.e. the last one.

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


@dataclass(frozen=True)
class FiniteField:
    """GF(p**m) on the integer codes 0..q-1 described in the module docstring."""

    p: int
    m: int
    modulus: tuple[int, ...]  # monic, length m+1, constant term first
    q: int
    inverse: tuple[int, ...] = field(repr=False, default=())

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def undigits(self, ds: list[int]) -> int:
        a = 0
        for d in reversed(ds):
            a = a * self.p + d
        return a

    def add(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self.undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self.undigits([(-x) % self.p for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self.undigits(_poly_mod(prod, self.modulus, self.p)[: self.m])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.inverse[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))


def _poly_mod(poly: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """Remainder of poly modulo a monic modulus, coefficients mod p."""
    rem = list(poly)
    deg_m = len(modulus) - 1
    for i in range(len(rem) - 1, deg_m - 1, -1):
        c = rem[i] % p
        if c:
            for j in range(deg_m + 1):
                rem[i - deg_m + j] = (rem[i - deg_m + j] - c * modulus[j]) % p
    rem = rem[:deg_m]
    rem += [0] * (deg_m - len(rem))
    return rem


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if not any(_poly_mod(list(coeffs), divisor, p)):
                return False
    return True


def finite_field(q: int) -> FiniteField:
    """Construct GF(q), verifying inverses exist for every nonzero element."""
    pm = num.is_prime_power(q)
    if pm is None:
        raise UnsupportedParameterError(f"{q} is not a prime power")
    p, m = pm
    modulus = None
    for code in range(p**m):
        tail = []
        c = code
        for _ in range(m):
            tail.append(c % p)
            c //= p
        cand = tuple(tail) + (1,)
        if _poly_is_irreducible(cand, p):
            modulus = cand
            break
    assert modulus is not None, "no irreducible modulus found"
    fld = FiniteField(p, m, modulus, q)
    inverse = [0] * q
    for a in range(1, q):
        for b in range(1, q):
            if fld.mul(a, b) == 1:
                inverse[a] = b
                break
        else:
            raise ArithmeticError(f"element {a} of GF({q}) has no inverse")
    fld = FiniteField(p, m, modulus, q, tuple(inverse))
    _spot_check_axioms(fld)
    return fld


def _spot_check_axioms(fld: FiniteField) -> None:
    """a * a^-1 == 1 for all nonzero a; distributivity on sampled triples."""
    for a in range(1, fld.q):
        if fld.mul(a, fld.inv(a)) != 1:
            raise ArithmeticError(f"inverse check failed for {a} in GF({fld.q})")
    step = max(1, fld.q // 5)
    sample = range(0, fld.q, step)
    for a in sample:
        for b in sample:
            for c in sample:
                lhs = fld.mul(a, fld.add(b, c))
                rhs = fld.add(fld.mul(a, b), fld.mul(a, c))
                if lhs != rhs:
                    raise ArithmeticError(
                        f"distributivity failed at ({a},{b},{c}) in GF({fld.q})"
                    )


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
    """The v(v-1) affine maps x -> a*x + b over GF(v), a != 0."""
    fld = finite_field(v)  # raises UnsupportedParameterError if not a prime power
    elements = []
    for a in range(1, v):
        for b in range(v):
            elements.append(tuple(fld.add(fld.mul(a, x), b) for x in range(v)))
    # identity is a=1, b=0; reorder so constructors always list it first
    elements.sort(key=lambda perm: perm != tuple(range(v)))
    return GroupAction("frobenius", v, tuple(elements), 2)


def make_pgl(v: int) -> GroupAction:
    """The v(v-1)(v-2) fractional-linear maps on GF(q) + {infinity}, v = q+1.

    Matrices (a b; c d) with ad - bc != 0 are taken one per projective
    class by normalizing the first nonzero entry of (a, b, c, d) to 1.
    Infinity is the symbol q; it maps to a/c (or stays at infinity when
    c = 0), and the pole -d/c maps to infinity.
    """
    if v < 3:
        raise UnsupportedParameterError("pgl needs at least three symbols")
    q = v - 1
    if num.is_prime_power(q) is None:
        raise UnsupportedParameterError(
            f"pgl requires v-1 to be a prime power, got v-1={q}"
        )
    fld = finite_field(q)
    infinity = q
    elements = []
    for a, b, c, d in product(range(q), repeat=4):
        det = fld.sub(fld.mul(a, d), fld.mul(b, c))
        if det == 0:
            continue
        first = next(x for x in (a, b, c, d) if x != 0)
        if first != 1:
            continue
        perm = []
        for x in range(q):
            den = fld.add(fld.mul(c, x), d)
            if den == 0:
                perm.append(infinity)
            else:
                perm.append(fld.div(fld.add(fld.mul(a, x), b), den))
        perm.append(fld.div(a, c) if c != 0 else infinity)
        elements.append(tuple(perm))
    elements.sort(key=lambda perm: perm != tuple(range(v)))
    action = GroupAction("pgl", v, tuple(elements), 3)
    assert action.order == v * (v - 1) * (v - 2)
    return action


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
    images = perms[:, array.cells]  # (order, n, k)
    stacked = images.transpose(1, 0, 2).reshape(-1, array.params.k)
    return SymbolArray(array.params, stacked)


def constant_rows(params: CAParams) -> SymbolArray:
    """The v rows (s, s, ..., s) for s = 0..v-1."""
    rows = np.repeat(np.arange(params.v, dtype=np.int32)[:, None], params.k, axis=1)
    return SymbolArray(params, rows)
