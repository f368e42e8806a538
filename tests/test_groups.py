"""Tests for finite fields, group actions, orbit tables, and development."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from coverkit.core import CAParams, Interaction, SymbolArray, covers
from coverkit.errors import UnsupportedParameterError
from coverkit.groups import (
    GroupAction,
    constant_rows,
    develop,
    enumerate_orbits,
    finite_field,
    make_cyclic,
    make_frobenius,
    make_pgl,
    make_trivial,
)
from coverkit.verify import full_check

DIGESTS = json.loads((Path(__file__).parent / "data" / "groups_digests.json").read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _elements(action) -> tuple[tuple[int, ...], ...]:
    """The rows of ``perms`` as tuples, in element order."""
    return tuple(map(tuple, action.perms.tolist()))


class TestFiniteField:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_inverses_everywhere(self, q):
        # every nonzero row of the multiplication table holds 1 exactly once
        fld = finite_field(q)
        assert ((fld.mul_table[1:] == 1).sum(axis=1) == 1).all()

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_full_distributivity(self, q):
        fld = finite_field(q)
        add, mul = fld.add_table, fld.mul_table
        for a, b, c in product(range(q), repeat=3):
            assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]

    def test_gf4_modulus_is_lowest(self):
        # x^2 + x + 1 is the only irreducible quadratic over GF(2)
        assert finite_field(4).modulus == (1, 1, 1)

    def test_gf8_modulus_is_lowest(self):
        # x^3 + x + 1 beats x^3 + x^2 + 1 in the documented ordering
        assert finite_field(8).modulus == (1, 1, 0, 1)

    def test_gf9_modulus_is_lowest(self):
        # x^2 + 1 is irreducible over GF(3) and encodes the smallest integer
        assert finite_field(9).modulus == (1, 0, 1)

    def test_prime_field_is_arithmetic_mod_p(self):
        fld = finite_field(7)
        codes = np.arange(7)
        assert np.array_equal(fld.add_table, np.add.outer(codes, codes) % 7)
        assert np.array_equal(fld.mul_table, np.multiply.outer(codes, codes) % 7)

    def test_tables_are_read_only(self):
        fld = finite_field(4)
        assert not fld.add_table.flags.writeable and not fld.mul_table.flags.writeable

    def test_rejects_non_prime_power(self):
        with pytest.raises(UnsupportedParameterError):
            finite_field(6)

    @pytest.mark.parametrize("q", sorted(map(int, DIGESTS["add"])))
    def test_tables_match_pinned_digests(self, q):
        # every prime power q <= 49: the same modulus, so the same numbering
        fld = finite_field(q)
        assert _sha256(bytes(fld.add_table.ravel().tolist())) == DIGESTS["add"][str(q)]
        assert _sha256(bytes(fld.mul_table.ravel().tolist())) == DIGESTS["mul"][str(q)]


# two commuting transpositions on four symbols: a closed group of order 4
# that moves 0 only to 1, so not transitive
KLEIN_ON_PAIRS = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]


class TestGroupActionChecks:
    """Each refusal of construction and of ``validate``, on hand-made tables."""

    @pytest.mark.parametrize("rows, degree, message", [
        ([(0, 1, 2), (0, 0, 1)], 3, r"not a permutation of 0\.\.2: \(0, 0, 1\)"),
        ([(0, 1, 2), (1, 2, 3)], 3, r"not a permutation of 0\.\.2: \(1, 2, 3\)"),
        ([(0, 1)], 3, r"not a permutation of 0\.\.2: a table of shape \(1, 2\)"),
        ([(1, 2, 0), (2, 0, 1)], 3, "identity element missing"),
        ([(0, 1, 2), (1, 2, 0), (1, 2, 0)], 3, "duplicate group elements"),
        (KLEIN_ON_PAIRS, 4, "action is not sharply 1-transitive on 4 symbols"),
        ([(0, 1, 2), (1, 2, 0)], 3, "action is not sharply 1-transitive on 3 symbols"),
    ])
    def test_construction_refusals(self, rows, degree, message):
        with pytest.raises(ValueError, match=message):
            GroupAction("hand-made", degree, rows, 1)

    def test_not_closed(self):
        # regular on the symbol 0, but (1 2 0) after itself is (2 0 1)
        action = GroupAction("hand-made", 3, [(0, 1, 2), (1, 2, 0), (2, 1, 0)], 1)
        with pytest.raises(ValueError, match="group is not closed under composition"):
            action.validate()

    def test_source_misses_targets(self):
        # validate does not lean on construction: a closed table swapped in
        # after it is caught at the first source it does not carry everywhere
        action = make_cyclic(4)
        object.__setattr__(action, "perms", np.array(KLEIN_ON_PAIRS, dtype=np.int32))
        with pytest.raises(ValueError, match=r"not sharply 1-transitive: source \(0,\) misses"):
            action.validate()

    def test_trivial_action_validates(self):
        make_trivial(4).validate()

    def test_table_is_read_only_int32_and_identity_first(self):
        for action in (make_cyclic(5), make_frobenius(5), make_pgl(5), make_trivial(5)):
            assert action.perms.dtype == np.int32 and not action.perms.flags.writeable
            assert action.perms[0].tolist() == list(range(5))

    def test_an_int32_table_is_frozen_in_place_and_any_other_copied(self):
        table = np.array([(0, 1), (1, 0)], dtype=np.int32)
        assert GroupAction("hand-made", 2, table, 1).perms is table
        assert not table.flags.writeable
        wide = np.array([(0, 1), (1, 0)], dtype=np.int64)
        assert GroupAction("hand-made", 2, wide, 1).perms.dtype == np.int32
        assert wide.flags.writeable

    def test_actions_compare_by_identity(self):
        assert make_cyclic(3) != make_cyclic(3)


class TestCyclic:
    def test_v2_is_identity_and_swap(self):
        action = make_cyclic(2)
        assert _elements(action) == ((0, 1), (1, 0))

    def test_v3_elements_are_cycle_powers(self):
        action = make_cyclic(3)
        assert _elements(action) == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_sharply_transitive_v5_exhaustive(self):
        make_cyclic(5).validate()

    def test_order(self):
        for v in (2, 3, 4, 7):
            assert make_cyclic(v).order == v


class TestFrobenius:
    def test_v3_is_symmetric_group(self):
        from itertools import permutations

        action = make_frobenius(3)
        assert action.order == 6
        assert set(_elements(action)) == set(permutations(range(3)))
        action.validate()

    def test_v4_order(self):
        action = make_frobenius(4)
        assert action.order == 12
        action.validate()

    def test_v5_sharply_2_transitive(self):
        make_frobenius(5).validate()

    def test_non_prime_power_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            make_frobenius(6)

    @pytest.mark.parametrize("v", sorted(map(int, DIGESTS["frobenius"])))
    def test_elements_match_pinned_digests(self, v):
        # element order fixes develop's row order, so it is pinned too
        elements = _elements(make_frobenius(v))
        assert _sha256(repr(elements).encode()) == DIGESTS["frobenius"][str(v)]


class TestPgl:
    def test_v3_is_symmetric_group(self):
        action = make_pgl(3)
        assert action.order == 6
        from itertools import permutations

        assert set(_elements(action)) == set(permutations(range(3)))

    def test_v4_sharply_3_transitive_exhaustive(self):
        action = make_pgl(4)
        assert action.order == 24
        action.validate()

    def test_v4_orbit_lengths_divide_group_order(self):
        action = make_pgl(4)
        for t in (2, 3, 4):
            table = enumerate_orbits(action, t)
            assert all(24 % L == 0 for L in table.lengths)

    def test_v5_order(self):
        assert make_pgl(5).order == 60

    def test_rejects_bad_degrees(self):
        with pytest.raises(UnsupportedParameterError):
            make_pgl(7)  # v-1 = 6 is not a prime power
        with pytest.raises(UnsupportedParameterError):
            make_pgl(2)  # needs at least three symbols

    @pytest.mark.parametrize("v", sorted(map(int, DIGESTS["pgl"])))
    def test_elements_match_pinned_digests(self, v):
        elements = _elements(make_pgl(v))
        assert _sha256(repr(elements).encode()) == DIGESTS["pgl"][str(v)]


class TestOrbitTables:
    def test_cyclic_v3_t2(self):
        table = enumerate_orbits(make_cyclic(3), 2)
        assert table.n_orbits == 3
        assert all(L == 3 for L in table.lengths)

    def test_cyclic_census_general(self):
        for v in (2, 3, 4, 5):
            for t in (2, 3):
                table = enumerate_orbits(make_cyclic(v), t)
                assert table.n_orbits == v ** (t - 1)
                assert all(L == v for L in table.lengths)

    def test_frobenius_v3_t2(self):
        table = enumerate_orbits(make_frobenius(3), 2)
        assert sorted(table.lengths) == [3, 6]

    def test_frobenius_census_general(self):
        for v in (2, 3, 4, 5):
            for t in (2, 3):
                table = enumerate_orbits(make_frobenius(v), t)
                counts = Counter(table.lengths)
                full = (v ** (t - 1) - 1) // (v - 1)
                assert counts[v * (v - 1)] >= full
                short = {L: c for L, c in counts.items() if L != v * (v - 1)}
                if v > 2:
                    assert counts[v] == 1 and counts[v * (v - 1)] == full
                    assert short == {v: 1}
                assert sum(L * c for L, c in counts.items()) == v**t

    def test_pgl_v5_t3_census(self):
        table = enumerate_orbits(make_pgl(5), 3)
        counts = Counter(table.lengths)
        assert counts == {5: 1, 20: 3, 60: 1}
        assert sum(L * c for L, c in counts.items()) == 125

    def test_orbit_lengths_divide_order(self):
        for make, v in [(make_cyclic, 4), (make_frobenius, 4), (make_pgl, 4)]:
            action = make(v)
            table = enumerate_orbits(action, 3)
            assert all(action.order % L == 0 for L in table.lengths)

    def test_representatives_are_lex_least(self):
        table = enumerate_orbits(make_frobenius(3), 2)
        for oid, rep in enumerate(table.representatives):
            members = {tuple(perm[s] for s in rep) for perm in _elements(table.action)}
            assert rep == min(members)
            assert table.lengths[oid] == len(members)

    @pytest.mark.parametrize("make, v, t", [
        (make_cyclic, 4, 3), (make_frobenius, 4, 3), (make_frobenius, 5, 2),
        (make_pgl, 5, 3), (make_pgl, 4, 4), (make_trivial, 3, 2),
    ])
    def test_matches_a_loop_over_elements(self, make, v, t):
        # the reference: each tuple in lexicographic order not yet placed
        # starts an orbit of its images under every element, one at a time
        action = make(v)
        table = enumerate_orbits(action, t)
        perms = _elements(action)
        orbit_of, reps, lengths = {}, [], []
        for tup in product(range(v), repeat=t):
            if tup not in orbit_of:
                members = {tuple(perm[s] for s in tup) for perm in perms}
                orbit_of.update(dict.fromkeys(members, len(reps)))
                reps.append(tup)
                lengths.append(len(members))
        assert table.representatives == tuple(reps) and table.lengths == tuple(lengths)
        assert table.orbit_id_of.tolist() == [orbit_of[tup] for tup in product(range(v), repeat=t)]

    def test_sharp_transitivity_forces_full_orbits(self):
        # any tuple with l distinct symbols has a full-length orbit
        frob = make_frobenius(4)
        table = enumerate_orbits(frob, 2)
        for rep, length in zip(table.representatives, table.lengths):
            if len(set(rep)) >= 2:
                assert length == frob.order
        pgl = make_pgl(4)
        table3 = enumerate_orbits(pgl, 3)
        for rep, length in zip(table3.representatives, table3.lengths):
            if len(set(rep)) >= 3:
                assert length == pgl.order


class TestDevelop:
    def test_identity_action_is_noop(self):
        p = CAParams(2, 3, 4)
        arr = SymbolArray.from_rows(p, [(0, 1, 2), (3, 3, 0)])
        assert develop(arr, make_trivial(4)) == arr

    def test_two_translates(self):
        p = CAParams(2, 2, 2)
        arr = SymbolArray.from_rows(p, [(0, 1)])
        out = develop(arr, make_cyclic(2))
        assert {tuple(r) for r in out.cells.tolist()} == {(0, 1), (1, 0)}

    def test_row_count_multiplies(self):
        p = CAParams(2, 4, 3)
        arr = SymbolArray.from_rows(p, [(0, 1, 2, 0), (1, 1, 0, 2)])
        out = develop(arr, make_frobenius(3))
        assert out.n_rows == 2 * 6

    def test_degree_mismatch_rejected(self):
        p = CAParams(2, 3, 3)
        arr = SymbolArray.from_rows(p, [(0, 1, 2)])
        with pytest.raises(ValueError):
            develop(arr, make_cyclic(4))

    def test_develops_in_one_allocation(self):
        # the images are built once, in their final (row, element) order, and
        # SymbolArray copies them once: no transposed copy in between
        p = CAParams(3, 40, 8)
        arr = SymbolArray(p, np.random.default_rng(1).integers(0, 8, size=(200, 40)))
        action = make_pgl(8)
        tracemalloc.start()
        try:
            out = develop(arr, action)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.n_rows == 200 * action.order
        assert peak <= 2.1 * out.cells.nbytes
        perms = action.perms
        assert np.array_equal(out.cells[5 * action.order + 7], perms[7][arr.cells[5]])

    def test_orbit_representative_development_is_covering(self):
        # one row per full orbit at t=k=2 over the affine group on 3 symbols,
        # developed and topped up with constant rows, covers everything
        p = CAParams(2, 2, 3)
        seed = SymbolArray.from_rows(p, [(0, 1)])
        full = develop(seed, make_frobenius(3))
        arr = SymbolArray(p, np.vstack([full.cells, constant_rows(p).cells]))
        report = full_check(arr)
        assert report.is_covering
        assert arr.n_rows == 9

    def test_development_coverage_equivalence(self):
        # develop(A) covers an interaction iff A covers some orbit member,
        # checked over every interaction for v <= 4, t <= 3, k <= 5
        from itertools import combinations

        rng = np.random.default_rng(5)
        for v in (2, 3, 4):
            actions = [make_cyclic(v), make_frobenius(v)]
            for t in (2, 3):
                for k in (4, 5):
                    p = CAParams(t, k, v)
                    arr = SymbolArray(p, rng.integers(0, v, size=(2, k)))
                    for action in actions:
                        dev = develop(arr, action)
                        for cols in combinations(range(k), t):
                            for syms in product(range(v), repeat=t):
                                inter = Interaction(cols, syms)
                                orbit_hit = any(
                                    covers(arr, Interaction(cols, tuple(perm[s] for s in syms)))
                                    for perm in _elements(action)
                                )
                                assert covers(dev, inter) == orbit_hit


class TestConstantRows:
    def test_shape_and_content(self):
        p = CAParams(2, 3, 2)
        arr = constant_rows(p)
        assert arr.cells.tolist() == [[0, 0, 0], [1, 1, 1]]

    def test_covers_every_constant_interaction(self):
        p = CAParams(3, 5, 4)
        arr = constant_rows(p)
        for s in range(4):
            assert covers(arr, Interaction((0, 2, 4), (s, s, s)))

    def test_appending_never_decreases_coverage(self):
        p = CAParams(2, 4, 3)
        rng = np.random.default_rng(9)
        base = SymbolArray(p, rng.integers(0, 3, size=(4, 4)))
        merged = SymbolArray(p, np.vstack([base.cells, constant_rows(p).cells]))
        assert full_check(merged).uncovered_count <= full_check(base).uncovered_count


# the three actions built and validated, their orbits, and one orbit build
ORBIT_RUN = """
import sys
from coverkit.construct import pgl_build
from coverkit.core import CAParams
from coverkit.groups import enumerate_orbits, make_cyclic, make_frobenius, make_pgl
for action in (make_cyclic(5), make_frobenius(5), make_pgl(6)):
    action.validate()
    enumerate_orbits(action, 3)
pgl_build(CAParams(3, 8, 4))
print("numpy.ma" in sys.modules)
"""


def _loads_numpy_ma(code: str) -> bool:
    """Whether a fresh interpreter running ``code`` ends with numpy.ma loaded."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120, check=True)
    return result.stdout.split()[-1] == "True"


def test_orbit_builds_import_no_masked_arrays():
    # numpy 2.x's np.unique, asked for no counts, imports numpy.ma on its
    # first call; under numpy 1.x, importing numpy loads it anyway
    if _loads_numpy_ma('import sys, numpy; print("numpy.ma" in sys.modules)'):
        pytest.skip("importing numpy alone loads numpy.ma")
    assert not _loads_numpy_ma(ORBIT_RUN)
