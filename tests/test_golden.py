"""Golden outputs: the arrays every builder makes for fixed seeds.

Each case is pinned by (rows, resamples, failure reason, SHA-256 of the
array).  The digest input is the header line "CA n t k v\\n" followed by
the cells as uint8 bytes in row-major order.  The digests were taken from
the builders as they stood before their coverage scans were merged into
one kernel, and the k >= 8 density cases before density rows were chosen
from an incremental coverage state; any later change that alters an array
for a given seed fails here.  The byte-alphabet case
two_stage-2-3-256-s1 was taken from the per-set kernel, before the block
kernel replaced it.  Three deliberate moves:

* pgl-3-8-3-s3 was re-pinned when the resampler stopped treating PGL's
  two-symbol orbits at v = 3 (full length, since the group order is
  v(v-1)) as full orbits; it went from 1 resample to 0 at the same 243
  rows.
* the four two_stage-colour cases replaced the two_stage-density cases,
  at the same shapes and seeds, when first-fit colouring replaced greedy
  density rows as two-stage's other second stage.  At (3,6,2), seed 2,
  colouring happens to give the same two patch rows, so that digest is
  unchanged.
* mt_cyclic-3-8-3-s1-capped went from 4 to 9 stage-1 rows when the orbit
  builder began to fail at once, without resampling, on fewer rows than
  the 9 full orbits of a column set; at 9 rows it still stops at its cap
  of 3 resamples.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from coverkit import construct, limits
from coverkit.construct import (
    BuildConfig,
    density_build,
    moser_tardos_build,
    pgl_build,
    two_stage_build,
)
from coverkit.core import CAParams, SymbolArray
from coverkit.groups import make_cyclic, make_frobenius


def digest(array: SymbolArray) -> str:
    p = array.params
    h = hashlib.sha256(f"CA {array.n_rows} {p.t} {p.k} {p.v}\n".encode("ascii"))
    h.update(np.ascontiguousarray(array.cells, dtype=np.uint8).tobytes())
    return h.hexdigest()


def _two_stage(t, k, v, **config):
    return lambda: two_stage_build(CAParams(t, k, v), BuildConfig(**config))


def _mt(make_action, t, k, v, **config):
    return lambda: moser_tardos_build(CAParams(t, k, v), make_action(v), BuildConfig(**config))


def _pgl(t, k, v, **config):
    return lambda: pgl_build(CAParams(t, k, v), BuildConfig(**config))


def _density(t, k, v):
    return lambda: (density_build(SymbolArray.empty(CAParams(t, k, v))), None)


def _capped(case, **constants):
    """``case`` run with construct's give-up constants patched, so that
    its build gives up early."""
    def run():
        with mock.patch.multiple(construct, **constants):
            return case()
    return run


CASES = {
    "two_stage-3-8-3-s1": _two_stage(3, 8, 3, seed=1),
    "two_stage-3-8-3-s2": _two_stage(3, 8, 3, seed=2),
    "two_stage-2-12-4-s3": _two_stage(2, 12, 4, seed=3),
    "two_stage-colour-2-6-3-s1": _two_stage(2, 6, 3, seed=1, second_stage="colour"),
    "two_stage-colour-3-6-2-s2": _two_stage(3, 6, 2, seed=2, second_stage="colour"),
    "two_stage-colour-2-5-4-s3": _two_stage(2, 5, 4, seed=3, second_stage="colour"),
    "two_stage-colour-3-8-3-s1": _two_stage(3, 8, 3, seed=1, second_stage="colour"),
    "two_stage-2-3-256-s1": _two_stage(2, 3, 256, seed=1),
    "two_stage-3-8-3-s4-n40-missed": _capped(
        _two_stage(3, 8, 3, seed=4, n_override=40), MAX_STAGE1_ATTEMPTS=2),
    "mt_cyclic-3-10-3-s1": _mt(make_cyclic, 3, 10, 3, seed=1),
    "mt_cyclic-3-10-3-s2-n45": _mt(make_cyclic, 3, 10, 3, seed=2, n_override=45),
    "mt_cyclic-2-8-4-s3-n11": _mt(make_cyclic, 2, 8, 4, seed=3, n_override=11),
    "mt_cyclic-3-8-3-s1-capped": _capped(
        _mt(make_cyclic, 3, 8, 3, seed=1, n_override=9), RESAMPLE_CAP=3),
    "mt_frobenius-3-8-4-s1": _mt(make_frobenius, 3, 8, 4, seed=1),
    "mt_frobenius-3-8-4-s2-n19": _mt(make_frobenius, 3, 8, 4, seed=2, n_override=19),
    "mt_frobenius-3-10-3-s3-n18": _mt(make_frobenius, 3, 10, 3, seed=3, n_override=18),
    "pgl-3-8-4-s1": _pgl(3, 8, 4, seed=1),
    "pgl-3-8-4-s2": _pgl(3, 8, 4, seed=2),
    "pgl-3-8-3-s3": _pgl(3, 8, 3, seed=3),
    "pgl-2-16-4-s1": _pgl(2, 16, 4, seed=1),
    "density-2-6-3": _density(2, 6, 3),
    "density-3-7-2": _density(3, 7, 2),
    "density-2-5-4": _density(2, 5, 4),
    "density-3-10-3": _density(3, 10, 3),
    "density-4-8-3": _density(4, 8, 3),
}

GOLDEN = {
    "density-2-5-4": (16, None, None,
        "e9e3186d3b9d52373ff8a134a6fda33b7d515aa484064064b3ec5c2d9a00afdb"),
    "density-2-6-3": (15, None, None,
        "0b936b28137910e2dbf38b81670a1b0cf2003b195c1278a612c384cc9818a702"),
    "density-3-7-2": (15, None, None,
        "ffbefe13b5a446e51429753cab71802d2d4208839dd75edf53e5082687114f2a"),
    "density-3-10-3": (69, None, None,
        "c09c2033ff05df74e609b0ab291b40ad508379d88dbee7670ba2a8418903bdd4"),
    "density-4-8-3": (196, None, None,
        "edd21ba6cb84a64253e190f8b3a7849839f27159cd3999389b2a0d836324f3c2"),
    "mt_cyclic-2-8-4-s3-n11": (44, 19, None,
        "f19b198c1eae980b4d863a77f19954694d8cf352074229bbb882125c67fa4dc4"),
    "mt_cyclic-3-10-3-s1": (207, 0, None,
        "6247a3d5899cc348280891a6d128fa49ded650f2de97fcf8d487f24671890e5f"),
    "mt_cyclic-3-10-3-s2-n45": (135, 10, None,
        "500d22d9e1955a02d46bc7ac499fd7099027105bb46bc08edd7e44855661b5b3"),
    "mt_cyclic-3-8-3-s1-capped": (27, 3, "resample cap 3 reached at scan position 0",
        "0f25c6d63b89a7993e63cef5e383e32a984677adc15ce284efdfc1b3d3e97680"),
    "mt_frobenius-3-10-3-s3-n18": (111, 39, None,
        "42e141c941e2e47ce0735c78cd209233f85f593707291cc084a45da98ef8a59d"),
    "mt_frobenius-3-8-4-s1": (412, 0, None,
        "9c03d3da7d21b6cfc5dc3f4e1effcbd45bd44d463b3d17cacacb59970a85ebe1"),
    "mt_frobenius-3-8-4-s2-n19": (232, 52, None,
        "9a14cecbf7f4f6f27ecff04387682bdbedd644baba46292beca5acbb21c5f6db"),
    "pgl-3-8-3-s3": (243, 0, None,
        "90c827c6bebd1acfe9ed63980e01222a5e13c80c87ac1fd37f62a2231e3a5ebe"),
    "pgl-2-16-4-s1": (100, 0, None,
        "50899d836fec1c0655b0e71c49caffd71f3a0864fb266b3cce3c9aa39f5d337d"),
    "pgl-3-8-4-s1": (502, 0, None,
        "90a647b8daf1531009e9d4d08e609d02fba9d610c9b3c66b4cfee2b70bda133c"),
    "pgl-3-8-4-s2": (472, 0, None,
        "9fb9bcadbb29df053af429be816b1a1a2fbde43378a681af55e92a39434c6add"),
    "two_stage-2-3-256-s1": (137454, 0, None,
        "e3d86b1fe0e6df828ffe0fd34e563579ca28c214bd6fbc8e9b65a07d29a57b5d"),
    "two_stage-2-12-4-s3": (79, 0, None,
        "1de04c5d8828ada508bd7fe9234b85941d80ff062e3e92f2a75e8e9b98a7928a"),
    "two_stage-3-8-3-s1": (118, 0, None,
        "6e7588dd53d3891ac170174ec3f99859bf1c1889d6862c80432b00340ccb508d"),
    "two_stage-3-8-3-s2": (126, 0, None,
        "fc6578397e049b6f0c4c121f49df108d81f32b3b96c45d03d26b50b5058f3ecd"),
    "two_stage-3-8-3-s4-n40-missed": (398, 0, "stage 1 missed target 334 in 2 attempts",
        "d8b59dc76827e70155a5e8a2053da8c0277af1f7e6ec71353be6f896edfc0943"),
    "two_stage-colour-2-5-4-s3": (38, 0, None,
        "ce471df53b541f9943e5152c3e00494ddf796d8ee4ccf9892ed0ce92296d7297"),
    "two_stage-colour-2-6-3-s1": (26, 0, None,
        "5e93507273bb3ccfaaf5e51d8ace195a7c4d913167643e412ff34f6415c61c34"),
    "two_stage-colour-3-6-2-s2": (23, 0, None,
        "7fd54f298c9b749d69015249f46076d0d899684324704dfe4d63c8e2ea61317d"),
    "two_stage-colour-3-8-3-s1": (108, 0, None,
        "f821f42a22ee3c0249182edefcf811999a315a67630e993f1fcd0f6e21a6e63d"),
}


def outcome(name: str) -> tuple:
    array, log = CASES[name]()
    if log is None:
        return (array.n_rows, None, None, digest(array))
    assert log.total_rows == array.n_rows
    return (array.n_rows, log.resample_count, log.failure_reason, digest(array))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_array(name):
    assert outcome(name) == GOLDEN[name]


# the working budget each case runs under again: 64 bytes gives one-row
# chunks, and at (3,10,3) and (4,8,3) a window holding part of the top
# prefixes; the 137,454-row byte-alphabet case takes row chunks of 64
# under 65,536 bytes instead
SMALL_BUDGETS = {"two_stage-2-3-256-s1": 65_536}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_array_under_a_small_working_budget(name, monkeypatch):
    monkeypatch.setattr(limits, "_WORKING_BYTES", SMALL_BUDGETS.get(name, 64))
    assert outcome(name) == GOLDEN[name]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)
