"""Resource cap behavior: configured limits turn into ResourceLimitError."""

import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from coverkit import bounds, cli, construct, limits
from coverkit.arrayfile import write_array
from coverkit.construct import (
    BuildConfig,
    count_uncovered,
    density_build,
    moser_tardos_build,
    random_array,
    two_stage_build,
)
from coverkit.core import CAParams, Interaction, SymbolArray
from coverkit.errors import ResourceLimitError
from coverkit.groups import (
    enumerate_orbits,
    finite_field,
    make_cyclic,
    make_frobenius,
    make_pgl,
    make_trivial,
)
from coverkit.verify import full_check


class TestMemoryCap:
    def test_count_uncovered_respects_cap(self, monkeypatch):
        arr = random_array(CAParams(2, 4, 2), 3, seed=1)  # drawn under the default cap
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "0")
        with pytest.raises(ResourceLimitError, match="cap"):
            count_uncovered(arr)

    def test_full_check_respects_cap(self, monkeypatch):
        arr = random_array(CAParams(2, 4, 2), 3, seed=1)  # drawn under the default cap
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "0")
        with pytest.raises(ResourceLimitError):
            full_check(arr)

    def test_full_check_chunks_under_a_small_cap(self, monkeypatch):
        p = CAParams(3, 20, 4)
        cells = random_array(p, 9000, seed=1).cells.copy()
        # break one interaction whose first column lies past the first chunk
        target = Interaction((15, 18, 19), (1, 2, 3))
        hits = (cells[:, list(target.columns)] == target.symbols).all(axis=1)
        cells[hits, 15] = 0
        arr = SymbolArray(p, cells)
        block = (p.k - 1) * p.tuple_count * 8 * ((arr.n_rows + 63) // 64)
        assert block > 1 << 20  # every first column's row sets, ANDed at once, are over the cap
        uncapped = full_check(arr)
        assert uncapped.first_witness == target
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "1")
        assert full_check(arr) == uncapped

    def test_full_check_peak_stays_near_the_working_budget(self, monkeypatch):
        # 8000 rows of (2,3,256): a first column's 256 row sets, each ANDed
        # with a last column's 256, are 64 MiB, and full_check holds them
        # a few words and row sets at a time
        monkeypatch.delenv("COVERKIT_MEMORY_CAP_MIB", raising=False)
        arr = random_array(CAParams(2, 3, 256), 8000, seed=1)
        tracemalloc.start()
        try:
            full_check(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * limits.Budget.from_env().working

    def test_full_check_bitsets_pack_under_the_cap(self, monkeypatch):
        # 137,454 rows of (2,3,256), as the golden array: the bitsets are
        # 12.6 MiB and one column's 256 x 137,454 bool table 33.6 MiB; each
        # column is packed in row chunks of one working budget
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "16")
        arr = random_array(CAParams(2, 3, 256), 137454, seed=1)
        bitsets = 3 * 256 * 8 * ((arr.n_rows + 63) // 64)
        tracemalloc.start()
        try:
            full_check(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bitsets + 3 * limits.Budget.from_env().working // 2

    def test_builder_scans_chunk_under_a_small_cap(self, monkeypatch):
        # at (4,20,3) two-stage draws 672 rows, whose columns and top prefix
        # ranks, a byte each, take 672 * (20 + C(19,3)) = 664,608 bytes, over
        # the half of a 1 MiB working budget a scan gives them: under that
        # cap the scans take the rows in chunks and give the same count and
        # array, and a count scan's peak, its window fills' unrank and
        # gather temporaries included, stays within the budget
        p = CAParams(4, 20, 3)
        n = bounds.two_stage_bound(p).stage1_rows
        assert n * (p.k + math.comb(p.k - 1, p.t - 1)) > (1 << 20) // 2
        arr = random_array(p, n, seed=5)
        config = BuildConfig(seed=5)
        uncapped = count_uncovered(arr), two_stage_build(p, config)[0]
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "1")
        tracemalloc.start()
        try:
            count = count_uncovered(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limits.Budget.from_env().working
        assert (count, two_stage_build(p, config)[0]) == uncapped

    def test_density_state_is_checked_before_allocation(self, monkeypatch):
        # the kernel's largest table here, the C(59,2) x 2 prefix sets, is
        # 27 KB; the density mask is C(60,3) * 4**3 = 34220 * 64 bytes,
        # about 2.2 MB, and the count table that holds it as its last level
        # 34220 * (4 + 16 + 64) bytes; the mask is checked first
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "1")
        with pytest.raises(ResourceLimitError, match="density coverage mask"):
            density_build(SymbolArray.empty(CAParams(3, 60, 4)))

    @pytest.mark.parametrize("shape, action, price, table", [
        # a set's seen slots as one uint32 word at (2,2,2): the words are
        # priced first and sized by the working budget, so only a cap below
        # one word refuses them; at 4 bytes the window fill is refused
        ((2, 2, 2), None, 4, "coverage words"),
        # the 64 cyclic orbits of 4**4 tuples: a uint64 bit per tuple rank,
        # 2048 bytes, over every table the working budget sizes; at 2048
        # bytes the plan is made
        ((4, 5, 4), make_cyclic, 2048, "coverage orbit bits"),
    ])
    def test_kernel_word_tables_are_checked_before_allocation(self, shape, action, price, table):
        params = CAParams(*shape)
        orbits = None if action is None else enumerate_orbits(action(params.v), params.t)
        with pytest.raises(ResourceLimitError, match=f"^{table} needs {price} bytes"):
            construct._Kernel(params, 10, limits.Budget(price - 1, limits.column_set_cap()), orbits)
        try:
            construct._Kernel(params, 10, limits.Budget(price, limits.column_set_cap()), orbits)
        except ResourceLimitError as error:
            assert table not in str(error)

    def test_density_count_table_is_checked_before_allocation(self, monkeypatch):
        # at (3,20,6) the mask, C(20,3) * 6**3 = 246,240 bytes, and the
        # column index, 1140 * (3 * 3 + 1) * 8 = 91,200 bytes, fit under
        # 270,000; the count table, with its prefix levels 1140 * (6 + 36)
        # bytes more, does not, and nothing near its size is allocated
        monkeypatch.setattr(limits, "memory_cap_bytes", lambda: 270_000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="density count table"):
                density_build(SymbolArray.empty(CAParams(3, 20, 6)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000

    def test_density_scores_never_wrap(self, monkeypatch):
        # with the memory cap lifted, the mask for (2,2,2**16) would fit,
        # but a score could reach C(2,2) * v**4 = 2**64
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", str(1 << 40))
        with pytest.raises(ResourceLimitError, match="int64"):
            density_build(SymbolArray.empty(CAParams(2, 2, 1 << 16)))

    @pytest.mark.parametrize("cap, build, what", [
        (0, lambda: finite_field(4), r"GF\(4\) tables"),
        (600, lambda: finite_field(4), r"GF\(4\) distributivity"),  # tables need 512 bytes
        (1200, lambda: make_frobenius(4), "Frobenius group"),  # GF(4) needs 1088
        (2000, lambda: make_pgl(5), r"PGL\(2, 4\) images"),
        (200, lambda: make_cyclic(3), "cyclic group table on 3 symbols"),  # 9 entries
        (20, lambda: make_trivial(3), "trivial group table on 3 symbols"),
    ])
    def test_field_and_group_tables_are_checked_first(self, monkeypatch, cap, build, what):
        monkeypatch.setattr(limits, "memory_cap_bytes", lambda: cap)
        with pytest.raises(ResourceLimitError, match=what):
            build()

    @pytest.mark.parametrize("make, v", [(make_cyclic, 1000), (make_frobenius, 64),
                                         (make_pgl, 17), (make_trivial, 100_000)])
    def test_group_table_price_covers_its_peak(self, monkeypatch, make, v):
        # the largest price a make_* checks covers everything it allocates
        prices = []
        check = limits.Budget.check_table_bytes

        def record(budget, n_entries, bytes_per_entry, what):
            prices.append(n_entries * bytes_per_entry)
            check(budget, n_entries, bytes_per_entry, what)

        monkeypatch.setattr(limits.Budget, "check_table_bytes", record)
        tracemalloc.start()
        try:
            make(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(prices)

    def test_orbit_table_respects_cap(self, monkeypatch):
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "0")
        with pytest.raises(ResourceLimitError):
            enumerate_orbits(make_cyclic(3), 3)

    def test_generous_cap_is_fine(self, monkeypatch):
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "64")
        arr = random_array(CAParams(2, 4, 2), 3, seed=1)
        assert count_uncovered(arr) == full_check(arr).uncovered_count


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTwoStagePrice:
    """``bounds.two_stage_entry_bytes`` is the one per-n price of the
    two-stage objectives, with ``bounds.TWO_STAGE_CALL_BYTES`` once per
    call, and it covers the peak of both of its callers."""

    @staticmethod
    def price(params, count):
        return bounds.TWO_STAGE_CALL_BYTES + count * bounds.two_stage_entry_bytes(params)

    def test_covers_the_search_window(self):
        p = CAParams(8, 10, 12)  # a window of 71,847 n, about 121 bytes each
        lo, hi = bounds.two_stage_bound(p).notes["search_window"]
        peak = _peak(lambda: bounds.two_stage_bound(p))
        assert peak <= self.price(p, hi - lo + 1)

    def test_covers_a_small_window(self):
        # (7,10,9): 7,591 n at about 147 bytes each, nearly every floor an
        # int object of its own; the per-n price alone was 132
        p = CAParams(7, 10, 9)
        lo, hi = bounds.two_stage_bound(p).notes["search_window"]
        assert hi - lo + 1 == 7591
        peak = _peak(lambda: bounds.two_stage_bound(p))
        assert peak <= self.price(p, hi - lo + 1)

    def sweep_peak(self, tmp_path, capsys, shape, n):
        t, k, v = shape
        argv = ["sweep", "-t", str(t), "-v", str(v), "--k", str(k), "--methods",
                "two_stage_curve", "--n", n, "--out", str(tmp_path / "curve.csv")]
        peak = _peak(lambda: cli.main(argv))
        capsys.readouterr()
        return peak

    def test_covers_a_sweep_over_n(self, tmp_path, capsys):
        # 200,001 n from 0, about 125 bytes each
        peak = self.sweep_peak(tmp_path, capsys, (3, 100, 3), "0:200000")
        assert peak <= self.price(CAParams(3, 100, 3), 200_001)

    def test_covers_a_small_sweep_over_n(self, tmp_path, capsys):
        # the (7,10,9) window: about 155 bytes each, the output file's buffer included
        peak = self.sweep_peak(tmp_path, capsys, (7, 10, 9), "22894627:22902217")
        assert peak <= self.price(CAParams(7, 10, 9), 7591)

    def test_both_callers_refuse_the_same_count(self, monkeypatch, tmp_path, capsys):
        # (10,12,10): a window of 346,427 n at 176 bytes and 256 KiB, about 58.4 MiB
        p = CAParams(10, 12, 10)
        assert self.price(p, 346_427) == 61_233_296
        monkeypatch.setattr(limits, "memory_cap_bytes", lambda: 61_233_295)
        with pytest.raises(ResourceLimitError, match="two-stage search window"):
            bounds.two_stage_bound(p)
        argv = ["sweep", "-t", "10", "-v", "10", "--k", "12", "--methods", "two_stage_curve",
                "--n", "1:346427", "--out", str(tmp_path / "curve.csv")]
        assert cli.main(argv) == 3
        assert "--n range '1:346427' needs 61233296 bytes" in capsys.readouterr().err


class TestRefusalCounts:
    @pytest.mark.parametrize("count, text", [
        (999_999_999_999_999, "999999999999999"),
        (10**15, "1.00000e+15"),
        (123_456_789_012_345_678, "1.23457e+17"),
        (10**5000 + 1, "1.00000e+5000"),  # past the 4300 digits str() converts
    ], ids=["15-digits", "16-digits", "18-digits", "5001-digits"])
    def test_fifteen_digits_in_full_and_then_six(self, monkeypatch, count, text):
        monkeypatch.setenv("COVERKIT_MAX_COLUMN_SETS", "0")
        message = re.escape(f"would take {text} steps, above the cap of 0")
        with pytest.raises(ResourceLimitError, match=message + "$"):
            limits.Budget.from_env().check_steps(count, "walk")


class TestWorkingBudget:
    @pytest.mark.parametrize("mib, want", [
        (None, 32 << 20), ("0", 0), ("1", 1 << 20), ("31", 31 << 20),
        ("32", 32 << 20), ("33", 32 << 20), ("256", 32 << 20),
    ])
    def test_is_32_mib_or_the_cap(self, monkeypatch, mib, want):
        if mib is None:
            monkeypatch.delenv("COVERKIT_MEMORY_CAP_MIB", raising=False)
        else:
            monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", mib)
        assert limits.Budget.from_env().working == want


class TestColumnSetCap:
    def test_streaming_cap(self, monkeypatch):
        monkeypatch.setenv("COVERKIT_MAX_COLUMN_SETS", "5")
        arr = random_array(CAParams(2, 6, 2), 3, seed=1)  # C(6,2) = 15 > 5
        with pytest.raises(ResourceLimitError, match="column sets"):
            count_uncovered(arr)

    def test_resampling_respects_cap(self, monkeypatch):
        monkeypatch.setenv("COVERKIT_MAX_COLUMN_SETS", "5")
        with pytest.raises(ResourceLimitError, match="column sets"):
            moser_tardos_build(CAParams(2, 6, 2), make_cyclic(2))


ENV_CAPS = {"COVERKIT_MEMORY_CAP_MIB": limits.memory_cap_bytes,
            "COVERKIT_MAX_COLUMN_SETS": limits.column_set_cap}


class TestEnvValues:
    @pytest.mark.parametrize("name", sorted(ENV_CAPS))
    # int() accepts the last three (an underscore, a sign and an
    # Arabic-Indic three); a cap is written in the ASCII digits alone
    @pytest.mark.parametrize("text", ["abc", "1.5", "-5", "", "1_0", "+3", "\u0663"])
    def test_bad_value_names_the_variable(self, monkeypatch, name, text):
        monkeypatch.setenv(name, text)
        with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer"):
            ENV_CAPS[name]()

    @pytest.mark.parametrize("name", sorted(ENV_CAPS))
    @pytest.mark.parametrize("text, want", [("007", 7), (" 3\n", 3)])
    def test_digits_and_surrounding_space_are_read(self, monkeypatch, name, text, want):
        monkeypatch.setenv(name, text)
        assert ENV_CAPS[name]() == want * (1 << 20 if name == "COVERKIT_MEMORY_CAP_MIB" else 1)

    @pytest.mark.parametrize("name", sorted(ENV_CAPS))
    def test_zero_is_a_valid_cap(self, monkeypatch, name):
        monkeypatch.setenv(name, "0")
        assert ENV_CAPS[name]() == 0

    @pytest.mark.parametrize("name", sorted(ENV_CAPS))
    def test_cli_exits_2(self, tmp_path, monkeypatch, capsys, name):
        from coverkit.cli import main

        f = tmp_path / "a.txt"
        f.write_text("CA 1 2 4 2\n0 0 0 0\n")
        monkeypatch.setenv(name, "1.5")
        assert main(["verify", str(f)]) == 2
        assert name in capsys.readouterr().err


def env_reads(monkeypatch, fn):
    """fn()'s result and the names of the caps it read from the environment,
    in order."""
    names = []
    read = limits._env_count

    def counted(name, default):
        names.append(name)
        return read(name, default)

    with monkeypatch.context() as mp:
        mp.setattr(limits, "_env_count", counted)
        return fn(), names


class TestEnvReads:
    """Each public call reads one Budget when it is called, so a build's
    reads do not grow with its attempts, resamples or scans."""

    def test_orbit_build_reads_do_not_grow_with_resamples(self, monkeypatch):
        p, config = CAParams(3, 16, 4), BuildConfig(n_override=30)
        runs = [env_reads(monkeypatch, lambda: moser_tardos_build(
            p, make_frobenius(4), replace(config, seed=seed))) for seed in (0, 3)]
        assert [log.resample_count for (_, log), _ in runs] == [54, 17]
        assert runs[0][1] == runs[1][1]

    def test_two_stage_reads_do_not_grow_with_attempts(self, monkeypatch):
        p = CAParams(3, 30, 3)
        runs = [env_reads(monkeypatch, lambda: two_stage_build(p, BuildConfig(seed=seed)))
                for seed in (0, 1)]
        assert [log.stage1_attempts for (_, log), _ in runs] == [3, 1]
        assert runs[0][1] == runs[1][1]

    def test_cli_verify_reads_each_cap_once(self, monkeypatch, tmp_path, capsys):
        # 40 random rows leave one interaction uncovered, so the witness is
        # reported too
        path = tmp_path / "a.txt"
        write_array(str(path), random_array(CAParams(3, 8, 2), 40, seed=1))
        code, names = env_reads(monkeypatch, lambda: cli.main(["verify", str(path)]))
        assert "1 uncovered" in capsys.readouterr().out
        assert code == cli.EXIT_VERIFY and sorted(names) == sorted(ENV_CAPS)

    def test_only_limits_reads_the_environment(self):
        for path in sorted(Path(limits.__file__).parent.glob("*.py")):
            with open(path, encoding="utf-8") as source:
                text = source.read()
            assert ("os.environ" in text) == (path.name == "limits.py"), path.name


class TestCliResourceExit:
    def test_exit_code_3(self, tmp_path, monkeypatch, capsys):
        from coverkit.cli import main

        f = tmp_path / "a.txt"
        f.write_text("CA 1 2 4 2\n0 0 0 0\n")
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "0")
        assert main(["verify", str(f)]) == 3
        capsys.readouterr()

    def test_build_mt_cyclic_over_column_set_cap(self, tmp_path, monkeypatch, capsys):
        from coverkit.cli import main

        # the cap stops resampling itself, before any array is written
        monkeypatch.setenv("COVERKIT_MAX_COLUMN_SETS", "5")
        out = tmp_path / "a.txt"
        argv = ["build", "-t", "2", "-k", "6", "-v", "2", "--strategy", "mt_cyclic",
                "--out", str(out)]
        assert main(argv) == 3
        assert "column sets" in capsys.readouterr().err
        assert not out.exists()

    def test_build_density_over_memory_cap(self, tmp_path, monkeypatch, capsys):
        from coverkit.cli import main

        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "1")
        out = tmp_path / "a.txt"
        argv = ["build", "-t", "3", "-k", "60", "-v", "4", "--strategy", "density",
                "--out", str(out)]
        assert main(argv) == 3
        assert "density coverage mask" in capsys.readouterr().err
        assert not out.exists()
