"""End-to-end tests of the command line interface."""

import ast
import csv
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from coverkit import cli, construct
from coverkit.arrayfile import read_array
from coverkit.cli import BOUND_METHODS, main
from coverkit.construct import BuildConfig, pgl_build

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_reference_values(self, capsys):
        code, out, _ = run(
            ["bounds", "-t", "6", "-k", "54", "-v", "3", "--methods", "slj,two_stage"],
            capsys,
        )
        assert code == 0
        assert "17236" in out
        assert "13162" in out
        assert "n=12402" in out

    def test_katona(self, capsys):
        code, out, _ = run(
            ["bounds", "-t", "2", "-k", "10", "-v", "2", "--methods", "katona"], capsys
        )
        assert code == 0
        assert out.split()[-1] == "6"

    def test_katona_needs_t2_v2(self, capsys):
        code, _, err = run(
            ["bounds", "-t", "3", "-k", "10", "-v", "2", "--methods", "katona"], capsys
        )
        assert code == 2
        assert "t=2" in err

    def test_frobenius_prime_power_constraint(self, capsys):
        code, out, _ = run(
            ["bounds", "-t", "6", "-k", "54", "-v", "3", "--methods", "frobenius"],
            capsys,
        )
        assert code == 0
        code, _, err = run(
            ["bounds", "-t", "6", "-k", "54", "-v", "6", "--methods", "frobenius"],
            capsys,
        )
        assert code == 2
        assert "prime-power" in err

    def test_unknown_method(self, capsys):
        code, _, err = run(
            ["bounds", "-t", "2", "-k", "4", "-v", "2", "--methods", "nope"], capsys
        )
        assert code == 2

    def test_json_matches_golden(self, capsys):
        code, out, _ = run(
            [
                "bounds",
                "-t", "3", "-k", "10", "-v", "4",
                "--methods", "slj,discrete_slj,two_stage,gss,cyclic,frobenius,pgl",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        got = json.loads(out)
        golden = json.loads((DATA / "bounds_golden.json").read_text())
        assert got == golden

    def test_json_matches_golden_for_remaining_methods(self, capsys):
        # conditional_lll, conditional_lll_density, dslj_estimate and katona;
        # together with bounds_golden.json every method's record is pinned
        cases = json.loads((DATA / "bounds_golden_more.json").read_text())
        pinned = set()
        for case in cases:
            code, out, _ = run(case["argv"], capsys)
            assert code == 0
            assert json.loads(out) == case["output"]
            pinned.update(case["argv"][case["argv"].index("--methods") + 1].split(","))
        golden = json.loads((DATA / "bounds_golden.json").read_text())
        pinned.update(rec["method"] for rec in golden["results"])
        assert pinned == set(BOUND_METHODS)

    def test_json_schema_stable_across_runs(self, capsys):
        argv = ["bounds", "-t", "2", "-k", "6", "-v", "3", "--methods", "slj", "--json"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2


    def test_conditional_lll_overflow_exits_3(self, capsys):
        # log E2 is about 199.99 at the first k and 200.01 at the second
        argv = ["bounds", "-t", "6", "-v", "3", "--methods", "conditional_lll", "-k"]
        code, _, _ = run(argv + [str(354 * 10**83)], capsys)
        assert code == 0
        code, out, err = run(argv + [str(3612 * 10**82)], capsys)
        assert code == 3
        assert out == ""
        assert "conditional leftover estimate overflows" in err


class TestBuildAndVerify:
    def test_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "ca.txt"
        code, out, _ = run(
            ["build", "-t", "2", "-k", "4", "-v", "2", "--strategy", "two_stage",
             "--seed", "7", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert out_file.exists()
        code, _, _ = run(["verify", str(out_file)], capsys)
        assert code == 0

    def test_deterministic_output_files(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["build", "-t", "2", "-k", "5", "-v", "2", "--strategy", "two_stage",
                "--seed", "9", "--out"]
        assert run(argv + [str(f1)], capsys)[0] == 0
        assert run(argv + [str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_random_seed_is_printed_and_reproduces(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["build", "-t", "2", "-k", "4", "-v", "3", "--seed"]
        code, out, _ = run(argv + ["random", "--out", str(f1)], capsys)
        seeds = [line.split()[1] for line in out.splitlines() if line.startswith("seed ")]
        assert code == 0 and len(seeds) == 1
        code, again, _ = run(argv + [seeds[0], "--out", str(f2)], capsys)
        assert code == 0 and f1.read_bytes() == f2.read_bytes()
        # a fixed seed prints the build log alone
        assert not any(line.startswith("seed ") for line in again.splitlines())

    def test_mt_frobenius_structure(self, tmp_path, capsys):
        out_file = tmp_path / "ca.txt"
        code, out, _ = run(
            ["build", "-t", "3", "-k", "6", "-v", "3", "--strategy", "mt_frobenius",
             "--seed", "1", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        header = out_file.read_text().splitlines()[0].split()
        n_rows = int(header[1])
        assert (n_rows - 3) % 6 == 0

    def test_all_strategies_verify(self, tmp_path, capsys):
        cases = [
            (["-t", "2", "-k", "4", "-v", "2"], "mt_cyclic"),
            (["-t", "2", "-k", "4", "-v", "3"], "mt_frobenius"),
            (["-t", "2", "-k", "4", "-v", "4"], "pgl"),
            (["-t", "2", "-k", "5", "-v", "2"], "density"),
        ]
        for params, strategy in cases:
            out_file = tmp_path / f"{strategy}.txt"
            code, _, _ = run(
                ["build"] + params + ["--strategy", strategy, "--seed", "3",
                                      "--out", str(out_file)],
                capsys,
            )
            assert code == 0, strategy
            assert run(["verify", str(out_file)], capsys)[0] == 0

    def test_pgl_without_rows_for_full_orbits_fails(self, tmp_path, capsys):
        out_file = tmp_path / "pgl.txt"
        code, out, err = run(
            ["build", "-t", "3", "-k", "6", "-v", "4", "--strategy", "pgl",
             "--n-override", "0", "--out", str(out_file)],
            capsys,
        )
        assert code == 1
        reason = "fewer stage-1 rows (0) than full orbits of a column set (1)"
        assert f"success            False ({reason})" in out
        assert err == f"build failed: {reason}\n"
        # a negative row count is a usage error, as for the other strategies
        code, _, err = run(
            ["build", "-t", "2", "-k", "4", "-v", "4", "--strategy", "pgl",
             "--n-override", "-1", "--out", str(out_file)],
            capsys,
        )
        assert code == 2 and "n_override must be nonnegative, got -1" in err

    @pytest.mark.parametrize("argv, n, events", [
        (["-t", "3", "-k", "12", "-v", "4", "--strategy", "mt_frobenius", "--n-override", "1"],
         1, 5),
        (["-t", "3", "-k", "3", "-v", "3", "--strategy", "mt_cyclic", "--n-override", "0"],
         0, 9),
    ])
    def test_rows_fewer_than_full_orbits_fail_before_resampling(
        self, tmp_path, capsys, argv, n, events
    ):
        # n rows hit at most n orbits on a column set: no resample can help
        code, out, err = run(["build", *argv, "--out", str(tmp_path / "a.ca")], capsys)
        assert code == 1 and "resamples          0\n" in out
        assert err == (f"build failed: fewer stage-1 rows ({n}) than full orbits"
                       f" of a column set ({events})\n")

    def test_verifies_before_it_writes(self, tmp_path, capsys, monkeypatch):
        # exits 0 and 1 write the array; a verifier over the memory cap
        # (exit 3) leaves no file and prints no build log
        out_file = tmp_path / "a.txt"
        failing = ["--strategy", "pgl", "--n-override", "0", "--resample-cap", "0"]
        for flags, want in [([], 0), (failing, 1)]:
            code, _, _ = run(["build", "-t", "3", "-k", "6", "-v", "4", *flags,
                              "--out", str(out_file)], capsys)
            assert code == want and read_array(out_file).n_rows > 0
            out_file.unlink()
        # one symbol's 5**4 row sets over 14000-odd rows are over 1 MiB
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "1")
        code, out, err = run(["build", "-t", "5", "-k", "6", "-v", "5", "--n-override", "14000",
                              "--out", str(out_file)], capsys)
        assert (code, out) == (3, "") and "verifier AND block needs 1110000 bytes" in err
        assert not out_file.exists()

    def test_byte_alphabet_builds_and_verifies(self, tmp_path, capsys, monkeypatch):
        # one first column's 256**2 row sets over 137k rows are 1.1 GB: the
        # verifier ANDs a few of its symbols at a time
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "16")
        out_file = tmp_path / "a.ca"
        code, out, _ = run(["build", "-t", "2", "-k", "3", "-v", "256", "--out", str(out_file)],
                           capsys)
        assert code == 0 and "verified covering array" in out
        code, out, _ = run(["verify", str(out_file)], capsys)
        assert (code, out) == (0, "OK: covers all 196608 interactions\n")

    def test_colour_second_stage_builds_under_a_small_cap(self, tmp_path, capsys, monkeypatch):
        # one row per leftover gives 342 rows here; colouring holds no
        # table of all C(100,3) * 3**3 interactions, so it fits in 4 MiB
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "4")
        out_file = tmp_path / "a.ca"
        code, out, err = run(["build", "-t", "3", "-k", "100", "-v", "3",
                              "--second-stage", "colour", "--out", str(out_file)], capsys)
        rows = read_array(out_file).n_rows
        assert code == 0 and f"verified covering array with {rows} rows" in out, err
        assert rows < 342

    def test_pgl_t2_v3_needs_no_resampling(self, tmp_path, capsys):
        # order 6 = v(v-1) at v=3: the two-symbol orbits have full length,
        # but the pair arrays cover them and nothing is left to resample
        for k in ("6", "100"):
            code, out, _ = run(
                ["build", "-t", "2", "-k", k, "-v", "3", "--strategy", "pgl",
                 "--out", str(tmp_path / "pgl.txt")],
                capsys,
            )
            assert code == 0, k
            assert "resamples          0\n" in out

    @pytest.mark.parametrize("flag", ["--seed", "--n-override"])
    def test_negative_count_names_its_field(self, tmp_path, capsys, flag):
        for strategy in ("two_stage", "mt_cyclic", "pgl"):
            code, _, err = run(
                ["build", "-t", "2", "-k", "4", "-v", "4", "--strategy", strategy,
                 flag, "-1", "--out", str(tmp_path / "a.txt")],
                capsys,
            )
            field = flag[2:].replace("-", "_")
            assert code == 2 and f"{field} must be nonnegative, got -1" in err, strategy

    def test_every_config_field_has_a_build_flag(self, tmp_path, capsys, monkeypatch):
        # every flag off its default under pgl, which reads them all; a
        # BuildConfig field no flag reaches keeps its default and fails here
        seen = []
        monkeypatch.setitem(construct.STRATEGIES, "pgl", construct.STRATEGIES["pgl"]._replace(
            build=lambda p, c: seen.append(c) or pgl_build(p, c)))
        code, _, _ = run(
            ["build", "-t", "2", "-k", "4", "-v", "4", "--strategy", "pgl",
             "--out", str(tmp_path / "a.txt"),
             "--seed", "5", "--attempts", "7", "--resample-cap", "9", "--n-override", "6",
             "--second-stage", "colour", "--dependence", "improved"],
            capsys,
        )
        assert code == 0
        default = BuildConfig()
        for f in fields(BuildConfig):
            assert getattr(seen[0], f.name) != getattr(default, f.name), f.name

    def test_verify_detects_mutilation(self, tmp_path, capsys):
        # CA(5; 2,4,2) is minimal (CAN(2,4,2) = 5), so dropping the last
        # row must break coverage
        intact = tmp_path / "ca.txt"
        intact.write_text(
            "CA 5 2 4 2\n0 0 0 0\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n"
        )
        assert run(["verify", str(intact)], capsys)[0] == 0
        lines = intact.read_text().splitlines()
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(["CA 4 2 4 2"] + lines[1:-1]) + "\n")
        code, out, _ = run(["verify", str(broken)], capsys)
        assert code == 1
        assert "witness" in out

    def test_verify_empty_array(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("CA 0 2 4 2\n")
        code, out, _ = run(["verify", str(f)], capsys)
        assert code == 1
        assert str(math.comb(4, 2) * 4) in out

    def test_parse_error_carries_line_number(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("CA 1 2 4 2\n0 0 x 0\n")
        code, _, err = run(["verify", str(f)], capsys)
        assert code == 2
        assert "line 2" in err


class TestParserReuse:
    @pytest.fixture
    def built(self, monkeypatch):
        """The parsers ``main`` builds from here on, counted through
        ``build_parser``; the cache starts and ends empty."""
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        yield built
        cli._parser.cache_clear()

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_one_parser_per_process_leaks_no_state(self, built, tmp_path, monkeypatch, capsys):
        # each command in one process against the same command in a fresh
        # one: stdout, exit code and file bytes (and a usage error's
        # message).  Relative --out paths keep the two stdouts comparable,
        # and the build log's phase timings are masked.
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

        def in_fresh_process(argv):
            result = subprocess.run(
                [sys.executable, "-m", "coverkit.cli", *argv], cwd=fresh,
                env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60)
            return result.returncode, result.stdout, result.stderr

        def in_this_process(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def untimed(out):
            return re.sub(r"(?m)^(elapsed \S+ +)[0-9.]+s$", r"\1*", out)

        build = ["build", "-t", "2", "-k", "5", "-v", "3"]
        commands = [
            ["bounds", "-t", "3", "-k", "8", "-v", "3", "--json"],
            build + ["--seed", "random", "--out", "drawn.ca"],
            build + ["--out", "default.ca"],
            build + ["--strategy", "nope", "--out", "none.ca"],
            ["verify", "default.ca"],
        ]
        for argv in commands:
            code, out, err = in_this_process(argv)
            if "random" in argv:
                # the fresh process is given the seed this one drew
                seed, out = out.split("\n", 1)
                assert seed.startswith("seed ")
                argv = [seed.split()[1] if a == "random" else a for a in argv]
            fresh_code, fresh_out, fresh_err = in_fresh_process(argv)
            assert (code, untimed(out)) == (fresh_code, untimed(fresh_out)), argv
            if code == 2:
                assert err == fresh_err and "invalid choice: 'nope'" in err
        for name in ("drawn.ca", "default.ca"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
        assert not (here / "none.ca").exists() and not (fresh / "none.ca").exists()
        assert len(built) == 1


class TestLayering:
    def test_imports_no_builder_and_no_groups(self):
        # the strategy table lives in construct: cli takes it and BuildConfig
        # from there, never a builder function, BuildLog or a symbol group
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        froms = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        modules = [n.module or "" for n in froms]
        modules += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        names = [a.name for n in froms for a in n.names]
        assert not any("groups" in m for m in modules + names)
        assert "construct" not in names  # the module would reach every builder
        taken = [a.name for n in froms if n.module == "construct" for a in n.names]
        assert "STRATEGIES" in taken
        for name in taken:
            assert name != "BuildLog" and not inspect.isfunction(getattr(construct, name)), name


class TestSweepCommand:
    def test_ordering_columns(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "-t", "2", "-v", "2", "--k", "4:20:4",
             "--methods", "slj,discrete_slj,two_stage", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["k"]) for r in rows] == [4, 8, 12, 16, 20]
        for r in rows:
            slj, dslj, two = int(r["slj"]), int(r["discrete_slj"]), int(r["two_stage"])
            assert dslj <= two <= slj

    def test_two_stage_curve_minimum(self, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        code, _, _ = run(
            ["sweep", "-t", "6", "-v", "3", "--k", "54",
             "--methods", "two_stage_curve", "--n", "12300:12500", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = [(int(r["n"]), int(r["objective"])) for r in csv.DictReader(fh)]
        best = min(v for _, v in rows)
        first_n = min(n for n, v in rows if v == best)
        assert best == 13162
        assert first_n == 12402

    def test_two_stage_curve_csv_pinned(self, tmp_path, capsys):
        # n = 11890..12914 around the minimum at 12402, pinned byte for byte
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run(
            ["sweep", "-t", "6", "-v", "3", "--k", "54",
             "--methods", "two_stage_curve", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        assert "wrote 1025 rows" in out
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
            "4013a61c68743f08e92ffa8201c499ca1b6ed788d455f93460f10fcc1ba16e15"
        )

    def test_two_stage_curve_csv_pinned_at_4_120_4(self, tmp_path, capsys):
        # n = 3550..4574 around the minimum, each floor after the first
        # chained from the one before
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run(
            ["sweep", "-t", "4", "-v", "4", "--k", "120",
             "--methods", "two_stage_curve", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0 and "wrote 1025 rows" in out
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
            "a64fccad709763bb313a130a60a1a8b0f48f8f92dba16048c4269e22586890f9"
        )

    def test_bench_sweep_csv_pinned(self, tmp_path, capsys):
        # the benchmark's sweep call, nine methods over 67 k, byte for byte
        out_csv = tmp_path / "sweep.csv"
        methods = ("slj,discrete_slj,two_stage,gss,cyclic,frobenius,pgl,"
                   "conditional_lll,conditional_lll_density")
        code, out, _ = run(
            ["sweep", "-t", "6", "-v", "3", "--k", "10:1000:15",
             "--methods", methods, "--out", str(out_csv)],
            capsys,
        )
        assert code == 0 and "wrote 67 rows" in out
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
            "325dcdd7b8054a50daac9ba1f82104d60c0c59abf733fc438b892ca064af6776"
        )

    @pytest.mark.parametrize(
        "v, methods", [(2, "slj,nope"), (6, "slj,frobenius")], ids=["unknown", "unsupported"]
    )
    def test_bad_method_leaves_no_file(self, tmp_path, capsys, v, methods):
        out_csv = tmp_path / "f.csv"
        code, _, err = run(
            ["sweep", "-t", "2", "-v", str(v), "--k", "4:8",
             "--methods", methods, "--out", str(out_csv)],
            capsys,
        )
        assert code == 2
        assert "error" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("methods", ["", " , "])
    def test_no_method_is_a_usage_error(self, tmp_path, capsys, methods):
        out_csv = tmp_path / "f.csv"
        code, _, err = run(
            ["sweep", "-t", "2", "-v", "2", "--k", "4:8", "--methods", methods,
             "--out", str(out_csv)],
            capsys,
        )
        assert code == 2 and "no method given" in err
        assert not out_csv.exists()
        code, out, err = run(["bounds", "-t", "2", "-k", "4", "-v", "2", "--methods", methods], capsys)
        assert code == 2 and "no method given" in err and out == ""

    def test_curve_negative_n_leaves_no_file(self, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        code, _, err = run(
            ["sweep", "-t", "2", "-v", "2", "--k", "5", "--methods", "two_stage_curve",
             "--n=-3:2", "--out", str(out_csv)],
            capsys,
        )
        assert code == 2
        assert "exponent must be nonnegative" in err
        assert not out_csv.exists()

    def test_curve_past_the_zero_floors_is_fast(self, tmp_path, capsys):
        # every floor past n = 18 is 0, decided without building a power
        out_csv = tmp_path / "curve.csv"
        start = time.perf_counter()
        code, _, _ = run(
            ["sweep", "-t", "2", "-v", "2", "--k", "10", "--methods", "two_stage_curve",
             "--n", "0:300000", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0 and time.perf_counter() - start < 15
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[-1] == ["300000", "300000"] and len(rows) == 300002

    def test_curve_rejects_ranges(self, capsys):
        code, _, err = run(
            ["sweep", "-t", "6", "-v", "3", "--k", "10:20",
             "--methods", "two_stage_curve", "--out", "/tmp/x.csv"],
            capsys,
        )
        assert code == 2


# bad input, the exit code the module docstring documents for it, and a
# fragment of its error message
BAD_INPUTS = [
    pytest.param(["verify", "/nonexistent.ca"], 2, "/nonexistent.ca", id="verify-missing-file"),
    pytest.param(["build", "-t", "2", "-k", "4", "-v", "2", "--out", "/no/such/dir/x.ca"],
                 2, "/no/such/dir/x.ca", id="build-unwritable-out"),
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "4:8", "--out", "/no/such/dir/x.csv"],
                 2, "/no/such/dir/x.csv", id="sweep-unwritable-out"),
    # about 1.1e9 recurrence steps
    pytest.param(["bounds", "-t", "8", "-k", "100", "-v", "9", "--methods", "discrete_slj"],
                 3, "discrete recurrence trace", id="discrete-slj-trace"),
    # the second stage runs the same recurrence from about 3.8e8, over 3.6e8 steps
    pytest.param(["bounds", "-t", "10", "-k", "20", "-v", "9", "--methods",
                  "conditional_lll_density"],
                 3, "discrete recurrence trace would take", id="conditional-discrete-stage"),
    # the exponent guess near 1e29 is not certified, and the exact check
    # would build 50**16 to that power
    pytest.param(["bounds", "-t", "16", "-k", "17", "-v", "50", "--methods", "slj"],
                 3, "exact power", id="slj-exact-power"),
    # a search window of radius about 6e9
    pytest.param(["bounds", "-t", "20", "-k", "30", "-v", "9", "--methods", "two_stage"],
                 3, "two-stage search window", id="two-stage-window"),
    pytest.param(["build", "-t", "2", "-k", "4", "-v", "2", "--strategy", "density",
                  "--n-override", "3", "--second-stage", "colour", "--attempts", "1",
                  "--out", "/no/such/dir/x.ca"],
                 2, "density strategy does not read --attempts, --n-override, --second-stage",
                 id="build-unread-flags"),
    pytest.param(["bounds", "-t", "2", "-k", "3", "-v", "2", "--methods", "slj",
                  "--dependence", "improved"],
                 2, "--dependence is read only by gss, cyclic, frobenius, pgl, not by slj",
                 id="bounds-unread-dependence"),
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "4:6", "--methods", "slj,two_stage",
                  "--dependence", "improved", "--out", "{tmp}/x.csv"],
                 2, "--dependence is read only by gss, cyclic, frobenius, pgl,"
                 " not by slj, two_stage", id="sweep-unread-dependence"),
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "4", "--n", "1:3",
                  "--out", "/no/such/dir/x.csv"],
                 2, "--n is read only by two_stage_curve", id="sweep-n-without-curve"),
    # about 1.1 PiB of stage-1 rows, refused before they are drawn
    pytest.param(["build", "-t", "3", "-k", "30", "-v", "3", "--n-override", "10000000000000",
                  "--out", "{tmp}/x.ca"],
                 3, "stage-1 rows needs", id="build-stage1-rows"),
    pytest.param(["build", "-t", "3", "-k", "20", "-v", "3", "--strategy", "mt_cyclic",
                  "--n-override", "10000000000000", "--out", "{tmp}/x.ca"],
                 3, "stage-1 rows needs", id="build-orbit-stage1-rows"),
    # no stage-1 rows: the target, and so the listing, is every one of
    # C(30,3) * 4**3 = 259840 interactions
    pytest.param(["COVERKIT_MEMORY_CAP_MIB=1", "build", "-t", "3", "-k", "30", "-v", "4",
                  "--n-override", "0", "--out", "{tmp}/x.ca"],
                 3, "uncovered listing needs", id="build-leftover-listing"),
    # the build fits under the cap, its verifier does not, even one
    # symbol of one first column at a time
    pytest.param(["COVERKIT_MEMORY_CAP_MIB=1", "build", "-t", "5", "-k", "6", "-v", "5",
                  "--n-override", "14000", "--out", "{tmp}/x.ca"],
                 3, "verifier AND block needs", id="build-verifier-over-cap"),
    # symbols past the int32 cells of an array, refused before rows are drawn
    pytest.param(["build", "-t", "2", "-k", "3", "-v", "5000000000", "--n-override", "20",
                  "--out", "{tmp}/x.ca"],
                 2, "symbols past 2147483647, the largest symbol an array holds",
                 id="build-symbols-past-int32"),
    # in 0..v-1, but past the int32 cells of an array
    pytest.param(["verify", "{data}/cell_past_int32.ca"],
                 2, "line 2: cell above 2147483647", id="verify-cell-past-int32"),
]


class TestErrorExits:
    @pytest.mark.parametrize("argv, code, message", BAD_INPUTS)
    def test_documented_code_and_no_traceback(self, tmp_path, argv, code, message):
        # leading NAME=value items set the environment, as in a shell;
        # {tmp} is a fresh directory that must stay empty, {data} tests/data
        argv = [a.replace("{tmp}", str(tmp_path)).replace("{data}", str(DATA)) for a in argv]
        env = dict(a.split("=", 1) for a in itertools.takewhile(lambda a: "=" in a, argv))
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "coverkit.cli", *argv[len(env):]],
            env=dict(os.environ, PYTHONPATH=path, **env),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == code, result.stderr
        assert result.stderr.startswith("error:") and message in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("strategy, flags", [
        ("two_stage", ["--resample-cap", "5"]),
        ("mt_cyclic", ["--attempts", "5"]),
        ("mt_frobenius", ["--second-stage", "colour"]),
        ("two_stage", ["--dependence", "improved"]),
    ])
    def test_unread_build_flag_is_named(self, tmp_path, capsys, strategy, flags):
        out_file = tmp_path / "a.txt"
        code, _, err = run(
            ["build", "-t", "2", "-k", "4", "-v", "3", "--strategy", strategy, *flags,
             "--out", str(out_file)],
            capsys,
        )
        assert code == 2 and strategy in err
        assert all(flag in err for flag in flags[::2])
        assert not out_file.exists()

    def test_unwritable_out_fails_before_the_build(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(construct.STRATEGIES, "two_stage", construct.STRATEGIES["two_stage"]._replace(
            build=lambda p, c: calls.append(p)))
        for out in (tmp_path / "no" / "a.txt", tmp_path):
            code, _, err = run(
                ["build", "-t", "2", "-k", "4", "-v", "2", "--out", str(out)], capsys)
            assert code == 2 and f"cannot write {out}" in err
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_read_flags_and_defaults_pass(self, tmp_path, capsys):
        # a flag left at its default is not "set", and --seed is read everywhere
        for strategy, flags in [
            ("density", ["--attempts", "1000", "--seed", "4"]),
            ("two_stage", ["--n-override", "6", "--attempts", "50"]),
            ("mt_frobenius", ["--resample-cap", "20000", "--dependence", "improved"]),
        ]:
            code, _, err = run(
                ["build", "-t", "2", "-k", "4", "-v", "3", "--strategy", strategy, *flags,
                 "--out", str(tmp_path / "a.txt")],
                capsys,
            )
            assert code == 0, (strategy, err)
