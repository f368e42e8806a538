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
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from coverkit import bounds, cli, construct
from coverkit.arrayfile import ArrayFormatError, read_array
from coverkit.cli import main
from coverkit.construct import BuildConfig, pgl_build
from coverkit.core import CAParams
from coverkit.errors import BudgetExceededError, ResourceLimitError, UnsupportedParameterError

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the methods whose reports hold a note computed on first read
LAZY = "discrete_slj,two_stage,conditional_lll,conditional_lll_density"


@pytest.fixture
def no_note_computed(monkeypatch):
    """The monkeypatch under which computing any note on read fails the test."""
    def computed(later):
        raise AssertionError(f"a note was computed by {later.func.__name__}")

    monkeypatch.setattr(bounds._Later, "__call__", computed)
    return monkeypatch


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
        assert pinned == set(bounds.METHODS)

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

    @pytest.mark.parametrize("t, k, v", [(10, 12, 200), (16, 17, 50)])
    def test_slj_past_vt_1e22(self, capsys, t, k, v):
        # guesses near 6e24 and 1e29: 50 digits leave them in doubt, the
        # exact powers are far over the memory cap, and the retry at 50
        # plus twice the guess's digits decides
        code, out, _ = run(["bounds", "-t", str(t), "-k", str(k), "-v", str(v),
                            "--methods", "slj", "--json"], capsys)
        assert code == 0
        vt = v**t
        with localcontext() as ctx:
            ctx.prec = 200
            q = Decimal(math.comb(k, t) * vt).ln() / (Decimal(vt).ln() - Decimal(vt - 1).ln())
        assert json.loads(out)["results"][0]["value"] == math.floor(q) + 1

    @pytest.mark.parametrize("method", bounds.METHODS)
    def test_ratio_too_close_to_one_is_refused(self, capsys, method):
        # ln(v^t) - ln(v^t - 1) is 0 at 50 digits: every bound refuses with
        # one error line; the float estimate dslj_estimate needs no ladder
        code, out, err = run(["bounds", "-t", "30", "-k", "40", "-v", "100", "--methods",
                              method], capsys)
        if method == "dslj_estimate":
            assert code == 0 and err == ""
            return
        assert code in (2, 3) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if method in ("slj", "two_stage", "gss", "cyclic", "conditional_lll",
                      "conditional_lll_density"):
            assert err == "error: ratio too close to 1 for 50-digit logarithms\n"

    @pytest.mark.parametrize("method, note", [
        ("discrete_slj", "deficit_min"),
        ("two_stage", "analytic_optimum_n"),
        ("conditional_lll", "loose_linear_leftover"),
        ("conditional_lll_density", "loose_linear_leftover"),
    ])
    def test_lazy_note_is_what_json_prints(self, capsys, method, note):
        params = CAParams(6, 54, 3)
        rep = bounds.METHODS[method](params, "simple")
        assert isinstance(rep.notes._notes[note], bounds._Later)  # not yet computed
        read = rep.notes[note]
        assert rep.notes._notes[note] == read  # computed once, then kept
        _, out, _ = run(["bounds", "-t", "6", "-k", "54", "-v", "3", "--methods", method,
                         "--json"], capsys)
        printed = json.loads(out)["results"][0]["notes"]
        assert read == printed[note]
        fresh = bounds.METHODS[method](params, "simple")
        assert json.loads(json.dumps(dict(fresh.notes))) == printed
        assert fresh == rep and repr(fresh) == repr(rep)

    @pytest.mark.parametrize("method, strategy, v, line", [
        ("frobenius", "mt_frobenius", 6,
         "frobenius action requires a prime-power alphabet, got v=6"),
        ("pgl", "pgl", 2, "pgl action requires v >= 3 with v-1 a prime power, got v=2"),
        ("pgl", "pgl", 7, "pgl action requires v >= 3 with v-1 a prime power, got v=7"),
    ], ids=["frobenius-6", "pgl-2", "pgl-7"])
    def test_unsupported_alphabet_is_refused_in_one_wording(
            self, tmp_path, capsys, method, strategy, v, line):
        shape = ["-t", "2", "-k", "4", "-v", str(v)]
        bound = run(["bounds", *shape, "--methods", method], capsys)
        build = run(["build", *shape, "--strategy", strategy, "--out", str(tmp_path / "x.ca")],
                    capsys)
        assert bound == build == (2, "", f"error: {line}\n")
        assert list(tmp_path.iterdir()) == []

    def test_text_mode_computes_no_costly_note(self, capsys, no_note_computed):
        # text mode prints four notes, none of them computed on read
        code, out, _ = run(["bounds", "-t", "6", "-k", "54", "-v", "3", "--methods", LAZY], capsys)
        assert (code, out) == (0, (
            "discrete_slj                 12853\n"
            "two_stage                    13162  n=12402\n"
            "conditional_lll[one_row_each] 13927  n=12938\n"
            "    inequality = n1: e*t*C(k,t-1)*(1-1/v^t)^n1 <= 1\n"
            "conditional_lll[discrete_slj] 13796  n=12938\n"
            "    inequality = n1: e*t*C(k,t-1)*(1-1/v^t)^n1 <= 1\n"))


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
        failing = ["--strategy", "pgl", "--n-override", "0"]  # fewer rows than full orbits
        for flags, want in [([], 0), (failing, 1)]:
            code, _, _ = run(["build", "-t", "3", "-k", "6", "-v", "4", *flags,
                              "--out", str(out_file)], capsys)
            assert code == want and read_array(out_file).n_rows > 0
            out_file.unlink()
        # two-stage (2,3,256), about 137,000 rows, fits under 4 MiB as
        # cells (1.6 MB), not as the verifier's 3 * 256 row bitsets (13.2 MB)
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "4")
        code, out, err = run(["build", "-t", "2", "-k", "3", "-v", "256",
                              "--out", str(out_file)], capsys)
        assert (code, out) == (3, "") and "verifier row bitsets needs 13197312 bytes" in err
        assert not out_file.exists()

    def test_byte_alphabet_builds_and_verifies(self, tmp_path, capsys, monkeypatch):
        # one first column's 256**2 row sets over 137k rows are 1.1 GB: the
        # verifier ANDs them a few words and symbols at a time
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
             "--seed", "5", "--n-override", "6",
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


class TestDependenceChoices:
    """bounds, build and sweep offer exactly ``bounds.DEPENDENCE_ESTIMATES``
    for --dependence, and BuildConfig takes exactly those."""

    @pytest.mark.parametrize("argv, dest", [
        (["bounds", "-t", "2", "-k", "3", "-v", "2"], "dependence"),
        (["build", "-t", "2", "-k", "3", "-v", "2", "--out", "x.ca"], "dependence_estimate"),
        (["sweep", "-t", "2", "-v", "2", "--k", "3", "--out", "x.csv"], "dependence"),
    ], ids=["bounds", "build", "sweep"])
    def test_parsers_offer_the_estimates(self, argv, dest, capsys):
        parser = cli.build_parser()
        for choice in bounds.DEPENDENCE_ESTIMATES:
            assert getattr(parser.parse_args([*argv, "--dependence", choice]), dest) == choice
        with pytest.raises(SystemExit):
            parser.parse_args([argv[0], "--help"])
        listed = "{" + ",".join(bounds.DEPENDENCE_ESTIMATES) + "}"
        assert f"--dependence {listed}" in capsys.readouterr().out

    def test_build_config_takes_the_estimates(self):
        for choice in bounds.DEPENDENCE_ESTIMATES:
            assert BuildConfig(dependence_estimate=choice).dependence_estimate == choice
        listed = ", ".join(bounds.DEPENDENCE_ESTIMATES)
        with pytest.raises(ValueError, match=f"^dependence_estimate must be one of {listed}, got"):
            BuildConfig(dependence_estimate="tight")


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

    def test_discrete_slj_column_is_the_bound_value(self, tmp_path, capsys, monkeypatch):
        # the column is counted without the walk to the least deficit
        def walk(start, vt):
            raise AssertionError("the least deficit was walked to")

        monkeypatch.setattr(bounds, "_leftover_top", walk)
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "-t", "3", "-v", "4", "--k", "3:200:7",
                          "--methods", "discrete_slj", "--out", str(out_csv)], capsys)
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["discrete_slj"]) for r in rows] == [
            bounds.discrete_slj_bound(CAParams(3, int(r["k"]), 4))[0].value for r in rows
        ]

    def test_sweep_computes_no_costly_note(self, tmp_path, capsys, no_note_computed):
        # a sweep writes values alone: no note computed on read is computed
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "-t", "6", "-v", "3", "--k", "10:1000:15",
                          "--methods", LAZY, "--out", str(out_csv)], capsys)
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 67
        no_note_computed.undo()
        for method in LAZY.split(","):
            assert [int(r[method]) for r in rows[::22]] == [
                bounds.METHODS[method](CAParams(6, int(r["k"]), 3), "simple").value
                for r in rows[::22]]

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

    def test_unknown_method_is_refused_before_any_bound_runs(self, tmp_path, capsys, monkeypatch):
        def never(params, dependence):
            raise AssertionError("a bound ran before the methods were checked")

        monkeypatch.setitem(bounds.METHODS, "slj", never)
        message = f"error: unknown method 'nope'; choose from {', '.join(bounds.METHODS)}\n"
        out_csv = tmp_path / "f.csv"
        for argv in (["bounds", "-t", "2", "-k", "4", "-v", "2"],
                     ["sweep", "-t", "2", "-v", "2", "--k", "4:8", "--out", str(out_csv)]):
            assert run(argv + ["--methods", "slj,nope"], capsys) == (2, "", message)
        assert list(tmp_path.iterdir()) == []

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
    # past v^t of about 1e308, where ln(v^t/(v^t-1)) rounds to 0 in binary64:
    # at least (v^t - 1) * ln(C(k,t) + 1) steps, and no float estimate
    pytest.param(["bounds", "-t", "200", "-k", "201", "-v", "100", "--methods", "discrete_slj"],
                 3, "discrete recurrence trace would take", id="discrete-slj-past-floats"),
    pytest.param(["sweep", "-t", "200", "-v", "100", "--k", "201", "--methods", "discrete_slj",
                  "--out", "{tmp}/x.csv"],
                 3, "discrete recurrence trace would take", id="sweep-discrete-slj-past-floats"),
    # past 4300 digits, more than str() converts: the count goes through Decimal
    pytest.param(["bounds", "-t", "3000", "-k", "3001", "-v", "100", "--methods", "discrete_slj"],
                 3, "discrete recurrence trace would take 8.00703e+6000 steps",
                 id="discrete-slj-past-str-digits"),
    pytest.param(["bounds", "-t", "200", "-k", "201", "-v", "100", "--methods", "dslj_estimate"],
                 2, "ratio too close to 1 for binary64 logarithms",
                 id="dslj-estimate-past-floats"),
    # the second stage runs the same recurrence from about 3.8e8, over 3.6e8 steps
    pytest.param(["bounds", "-t", "10", "-k", "20", "-v", "9", "--methods",
                  "conditional_lll_density"],
                 3, "discrete recurrence trace would take", id="conditional-discrete-stage"),
    # a search window of radius about 6e9
    pytest.param(["bounds", "-t", "20", "-k", "30", "-v", "9", "--methods", "two_stage"],
                 3, "two-stage search window", id="two-stage-window"),
    pytest.param(["build", "-t", "2", "-k", "4", "-v", "2", "--strategy", "density",
                  "--n-override", "3", "--second-stage", "colour",
                  "--out", "/no/such/dir/x.ca"],
                 2, "density strategy does not read --n-override, --second-stage",
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
    # a range is lo:hi[:step] or one integer, each field an integer
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "10:14:2:9", "--out", "{tmp}/x.csv"],
                 2, "bad range '10:14:2:9'", id="sweep-k-extra-field"),
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "10:", "--out", "{tmp}/x.csv"],
                 2, "bad range '10:'", id="sweep-k-empty-field"),
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "5", "--methods", "two_stage_curve",
                  "--n", "1:3:1:1", "--out", "{tmp}/x.csv"],
                 2, "bad range '1:3:1:1'", id="sweep-n-extra-field"),
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "5", "--methods", "two_stage_curve",
                  "--n", "1:", "--out", "{tmp}/x.csv"],
                 2, "bad range '1:'", id="sweep-n-empty-field"),
    # ranges refused before their lists are built: past sys.maxsize entries,
    # and past a 1 MiB cap (136 bytes a row, and 132 an n, so about 13 MB
    # each)
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "1:10000000000000000000",
                  "--out", "{tmp}/x.csv"],
                 3, "--k range '1:10000000000000000000' needs", id="sweep-k-past-maxsize"),
    pytest.param(["sweep", "-t", "2", "-v", "2", "--k", "5", "--methods", "two_stage_curve",
                  "--n", "0:100000000000000000000", "--out", "{tmp}/x.csv"],
                 3, "--n range '0:100000000000000000000' needs", id="sweep-n-past-maxsize"),
    pytest.param(["COVERKIT_MEMORY_CAP_MIB=1", "sweep", "-t", "2", "-v", "2", "--k", "2:100000",
                  "--methods", "slj", "--out", "{tmp}/x.csv"],
                 3, "--k range '2:100000' needs", id="sweep-k-over-cap"),
    pytest.param(["COVERKIT_MEMORY_CAP_MIB=1", "sweep", "-t", "2", "-v", "2", "--k", "5",
                  "--methods", "two_stage_curve", "--n", "0:100000", "--out", "{tmp}/x.csv"],
                 3, "--n range '0:100000' needs", id="sweep-n-over-cap"),
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
    # the build fits under the cap, its verifier's row bitsets do not
    pytest.param(["COVERKIT_MEMORY_CAP_MIB=4", "build", "-t", "2", "-k", "3", "-v", "256",
                  "--out", "{tmp}/x.ca"],
                 3, "verifier row bitsets needs", id="build-verifier-over-cap"),
    # the cyclic group's 30000 x 30000 table, refused before it is built
    pytest.param(["COVERKIT_MEMORY_CAP_MIB=64", "build", "-t", "2", "-k", "3", "-v", "30000",
                  "--strategy", "mt_cyclic", "--out", "{tmp}/x.ca"],
                 3, "cyclic group table on 30000 symbols needs", id="build-cyclic-group-table"),
    # symbols past the int32 cells of an array, refused before rows are drawn
    pytest.param(["build", "-t", "2", "-k", "3", "-v", "5000000000", "--n-override", "20",
                  "--out", "{tmp}/x.ca"],
                 2, "symbols past 2147483647, the largest symbol an array holds",
                 id="build-symbols-past-int32"),
    # in 0..v-1, but past the int32 cells of an array
    pytest.param(["verify", "{data}/cell_past_int32.ca"],
                 2, "line 2: cell above 2147483647", id="verify-cell-past-int32"),
    # a non-ASCII byte outside a comment, named where it is parsed
    pytest.param(["verify", "{data}/non_ascii_cell.ca"],
                 2, "line 2: non-integer cell in '0 \\udcc3\\udca9'", id="verify-non-ascii-cell"),
    # headers that CAParams refuses, named where they are parsed
    pytest.param(["verify", "{data}/strength_zero.ca"],
                 2, "line 1: strength t must be at least 2, got 0", id="verify-header-t-zero"),
    pytest.param(["verify", "{data}/fewer_columns_than_t.ca"],
                 2, "line 1: need k >= t, got k=2, t=3", id="verify-header-k-below-t"),
    pytest.param(["verify", "{data}/non_integer_header.ca"],
                 2, "line 1: non-integer header field in 'CA 3 x 4 5'",
                 id="verify-header-non-integer"),
    # where a build gives up is a constant of construct, not a flag: argparse
    # refuses these, after its usage line
    pytest.param(["build", "-t", "2", "-k", "4", "-v", "2", "--attempts", "5",
                  "--out", "{tmp}/x.ca"],
                 2, "unrecognized arguments: --attempts 5", id="build-attempts-flag-gone"),
    pytest.param(["build", "-t", "2", "-k", "4", "-v", "2", "--strategy", "mt_cyclic",
                  "--resample-cap", "5", "--out", "{tmp}/x.ca"],
                 2, "unrecognized arguments: --resample-cap 5", id="build-resample-cap-flag-gone"),
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
        err = result.stderr
        assert result.returncode == code, err
        # coverkit's own refusal is one "error:" line; argparse's follows its usage
        usage = err.startswith("usage: coverkit ") and "\ncoverkit: error: " in err
        assert (err.startswith("error:") or usage) and message in err
        assert "Traceback" not in err
        assert result.stdout == "" and list(tmp_path.iterdir()) == []

    # each error class a command can raise, and the exit code it maps to
    @pytest.mark.parametrize("error, code", [
        (UnsupportedParameterError("unsupported"), 2),
        (ArrayFormatError(3, "malformed"), 2),
        (ValueError("bad value"), 2),
        (OSError("unreadable"), 2),
        (ResourceLimitError("over the cap"), 3),
        (BudgetExceededError("out of budget"), 3),
    ], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None)
    def test_exit_code_of_each_error_class(self, capsys, monkeypatch, error, code):
        def fail(params, dependence):
            raise error

        monkeypatch.setitem(bounds.METHODS, "slj", fail)
        result, out, err = run(["bounds", "-t", "2", "-k", "4", "-v", "2", "--methods", "slj"],
                               capsys)
        assert result == code and out == ""
        assert err == f"error: {error}\n" and "Traceback" not in err

    def test_long_counts_print_as_six_digits_and_a_power_of_ten(self, capsys):
        # the step count has 401 digits; printed whole, the line was 479 bytes
        code, out, err = run(["bounds", "-t", "200", "-k", "201", "-v", "100",
                              "--methods", "discrete_slj"], capsys)
        assert code == 3 and out == ""
        assert err == ("error: discrete recurrence trace would take 5.30827e+400 steps,"
                       " above the cap of 50000000\n")
        assert len(err) == 90

    @pytest.mark.parametrize("strategy, flags", [
        ("two_stage", ["--dependence", "improved"]),
        ("mt_cyclic", ["--second-stage", "colour"]),
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
            ("density", ["--dependence", "simple", "--seed", "4"]),
            ("two_stage", ["--n-override", "6"]),
            ("mt_frobenius", ["--dependence", "improved"]),
        ]:
            code, _, err = run(
                ["build", "-t", "2", "-k", "4", "-v", "3", "--strategy", strategy, *flags,
                 "--out", str(tmp_path / "a.txt")],
                capsys,
            )
            assert code == 0, (strategy, err)
