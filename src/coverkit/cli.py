"""Command-line surface: bound tables, construction, verification, sweeps.

Exit codes: 0 success, 1 verification failure, 2 parameter or file error,
3 resource or budget error.  Column indices in human-readable output are
1-based; machine output (--json, CSV, array files) stays 0-based.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import bounds, limits
from .arrayfile import read_array, write_array
from .construct import _CONFIG_CHOICES, DEFAULT_SEED, STRATEGIES, BuildConfig
from .core import CAParams, SymbolArray
from .errors import ResourceLimitError, UnsupportedParameterError
from .verify import full_check

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARAMS = 2
EXIT_RESOURCE = 3


def _report_record(rep: bounds.BoundReport) -> dict:
    """The JSON record of one report; dslj_estimate's and katona's have
    never had an expected_leftover key.  Reading every note of the
    read-only mapping computes those not yet read (a comprehension does it
    in half the time of dict()); json takes every value as it is."""
    record = {
        "method": rep.method,
        "value": rep.value,
        "stage1_rows": rep.stage1_rows,
        "expected_leftover": rep.expected_leftover,
        "notes": {key: rep.notes[key] for key in rep.notes},
    }
    if rep.method in ("dslj_estimate", "katona"):
        del record["expected_leftover"]
    return record


def _methods(args: argparse.Namespace, allowed: tuple[str, ...] = ()) -> list[str]:
    """The requested methods, each a bound method or one of ``allowed``,
    refused before any bound runs; --dependence off its default must be
    read by one."""
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UnsupportedParameterError(
            f"no method given; choose from {', '.join(bounds.METHODS)}"
        )
    if args.dependence != "simple" and not set(methods) & set(bounds.DEPENDENCE_METHODS):
        raise UnsupportedParameterError(
            f"--dependence is read only by {', '.join(bounds.DEPENDENCE_METHODS)},"
            f" not by {', '.join(methods)}"
        )
    for method in methods:
        if method not in bounds.METHODS and method not in allowed:
            raise UnsupportedParameterError(
                f"unknown method {method!r}; choose from {', '.join(bounds.METHODS)}"
            )
    return methods


def cmd_bounds(args: argparse.Namespace) -> int:
    params = CAParams(args.t, args.k, args.v)
    methods = _methods(args)
    reports = [bounds.METHODS[m](params, args.dependence) for m in methods]
    if args.json:
        results = [_report_record(rep) for rep in reports]
        doc = {"t": args.t, "k": args.k, "v": args.v, "results": results}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    # text prints four notes, none of them computed on read
    for rep in reports:
        stage1 = "" if rep.stage1_rows is None else f"  n={rep.stage1_rows}"
        shown = f"{rep.value:.3f}" if isinstance(rep.value, float) else f"{rep.value}"
        print(f"{rep.method:<28} {shown}{stage1}")
        for key in ("full_orbit_count", "orbit_count", "d_plus_1", "inequality"):
            if key in rep.notes:
                print(f"{'':<4}{key} = {rep.notes[key]}")
    return EXIT_OK


# BuildConfig field -> the build flag that sets it, in help order (--seed sets
# the seed, which every strategy reads)
CONFIG_FLAGS = {
    "max_stage1_attempts": "--attempts",
    "resample_step_cap": "--resample-cap",
    "n_override": "--n-override",
    "second_stage": "--second-stage",
    "dependence_estimate": "--dependence",
}


def cmd_build(args: argparse.Namespace) -> int:
    params = CAParams(args.t, args.k, args.v)
    drawn = args.seed == "random"
    if drawn:
        import secrets  # here, not at the top: it adds about 5 ms to every start

        args.seed = secrets.randbits(63)
    config = BuildConfig(**{f.name: getattr(args, f.name) for f in fields(BuildConfig)})
    default = BuildConfig()
    unread = [
        flag
        for name, flag in CONFIG_FLAGS.items()
        if name not in STRATEGIES[args.strategy].reads
        and getattr(config, name) != getattr(default, name)
    ]
    if unread:
        raise UnsupportedParameterError(
            f"the {args.strategy} strategy does not read {', '.join(unread)}"
        )
    # fail before the build, and create nothing, when --out cannot be written
    out = Path(args.out)
    if out.is_dir() or not os.access(out if out.exists() else out.parent, os.W_OK):
        raise OSError(f"cannot write {args.out}")
    array, log = STRATEGIES[args.strategy].build(params, config)
    # verify first, so that a verifier over the memory cap leaves no file
    report = full_check(array)

    write_array(args.out, array)
    if drawn:  # the one line that reproduces the run
        print(f"seed {config.seed}")
    for line in log.summary_lines():
        print(line)
    if not log.success:
        print(f"build failed: {log.failure_reason}", file=sys.stderr)
        return EXIT_VERIFY
    if not report.is_covering:
        print(
            f"verification failed: {report.uncovered_count} uncovered", file=sys.stderr
        )
        return EXIT_VERIFY
    print(f"verified covering array with {array.n_rows} rows -> {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    array = read_array(args.path)
    if args.t is not None and args.t != array.params.t:
        p = array.params
        array = SymbolArray(CAParams(args.t, p.k, p.v), array.cells)
    report = full_check(array)
    if report.is_covering:
        print(f"OK: covers all {array.params.interaction_space_size} interactions")
        return EXIT_OK
    witness = report.first_witness
    cols = ",".join(str(c + 1) for c in witness.columns)
    syms = ",".join(str(s) for s in witness.symbols)
    print(f"NOT COVERING: {report.uncovered_count} uncovered interactions")
    print(f"first witness: columns ({cols}) symbols ({syms})")
    return EXIT_VERIFY


def _parse_range(text: str, flag: str, entry_bytes: int, fixed: int = 0) -> list[int]:
    """The integers of lo:hi[:step] (step 1 by default), or one integer;
    anything else raises ValueError("bad range ...").  A range whose
    entries, at ``entry_bytes`` each, and ``fixed`` bytes beside them
    would pass the memory cap raises ResourceLimitError before its list is
    built."""
    try:
        parts = [int(part) for part in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) == 1:
        return parts
    if len(parts) in (2, 3):
        lo, hi, step = parts if len(parts) == 3 else (*parts, 1)
        if step >= 1 and hi >= lo:
            length = (hi - lo) // step + 1
            limits.Budget.from_env().check_table_bytes(
                length, entry_bytes, f"{flag} range {text!r}", fixed)
            return list(range(lo, hi + 1, step))
    raise ValueError(f"bad range {text!r}")


def cmd_sweep(args: argparse.Namespace) -> int:
    methods = _methods(args, allowed=("two_stage_curve",))
    # a row is a list (56 bytes) of k and one value per method, each an int
    # of about 32 bytes in a slot of 8, and ks holds k once more
    ks = _parse_range(args.k, "--k", 96 + 40 * len(methods))
    if args.n is not None and "two_stage_curve" not in methods:
        raise UnsupportedParameterError("--n is read only by two_stage_curve")

    if "two_stage_curve" in methods:
        if len(methods) != 1:
            raise UnsupportedParameterError(
                "two_stage_curve cannot be combined with other methods"
            )
        if len(ks) != 1:
            raise UnsupportedParameterError("two_stage_curve needs a single k")
        params = CAParams(args.t, ks[0], args.v)
        if args.n is not None:
            ns = _parse_range(args.n, "--n", bounds.two_stage_entry_bytes(params),
                              bounds.TWO_STAGE_CALL_BYTES)
        else:  # 1025 n around the bound's minimizer
            center = bounds.two_stage_bound(params).stage1_rows
            ns = list(range(max(0, center - 512), center + 513))
        # every value first, so a bad n leaves no file behind; the rows pair
        # them lazily, so the curve is held once
        header = ["n", "objective"]
        rows = zip(ns, bounds.two_stage_objectives(params, ns))
        count = len(ns)
    else:
        # every value first, so a bad method or k leaves no file behind; a
        # sweep reads only values, so no note computed on read (the discrete
        # SLJ walk to its least deficit, the 50-digit notes) is ever computed
        header = ["k"] + methods
        rows = []
        for k in ks:
            params = CAParams(args.t, k, args.v)
            rows.append([k] + [bounds.METHODS[m](params, args.dependence).value for m in methods])
        count = len(ks)
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {count} rows -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverkit",
        description="Covering array bounds, constructions, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("-t", type=int, required=True, help="strength")
        p.add_argument("-k", type=int, required=True, help="number of columns")
        p.add_argument("-v", type=int, required=True, help="alphabet size")

    p_bounds = sub.add_parser("bounds", help="print bound values for one (t,k,v)")
    add_params(p_bounds)
    p_bounds.add_argument("--methods", default="slj,two_stage", help="comma-separated")
    p_bounds.add_argument("--dependence", choices=bounds.DEPENDENCE_ESTIMATES, default="simple")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)

    p_build = sub.add_parser("build", help="construct and verify an array")
    add_params(p_build)
    p_build.add_argument("--strategy", choices=tuple(STRATEGIES), default="two_stage")
    p_build.add_argument(
        "--seed",
        type=_seed_value,
        default=DEFAULT_SEED,
        help=f"integer, or 'random' (default: fixed {DEFAULT_SEED})",
    )
    p_build.add_argument("--out", required=True, help="output array file")
    default = BuildConfig()
    for name, flag in CONFIG_FLAGS.items():
        choices = _CONFIG_CHOICES.get(name)
        p_build.add_argument(
            flag,
            dest=name,
            default=getattr(default, name),
            choices=choices,
            type=None if choices else int,
            # the metavar argparse derives from the flag, not from dest
            metavar=None if choices else flag[2:].replace("-", "_").upper(),
        )
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="verify an array file")
    p_verify.add_argument("path")
    p_verify.add_argument("-t", type=int, default=None, help="override strength")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="bound values over a k range, as CSV")
    p_sweep.add_argument("-t", type=int, required=True)
    p_sweep.add_argument("-v", type=int, required=True)
    p_sweep.add_argument("--k", required=True, help="lo:hi[:step] or a single k")
    p_sweep.add_argument("--n", default=None, help="n range for two_stage_curve")
    p_sweep.add_argument("--methods", default="slj,discrete_slj,two_stage")
    p_sweep.add_argument("--dependence", choices=bounds.DEPENDENCE_ESTIMATES, default="simple")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _seed_value(text: str) -> int | str:
    """An integer seed, or "random", which ``cmd_build`` draws and prints."""
    return text if text == "random" else int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on its first call.  Reusing it is
    safe: it holds only constants (the strategy names, the BuildConfig
    defaults and choices), every parse returns a fresh Namespace, and the
    environment caps are read when a command runs, not here."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
