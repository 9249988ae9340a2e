"""Command-line front-end.

Subcommands: check, power-scan, polya, geometry, beta verify, sweep,
examples.  Every subcommand takes --json.  check, sweep and examples
also take --seed and the budgets; beta verify takes --seed; the others
take nothing more.
Exit codes for verdict-bearing commands: 0 all Holds, 1 usage/parse
error, 2 any Fails (or expectation mismatch), 3 any Inconclusive.
Budgets come from a profile (fast/default/thorough), optionally
overridden by an INI config file, and finally by explicit flags.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import os
import sys
from dataclasses import fields, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import corpus as corpus_mod
from .conditions import (PROFILES, Budgets, Verdict, check_pos1, check_pos2,
                         check_pos3)
from .eventual import power_scan, polya_exponent, scan_rows
from .geometry import (difference_lattice_generators, is_positive_definite,
                       jf_matrix, smith_invariant_factors)
from .poly import ParseError, Polynomial, infer_nvars, parse, serialize
from .spectral import BetaVerdict, PolyMatrix, verify_beta

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILS = 2
EXIT_INCONCLUSIVE = 3


#: Budget name -> the type its text is read as
_BUDGET_FIELDS = {f.name: type(f.default) for f in fields(Budgets)}


def load_budgets(args) -> Budgets:
    """The profile, then the config file's [budgets], then the flags;
    only the result is validated."""
    overrides = {}
    config_path = args.config
    if config_path:
        cfg = configparser.ConfigParser()
        if not cfg.read(config_path):
            raise FileNotFoundError(f"config file not found: {config_path}")
        if cfg.has_section("budgets"):
            for key, text in cfg.items("budgets"):
                if key not in _BUDGET_FIELDS:
                    raise ValueError(f"unknown [budgets] key in {config_path}: {key}")
                overrides[key] = _BUDGET_FIELDS[key](text)
    overrides.update((key, getattr(args, key)) for key in _BUDGET_FIELDS
                     if getattr(args, key) is not None)
    return replace(PROFILES[args.budget_profile], **overrides)


def _load_expr(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read().strip()
    return arg


def _parse_poly(arg: str, nvars: Optional[int]) -> Polynomial:
    text = _load_expr(arg)
    if nvars is None:
        nvars = infer_nvars(text)
    return parse(text, nvars)


def _emit(report: dict, json_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _verdict_exit(verdicts: Sequence[Verdict]) -> int:
    if any(v is Verdict.FAILS for v in verdicts):
        return EXIT_FAILS
    if any(v is Verdict.INCONCLUSIVE for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------

def run_check(p: Polynomial, budgets: Budgets, pos3_mode: str,
              seed: int) -> tuple[int, dict]:
    """Run all three condition checks and aggregate the reports."""
    reports = [check_pos1(p), check_pos2(p, budgets),
               check_pos3(p, budgets, pos3_mode, seed)]
    result = {
        "polynomial": serialize(p),
        "nvars": p.nvars,
        "reports": [r.to_json_dict() for r in reports],
        "metadata": {"seed": seed, "pos3_mode": pos3_mode},
    }
    return _verdict_exit([r.verdict for r in reports]), result


def cmd_check(args) -> int:
    p = _parse_poly(args.expr, args.nvars)
    code, result = run_check(p, load_budgets(args), args.pos3_mode, args.seed)
    _emit(result, args.json)
    return code


def cmd_power_scan(args) -> int:
    p = _parse_poly(args.p, args.nvars)
    q = _parse_poly(args.q, p.nvars)
    pattern = power_scan(p, q, args.max_m)
    _emit(pattern.to_json_dict(), args.json)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "all_positive", "num_terms", "min_coef"])
            for row in scan_rows(p, q, args.max_m):
                writer.writerow([row.m, row.all_positive, row.num_terms, str(row.min_coef)])
    return EXIT_OK


def cmd_polya(args) -> int:
    g = _parse_poly(args.g, args.nvars)
    n = polya_exponent(g, args.max_n)
    _emit({"g": serialize(g), "max_n": args.max_n, "exponent": n}, args.json)
    return EXIT_OK if n is not None else EXIT_INCONCLUSIVE


def cmd_geometry(args) -> int:
    checks = args.check or ["dim", "lattice"]
    point = None
    if args.point is not None:
        if "jf" not in checks:
            raise ValueError("--point is read only by --check jf")
        point = [Fraction(v) for v in args.point.split(",")]
    f = _parse_poly(args.f, args.nvars)
    result: dict = {"f": serialize(f), "nvars": f.nvars}
    # newton_affine_dim and difference_lattice_is_full, from one Smith form
    if {"dim", "lattice"} & set(checks):
        factors = smith_invariant_factors(difference_lattice_generators(f))
    if "dim" in checks:
        result["newton_affine_dim"] = len(factors)
    if "lattice" in checks:
        result["snf_invariant_factors"] = factors
        result["difference_lattice_full"] = factors == [1] * f.nvars
    if "jf" in checks:
        if point is None:
            point = [Fraction(1)] * f.nvars
        mat = jf_matrix(f, point)
        result["jf"] = {"point": [str(v) for v in point],
                        "matrix": [[str(v) for v in row] for row in mat],
                        "positive_definite": is_positive_definite(mat)}
    _emit(result, args.json)
    return EXIT_OK


def cmd_beta(args) -> int:
    with open(args.matrix) as fh:
        mat = PolyMatrix.from_json(fh.read())
    p = _parse_poly(args.p, mat.nvars)
    report = verify_beta(mat, p, sample_count=args.samples, tol=args.tol,
                         seed=args.seed)
    result = report.to_json_dict()
    result["matrix"] = mat.to_json_dict()
    result["p"] = serialize(p)
    _emit(result, args.json)
    if report.verdict is BetaVerdict.VERIFIED:
        return EXIT_OK
    if report.verdict is BetaVerdict.REFUTED:
        return EXIT_FAILS
    return EXIT_INCONCLUSIVE


def cmd_sweep(args) -> int:
    budgets = load_budgets(args)
    k = args.k
    if k < 2:
        raise ValueError("family requires k >= 2")
    lambdas = sorted(Fraction(s) for s in args.lambdas.split(","))
    upper = Fraction(2 ** (2 * k - 1))
    rows = []
    for lam in lambdas:
        base = parse("(x1 + x2)^%d" % (2 * k), 2)
        spike = Polynomial(2, {(k, k): lam})
        p = base - spike
        code, result = run_check(p, budgets, args.pos3_mode, args.seed)
        pattern = power_scan(p, Polynomial.constant(2, 1), args.max_m)
        verdicts = {r["condition"]: r["verdict"] for r in result["reports"]}
        rows.append({"lambda": str(lam),
                     "pos1": verdicts["Pos1"], "pos2": verdicts["Pos2"],
                     "pos3": verdicts["Pos3"],
                     "window_onset": pattern.onset,
                     "onset_proved": pattern.onset_proved})
    # warned only once every check has run, so that a refused budget is
    # the one line on stderr
    for lam in lambdas:
        if not 0 < lam <= upper:
            print(f"warning: lambda={lam} outside (0, {upper}]; exploring anyway",
                  file=sys.stderr)
    out = args.csv or "-"
    fh = sys.stdout if out == "-" else open(out, "w", newline="")
    try:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "pos1", "pos2", "pos3", "window_onset"])
        for row in rows:
            writer.writerow([row["lambda"], row["pos1"], row["pos2"],
                             row["pos3"],
                             "" if row["window_onset"] is None else row["window_onset"]])
    finally:
        if fh is not sys.stdout:
            fh.close()
    if args.json:
        _emit({"family": "dv", "k": k, "rows": rows,
               "metadata": {"seed": args.seed}}, args.json)
    return EXIT_OK


def _check_entry(entry, budgets: Budgets, seed: int) -> dict:
    p = entry.p
    _, result = run_check(p, budgets, entry.pos3_mode, seed)
    verdicts = {r["condition"].lower(): r["verdict"] for r in result["reports"]}
    observed = {c: v for c, v in verdicts.items() if c in entry.expected}
    mismatches = [f"{cond}: expected {want}, observed {observed.get(cond)}"
                  for cond, want in entry.expected.items()
                  if observed.get(cond) != want]
    onset_observed = None
    onset_proved = False
    if entry.scan_m_max:
        pattern = power_scan(p, entry.q, entry.scan_m_max)
        onset_observed, onset_proved = pattern.onset, pattern.onset_proved
        want = entry.expect_onset
        if want == "finite" and onset_observed is None:
            mismatches.append("onset: expected finite, observed none")
        elif want == "none" and onset_observed is not None:
            mismatches.append(f"onset: expected none, observed {onset_observed}")
        elif isinstance(want, int) and onset_observed != want:
            mismatches.append(f"onset: expected {want}, observed {onset_observed}")
    return {"name": entry.name, "expected": entry.expected,
            "observed": observed, "window_onset": onset_observed,
            "onset_proved": onset_proved,
            "mismatches": mismatches, "notes": entry.notes}


def cmd_examples(args) -> int:
    budgets = load_budgets(args)
    entries = corpus_mod.load_corpus()
    names = sorted(entries) if args.name == "all" else [args.name]
    results = []
    for name in names:
        if name not in entries:
            raise ValueError(f"unknown corpus entry {name!r}")
        results.append(_check_entry(entries[name], budgets, args.seed))
    mismatched = [r["name"] for r in results if r["mismatches"]]
    _emit({"results": results, "mismatched": mismatched,
           "metadata": {"seed": args.seed}}, args.json)
    return EXIT_OK if not mismatched else EXIT_FAILS


# ---------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: it depends on no call, and
    `parse_args` leaves it unchanged."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", metavar="PATH", help="write the JSON report here")
    seeded = argparse.ArgumentParser(add_help=False, parents=[output])
    seeded.add_argument("--seed", type=int, default=0)
    budgeted = argparse.ArgumentParser(add_help=False, parents=[seeded])
    budgeted.add_argument("--budget-profile", choices=sorted(PROFILES),
                          default="default")
    budgeted.add_argument("--config", metavar="FILE",
                          help="INI file with a [budgets] section")
    for key, conv in _BUDGET_FIELDS.items():
        per_profile = ", ".join(f"{name} {getattr(PROFILES[name], key)}"
                                for name in sorted(PROFILES))
        budgeted.add_argument(f"--{key.replace('_', '-')}", dest=key, type=conv,
                              metavar=conv.__name__.upper(),
                              help=f"per profile: {per_profile}")

    parser = argparse.ArgumentParser(
        prog="powerpos",
        description="Decide and certify positivity conditions for homogeneous "
                    "polynomials and scan powers for all-positive coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[budgeted],
                             help="run the three condition checks")
    p_check.add_argument("expr", help="polynomial expression or file")
    p_check.add_argument("--nvars", type=int)
    p_check.add_argument("--pos3-mode", choices=["falsify", "certify"],
                         default="certify")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("power-scan", parents=[output],
                            help="scan p^m * q for all-positive coefficients")
    p_scan.add_argument("--p", required=True)
    p_scan.add_argument("--q", default="1")
    p_scan.add_argument("--max-m", type=int, required=True)
    p_scan.add_argument("--nvars", type=int)
    p_scan.add_argument("--csv", metavar="PATH")
    p_scan.set_defaults(func=cmd_power_scan)

    p_polya = sub.add_parser("polya", parents=[output],
                             help="least simplex-multiplier exponent")
    p_polya.add_argument("--g", required=True)
    p_polya.add_argument("--max-n", type=int, required=True)
    p_polya.add_argument("--nvars", type=int)
    p_polya.set_defaults(func=cmd_polya)

    p_geom = sub.add_parser("geometry", parents=[output],
                            help="support, lattice, and log-Hessian probes")
    p_geom.add_argument("--f", required=True)
    p_geom.add_argument("--nvars", type=int)
    p_geom.add_argument("--point", help="comma-separated rationals")
    p_geom.add_argument("--check", action="append",
                        choices=["dim", "lattice", "jf"])
    p_geom.set_defaults(func=cmd_geometry)

    p_beta = sub.add_parser("beta", help="spectral radius function verification")
    beta_sub = p_beta.add_subparsers(dest="beta_command", required=True)
    p_verify = beta_sub.add_parser("verify", parents=[seeded])
    p_verify.add_argument("--matrix", required=True, help="matrix JSON file")
    p_verify.add_argument("--p", required=True)
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(func=cmd_beta)

    p_sweep = sub.add_parser("sweep", parents=[budgeted],
                             help="verdicts and onsets across the dv family")
    p_sweep.add_argument("--k", type=int, required=True)
    p_sweep.add_argument("--lambdas", required=True,
                         help="comma-separated rational values")
    p_sweep.add_argument("--max-m", type=int, default=40)
    p_sweep.add_argument("--pos3-mode", choices=["falsify", "certify"],
                         default="certify")
    p_sweep.add_argument("--csv", metavar="PATH")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ex = sub.add_parser("examples", parents=[budgeted],
                          help="run corpus entries and diff against expectations")
    p_ex.add_argument("name", help="entry name or 'all'")
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message (or the help); keep the
        # documented codes: 0 for --help, 1 for a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (ParseError,) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
