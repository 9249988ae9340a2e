"""CLI contract: exit codes, JSON/CSV output, config precedence, determinism."""

import argparse
import csv
import importlib
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from powerpos import Budgets, Verdict, conditions, parse
from powerpos.cli import _BUDGET_FIELDS, build_parser, main

from helpers import modulus_gap

CUBIC_MINUS_CORNER = "(x1+x2+x3)^3 - x1^3"
EQUALITY_QUARTIC = "(x1+x2)^4 - 8*x1^2*x2^2"
# no exact stage decides Pos3 here, so falsify mode runs its seeded search
NO_PROBE_WITNESS_CUBIC = "(x1+x2+x3)^3 - 8*x1*x2*x3"


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------
# check
# ---------------------------------------------------------------------

def test_falsify_takes_coefficients_beyond_float_range(capsys):
    # 10^400 is past float range; falsify's float layer sees p scaled by a
    # power of two, and a verdict still rests on exact checks
    code = run(["check", "(x1+x2+x3)^3 - 8*x1*x2*x3 + 10^400*x1^3", "--pos3-mode", "falsify"])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_check_all_holds_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = run(["check", "x1+x2", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert [r["verdict"] for r in report["reports"]] == ["Holds"] * 3
    assert [r["condition"] for r in report["reports"]] == ["Pos1", "Pos2", "Pos3"]


def test_check_pos1_failure_exit_two(tmp_path):
    out = tmp_path / "report.json"
    code = run(["check", CUBIC_MINUS_CORNER, "--json", str(out), "--pos3-mode", "falsify"])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["reports"][0]["verdict"] == "Fails"


def test_check_quartic_family_exit_zero(tmp_path):
    code = run(["check", "(x1+x2)^4 - 7*x1^2*x2^2",
                "--json", str(tmp_path / "r.json")])
    assert code == 0


def test_check_inconclusive_exit_three(tmp_path):
    # n = 3: no exact stage decides this p and the falsify search finds no
    # witness, so it comes back 3; the negative coefficient keeps the
    # support from deciding Pos3 first
    out = tmp_path / "r.json"
    code = run(["check", NO_PROBE_WITNESS_CUBIC, "--pos3-mode", "falsify", "--json", str(out)])
    assert code == 3
    budget = json.loads(out.read_text())["reports"][2]["budget"]
    assert budget["quarter_turn_points"] == 186 and budget["samples"] == 20000


@pytest.mark.parametrize("expr", ["x1*x2", "x1^2*x2^2"])
@pytest.mark.parametrize("mode", ["certify", "falsify"])
def test_single_term_fails_with_an_equality_witness(expr, mode, tmp_path):
    out = tmp_path / "r.json"
    assert run(["check", expr, "--pos3-mode", mode, "--json", str(out)]) == 2
    pos3 = json.loads(out.read_text())["reports"][2]
    assert pos3["verdict"] == "Fails" and pos3["witness"]["equality"] is True
    assert pos3["witness"]["validation"] == "exact"


def test_certify_fails_with_the_witness_at_a_negative_corner(tmp_path):
    # the Bernstein search stops where G < 0 at cos t = 1/2; the
    # quarter-turn probe alone leaves this Inconclusive
    out = tmp_path / "r.json"
    expr = ("4*x2^7 + 3*x1*x2^6 + x1^2*x2^5 - 17/4*x1^3*x2^4 + 4/3*x1^4*x2^3"
            " + 8/3*x1^5*x2^2 + 5*x1^6*x2 + 2*x1^7")
    assert run(["check", expr, "--pos3-mode", "certify", "--json", str(out)]) == 2
    pos3 = json.loads(out.read_text())["reports"][2]
    assert pos3["verdict"] == "Fails" and pos3["witness"]["validation"] == "exact"
    assert pos3["budget"]["stop"]["reason"] == "G <= 0 at a corner"


def test_parse_error_exit_one(capsys):
    assert run(["check", "x1 + ("]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "x1+x2", "--bogus"],
                                  ["check", "x1+x2", "--threads", "2"],
                                  ["check", "x1+x2", "--delta", "0.01"],
                                  ["power-scan", "--p", "x1+x2"],
                                  ["nonsense"],
                                  ["check", "x1+x2", "--tolerance", "1e-9"],
                                  ["geometry", "--f", "s1+1", "--check", "hess"],
                                  ["sweep", "--family", "dv", "--k", "2", "--lambdas", "7"],
                                  ["check", "x1+x2", "--polya-budget", "50"],
                                  ["check", "x1+x2", "--sample-grid", "8"]])
def test_usage_error_exit_one(argv, capsys):
    # argparse's own exit status 2 would read as "Fails"
    assert run(argv) == 1
    assert "error:" in capsys.readouterr().err


TOO_MANY_VARIABLES = {"dim": 1, "nvars": 65, "entries": [["x1"]]}


@pytest.mark.parametrize("argv", [["check", "x1+x65"], ["check", "x1", "--nvars", "65"],
                                  ["beta", "verify", "--matrix", "m.json", "--p", "x1"]],
                         ids=["x65", "nvars-65", "matrix-nvars-65"])
def test_too_many_variables_is_one_parse_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(TOO_MANY_VARIABLES))
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("parse error: ") and "over the limit of 64" in captured.err


def test_readme_cli_lines_parse():
    # every `powerpos ...` line of the README's CLI block is a valid command
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("powerpos ")]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv[1:])


BUDGETED = {"--json", "--seed", "--budget-profile", "--config", "--grid", "--max-depth",
            "--max-samples"}


def _flags(path):
    parser = build_parser()
    for name in path:
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = action.choices[name]
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


BETA = ["beta", "verify", "--matrix", "m.json", "--p", "x1+x2"]


# Each subcommand's flags, and one flag it does not read, which is a usage
# error.  Of the shared flags, check, sweep and examples take all 7, beta
# verify takes --json and --seed, the others --json and beta none: 26.


@pytest.mark.parametrize("path, flags, argv, unread", [
    (["check"], BUDGETED | {"--nvars", "--pos3-mode"},
     ["check", "x1+x2"], ["--csv", "t.csv"]),
    (["sweep"], BUDGETED | {"--k", "--lambdas", "--max-m", "--pos3-mode", "--csv"},
     ["sweep", "--k", "2", "--lambdas", "7", "--max-m", "8"], ["--nvars", "2"]),
    (["examples"], BUDGETED, ["examples", "linear2"], ["--pos3-mode", "falsify"]),
    (["beta", "verify"], {"--json", "--seed", "--matrix", "--p", "--samples", "--tol"},
     BETA, ["--budget-profile", "fast"]),
    (["beta"], set(), BETA, ["--json", "b.json"]),
    (["power-scan"], {"--json", "--p", "--q", "--max-m", "--nvars", "--csv"},
     ["power-scan", "--p", "x1+x2", "--max-m", "3"], ["--seed", "1"]),
    (["polya"], {"--json", "--g", "--max-n", "--nvars"},
     ["polya", "--g", "x1^2-x1*x2+x2^2", "--max-n", "10"], ["--grid", "5"]),
    (["geometry"], {"--json", "--f", "--nvars", "--point", "--check"},
     ["geometry", "--f", "s1+s2+1"], ["--budget-profile", "fast"]),
], ids=["check", "sweep", "examples", "beta verify", "beta", "power-scan", "polya",
        "geometry"])
def test_each_subcommand_takes_only_the_flags_it_reads(path, flags, argv, unread, capsys,
                                                       tmp_path, monkeypatch):
    assert _flags(path) == flags
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps({"dim": 1, "nvars": 2, "entries": [["x1+x2"]]}))
    assert run(argv) == 0
    assert run(argv[:len(path)] + unread + argv[len(path):]) == 1
    assert "error:" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["m.json"]


def test_help_exit_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["check", "--help"]) == 0
    out = capsys.readouterr().out
    assert "usage:" in out
    assert "--max-samples INT" in out and "100000" in out  # the thorough profile's


def test_check_determinism(tmp_path):
    # the cubic misses the pair-face probe, so falsify draws its samples
    for expr in (EQUALITY_QUARTIC, NO_PROBE_WITNESS_CUBIC):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(["check", expr, "--pos3-mode", "falsify", "--seed", "7", "--json", str(path)])
        assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["reports"][2]["budget"]["samples"] == 20000


@pytest.mark.parametrize("expr, nvars", [("(x1+x2)^4 - 9*x1^2*x2^2", 2),
                                         ("(x1+x2+x3)^4 - 9*x1^2*x2^2", 3),
                                         ("(x1+x2+x3+x4)^4 - 17/2*x1^2*x2^2", 4)],
                         ids=["quartic", "lift", "n4"])
def test_nelder_mead_witness_is_exact(expr, nvars):
    # The seeded search alone, at an odd grid: the grid holds no quarter-turn
    # phase, so no exact witness exists among the samples and the
    # Nelder-Mead refinement supplies one.
    rep = conditions._seeded_search(parse(expr, nvars), Budgets(grid=7), 1, {})
    assert rep.verdict is Verdict.FAILS
    assert rep.budget["refined"] >= 1
    witness = rep.witness
    assert witness["validation"] == "exact" and witness["equality"] is False
    assert Fraction(witness["abs_p_z_squared"]) > Fraction(witness["p_abs_z_squared"])

    # independently of the program: D < 0 at the witness, at 50 digits
    def mp(text):
        v = Fraction(text)
        return mpmath.mpf(v.numerator) / v.denominator

    with mpmath.workdps(50):
        z = [mpmath.mpc(mp(re), mp(im)) for re, im in witness["z"]]
        gap = modulus_gap(parse(expr, nvars), [abs(v) for v in z], [mpmath.arg(v) for v in z])
        assert gap < -mpmath.mpf(10) ** -6


def test_falsify_imports_scipy_only_to_refine(tmp_path):
    # scipy.optimize takes most of a second to import; this cubic misses the
    # pair-face probe and leaves no candidate, so nothing is refined
    out = tmp_path / "r.json"
    script = ("import sys\n"
              "from powerpos.cli import main\n"
              "code = main(['check', '(x1+x2+x3)^3 - 8*x1*x2*x3', '--pos3-mode', 'falsify',\n"
              "             '--json', sys.argv[1]])\n"
              "print(code, 'scipy.optimize' in sys.modules)\n")
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["3", "False"]
    budget = json.loads(out.read_text())["reports"][2]["budget"]
    assert budget["samples"] == 20000 and budget["candidates"] == 0 and budget["refined"] == 0


def test_bench_pos3_witnesses_are_exact_on_the_quarter_turn_axes(monkeypatch, tmp_path):
    # bench/oracles.py re-checks an exact z only on the quarter-turn axes
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    oracles = importlib.import_module("oracles")
    out = tmp_path / "r.json"
    fails = 0
    for name in ("certify", "falsify"):
        for seed in range(1, 11):
            for case in workloads.generate(name, seed):
                run(case["argv"] + ["--json", str(out)])
                pos3 = json.loads(out.read_text())["reports"][2]
                if pos3["verdict"] == "Fails":
                    fails += 1
                    assert pos3["witness"]["validation"] == "exact"
                    p = oracles.parse(case["expr"], case["nvars"])
                    assert oracles.check_pos3_witness(p, pos3["witness"]) == []
    assert fails >= 40


def test_main_gives_the_same_report_on_every_call(tmp_path):
    # the parser is built once, so a call must leave it as it was
    argv = ["check", EQUALITY_QUARTIC, "--pos3-mode", "falsify", "--seed", "7"]
    first, other, again = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert run(argv + ["--json", str(first)]) == 2
    assert run(["check", "x1+x2", "--grid", "5", "--budget-profile", "fast",
                "--json", str(other)]) == 0
    assert run(["check", "x1+x2", "--bogus"]) == 1
    assert run(argv + ["--json", str(again)]) == 2
    assert first.read_bytes() == again.read_bytes()


def test_check_reads_expression_from_file(tmp_path):
    expr = tmp_path / "p.txt"
    expr.write_text("x1 + x2\n")
    assert run(["check", str(expr), "--json", str(tmp_path / "r.json")]) == 0


# ---------------------------------------------------------------------
# power-scan / polya
# ---------------------------------------------------------------------

def test_power_scan_json_and_csv(tmp_path):
    out = tmp_path / "scan.json"
    table = tmp_path / "scan.csv"
    code = run(["power-scan", "--p", "x1+x2", "--q", "x1^2-x1*x2+x2^2",
                "--max-m", "6", "--json", str(out), "--csv", str(table)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["window_onset"] == 3
    assert report["proof"] == {"p_run": [1, 1], "q_run": [3, 3]}
    assert "metadata" not in report
    assert report["flags"] == [False, False, False, True, True, True, True]
    with open(table) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["m"] for r in rows] == [str(m) for m in range(7)]
    assert rows[1]["all_positive"] == "False"
    assert rows[1]["min_coef"] == "1"  # x1^3 + x2^3: positive but sparse
    assert rows[3]["all_positive"] == "True"
    assert set(rows[0]) == {"m", "all_positive", "num_terms", "min_coef"}
    # the bytes the Fraction-multiply implementation wrote for this argv
    assert table.read_bytes() == (b"m,all_positive,num_terms,min_coef\r\n"
                                  b"0,False,3,-1\r\n1,False,2,1\r\n"
                                  b"2,False,4,1\r\n3,True,6,1\r\n"
                                  b"4,True,7,1\r\n5,True,8,1\r\n"
                                  b"6,True,9,1\r\n")


def test_polya_exit_codes(tmp_path):
    assert run(["polya", "--g", "x1^2-x1*x2+x2^2", "--max-n", "10",
                "--json", str(tmp_path / "a.json")]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["exponent"] == 3
    assert run(["polya", "--g=-x1", "--nvars", "2", "--max-n", "5",
                "--json", str(tmp_path / "b.json")]) == 3


def test_polya_negative_budget_is_one_error_line(capsys):
    assert run(["polya", "--g", "x1+x2", "--max-n", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_max must be at least 0\n"


@pytest.mark.parametrize("argv", [
    ["polya", "--g", "x1^2 - 2*x1*x2 + x2^2", "--max-n", "30000000"],
], ids=["polya"])
def test_polya_search_past_the_dense_cap_is_one_error_line(argv, capsys):
    # (x1 - x2)^2 never certifies, so the search doubles N until the
    # degree-(N + 2) basis passes the dense cap, at N = 2^21, and is
    # refused there instead of exhausting memory
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: polya search refused at N = 2097152: dense coefficient "
                            "count 2097155 exceeds cap 2000000\n")


def test_check_finds_the_zero_of_a_facet_at_a_vertex(tmp_path, capsys):
    # the third facet derivative is (x1 - x2)^2, which no Polya exponent
    # certifies; the subdivision meets its zero (1/2, 1/2, 0) as a vertex
    out = tmp_path / "r.json"
    assert run(["check", "(x1+x2+x3)^3 - 3*x3*(x1+x2)^2 + x3*(x1-x2)^2",
                "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    pos2 = json.loads(out.read_text())["reports"][1]
    assert pos2["verdict"] == "Fails"
    assert pos2["witness"] == {"facet": 3, "point": ["1/2", "1/2", "0"], "value": "0"}
    assert pos2["budget"] == {"boxes_processed": 8}


def test_pos2_stack_over_the_dense_cap_is_one_error_line(capsys):
    # 64 variables, each facet derivative of degree 2: 1001 boxes of 2016
    # Bernstein coefficients
    expr = " + ".join(f"x{i}^2*x{i % 64 + 1}" for i in range(1, 65))
    assert run(["check", expr, "--max-depth", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Pos2 refused: 1001 boxes of 2016 Bernstein coefficients "
                            "exceed the cap 2000000\n")


def test_check_of_a_wide_linear_form_holds(tmp_path):
    # every facet derivative is the constant 1, closed at its root box
    out = tmp_path / "r.json"
    assert run(["check", "+".join(f"x{i}" for i in range(1, 17)), "--json", str(out)]) == 0
    pos2 = json.loads(out.read_text())["reports"][1]
    assert pos2["certificate"] == {"polya_exponents": {str(k): 0 for k in range(1, 17)}}
    assert pos2["budget"] == {"boxes_processed": 16}


# ---------------------------------------------------------------------
# geometry / beta
# ---------------------------------------------------------------------

def test_geometry_reports_snf_factors(tmp_path):
    out = tmp_path / "geom.json"
    code = run(["geometry", "--f", "s1+s2+1", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["newton_affine_dim"] == 2
    assert report["snf_invariant_factors"] == [1, 1]
    assert report["difference_lattice_full"] is True


def test_geometry_jf_check(tmp_path):
    out = tmp_path / "geom.json"
    code = run(["geometry", "--f", "s1+1", "--point", "1",
                "--check", "jf", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["jf"]["matrix"] == [["1/4"]]
    assert report["jf"]["positive_definite"] is True


def test_geometry_point_needs_a_check_that_reads_it(tmp_path, capsys):
    assert run(["geometry", "--f", "s1+1", "--point", "1"]) == 1
    assert "--point is read only by --check jf" in capsys.readouterr().err
    out = tmp_path / "geom.json"
    assert run(["geometry", "--f", "s1+1", "--point", "1/2", "--check", "jf",
                "--json", str(out)]) == 0
    assert json.loads(out.read_text())["jf"]["point"] == ["1/2"]


def test_beta_verify_verified_and_refuted(tmp_path):
    good = tmp_path / "symm.json"
    good.write_text(json.dumps({"dim": 2, "nvars": 2,
                                "entries": [["x1", "x2"], ["x2", "x1"]]}))
    out = tmp_path / "beta.json"
    assert run(["beta", "verify", "--matrix", str(good), "--p", "x1+x2",
                "--json", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "Verified"

    bad = tmp_path / "cycle.json"
    bad.write_text(json.dumps({"dim": 2, "nvars": 2,
                               "entries": [["0", "x1"], ["x2", "0"]]}))
    assert run(["beta", "verify", "--matrix", str(bad), "--p", "x1",
                "--json", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["verdict"] == "Refuted"
    assert report["exact_charpoly_zero"] is False


def test_beta_rejects_negative_coefficients(tmp_path, capsys):
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps({"dim": 1, "nvars": 1, "entries": [["x1 - 1"]]}))
    assert run(["beta", "verify", "--matrix", str(bad), "--p", "x1"]) == 1


SYMM = {"dim": 2, "nvars": 2, "entries": [["x1", "x2"], ["x2", "x1"]]}


def nine_nodes(successor):
    return {"dim": 9, "nvars": 1, "entries": [
        ["x1" if j == successor(i) else "0" for j in range(9)] for i in range(9)]}


@pytest.mark.parametrize("matrix, argv, message", [
    # x1 - x2 is not the spectral radius; with no sample it read Verified
    (SYMM, ["--p", "x1 - x2", "--samples", "0"], "sample count must be at least 1, got 0"),
    (SYMM, ["--p", "x1 - x2", "--samples", "-3"], "sample count must be at least 1, got -3"),
    (SYMM, ["--p", "x1 - x2", "--samples", "10001"],
     "sample count must be at most 10000, got 10001"),
    (SYMM, ["--p", "x1 - x2", "--tol", "nan"], "tol must be finite and positive, got nan"),
    (SYMM, ["--p", "x1 - x2", "--tol", "-1"], "tol must be finite and positive, got -1.0"),
    # a path is neither irreducible nor aperiodic, but its dim is refused first
    (nine_nodes(lambda i: i + 1), ["--p", "x1"], "exact determinant refused for dim 9 > 8"),
    (nine_nodes(lambda i: (i + 1) % 9), ["--p", "x1"],
     "exact determinant refused for dim 9 > 8"),
], ids=["samples-0", "samples-negative", "samples-10001", "tol-nan", "tol-negative",
        "path-dim-9", "cycle-dim-9"])
def test_beta_verify_refuses_what_it_cannot_decide(tmp_path, capsys, matrix, argv, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    assert run(["beta", "verify", "--matrix", str(path), *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_beta_verify_default_samples_refute_a_wrong_p(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SYMM))
    assert run(["beta", "verify", "--matrix", str(path), "--p", "x1 - x2"]) == 2
    assert json.loads(capsys.readouterr().out)["note"] == "dominance mismatch at ['13/7', '2/5']"


# ---------------------------------------------------------------------
# sweep / examples
# ---------------------------------------------------------------------

def test_sweep_family(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    code = run(["sweep", "--k", "2", "--lambdas", "8,7,6",
                "--max-m", "40", "--pos3-mode", "falsify", "--csv", str(table)])
    assert code == 0
    with open(table) as fh:
        rows = {r["lambda"]: r for r in csv.DictReader(fh)}
    assert list(rows) == ["6", "7", "8"]  # sorted by lambda
    assert rows["8"]["pos3"] == "Fails"
    assert rows["8"]["window_onset"] == ""
    assert rows["7"]["pos1"] == "Holds"
    assert rows["7"]["pos2"] == "Holds"
    assert rows["7"]["window_onset"] != ""
    assert int(rows["7"]["window_onset"]) >= 1
    # boundary value 6 is recorded without any asserted verdict
    assert rows["6"]["pos1"] == "Holds"


def test_sweep_json_rows_say_whether_the_onset_is_proved(tmp_path):
    out = tmp_path / "sweep.json"
    table = tmp_path / "sweep.csv"
    assert run(["sweep", "--k", "2", "--lambdas", "8,7,15/2",
                "--max-m", "10", "--pos3-mode", "falsify", "--csv", str(table),
                "--json", str(out)]) == 0
    rows = {r["lambda"]: r for r in json.loads(out.read_text())["rows"]}
    # lam = 7 closes its run [4, 7]; 15/2 starts one at 8 that m_max 10
    # cannot close; 8 never turns positive
    assert (rows["7"]["window_onset"], rows["7"]["onset_proved"]) == (4, True)
    assert (rows["15/2"]["window_onset"], rows["15/2"]["onset_proved"]) == (8, False)
    assert (rows["8"]["window_onset"], rows["8"]["onset_proved"]) == (None, False)
    # the CSV keeps its columns
    assert table.read_text().splitlines()[0] == "lambda,pos1,pos2,pos3,window_onset"


def test_sweep_warns_outside_range(tmp_path, capsys):
    code = run(["sweep", "--k", "2", "--lambdas", "9",
                "--max-m", "4", "--pos3-mode", "falsify",
                "--csv", str(tmp_path / "s.csv")])
    assert code == 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--grid", "5000", "grid must be at most 4096"),
    ("--seed", "-1", "seed must be at least 0"),
    ("--max-depth", "1001", "max_depth must be at most 1000")])
def test_sweep_refuses_a_bad_budget_before_any_warning(flag, value, message, capsys):
    # lambda = 9 lies outside (0, 8], but the budget is refused first
    assert run(["sweep", "--k", "2", "--lambdas", "9", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_examples_single_entry(tmp_path):
    out = tmp_path / "ex.json"
    code = run(["examples", "eq1_5", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["mismatched"] == []
    (entry,) = report["results"]
    assert entry["observed"]["pos1"] == "Holds"
    assert entry["observed"]["pos2"] == "Holds"
    assert entry["observed"]["pos3"] == "Fails"


@pytest.mark.parametrize("name", ["eq1_3", "eq1_4"])
def test_examples_eq1_nonnegative_entries_hold_pos3(name, tmp_path):
    # no negative coefficient, and every pair face has gcd 1
    out = tmp_path / "ex.json"
    assert run(["examples", name, "--json", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["observed"]["pos3"] == "Holds" and entry["mismatches"] == []


def test_examples_unknown_name(capsys):
    assert run(["examples", "no_such_entry"]) == 1
    assert capsys.readouterr().err == "error: unknown corpus entry 'no_such_entry'\n"


def test_examples_polya_classic_onset(tmp_path):
    out = tmp_path / "ex.json"
    assert run(["examples", "polya_classic", "--json", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["window_onset"] == 3
    assert entry["onset_proved"] is True


# ---------------------------------------------------------------------
# budgets and config
# ---------------------------------------------------------------------

def test_config_file_overrides_profile(tmp_path):
    cfg = tmp_path / "budgets.ini"
    cfg.write_text("[budgets]\nmax_samples = 50\n")
    out = tmp_path / "r.json"
    run(["check", NO_PROBE_WITNESS_CUBIC, "--pos3-mode", "falsify",
         "--config", str(cfg), "--json", str(out)])
    report = json.loads(out.read_text())
    pos3 = report["reports"][2]
    assert pos3["budget"]["samples"] == 50


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "budgets.ini"
    cfg.write_text("[budgets]\nmax_samples = 50\n")
    out = tmp_path / "r.json"
    run(["check", NO_PROBE_WITNESS_CUBIC, "--pos3-mode", "falsify",
         "--config", str(cfg), "--max-samples", "70", "--json", str(out)])
    report = json.loads(out.read_text())
    assert report["reports"][2]["budget"]["samples"] == 70


# For each budget key, a check whose report the key changes: (the check's
# argv, a value other than the default, the report, the entry of it that
# changes, and that entry at the default and at the value)
BUDGET_EFFECTS = {
    "grid": ([NO_PROBE_WITNESS_CUBIC], "16", "Pos3", "quarter_turn_points", (186, 90)),
    "max_depth": (["(x1+x2)^4 - 7*x1^2*x2^2"], "0", "Pos3", "boxes_processed", (3, 1)),
    "max_samples": ([NO_PROBE_WITNESS_CUBIC, "--pos3-mode", "falsify"], "70", "Pos3",
                    "samples", (20000, 70)),
}


@pytest.mark.parametrize("key", sorted(_BUDGET_FIELDS))
def test_every_budget_key_changes_a_report(key, tmp_path):
    argv, value, condition, entry, want = BUDGET_EFFECTS[key]
    seen = []
    for flags in ([], [f"--{key.replace('_', '-')}", value]):
        out = tmp_path / "r.json"
        run(["check", *argv, *flags, "--json", str(out)])
        (report,) = [r for r in json.loads(out.read_text())["reports"]
                     if r["condition"] == condition]
        seen.append(report[entry] if entry == "verdict" else report["budget"][entry])
    assert tuple(seen) == want


@pytest.mark.parametrize("line", ["delta = 1e-3", "max_sample = 50", "tolerance = 1e-12",
                                  "polya_budget = 50", "sample_grid = 8"])
def test_unknown_config_key_errors(line, capsys, tmp_path):
    # a removed key or a typo is an error, not a silent no-op
    cfg = tmp_path / "budgets.ini"
    cfg.write_text(f"[budgets]\nmax_samples = 50\n{line}\n")
    assert run(["check", "x1+x2", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "unknown [budgets] key" in err and line.split()[0] in err


def test_missing_config_errors(capsys, tmp_path):
    assert run(["check", "x1+x2", "--config", str(tmp_path / "nope.ini")]) == 1


@pytest.mark.parametrize("flag, value", [("--max-samples", "-5"), ("--grid", "-3"),
                                         ("--grid", "0"), ("--max-depth", "-1"),
                                         ("--seed", "-1"),
                                         ("--grid", "4097"), ("--max-samples", "1000001"),
                                         ("--max-depth", "1001")])
@pytest.mark.parametrize("mode", ["certify", "falsify"])
def test_invalid_budget_value_is_one_error_line(flag, value, mode, capsys):
    assert run(["check", "(x1+x2)^4 - 7*x1^2*x2^2", "--pos3-mode", mode,
                flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag[2:].replace("-", "_") in captured.err


def test_invalid_config_value_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "budgets.ini"
    cfg.write_text("[budgets]\ngrid = 0\n")
    assert run(["examples", "linear2", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: grid must be at least 1\n"


def test_budget_profiles_accepted(tmp_path):
    code = run(["check", NO_PROBE_WITNESS_CUBIC, "--budget-profile", "fast",
                "--pos3-mode", "falsify", "--json", str(tmp_path / "r.json")])
    assert code == 3  # no stage decides Pos3 for this p
