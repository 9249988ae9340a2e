"""Tests of the benchmark itself: its oracles catch planted wrong answers,
its time cap holds, and tracing changes no verdict and no count.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest

import oracles
import run
import workloads
from spans import Tracer, span_metrics

run.sys.path.insert(0, str(run.SRC))
import powerpos.cli as real_cli  # noqa: E402


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.makedirs(workloads.WORK_DIR)


class TamperedCli:
    """Runs the real CLI, then rewrites its JSON report with `tamper`."""

    def __init__(self, tamper):
        self.tamper = tamper

    def main(self, argv):
        code = real_cli.main(argv)
        path = argv[argv.index("--json") + 1]
        with open(path) as fh:
            report = json.load(fh)
        code = self.tamper(report, code)
        with open(path, "w") as fh:
            json.dump(report, fh)
        return code


def _failed_frac(cli, cases) -> float:
    runner = run.Runner(cli, cases, deadline=run.time.monotonic() + 120)
    runner.run_pass()
    return runner.failed / runner.attempted


def _pos3(report):
    return next(r for r in report["reports"] if r["condition"] == "Pos3")


SCAN = workloads._scan(workloads._dv(2, Fraction(31, 4)), 2, 30)
SCAN_CSV = workloads._scan(workloads._dv(2, Fraction(15, 2)), 2, 20, csv_name="scan.csv")
EQUALITY = workloads._check(workloads._dv(2, Fraction(8)), 2, "certify",
                            oracles.dv_pos3_truth(2, Fraction(8)))
WITNESS = workloads._check(workloads._lift(Fraction(9)), 3, "falsify", "Fails")
POLYA = workloads._polya("x1^2 - 19/10*x1*x2 + x2^2", 2, 100)


def test_clean_answers_pass():
    assert _failed_frac(real_cli, [SCAN, SCAN_CSV, EQUALITY, WITNESS, POLYA]) == 0


def test_flipped_scan_flag_fails():
    def flip(report, code):
        report["flags"][-1] = not report["flags"][-1]
        return code
    assert _failed_frac(TamperedCli(flip), [SCAN]) == 1


def test_wrong_csv_row_fails():
    def drop_last_row(report, code):
        with open(SCAN_CSV["csv"]) as fh:
            rows = fh.readlines()
        with open(SCAN_CSV["csv"], "w") as fh:
            fh.writelines(rows[:-1])
        return code
    assert _failed_frac(TamperedCli(drop_last_row), [SCAN_CSV]) == 1


def test_holds_at_threshold_fails():
    def claim_holds(report, code):
        for r in report["reports"]:
            r["verdict"] = "Holds"
        return 0
    assert EQUALITY["truth"]["pos3"] == "Fails"
    assert _failed_frac(TamperedCli(claim_holds), [EQUALITY]) == 1


def test_forged_witness_fails():
    seen = []

    def forge(report, code):
        pos3 = _pos3(report)
        seen.append(pos3["verdict"])
        pos3["witness"]["z"] = [["1", "0"], ["0", "1"], ["0", "0"]]
        return code
    assert _failed_frac(TamperedCli(forge), [WITNESS]) == 1
    assert seen == ["Fails"]


def test_wrong_polya_exponent_fails():
    def bump(report, code):
        report["exponent"] += 1
        return code
    assert _failed_frac(TamperedCli(bump), [POLYA]) == 1


def test_time_cap_counts_as_failed_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(run, "INVOCATION_CAP_S", 0.3)
    runner = run.Runner(real_cli, [EQUALITY, POLYA], deadline=run.time.monotonic() + 120)
    runner.run_pass()
    assert runner.failed == 1 and runner.attempted == 2
    assert "time cap" in runner.problems[0]


def test_dv_truth_and_witness_oracle():
    assert oracles.dv_pos3_truth(3, Fraction(63, 2)) == "Holds"
    assert oracles.dv_pos3_truth(3, Fraction(32)) == "Fails"
    p = oracles.parse(workloads._dv(2, Fraction(8)), 2)
    assert oracles.check_pos3_witness(p, {"z": [["1", "0"], ["-1", "0"]]}) == []
    assert oracles.check_pos3_witness(p, {"z": [["1", "0"], ["1", "0"]]}) != []
    q = oracles.parse(workloads._dv(2, Fraction(9)), 2)
    polar = {"r": ["np.float64(0.5)", "0.5"], "theta": ["0.0", repr(3.141592653589793)]}
    assert oracles.check_pos3_witness(q, polar) == []
    assert oracles.check_pos3_witness(q, {**polar, "theta": ["0.0", "0.0"]}) != []


def test_generator_is_seeded_and_stratified():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 7), workloads.generate(name, 8)
        assert a == workloads.generate(name, 7)
        assert [c.get("truth") for c in a] == [c.get("truth") for c in b]


def test_tracing_changes_no_verdict_and_no_count():
    cases = [SCAN, EQUALITY, WITNESS, POLYA]
    modes = [c.get("pos3_mode") for c in cases]
    runner = run.Runner(real_cli, cases, deadline=run.time.monotonic() + 120)
    verdicts = []
    original = real_cli.main

    def record(argv):
        code = real_cli.main(argv)
        with open(argv[argv.index("--json") + 1]) as fh:
            report = json.load(fh)
        verdicts.append((code, [r["verdict"] for r in report.get("reports", [])]))
        return code

    runner.cli = type("Recording", (), {"main": staticmethod(record)})
    _, plain_counts = runner.run_pass()
    tracer = Tracer()
    traced_counts, layer_counts = [], []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            traced_counts.append(runner.run_pass(tracer)[1])
        finally:
            tracer.uninstall()
        layer_counts.append({k: v for k, v in span_metrics(tracer, modes).items()
                             if isinstance(v, int)})
    assert real_cli.main is original and runner.failed == 0
    n = len(cases)
    assert verdicts[:n] == verdicts[n:2 * n] == verdicts[2 * n:]
    assert plain_counts == traced_counts[0] == traced_counts[1]
    assert plain_counts["certify_boxes"] > 0 and plain_counts["falsify_samples"] > 0
    assert plain_counts["scan_steps"] == 31
    assert layer_counts[0] == layer_counts[1]
    for key in ("poly.mul_term_pairs", "intervals.from_fraction_calls",
                "eventual.scan_steps", "eventual.polya_steps"):
        assert layer_counts[0][key] > 0
    assert layer_counts[0]["eventual.scan_steps"] == plain_counts["scan_steps"]
