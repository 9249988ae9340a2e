"""The powerpos benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {certify,scan,falsify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from
`src/powerpos` there and drives the public CLI in-process,
`powerpos.cli.main(argv + ["--json", path])`, one process and no threads.

A pass runs every invocation the workload generated from the seed, each
under a time cap, and checks every answer against the oracles in
`oracles.py`.  Passes repeat until `--seconds` is used up (at least two)
and `wall_s` is the median pass time, taken with tracing off.
`setup_s` is the median time a fresh interpreter takes to import
`powerpos.cli` and `scipy.optimize`; the timed process imports both
before its clock starts.

With `--trace 1` the run alternates untraced and traced passes (see
`spans.py`), at least one of each, and reports per-layer metrics: the
medians over the traced passes, and the tracing overhead, the median of
traced minus untraced pass time.  The spans of the last traced pass are
written to `.bench-out/spans-<workload>.npz`.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it records the seed, the exact generated argv and the
raw per-pass figures, so any run can be replayed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles
from spans import Tracer, span_metrics
from workloads import WORK_DIR, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OUT_DIR = ".bench-out"
MIN_PASSES = 2
#: An invocation slower than this counts as failed and the run goes on.
INVOCATION_CAP_S = 60.0
#: No invocation starts after this many seconds, so the run ends well
#: within three minutes even when every invocation hits its cap.
RUN_LIMIT_S = 140.0
SETUP_SAMPLES = 3

_IMPORT_TIMER = ("import time; t = time.perf_counter(); "
                 "import powerpos.cli, scipy.optimize; "
                 "print(time.perf_counter() - t)")


class InvocationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InvocationTimeout()


def measure_setup() -> list[float]:
    """Import time of powerpos.cli plus scipy.optimize in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs passes over one workload's cases and checks every answer."""

    def __init__(self, cli, cases: list[dict], deadline: float):
        self.cli = cli
        self.cases = cases
        self.deadline = deadline
        self.json_path = os.path.join(WORK_DIR, "report.json")
        self.tables = {i: oracles.scan_table(c["expr"], c["q"], c["nvars"], c["m_max"])
                       for i, c in enumerate(cases) if c["kind"] == "scan"}
        self._verdicts: dict = {}
        self.attempted = self.failed = self.decided = 0
        self.problems: list[str] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def _invoke(self, case: dict):
        """(exit code or None, report or None, seconds, error text)."""
        for path in (self.json_path, case.get("csv")):
            if path and os.path.exists(path):
                os.remove(path)
        cap = min(INVOCATION_CAP_S, self.deadline - time.monotonic())
        if cap <= 0:
            return None, None, 0.0, "not started: run time limit reached"
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = self.cli.main(case["argv"] + ["--json", self.json_path])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except InvocationTimeout:
            return None, None, time.perf_counter() - t0, f"time cap {cap:.0f} s exceeded"
        except SystemExit as exc:
            return None, None, time.perf_counter() - t0, f"exit {exc.code}: {sink.getvalue()}"
        except Exception as exc:
            return None, None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if code == 1 or not os.path.exists(self.json_path):
            return code, None, seconds, f"exit {code}: {sink.getvalue().strip()}"
        with open(self.json_path) as fh:
            try:
                return code, json.load(fh), seconds, ""
            except ValueError as exc:
                return code, None, seconds, f"unreadable report: {exc}"

    def _check(self, i: int, code: int, report: dict) -> list[str]:
        case = self.cases[i]
        csv_text = None
        if case.get("csv") and os.path.exists(case["csv"]):
            with open(case["csv"], newline="") as fh:
                csv_text = fh.read()
        key = (i, code, json.dumps(report, sort_keys=True), csv_text)
        if key not in self._verdicts:
            try:
                if case["kind"] == "check":
                    found = oracles.check_check(case, code, report)
                elif case["kind"] == "scan":
                    found = oracles.check_scan(case, code, report, self.tables[i], csv_text)
                else:
                    found = oracles.check_polya(case, code, report)
            except Exception as exc:  # an answer the oracle cannot read is not an answer
                found = [f"unreadable answer: {type(exc).__name__}: {exc}"]
            self._verdicts[key] = found
        return self._verdicts[key]

    def run_pass(self, tracer: Tracer | None = None) -> tuple[float, dict]:
        """One pass: its wall time (invocations only) and its report counts."""
        gc.collect()
        wall = 0.0
        counts: dict[str, int] = {}
        for i, case in enumerate(self.cases):
            if tracer is not None:
                tracer.current_invocation = i
                tracer.stack.clear()
            code, report, seconds, error = self._invoke(case)
            wall += seconds
            self.attempted += 1
            found = [error] if error else self._check(i, code, report)
            if found:
                self.failed += 1
                self.problems += [f"{case['argv']}: {p}" for p in found]
            elif code in (0, 2):
                self.decided += 1
            if report is not None:
                for key, val in report_counts(case, report).items():
                    counts[key] = counts.get(key, 0) + val
        return wall, counts


def repeat(seconds: float, deadline: float, min_runs: int, step) -> list[float]:
    """Call `step` (it returns its duration) until the next call would end
    after `seconds`, at least `min_runs` times, never past `deadline`."""
    start = time.monotonic()
    walls: list[float] = []
    while True:
        walls.append(step())
        now = time.monotonic()
        typical = statistics.median(walls)
        if now + typical > deadline:
            break
        if len(walls) >= min_runs and now - start + typical > seconds:
            break
    return walls


COUNT_KEYS = ("certify_boxes", "certify_closed", "certify_unresolved",
              "falsify_samples", "falsify_candidates", "falsify_refined",
              "pos2_samples", "scan_steps")


def report_counts(case: dict, report: dict) -> dict[str, int]:
    """Counts read from one report's budget dicts; absent keys count 0."""
    if case["kind"] == "scan":
        return {"scan_steps": len(report.get("flags", []))}
    if case["kind"] != "check":
        return {}
    budgets = {r["condition"]: r.get("budget") or {} for r in report["reports"]}
    pos3 = budgets.get("Pos3", {})
    out = {"pos2_samples": budgets.get("Pos2", {}).get("samples", 0)}
    if case["pos3_mode"] == "certify":
        out.update(certify_boxes=pos3.get("boxes_processed", 0),
                   certify_closed=pos3.get("boxes_closed", 0),
                   certify_unresolved=pos3.get("unresolved_boxes", 0))
    else:
        out.update(falsify_samples=pos3.get("samples", 0),
                   falsify_candidates=pos3.get("candidates", 0),
                   falsify_refined=pos3.get("refined", 0))
    return out


def _median_dict(rows: list[dict]) -> dict:
    return {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}


def traced_metrics(runner: Runner, cases: list[dict], seconds: float,
                   workload: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer medians over the traced ones."""
    tracer = Tracer()
    modes = [c.get("pos3_mode") for c in cases]
    plain: list[float] = []
    traced: list[float] = []
    rows: list[dict] = []

    def pair() -> float:
        plain.append(runner.run_pass()[0])
        tracer.reset()
        tracer.install()
        try:
            wall, counts = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        rows.append({**span_metrics(tracer, modes), **counts})
        return plain[-1] + wall

    repeat(seconds, runner.deadline, 1, pair)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{workload}.npz"))
    m = _median_dict(rows)
    c = {k: m.get(k, 0) for k in COUNT_KEYS}
    certify_s, falsify_s = m["conditions.certify_s"], m["conditions.falsify_s"]
    metrics = {k: v for k, v in m.items() if "." in k}
    metrics.update({
        "conditions.certify_boxes": c["certify_boxes"],
        "conditions.certify_boxes_per_s": c["certify_boxes"] / certify_s if certify_s else 0.0,
        "conditions.certify_closed_frac": (c["certify_closed"] / c["certify_boxes"]
                                           if c["certify_boxes"] else 0.0),
        "conditions.certify_unresolved": c["certify_unresolved"],
        "conditions.falsify_samples": c["falsify_samples"],
        "conditions.falsify_samples_per_s": c["falsify_samples"] / falsify_s if falsify_s else 0.0,
        "conditions.falsify_candidates": c["falsify_candidates"],
        "conditions.falsify_refined": c["falsify_refined"],
        "conditions.pos2_samples": c["pos2_samples"],
        "trace.overhead_s": statistics.median(t - p for t, p in zip(traced, plain)),
    })
    details = {"untraced_pass_s": plain, "traced_pass_s": traced, "report_counts": c}
    return metrics, details


#: Metric-name suffix -> unit, first match wins; any other metric is a count.
UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_frac", "ratio"), ("_mb", "MiB"), ("_s", "s"))


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "powerpos" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'powerpos'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_LIMIT_S
    import powerpos.cli as cli
    import scipy.optimize  # noqa: F401  (imported lazily by falsify; keep it out of wall_s)
    if Path(cli.__file__).resolve().parent != SRC / "powerpos":
        print(f"bench: imported powerpos from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup()

    cases = generate(args.workload, args.seed)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        runner = Runner(cli, cases, deadline)
        if args.trace:
            metrics, details = traced_metrics(runner, cases, args.seconds, args.workload)
        else:
            walls = repeat(args.seconds, deadline, MIN_PASSES, lambda: runner.run_pass()[0])
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "decided_frac": runner.decided / runner.attempted,
                "ok_frac": 1 - runner.failed / runner.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            details = {"pass_s": walls, "samples": {"wall_s": len(walls), "setup_s": len(setup)}}
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "invocations": [c["argv"] for c in cases],
        "setup_samples_s": setup, **details,
        "failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems[:20],
    }))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
