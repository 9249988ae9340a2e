"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each public function named in `TARGETS` with a
wrapper that records one span per call: name, start, end, parent span
and invocation id.  A module that imported a function by name holds its
own binding, so the wrapper replaces every binding of the same object in
every powerpos module; `Polynomial.__mul__` is patched on the class.
Spans stay in flat arrays in memory (a certify pass records about half
a million) and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: Layer (powerpos module) -> public functions wrapped in it.
TARGETS = {
    "cli": ["main", "run_check"],
    "poly": ["parse", "serialize", "eval_rational", "eval_complex_exact",
             "dehomogenize", "Polynomial.__mul__"],
    "intervals": ["from_fraction"],
    "conditions": ["check_pos1", "check_pos2", "check_pos3", "facet_derivative"],
    "eventual": ["power_scan", "polya_exponent", "all_coeffs_positive"],
    "geometry": ["jf_matrix", "is_positive_definite"],
}


def _term_pairs(a, b) -> int:
    return len(a.terms) * len(b.terms)


#: Span name -> function of the call's arguments giving the span's weight.
WEIGHTS = {"poly.Polynomial.__mul__": _term_pairs}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.invocation = array("i")
        self.weight = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_invocation = -1
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for arr in (self.name_of, self.parent, self.invocation, self.weight,
                    self.start, self.end):
            del arr[:]
        self.stack.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, invocation = self.name_of, self.parent, self.invocation
        weight, start, end, stack = self.weight, self.start, self.end, self.stack
        weigh = WEIGHTS.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            invocation.append(tracer.current_invocation)
            weight.append(weigh(*args) if weigh else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
        return wrapper

    def install(self) -> None:
        self.names.clear()
        modules = [m for k, m in sys.modules.items()
                   if k == "powerpos" or k.startswith("powerpos.")]
        for layer, functions in TARGETS.items():
            module = importlib.import_module(f"powerpos.{layer}")
            for qualname in functions:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                orig = vars(owner).get(attr)
                if orig is None:     # renamed or removed: its metrics read 0
                    continue
                wrapper = self._wrap(f"{layer}.{qualname}", orig)
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name_of, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "invocation": np.frombuffer(self.invocation, dtype=np.int32),
                "weight": np.frombuffer(self.weight, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_metrics(tracer: Tracer, modes: list) -> dict[str, float]:
    """Per-layer times and counts of one traced pass.

    `modes[i]` is the Pos3 mode of invocation i, which splits check_pos3
    spans into certify and falsify time.
    """
    a = tracer.arrays()
    names = np.array(tracer.names + [""])     # "" names the missing parent
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                           minlength=len(dur))
    self_time = dur - children
    span_name = names[a["name"]]
    parent_name = names[np.where(has_parent, a["name"][a["parent"]], -1)]

    def pick(name):
        return span_name == name

    def total(name):
        return float(dur[pick(name)].sum())

    def count(name):
        return int(pick(name).sum())

    out = {}
    for layer in TARGETS:
        out[f"{layer}.self_s"] = float(self_time[np.char.startswith(span_name, layer + ".")].sum())
    pos3 = pick("conditions.check_pos3")
    mode = np.array(modes, dtype=object)[a["invocation"]]
    check = "eventual.all_coeffs_positive"
    scan_steps = int((pick(check) & (parent_name == "eventual.power_scan")).sum())
    scan_s = total("eventual.power_scan")
    mul = pick("poly.Polynomial.__mul__")
    out.update({
        "conditions.certify_s": float(dur[pos3 & (mode == "certify")].sum()),
        "conditions.falsify_s": float(dur[pos3 & (mode == "falsify")].sum()),
        "conditions.pos2_s": total("conditions.check_pos2"),
        "intervals.from_fraction_calls": count("intervals.from_fraction"),
        "geometry.jf_calls": count("geometry.jf_matrix"),
        "geometry.jf_s": total("geometry.jf_matrix") + total("geometry.is_positive_definite"),
        "poly.mul_calls": int(mul.sum()),
        "poly.mul_term_pairs": int(a["weight"][mul].sum()),
        "poly.mul_s": float(dur[mul].sum()),
        "poly.eval_rational_calls": count("poly.eval_rational"),
        "poly.eval_rational_s": total("poly.eval_rational"),
        "poly.parse_s": total("poly.parse"),
        "eventual.scan_steps": scan_steps,
        "eventual.scan_step_ms": 1000 * scan_s / scan_steps if scan_steps else 0.0,
        "eventual.positivity_check_s": total(check),
        "eventual.polya_steps": int((pick(check) & (parent_name == "eventual.polya_exponent")).sum()),
        "eventual.polya_s": total("eventual.polya_exponent"),
    })
    return out
