"""Per-layer tracing of `qss`, installed from outside the package.

Each traced function is replaced by a wrapper at every binding site: the
defining module and every `qss` module that imported it by name (`protocol`
and `adversary` import the `qudit` gates, `cli` imports `run_shot_series`
and `instance_from_deal`). A wrapper records a span on a stack; a span's self
time is its duration minus the durations of the spans it directly encloses.

Spans are aggregated per function as they close, because one cycle of the
small-d workload makes about a hundred thousand gate calls; only the
top-level `cli.main` spans are kept one by one.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# layer -> traced functions; a dotted name is a method.
TARGETS = {
    "field": ("eval_poly", "lagrange_coeff", "shadow", "is_prime"),
    "dealer": ("deal", "hash_to_field"),
    "qudit": ("basis_state", "apply_qft", "apply_iqft", "apply_copy",
              "apply_shadow_phase", "measure"),
    "protocol": ("ProtocolInstance.run", "instance_from_deal", "instance_from_players"),
    "adversary": ("run_attack", "run_shot_series", "uniformity_pvalue", "tv_distance",
                  "series_digest"),
    "cli": ("main",),
}
# Functions that also report the summed length of the state they act on
# (basis_state: the state it builds).
AMPS = {"qudit." + name for name in TARGETS["qudit"]}
# Functions that also report their inclusive time.
TOTALS = {"protocol.ProtocolInstance.run", "adversary.run_attack"}
VERDICTS = ("accepted", "abort_ancilla", "abort_hash")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    amps: int = 0


class Tracer:
    def __init__(self) -> None:
        self.stats = {
            f"{layer}.{name}": Stat() for layer, names in TARGETS.items() for name in names
        }
        self.verdicts: Counter = Counter()
        self.transcripts: set = set()
        self.main_spans: list = []
        self._stack: list = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        # basis_state reports the state it builds, the gates the state they take.
        amps_of_result = name == "qudit.basis_state"
        amps = name in AMPS
        on_run = self._on_run if name == "protocol.ProtocolInstance.run" else None
        on_main = name == "cli.main"

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by directly enclosed spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                if stack:
                    stack[-1][0] += span
                stat.calls += 1
                stat.total_s += span
                stat.self_s += span - frame[0]
                if on_main:
                    self.main_spans.append((start, end))
            if amps:
                state = result if amps_of_result else args[0]
                stat.amps += len(state.amplitudes)
            if on_run is not None:
                on_run(result)
            return result

        return wrapper

    def _on_run(self, tr) -> None:
        self.verdicts[tr.verdict] += 1
        events = tuple((p, h, tuple(sorted(obs.items()))) for p, h, obs in tr.hook_events)
        self.transcripts.add((tr.d, tr.xs, tr.shadows_secret, tr.shadows_hash, tr.verdict,
                              tr.f0, tr.g0, tr.ancilla, events))

    @contextmanager
    def installed(self):
        """Install every wrapper at every binding site; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qss" or key.startswith("qss.")]
        undo = []
        try:
            for layer, names in TARGETS.items():
                home = sys.modules[f"qss.{layer}"]
                for name in names:
                    if "." in name:
                        cls_name, attr = name.split(".")
                        cls = getattr(home, cls_name)
                        orig = cls.__dict__[attr]
                        undo.append((cls, attr, orig))
                        setattr(cls, attr, self._wrap(f"{layer}.{name}", orig))
                        continue
                    orig = getattr(home, name)
                    wrapper = self._wrap(f"{layer}.{name}", orig)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is orig:
                                undo.append((module, attr, orig))
                                setattr(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_s, "s")
            if name in AMPS:
                out[f"{name}.amps"] = (stat.amps, "count")
            if name in TOTALS:
                out[f"{name}.total_s"] = (stat.total_s, "s")
        for verdict in VERDICTS:
            out[f"protocol.verdict.{verdict}"] = (self.verdicts[verdict], "count")
        runs = self.stats["protocol.ProtocolInstance.run"].calls
        out["protocol.run.distinct"] = (len(self.transcripts), "count")
        out["protocol.run.distinct_frac"] = (len(self.transcripts) / runs if runs else 0.0, "ratio")
        return out
