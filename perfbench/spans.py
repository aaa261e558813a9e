"""Spans around calls into the diffsets layers, recorded from outside.

`Tracer.install` replaces each traced function with a timing wrapper in
every `diffsets` module namespace that binds it, so calls made through a
`from .core_sets import _pair_counts` alias are caught as well as direct
ones.  Nothing under `src/` is edited.  Spans stay in memory until the run
ends; a span's self time is its duration minus the time its direct children
cover (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time


def _pairs(args, kwargs) -> int:
    return len(args[0]) ** 2


def _group_pairs(args, kwargs) -> int:
    return args[0].size ** 2


def _trials(args, kwargs) -> int:
    return int(kwargs["trials"] if "trials" in kwargs else args[1])


# (defining module, function, span name, extra).  The span name is the
# per-layer metric its self time is charged to; `extra` records a count from
# the arguments: ordered pairs (k^2) for kernels, trials for Monte Carlo.
TRACED = (
    ("core_sets", "_pair_counts", "core_sets.count", _pairs),
    ("core_sets", "_group_counts", "core_sets.count", _group_pairs),
    ("core_sets", "verify_certificate", "core_sets.verify", None),
    ("solver", "eta_exact", "solver.search", None),
    ("solver", "gamma_exact", "solver.search", None),
    ("solver", "beta_exact", "solver.search", None),
    ("solver", "alpha_exact", "solver.search", None),
    ("bridge", "autocorrelation_min", "bridge.autocorr_min", None),
    ("bridge", "local_averages", "bridge.averages", None),
    ("bridge", "averages_to_probs", "bridge.probs", None),
    ("bridge", "set_to_step", "bridge.set_to_step", None),
    ("constructions", "monte_carlo_validate", "constructions.mc", _trials),
    ("constructions", "random_group_subset", "constructions.sample", None),
    ("constructions", "sequence_random_set", "constructions.sample", None),
    ("constructions", "best_shift_union", "constructions.build", None),
    ("constructions", "lift_to_cyclic", "constructions.build", None),
    ("constructions", "cyclic_pipeline", "constructions.build", None),
    ("constructions", "blow_up", "constructions.build", None),
    ("cli", "dispatch", "cli.dispatch", None),
)

MODULES = ("core_sets", "solver", "bridge", "constructions", "cli")


class Tracer:
    """Records [name, start, end, parent, op, extra] spans while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        mods = {name: sys.modules[f"diffsets.{name}"] for name in MODULES}
        for home, fname, span, extra in TRACED:
            original = getattr(mods[home], fname)
            wrapper = self._wrap(original, span, extra)
            for mod in mods.values():
                if getattr(mod, fname, None) is original:
                    self._patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def _wrap(self, fn, span: str, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            if extra is not None:
                rec[5] = extra(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with `spans`."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op", "extra"],
            "spans": self.spans,
        }
