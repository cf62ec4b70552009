"""Per-layer tracing of the mvstoch modules, installed from outside the package.

`install` replaces every public function named in TARGETS, wherever an
mvstoch module has bound it, with a wrapper that records one span per call.
Nothing under ``src/`` changes; the wrappers only observe.  Two passes use it:

* ``time``: call count, self and total seconds per function.  Self time is a
  span's duration minus the time covered by traced spans it caused.
* ``mem``: tracemalloc peak per function, taken apart from the timing pass
  because tracemalloc slows Python-heavy code (``is_measurable`` runs about
  3x slower under it).

Both passes also keep counts computed from call arguments (COUNTERS).  They
are derived from array shapes, not measured, and are labelled "computed".
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

MB = float(1 << 20)

TARGETS = {
    "drivers": ["simulate_driver", "ScenarioSet.is_measurable"],
    "integrands": ["approximate_elementary", "project_to_net", "integrand_seminorm",
                   "continuity_constant", "rectangle_refine", "integrability_check"],
    "mvintegral": ["mv_integral", "convergence_transfer_check", "maximal_seminorm"],
    "volterra": ["decompose", "volterra_direct", "induced_phi", "density_construction",
                 "power_volterra_terminals", "power_volterra_paths",
                 "semimartingale_diagnostic"],
    "dominated": ["condition_evaluator", "measure_valuedness_certificate",
                  "DominatedSpec.from_power_profile", "make_dominated"],
}

LAYER_KEYS = [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


def _charge(counts, a):
    # dense (P, N + 1, J + 1) float64 charge buffer that mv_integral allocates
    S, phi = a["S"], a["phi"]
    P, N = S.scenarios.n_scenarios, S.timegrid.n_steps
    counts["mvintegral.charge_mb"] += 8 * P * (N + 1) * phi.grid.n_atoms / MB


def _normals(counts, a):
    n = a["n_scenarios"] * a["timegrid"].n_steps
    counts["volterra.normals_drawn"] += n
    key = (a["seed"], a["n_scenarios"], a["timegrid"].n_steps)
    counts.draws.setdefault(key, n)


def _cells(counts, a):
    spec, S = a["spec"], a["S"]
    rows = max(spec.n_scenario_rows, S.scenarios.n_scenarios)
    counts["dominated.condition_evaluator.cells"] += (
        rows * (spec.timegrid.n_steps + 1) * spec.grid.n_atoms)


def _spec_rows(counts, a):
    tg = a["timegrid"]
    counts["dominated.from_power_profile.rows"] += tg.n_steps + 1
    counts.specs.append((float(a["alpha"]), tg.horizon, tg.n_steps, int(a["n_cells"])))


def _atoms(counts, a):
    counts["drivers.is_measurable.atoms_scanned"] += a["self"].branching ** int(a["level"])


def _distances(counts, a):
    w = a["phi"].weights
    counts["integrands.project_to_net.distances"] += w.shape[0] * w.shape[1] * len(a["net"])


COUNTERS = {
    "mvintegral.mv_integral": _charge,
    "volterra.power_volterra_terminals": _normals,
    "volterra.power_volterra_paths": _normals,
    "dominated.condition_evaluator": _cells,
    "dominated.DominatedSpec.from_power_profile": _spec_rows,
    "drivers.ScenarioSet.is_measurable": _atoms,
    "integrands.project_to_net": _distances,
}

COMPUTED_UNITS = {
    "mvintegral.charge_mb": "MB",
    "volterra.normals_drawn": "count",
    "volterra.unique_draw_ratio": "ratio",
    "dominated.condition_evaluator.cells": "count",
    "dominated.from_power_profile.rows": "count",
    "dominated.spec_unique_ratio": "ratio",
    "drivers.is_measurable.atoms_scanned": "count",
    "integrands.project_to_net.distances": "count",
}


class Counts(dict):
    """Computed counts, plus the keys that make the two unique-work ratios."""

    def __init__(self):
        super().__init__({k: 0 for k in COMPUTED_UNITS if not k.endswith("_ratio")})
        self.draws = {}   # (seed, P, N) -> normals in one draw of that stream
        self.specs = []   # (alpha, T, N, n_cells) of every power-profile spec built

    def report(self) -> dict:
        out = dict(self)
        drawn = out["volterra.normals_drawn"]
        # a ratio of 1 means no work was repeated, including when none was done
        out["volterra.unique_draw_ratio"] = sum(self.draws.values()) / drawn if drawn else 1.0
        out["dominated.spec_unique_ratio"] = (
            len(set(self.specs)) / len(self.specs) if self.specs else 1.0)
        return out


class Tracer:
    """Span stack over the wrapped functions; one instance per process."""

    def __init__(self, mode: str):
        if mode not in ("time", "mem"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.stats = {k: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak_bytes": 0}
                      for k in LAYER_KEYS}
        self.counts = Counts()
        self.stack = []  # [key, start, child_s, base_bytes, max_bytes]

    def wrap(self, key: str, fn):
        counter = COUNTERS.get(key)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments)
            frame = self._enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def _enter(self, key):
        base = peak = 0
        if self.mode == "mem":
            base, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][4] = max(self.stack[-1][4], peak)
            tracemalloc.reset_peak()
        frame = [key, 0.0, 0.0, base, base]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        duration = time.perf_counter() - frame[1]
        key = frame[0]
        self.stack.pop()
        st = self.stats[key]
        st["calls"] += 1
        st["self_s"] += duration - frame[2]
        if all(f[0] != key for f in self.stack):  # count recursion once
            st["total_s"] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if self.mode == "mem":
            peak = max(frame[4], tracemalloc.get_traced_memory()[1])
            st["peak_bytes"] = max(st["peak_bytes"], peak - frame[3])
            if self.stack:
                self.stack[-1][4] = max(self.stack[-1][4], peak)
            tracemalloc.reset_peak()

    def report(self) -> dict:
        return {"mode": self.mode, "functions": self.stats, "computed": self.counts.report()}


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded mvstoch module that binds it."""
    modules = [m for n, m in list(sys.modules.items())
               if (n == "mvstoch" or n.startswith("mvstoch.")) and m is not None]
    for module, names in TARGETS.items():
        mod = sys.modules[f"mvstoch.{module}"]
        for name in names:
            key = f"{module}.{name}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(key, raw.__func__)))
                else:
                    setattr(cls, attr, tracer.wrap(key, raw))
                continue
            original = getattr(mod, name)
            wrapped = tracer.wrap(key, original)
            for m in modules:
                for bound_name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, bound_name, wrapped)
