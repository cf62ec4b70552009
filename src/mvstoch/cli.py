"""Configuration-driven experiment runner.

Subcommands
-----------
fubini      interchange checks (continuous family and indicator sets)
approx      elementary approximation pipeline on a scenario tree
volterra    kernel decomposition identities plus the roughness diagnostic
example7    consolidated power-law study across a list of exponents
conditions  dominated-case integrability condition report

Usage: ``mvstoch <subcommand> --config cfg.json [--out DIR] [--seed N]``.
The config is a JSON object, checked against the subcommand's key table
(``RUNNER_KEYS``; the README gives the schema and defaults) before any work
starts.  ``--seed`` overrides the scenario seed, ``--out`` the output
directory.  Unless ``OPENBLAS_NUM_THREADS`` is set, this module sets it to 1 before numpy
starts BLAS: a run's only parallel threads are ``drivers.pull_blocks``' (the calling one
first decomposes the volterra kernels), and results depend on neither thread count.

The paper's identities hold one scenario at a time, and every runner walks its scenarios in
blocks of one byte budget (``drivers.block_rows``): past the arrays no walk blocks, a run holds
about two budgets per worker thread, and its reports do not depend on the budget.  The volterra
driver is freed once the kernels are checked, before the diagnostic's last blocks.

Outputs are plot-ready CSV files plus a schema-versioned ``summary.json``.
Runs are deterministic: a fixed config and seed produce byte-identical
files.  Exit codes: 0 all checks passed, 1 a tolerance was breached,
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

# before numpy starts its BLAS pool: pull_blocks' workers are the run's parallelism
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import dominated as dom
from . import integrands
from . import volterra as vol
from .drivers import (DriverPath, DriverSpec, ScenarioSet, StoppingRule, TimeGrid, block_rows,
                      simulate_driver, tree_fault)
from .grid import CompactGrid, SignedMeasureVec, build_test_family
from .integrands import (
    ElementaryTerm,
    approximate_elementary,
    elementary_process,
    integrability_check,
    random_elementary_process,
    random_lattice_process,
)
from .mvintegral import convergence_transfer_check, fubini_check, standard_cell_sets

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


# The config schema.  A Key is a JSON number cast to float or int (an integral one), a
# boolean (bool) or a string (str); a number must be finite and within its bound: POSITIVE,
# NONNEGATIVE, ANY or a least integer.  A ListOf is a list of ``item``s, at least ``least``
# of them, and Modes an object
# whose other keys are those of ``tables[mode]``, mode being the value of its ``key``.  A
# callable default is read from the config checked so far; REQUIRED marks a key without one.
POSITIVE, NONNEGATIVE, ANY = "positive", "nonnegative", "any"
REQUIRED = MISSING = object()  # also what an absent key reads as
Key = namedtuple("Key", "cast bound default", defaults=(ANY, REQUIRED))
ListOf = namedtuple("ListOf", "item default least", defaults=(REQUIRED, 0))
Modes = namedtuple("Modes", "key default tables")

TIME = {"T": Key(float, POSITIVE), "N": Key(int, POSITIVE)}
MONTE_CARLO = {"count": Key(int, POSITIVE), "seed": Key(int, NONNEGATIVE)}
TREE = {"branching": Key(int, 2, 2), "depth": Key(int, POSITIVE)}
SCENARIOS = Modes("mode", "monte_carlo", {"monte_carlo": MONTE_CARLO, "tree": TREE})
DRIVER = Modes("kind", "brownian", dict.fromkeys(
    ("brownian", "fv_drift", "compound_poisson", "mixture"),
    {"d": Key(int, POSITIVE, 1), "vol": Key(float, NONNEGATIVE, 1.0),
     "drift": Key(float, ANY, 0.0), "jump_rate": Key(float, NONNEGATIVE, 0.0),
     "jump_mean": Key(float, ANY, 0.0), "jump_std": Key(float, NONNEGATIVE, 0.0)}))
INTEGRANDS = {
    "power_law": {"alpha": Key(float, POSITIVE, 1.0)},
    "elementary": {"terms": ListOf({"weights": ListOf(ListOf(Key(float))),
                                    "start": Key(int, NONNEGATIVE), "stop": Key(int, POSITIVE)})},
    "random_elementary": {"count": Key(int, POSITIVE, 10), "terms": Key(int, POSITIVE, 4),
                          "seed": Key(int, NONNEGATIVE, 7)},
    "random_dominated": {"wave": Key(float, ANY, 3.0), "drift_wave": Key(float, ANY, 2.0)},
    "random_lattice": {"count": Key(int, POSITIVE, 3), "seed": Key(int, NONNEGATIVE, 7),
                       "ball": Key(float, POSITIVE, 1.0), "pool_size": Key(int, POSITIVE, 21)},
}
KERNELS = ListOf(Modes("name", None, {
    "power_alpha": {"alpha": Key(float, POSITIVE)},
    "affine": {"level": Key(float, ANY, 1.0), "slope": Key(float, ANY, 1.0)},
    "tabulated": {"path": Key(str)},  # its CSV is loaded by check_config
}), [{"name": "power_alpha", "alpha": 0.75}, {"name": "affine"}], 1)
# the roughness slope needs at least 3 levels; example7 seeds the diagnostic from the scenarios
DIAGNOSTIC = {"levels": Key(int, 3, 6), "n_steps": Key(int, POSITIVE, 2**12),
              "scenarios": Key(int, POSITIVE, 500)}
PROBE = {"growth_factor": Key(float, POSITIVE, 1.5), "doublings": Key(int, NONNEGATIVE, 3)}
OUTPUT = Key(str, ANY, "out")

#: Every key each runner reads, with its cast, bound and default.
RUNNER_KEYS = {
    "fubini": {
        "time": TIME, "scenarios": SCENARIOS, "driver": DRIVER,
        "grid": {"J": Key(int, POSITIVE, lambda cfg: cfg["time"]["N"]),
                 "T_K": Key(float, POSITIVE, lambda cfg: cfg["time"]["T"])},
        "integrand": Modes("kind", "power_law", INTEGRANDS),
        "test_family": {"k_max": Key(int, POSITIVE, 16)},
        "tolerances": {"fubini": Key(float, NONNEGATIVE, 1e-10)},
        "corrupt_comparison": Key(bool, ANY, False), "output": OUTPUT,
    },
    "approx": {
        "time": TIME, "scenarios": Modes("mode", "monte_carlo", {"tree": TREE}),  # trees only
        "driver": DRIVER,
        "grid": {"J": Key(int, POSITIVE, 8), "T_K": Key(float, POSITIVE, 1.0)},
        # the approximants' constant c is the integrand's ball, whatever its kind
        "integrand": Modes("kind", "power_law", {kind: {**keys, "ball": Key(float, POSITIVE, 1.0)}
                                                 for kind, keys in INTEGRANDS.items()}),
        # every atom hat and every sign vector: the family attains the variation norm
        "test_family": {"k_max": Key(
            int, POSITIVE, lambda cfg: cfg["grid"]["J"] + 1 + 2 ** (cfg["grid"]["J"] + 1))},
        "schedule": ListOf(Key(int, POSITIVE), [4, 16, 64], 1),
        "tolerances": {"approx_q": Key(float, NONNEGATIVE, 1e-6)}, "output": OUTPUT,
    },
    "volterra": {
        "time": TIME, "scenarios": SCENARIOS, "driver": DRIVER, "kernels": KERNELS,
        "alphas": ListOf(Key(float, POSITIVE), [0.25, 0.75]),  # power kernels, as in example7
        "diagnostic": {**DIAGNOSTIC, "seed": Key(int, NONNEGATIVE, 101)},
        "tolerances": {"decomposition": Key(float, NONNEGATIVE, 1e-10)}, "output": OUTPUT,
    },
    "example7": {
        "time": TIME, "scenarios": {"seed": Key(int, NONNEGATIVE, 12345)},
        "grid": {"J": Key(int, POSITIVE, 2**12)},
        "alphas": ListOf(Key(float, POSITIVE), [0.5, 1.0, 2.0], 1),
        # the variance gate needs two scenarios, and a midpoint u = T/2 after t = 0
        "isometry": {"scenarios": Key(int, 2, 20000), "n_steps": Key(int, 2, 1024)},
        "diagnostic": DIAGNOSTIC, "probe": PROBE,
        # the squared density is singular for fractional exponents below 1 and its
        # quadrature converges at rate mesh^(2 alpha - 1); gate separately
        "tolerances": {"variation": Key(float, NONNEGATIVE, 1e-9),
                       "accumulation": Key(float, NONNEGATIVE, 1e-9),
                       "square_density_rel": Key(float, NONNEGATIVE, 1e-6),
                       "square_density_rel_fractional": Key(float, NONNEGATIVE, 1e-2)},
        "output": OUTPUT,
    },
    "conditions": {
        "time": TIME, "scenarios": SCENARIOS, "driver": DRIVER,
        "grid": {"J": Key(int, POSITIVE, lambda cfg: cfg["time"]["N"])},
        "integrand": Modes("kind", "power_law", {"power_law": INTEGRANDS["power_law"]}),
        "probe": PROBE, "output": OUTPUT,
    },
}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def check_config(command: str, raw: dict, seed: int | None = None) -> dict:
    """``raw`` walked through ``RUNNER_KEYS[command]`` into a checked config with every
    default filled in, and ``seed`` (if given) as the scenario seed.  A tabulated kernel's
    CSV is loaded here, into its entry's ``matrix``, and an ``elementary`` integrand is built
    on the grids, into ``process``.  A driver of more than one component drives only an
    ``elementary`` integrand of as many, a ``brownian`` or ``fv_drift`` driver takes no
    ``jump_rate``, and a tree driver must fit its tree (``drivers.tree_fault``).  Raises a
    ConfigError naming the key."""
    if seed is not None and isinstance(raw.get("scenarios", {}), dict):
        raw = {**raw, "scenarios": {**raw.get("scenarios", {}), "seed": seed}}
    cfg = {}
    for name, spec in RUNNER_KEYS[command].items():
        cfg[name] = _walk(spec, raw.get(name, MISSING), name, cfg)
    diag = cfg.get("diagnostic")
    if diag and diag["n_steps"] % 2 ** (diag["levels"] - 1):
        raise ConfigError(f"diagnostic.n_steps {diag['n_steps']} is not divisible by "
                          f"2**(levels - 1) = {2 ** (diag['levels'] - 1)}")
    n1 = cfg["time"]["N"] + 1
    for i, kernel in enumerate(cfg.get("kernels", [])):
        try:
            if kernel["name"] == "tabulated":
                kernel["matrix"] = matrix = np.loadtxt(kernel["path"], delimiter=",", ndmin=2)
                if matrix.shape != (n1, n1):
                    raise ValueError(f"a {matrix.shape} table; the time grid needs {(n1, n1)}")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"kernels[{i}].path {kernel['path']!r}: {exc}") from None
    integrand = cfg.get("integrand", {})
    if integrand.get("kind") == "elementary":
        grid = CompactGrid(cfg["grid"]["T_K"], cfg["grid"]["J"])
        try:
            terms = [ElementaryTerm(SignedMeasureVec(grid, np.asarray(t["weights"], float)),
                                    t["start"], t["stop"]) for t in integrand["terms"]]
            integrand["process"] = process = elementary_process(grid, cfg["time"]["N"], terms)
            if process.d != cfg["driver"]["d"]:
                raise ValueError(f"{process.d} components; driver.d is {cfg['driver']['d']}")
        except ValueError as exc:
            raise ConfigError(f"integrand.terms do not fit the grids: {exc}") from None
    driver, sc = cfg.get("driver"), cfg.get("scenarios", {})
    if driver is not None and driver["d"] != 1 and integrand.get("kind") != "elementary":
        raise ConfigError(f"driver.d is {driver['d']}; only an elementary integrand "
                          "takes a driver of more than one component")
    if driver is not None and driver["jump_rate"] > 0 and driver["kind"] in ("brownian",
                                                                           "fv_drift"):
        raise ConfigError(f"driver.jump_rate is {driver['jump_rate']}; a {driver['kind']} "
                          "driver draws no jumps")
    if sc.get("mode") == "tree":
        fault = tree_fault(DriverSpec(**driver), cfg["time"]["N"], sc["branching"], sc["depth"])
        if fault is not None:
            raise ConfigError(fault)
    return cfg


def _walk(spec, raw, key: str, cfg: dict):
    """``raw`` (MISSING if absent) checked against ``spec`` and filled in from its defaults."""
    if isinstance(spec, (dict, Modes)):
        raw = {} if raw is MISSING else raw
        if not isinstance(raw, dict):
            raise ConfigError(f"{key} must be an object, not {raw!r}")
        if isinstance(spec, Modes):
            mode = raw.get(spec.key, spec.default)
            if not isinstance(mode, str) or mode not in spec.tables:
                raise ConfigError(f"{key}.{spec.key} is {mode!r}; it must be one of "
                                  + ", ".join(spec.tables))
            return {spec.key: mode, **_walk(spec.tables[mode], raw, key, cfg)}
        return {k: _walk(s, raw.get(k, MISSING), f"{key}.{k}", cfg) for k, s in spec.items()}
    if raw is MISSING:
        if spec.default is REQUIRED:
            raise ConfigError(f"{key} is required")
        raw = spec.default(cfg) if callable(spec.default) else spec.default
    if isinstance(spec, ListOf):
        if not isinstance(raw, list):
            raise ConfigError(f"{key} must be a list, not {raw!r}")
        if len(raw) < spec.least:
            raise ConfigError(f"{key} is empty; it needs at least {spec.least} entry")
        return [_walk(spec.item, item, f"{key}[{i}]", cfg) for i, item in enumerate(raw)]
    if spec.cast in (bool, str):
        if not isinstance(raw, spec.cast):
            raise ConfigError(f"{key} must be {'a boolean' if spec.cast is bool else 'a string'}, "
                              f"not {raw!r}")
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or (
            spec.cast is int and isinstance(raw, float) and not raw.is_integer()):
        raise ConfigError(f"{key} must be {'an integer' if spec.cast is int else 'a number'}, "
                          f"not {raw!r}")
    try:
        value = spec.cast(raw)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    least = {POSITIVE: 0, NONNEGATIVE: 0, ANY: -math.inf}.get(spec.bound, spec.bound)
    if not ((isinstance(value, int) or math.isfinite(value))
            and (value > least if spec.bound == POSITIVE else value >= least)):
        bound = spec.bound if isinstance(spec.bound, str) else f"at least {spec.bound}"
        raise ConfigError(f"{key} is {raw!r}; it must be finite"
                          + ("" if spec.bound == ANY else f" and {bound}"))
    return value


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write a CSV report; fields holding commas (kernel names) are quoted."""
    def fmt(x):
        if isinstance(x, float):
            return f"{x:.17g}"
        return str(x)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(x) for x in row] for row in rows)


def write_summary(out_dir: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    (out_dir / "summary.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _integrand_list(spec: dict, grid: CompactGrid, timegrid: TimeGrid, scenarios, driver_path):
    """The checked ``integrand`` section's integrands, as (label, MeasureProcess) pairs."""
    kind = spec["kind"]
    if kind == "power_law":
        phi, _ = dom.power_law_integrand(spec["alpha"], timegrid, grid.n_cells)
        return [("power_law", phi)]
    if kind == "elementary":  # built by check_config
        return [("elementary", spec["process"])]
    if kind == "random_dominated":
        a, b = spec["wave"], spec["drift_wave"]
        dspec = dom.DominatedSpec.from_adapted_density(
            lambda t, z, s: np.cos(a * z + b * t + s), driver_path, grid)
        return [("random_dominated", dom.make_dominated(dspec))]
    rng = np.random.default_rng(spec["seed"])  # drawn from lazily, one integrand at a time
    if kind == "random_elementary":
        values = None if driver_path is None else driver_path.values
        return ((f"elementary_{i}", random_elementary_process(
                    grid, timegrid, scenarios, rng, n_terms=spec["terms"], driver_values=values))
                for i in range(spec["count"]))
    return ((f"lattice_{i}", random_lattice_process(
                grid, timegrid, scenarios, rng, c=spec["ball"], pool_size=spec["pool_size"]))
            for i in range(spec["count"]))


def _driver_path(cfg: dict) -> tuple[TimeGrid, ScenarioSet, DriverPath]:
    """The checked config's time grid, scenario set and driver path on them."""
    timegrid, sc = TimeGrid(cfg["time"]["T"], cfg["time"]["N"]), cfg["scenarios"]
    scenarios = (ScenarioSet.tree(sc["branching"], sc["depth"]) if sc["mode"] == "tree"
                 else ScenarioSet.monte_carlo(sc["count"], sc["seed"]))
    return timegrid, scenarios, simulate_driver(DriverSpec(**cfg["driver"]), timegrid, scenarios)


def run_fubini(cfg: dict, out_dir: Path) -> int:
    timegrid, scenarios, S = _driver_path(cfg)
    grid = CompactGrid(cfg["grid"]["T_K"], cfg["grid"]["J"])
    fam = build_test_family(grid, cfg["test_family"]["k_max"])
    tol = cfg["tolerances"]["fubini"]

    rows, worst = [], 0.0
    # negative control: compare the charge against the paths of a scaled integrand, so that the
    # identity genuinely breaks
    corrupt = 1e-3 if cfg["corrupt_comparison"] else None
    for label, phi in _integrand_list(cfg["integrand"], grid, timegrid, scenarios, S):
        checks = fubini_check(phi, S, fam, sets=standard_cell_sets(grid), corrupt=corrupt)
        regular, general = checks["regular"], checks["general"]
        if corrupt is not None:
            gap = checks["corrupted"]
            regular = dict(regular)
            regular["max_abs_discrepancy"] = max(regular["max_abs_discrepancy"], gap)
            regular["per_f"] = regular["per_f"] + [
                {"test": "corrupted", "max_discrepancy": gap, "scenario": -1, "time_index": -1}]
        for check_name, report in (("regular", regular), ("general", general)):
            for r in report["per_f"]:
                rows.append([label, check_name, r["test"], r["max_discrepancy"],
                             r["scenario"], r["time_index"]])
            worst = max(worst, report["max_abs_discrepancy"])
    write_csv(out_dir / "fubini_report.csv",
              ["integrand", "check", "test", "max_discrepancy", "scenario", "time_index"], rows)
    passed = worst <= tol
    write_summary(out_dir, {"experiment": "fubini", "max": worst,
                            "mean": float(np.mean([r[3] for r in rows])) if rows else 0.0,
                            "tolerance": tol, "pass": bool(passed)})
    return 0 if passed else 1


def run_approx(cfg: dict, out_dir: Path) -> int:
    timegrid, scenarios, S = _driver_path(cfg)
    grid = CompactGrid(cfg["grid"]["T_K"], cfg["grid"]["J"])
    fam = build_test_family(grid, cfg["test_family"]["k_max"])
    tol = cfg["tolerances"]["approx_q"]
    tau = StoppingRule.never(scenarios, timegrid.n_steps)

    v_norm = float(np.sqrt(scenarios.probs @ (tau.left_limit(S.control) ** 2)))
    rows, all_ok = [], True
    for label, phi in _integrand_list(cfg["integrand"], grid, timegrid, scenarios, S):
        result = approximate_elementary(phi, tau, S.control, fam, scenarios,
                                        schedule=tuple(cfg["schedule"]),
                                        c=cfg["integrand"]["ball"], tol=tol)
        r_gaps = convergence_transfer_check(phi, result.processes, S, fam)  # tau never stops
        bound = 2 * result.truncation_level * v_norm + 2 * result.constant
        for rep, r_gap in zip(result.reports, r_gaps):
            rows.append([label, rep.index, rep.net_size, rep.q_error, r_gap,
                         rep.uniform_constant, bound, rep.rectangle_count])
            all_ok &= rep.uniform_constant <= bound + 1e-12
            all_ok &= r_gap <= rep.q_error + 1e-12
        errs = [r.q_error for r in result.reports]
        all_ok &= all(b < a for a, b in zip(errs, errs[1:])) and result.converged
        del phi, result  # one integrand and its approximants alive at a time
    write_csv(out_dir / "approx_report.csv",
              ["integrand", "n", "net_size", "q_error", "r_error",
               "uniform_constant", "uniform_bound", "rectangles"], rows)
    write_summary(out_dir, {"experiment": "approx", "tolerance": tol, "pass": bool(all_ok)})
    return 0 if all_ok else 1


def _kernel_row(params: dict, timegrid: TimeGrid, S: DriverPath) -> list:
    """One ``kernels`` entry's report row: its name, identity gap and density-route gap.

    The gaps are the largest over ``block_rows`` of S's scenarios (``DriverPath.view``,
    ``_block_gaps``: five (N + 1) paths and a row of FFT work each), the whole ensemble's bit
    for bit, whatever P.  The per-kernel work runs once: the variation check, which reads the
    control alone, and the kernel's spectra, which it caches."""
    kernel = vol.make_kernel(params["name"], params, timegrid)
    check = vol._variation_check(kernel.induced, S.control, timegrid)
    # a kernel failing the variation condition has no decomposition: its row reads nan
    if not check["integrable"]:
        return [kernel.name, float("nan"), float("nan")]
    density = kernel.density_fn is not None and not kernel.is_random and kernel.d == 1
    N, P = timegrid.n_steps, S.scenarios.n_scenarios
    rows = block_rows(5 * (N + 1) * 8 + integrands._fft_row_bytes(N), P)
    gaps = [_block_gaps(kernel, S.view(lo, lo + rows), check, density)
            for lo in range(0, P, rows)]
    # np.max, not max: a nan gap stays nan
    return [kernel.name, *(float(np.max(column)) for column in zip(*gaps))]


def _block_gaps(kernel: vol.VolterraKernel, S: DriverPath, check: dict,
                density: bool) -> tuple[float, float]:
    """The identity gap and (if ``density``) the density-route gap on S's scenarios.  Only the
    direct path outlives the identity gap, and nothing outlives the call, so the next block
    decomposes beside none of this one's paths."""
    out = vol.decompose(kernel, S, check)
    gap, x_direct = out["max_identity_gap"], out["x_direct"]
    del out
    if not density:
        return gap, float("nan")
    x = vol.density_construction(kernel, S)["x"]
    return gap, float(np.max(np.abs(np.subtract(x, x_direct, out=x), out=x)))


def run_volterra(cfg: dict, out_dir: Path) -> int:
    timegrid, _, S = _driver_path(cfg)
    diag, tol = cfg["diagnostic"], cfg["tolerances"]["decomposition"]
    tg = TimeGrid(timegrid.horizon, diag["n_steps"])
    rows = []

    def decompose_kernels() -> None:
        nonlocal S
        rows.extend(_kernel_row(params, timegrid, S) for params in cfg["kernels"])
        S = None  # the diagnostic's workers run on without the driver

    # the kernels are decomposed on this thread while the diagnostic's other worker draws
    tv = vol.power_volterra_paths(cfg["alphas"], tg, diag["scenarios"], seed=diag["seed"],
                                  n_levels=diag["levels"], lead=decompose_kernels)
    write_csv(out_dir / "volterra_report.csv",
              ["kernel", "identity_gap", "density_route_gap"], rows)
    ok = all(gap <= tol for _, gap, _ in rows)  # a nan gap fails
    slope_rows = [[alpha, vol.semimartingale_diagnostic(t, tg)["slope"]]
                  for alpha, t in zip(cfg["alphas"], tv)]
    write_csv(out_dir / "volterra_slopes.csv", ["alpha", "slope"], slope_rows)
    write_summary(out_dir, {"experiment": "volterra", "tolerance": tol, "pass": bool(ok),
                            "slopes": {f"{a}": s for a, s in slope_rows}})
    return 0 if ok else 1


def run_example7(cfg: dict, out_dir: Path) -> int:
    timegrid = TimeGrid(cfg["time"]["T"], cfg["time"]["N"])
    alphas, tols, diag, probe = cfg["alphas"], cfg["tolerances"], cfg["diagnostic"], cfg["probe"]
    iso_P = cfg["isometry"]["scenarios"]
    tg_diag = TimeGrid(timegrid.horizon, diag["n_steps"])
    tg_iso = TimeGrid(timegrid.horizon, cfg["isometry"]["n_steps"])
    seed, T = cfg["scenarios"]["seed"], timegrid.horizon

    S = simulate_driver(DriverSpec("brownian"), timegrid, ScenarioSet.monte_carlo(2, seed))
    # terminal-variance check: one draw of the isometry stream serves every exponent.
    # Only its 2 * len(alphas) sample variances are read, so they are taken here and the
    # (P, len(alphas), 2) ensemble is freed before the diagnostic's transforms start.
    u_indices = [tg_iso.n_steps // 2, tg_iso.n_steps]
    terminals = vol.power_volterra_terminals(alphas, u_indices, tg_iso, iso_P, seed=seed)
    iso_var = [[float(np.var(terminals[:, a, col], ddof=1)) for col in range(len(u_indices))]
               for a in range(len(alphas))]
    del terminals
    # roughness slopes: every exponent reads the same diagnostic stream
    tv = vol.power_volterra_paths(alphas, tg_diag, diag["scenarios"], seed=seed + 1,
                                  n_levels=diag["levels"])
    rows = []
    all_ok = True
    for a, alpha in enumerate(alphas):
        phi, spec = dom.power_law_integrand(alpha, timegrid, cfg["grid"]["J"])
        # variation closed form at t = 0 and t = T/2, read from those two slots only
        idx_half = timegrid.n_steps // 2
        var = np.sum(np.abs(phi.weights[0, [0, idx_half], 0, :]), axis=1)
        var_err = max(abs(var[0] - spec.profile.variation(0.0)),
                      abs(var[1] - spec.profile.variation(timegrid.times[idx_half])))
        # accumulated squared variation at the horizon
        member = integrability_check(phi, S.control, timegrid)
        d_err = abs(member["d_path"][0, -1] - spec.profile.var_sq_integral(T))
        # square-density condition: closed value or divergence probe
        conds = dom.condition_evaluator(spec, S, S.control)
        cert = dom.measure_valuedness_certificate(spec, S, S.control, **probe)
        if alpha > 0.5:
            closed = spec.profile.square_density_integral(T)
            c66_rel = abs(conds["c66_value_at_horizon"] - closed) / closed
            c66_ok = c66_rel <= tols["square_density_rel" if alpha >= 1.0
                                     else "square_density_rel_fractional"]
        else:
            c66_rel = float("nan")
            c66_ok = cert["c66_probe"]["divergent"]
        cert_ok = cert["hypotheses_met"] is (alpha > 0.5)
        # terminal variance against the left-endpoint sum's exact variance,
        # sum_{t_k < u} (u - t_k)^(2 alpha) dt; its relative gap to the continuous
        # form u^(2 alpha + 1) / (2 alpha + 1) is the reported discretization bias
        iso_z = iso_bias = 0.0
        for col, u_idx in enumerate(u_indices):
            u = tg_iso.times[u_idx]
            target = float(np.sum((u - tg_iso.times[:u_idx]) ** (2 * alpha)) * tg_iso.dt)
            continuous = u ** (2 * alpha + 1) / (2 * alpha + 1)
            iso_bias = max(iso_bias, abs(target - continuous) / continuous)
            sample = iso_var[a][col]
            se = sample * np.sqrt(2.0 / (iso_P - 1))
            iso_z = max(iso_z, abs(sample - target) / se)
        slope = vol.semimartingale_diagnostic(tv[a], tg_diag)["slope"]
        row_ok = (var_err <= tols["variation"] and d_err <= tols["accumulation"] and c66_ok
                  and cert_ok and iso_z <= 3.0)
        all_ok &= row_ok
        rows.append([alpha, var_err, d_err, c66_rel, cert["hypotheses_met"],
                     iso_z, iso_bias, slope, row_ok])
    write_csv(out_dir / "example7_report.csv",
              ["alpha", "variation_err", "accumulation_err", "square_density_rel_err",
               "certificate", "isometry_max_z", "isometry_bias_rel", "tv_slope", "pass"], rows)
    write_summary(out_dir, {"experiment": "example7", "pass": bool(all_ok),
                            "alphas": alphas})
    return 0 if all_ok else 1


def run_conditions(cfg: dict, out_dir: Path) -> int:
    timegrid, _, S = _driver_path(cfg)
    J, probe = cfg["grid"]["J"], cfg["probe"]
    spec = dom.DominatedSpec.from_power_profile(cfg["integrand"]["alpha"], timegrid, J)
    report = dom.condition_evaluator(spec, S, S.control)
    # spatial-refinement growth ratio per condition (sup at 2^k J over sup at J);
    # the refined grid is also the certificate's last probe, so it is built once
    refined = dom.condition_evaluator(spec.reatomize(J * 2 ** probe["doublings"]), S, S.control)
    cert = dom.measure_valuedness_certificate(spec, S, S.control, **probe,
                                              finest_sup=refined["c66"]["sup"])
    for key in ("c63", "c64", "c66", "c67", "c_veraar"):
        base = report[key]["sup"]
        report[key]["growth_ratio"] = refined[key]["sup"] / base if base > 0 else 1.0
    (out_dir / "conditions.json").write_text(
        json.dumps({"conditions": report, "certificate": cert}, sort_keys=True, indent=2,
                   default=float) + "\n")
    write_summary(out_dir, {"experiment": "conditions", "pass": True})
    return 0


RUNNERS = {
    "fubini": run_fubini,
    "approx": run_approx,
    "volterra": run_volterra,
    "example7": run_example7,
    "conditions": run_conditions,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mvstoch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        raw = load_config(args.config)
        out_dir = Path(args.out if args.out is not None
                       else _walk(OUTPUT, raw.get("output", MISSING), "output", {}))
        out_dir.mkdir(parents=True, exist_ok=True)
        # every key is checked, and a tabulated kernel's CSV read, before any work starts
        cfg = check_config(args.command, raw, args.seed)
        return RUNNERS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
