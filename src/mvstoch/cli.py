"""Configuration-driven experiment runner.

Subcommands
-----------
fubini      interchange checks (continuous family and indicator sets)
approx      elementary approximation pipeline on a scenario tree
volterra    kernel decomposition identities plus the roughness diagnostic
example7    consolidated power-law study across a list of exponents
conditions  dominated-case integrability condition report

Usage: ``mvstoch <subcommand> --config cfg.json [--out DIR] [--seed N]``.
The config is a JSON object; every tolerance and probe parameter is read
from it (see the README for the schema and defaults).  ``--seed`` overrides
the scenario seed, ``--out`` the output directory.  Computations are
deterministic; pairings of measures with test functions are BLAS matmuls
kept on one thread, and the Monte Carlo samplers run on up to two threads
(``drivers.pull_blocks``), of which the calling one first decomposes the
volterra kernels: results depend on neither thread count.

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
import sys
from pathlib import Path

import numpy as np

from . import dominated as dom
from . import volterra as vol
from .drivers import DriverSpec, ScenarioSet, StoppingRule, TimeGrid, simulate_driver
from .grid import CompactGrid, SignedMeasureVec, TestFamily, build_test_family
from .integrands import (
    ElementaryTerm,
    approximate_elementary,
    elementary_process,
    integrability_check,
    random_elementary_process,
    random_lattice_process,
)
from .mvintegral import (
    _paired_ito_paths,
    convergence_transfer_check,
    fubini_check,
    standard_cell_sets,
)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _get(cfg: dict, key: str, default=None, required: bool = False):
    """cfg[key], or ``default`` if absent; a section whose default is an object (a list)
    must be one too."""
    if key not in cfg:
        if required:
            raise ConfigError(f"config key {key!r} is required")
        return default
    if isinstance(default, (dict, list)) and not isinstance(cfg[key], type(default)):
        kind = "an object" if isinstance(default, dict) else "a list"
        raise ConfigError(f"config section {key!r} must be {kind}, not {cfg[key]!r}")
    return cfg[key]


def _positive(cfg: dict, key: str, default, cast=float, zero_ok: bool = False):
    """``cfg[section][name]`` for ``key`` = "section.name", else ``default``: a finite
    number of type ``cast``, positive (or zero if ``zero_ok``)."""
    section, name = key.split(".")
    return _number(_get(cfg, section, {}).get(name, default), key, cast,
                   "nonnegative" if zero_ok else "positive")


def _number(raw, key: str, cast=float, bound: str = "positive"):
    """``raw`` as a finite number of type ``cast`` that is ``bound`` ("positive",
    "nonnegative" or "any"); else a ``ConfigError`` naming ``key``."""
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, not {raw!r}") from None
    if not (math.isfinite(value) and
            {"positive": value > 0, "nonnegative": value >= 0, "any": True}[bound]):
        raise ConfigError(f"{key} is {raw!r}; it must be finite"
                          + ("" if bound == "any" else f" and {bound}"))
    return value


def build_timegrid(cfg: dict) -> TimeGrid:
    time = _get(cfg, "time", {}, required=True)
    try:
        return TimeGrid(float(time["T"]), int(time["N"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad time grid: {exc}") from exc


def build_diagnostic(cfg: dict, horizon: float) -> tuple[TimeGrid, int, int]:
    """The roughness diagnostic's time grid, level count and scenario count, checked before
    any work starts: at least three levels, a finest grid that the coarsest stride divides,
    and a positive number of scenarios."""
    diag = _get(cfg, "diagnostic", {})
    try:
        levels = int(diag.get("levels", 6))
        timegrid = TimeGrid(horizon, int(diag.get("n_steps", 2**12)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad diagnostic block: {exc}") from exc
    if levels < 3:
        raise ConfigError(f"diagnostic.levels is {levels}; the slope needs at least 3")
    if timegrid.n_steps % 2 ** (levels - 1):
        raise ConfigError(f"diagnostic.n_steps {timegrid.n_steps} is not divisible by "
                          f"2**(levels - 1) = {2 ** (levels - 1)}")
    return timegrid, levels, _positive(cfg, "diagnostic.scenarios", 500, int)


def build_kernels(cfg: dict) -> list[tuple[str, dict]]:
    """The volterra kernels' registry names and parameters, checked before any work starts:
    power_alpha a positive alpha, affine a finite level and slope (1 by default), tabulated
    the path of a file."""
    kernels = []
    for i, entry in enumerate(_get(cfg, "kernels", [{"name": "power_alpha", "alpha": 0.75},
                                                    {"name": "affine"}])):
        key = f"kernels[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{key} must be an object, not {entry!r}")
        name = entry.get("name")
        if name == "power_alpha":
            if "alpha" not in entry:
                raise ConfigError(f"{key}.alpha is required")
            params = {"alpha": _number(entry["alpha"], f"{key}.alpha")}
        elif name == "affine":
            params = {p: _number(entry.get(p, 1.0), f"{key}.{p}", bound="any")
                      for p in ("level", "slope")}
        elif name == "tabulated":
            if not isinstance(entry.get("path"), str) or not Path(entry["path"]).is_file():
                raise ConfigError(f"{key}.path is {entry.get('path')!r}; it must name a file")
            params = {"path": entry["path"]}
        else:
            raise ConfigError(f"{key}.name: unknown kernel {name!r}")
        kernels.append((name, params))
    return kernels


def build_scenarios(cfg: dict, seed_override: int | None) -> ScenarioSet:
    sc = _get(cfg, "scenarios", {}, required=True)
    mode = sc.get("mode", "monte_carlo")
    try:
        if mode == "monte_carlo":
            seed = seed_override if seed_override is not None else int(sc["seed"])
            return ScenarioSet.monte_carlo(int(sc["count"]), seed)
        if mode == "tree":
            return ScenarioSet.tree(int(sc.get("branching", 2)), int(sc["depth"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenarios block: {exc}") from exc
    raise ConfigError(f"unknown scenario mode {mode!r}")


def build_driver_spec(cfg: dict) -> DriverSpec:
    drv = _get(cfg, "driver", {"kind": "brownian"})
    try:
        return DriverSpec(
            kind=drv.get("kind", "brownian"),
            d=int(drv.get("d", 1)),
            vol=float(drv.get("vol", 1.0)),
            drift=float(drv.get("drift", 0.0)),
            jump_rate=float(drv.get("jump_rate", 0.0)),
            jump_mean=float(drv.get("jump_mean", 0.0)),
            jump_std=float(drv.get("jump_std", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad driver spec: {exc}") from exc


def build_family(cfg: dict, grid: CompactGrid, k_max: int) -> TestFamily:
    """The default test family on ``grid``, of ``test_family.k_max`` members (else ``k_max``)."""
    try:
        return build_test_family(grid, int(_get(cfg, "test_family", {}).get("k_max", k_max)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad test_family block: {exc}") from exc


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


def _integrand_list(cfg: dict, grid: CompactGrid, timegrid: TimeGrid, scenarios, driver_path):
    """Integrands named in the config; returns (label, MeasureProcess) pairs."""
    spec = _get(cfg, "integrand", {"kind": "power_law", "alpha": 1.0})
    kind = spec.get("kind")
    rng = np.random.default_rng(int(spec.get("seed", 7)))
    if kind == "power_law":
        phi, _ = dom.power_law_integrand(float(spec.get("alpha", 1.0)), timegrid, grid.n_cells)
        return [("power_law", phi)]
    if kind == "elementary":
        try:
            terms = [ElementaryTerm(SignedMeasureVec(grid, np.asarray(t["weights"], float)),
                                    int(t["start"]), int(t["stop"]))
                     for t in spec["terms"]]
            phi = elementary_process(grid, timegrid.n_steps, terms,
                                     n_scenarios=scenarios.n_scenarios)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad elementary term list: {exc}") from exc
        return [("elementary", phi)]
    if kind == "random_elementary":
        out = []
        for i in range(int(spec.get("count", 10))):
            phi = random_elementary_process(
                grid, timegrid, scenarios, rng,
                n_terms=int(spec.get("terms", 4)),
                driver_values=None if driver_path is None else driver_path.values)
            out.append((f"elementary_{i}", phi))
        return out
    if kind == "random_dominated":
        a = float(spec.get("wave", 3.0))
        b = float(spec.get("drift_wave", 2.0))
        dspec = dom.DominatedSpec.from_adapted_density(
            lambda t, z, s: np.cos(a * z + b * t + s), driver_path, grid)
        return [("random_dominated", dom.make_dominated(dspec))]
    if kind == "random_lattice":
        out = []
        for i in range(int(spec.get("count", 3))):
            out.append((f"lattice_{i}",
                        random_lattice_process(grid, timegrid, scenarios, rng,
                                               c=float(spec.get("ball", 1.0)),
                                               pool_size=int(spec.get("pool_size", 21)))))
        return out
    raise ConfigError(f"unknown integrand kind {kind!r}")


def run_fubini(cfg: dict, out_dir: Path, seed_override: int | None = None) -> int:
    timegrid = build_timegrid(cfg)
    scenarios = build_scenarios(cfg, seed_override)
    grid_cfg = _get(cfg, "grid", {})
    grid = CompactGrid(float(grid_cfg.get("T_K", timegrid.horizon)),
                       int(grid_cfg.get("J", timegrid.n_steps)))
    tol = _positive(cfg, "tolerances.fubini", 1e-10, zero_ok=True)
    spec = build_driver_spec(cfg)
    S = simulate_driver(spec, timegrid, scenarios)
    fam = build_family(cfg, grid, 16)
    corrupt = bool(_get(cfg, "corrupt_comparison", False))

    rows, worst = [], 0.0
    for label, phi in _integrand_list(cfg, grid, timegrid, scenarios, S):
        checks = fubini_check(phi, S, fam, sets=standard_cell_sets(grid))
        regular, general = checks["regular"], checks["general"]
        if corrupt:
            # negative control: compare the charge against the paths of a
            # scaled integrand so the identity genuinely breaks
            rhs = _paired_ito_paths(phi * (1.0 + 1e-3), S, fam.functions, None)
            gap = float(np.max(np.abs(checks["paired"] - rhs)))
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


def run_approx(cfg: dict, out_dir: Path, seed_override: int | None = None) -> int:
    scenarios = build_scenarios(cfg, seed_override)
    if not scenarios.is_tree:
        raise ConfigError("the approximation experiment needs tree-mode scenarios")
    timegrid = build_timegrid(cfg)
    grid_cfg = _get(cfg, "grid", {})
    grid = CompactGrid(float(grid_cfg.get("T_K", 1.0)), int(grid_cfg.get("J", 8)))
    fam = build_family(cfg, grid, grid.n_atoms + 2**grid.n_atoms)
    tol = _positive(cfg, "tolerances.approx_q", 1e-6, zero_ok=True)
    S = simulate_driver(build_driver_spec(cfg), timegrid, scenarios)
    tau = StoppingRule.never(scenarios, timegrid.n_steps)
    schedule = tuple(int(n) for n in _get(cfg, "schedule", [4, 16, 64]))
    ball = float(_get(cfg, "integrand", {}).get("ball", 1.0))

    rows = []
    all_ok = True
    for label, phi in _integrand_list(cfg, grid, timegrid, scenarios, S):
        result = approximate_elementary(phi, tau, S.control, fam, scenarios,
                                        schedule=schedule, c=ball, tol=tol)
        r_gaps = convergence_transfer_check(phi, result.processes, S, tau, fam)
        v_pre = tau.left_limit(S.control)
        v_norm = float(np.sqrt(scenarios.probs @ (v_pre**2)))
        bound = 2 * result.truncation_level * v_norm + 2 * result.constant
        for rep, r_gap in zip(result.reports, r_gaps):
            rows.append([label, rep.index, rep.net_size, rep.q_error, r_gap,
                         rep.uniform_constant, bound, rep.rectangle_count])
            all_ok &= rep.uniform_constant <= bound + 1e-12
            all_ok &= r_gap <= rep.q_error + 1e-12
        errs = [r.q_error for r in result.reports]
        all_ok &= all(b < a for a, b in zip(errs, errs[1:])) and result.converged
    write_csv(out_dir / "approx_report.csv",
              ["integrand", "n", "net_size", "q_error", "r_error",
               "uniform_constant", "uniform_bound", "rectangles"], rows)
    write_summary(out_dir, {"experiment": "approx", "tolerance": tol, "pass": bool(all_ok)})
    return 0 if all_ok else 1


def run_volterra(cfg: dict, out_dir: Path, seed_override: int | None = None) -> int:
    timegrid = build_timegrid(cfg)
    tg, levels, diag_scenarios = build_diagnostic(cfg, timegrid.horizon)
    diag_seed = _positive(cfg, "diagnostic.seed", 101, int, zero_ok=True)
    alphas = [_number(a, f"alphas[{i}]", bound="any")
              for i, a in enumerate(_get(cfg, "alphas", [0.25, 0.75]))]
    kernels = build_kernels(cfg)
    tol = _positive(cfg, "tolerances.decomposition", 1e-10, zero_ok=True)
    scenarios = build_scenarios(cfg, seed_override)
    S = simulate_driver(build_driver_spec(cfg), timegrid, scenarios)
    rows = []

    def decompose_kernels() -> None:
        for name, params in kernels:
            kernel = vol.make_kernel(name, params, timegrid)
            out = vol.decompose(kernel, S)
            # a kernel failing the variation condition has no decomposition: its row reads nan
            gap = density_gap = float("nan")
            if out["condition_ok"]:
                gap = out["max_identity_gap"]
                if kernel.density_fn is not None and not kernel.is_random and kernel.d == 1:
                    dc = vol.density_construction(kernel, S)
                    density_gap = float(np.max(np.abs(dc["x"] - out["x_direct"])))
            rows.append([kernel.name, gap, density_gap])

    # the kernels are decomposed on this thread while the diagnostic's other worker draws
    tv = vol.power_volterra_paths(alphas, tg, diag_scenarios, seed=diag_seed,
                                  n_levels=levels, lead=decompose_kernels)
    write_csv(out_dir / "volterra_report.csv",
              ["kernel", "identity_gap", "density_route_gap"], rows)
    ok = all(gap <= tol for _, gap, _ in rows)  # a nan gap fails
    slope_rows = [[alpha, vol.semimartingale_diagnostic(t, tg)["slope"]]
                  for alpha, t in zip(alphas, tv)]
    write_csv(out_dir / "volterra_slopes.csv", ["alpha", "slope"], slope_rows)
    write_summary(out_dir, {"experiment": "volterra", "tolerance": tol, "pass": bool(ok),
                            "slopes": {f"{a}": s for a, s in slope_rows}})
    return 0 if ok else 1


def run_example7(cfg: dict, out_dir: Path, seed_override: int | None = None) -> int:
    timegrid = build_timegrid(cfg)
    alphas = [_number(a, f"alphas[{i}]")
              for i, a in enumerate(_get(cfg, "alphas", [0.5, 1.0, 2.0]))]
    tg_diag, levels, diag_scenarios = build_diagnostic(cfg, timegrid.horizon)
    J = _positive(cfg, "grid.J", 2**12, int)
    growth_factor = _positive(cfg, "probe.growth_factor", 1.5)
    doublings = _positive(cfg, "probe.doublings", 3, int, zero_ok=True)
    tol_var = _positive(cfg, "tolerances.variation", 1e-9, zero_ok=True)
    tol_d = _positive(cfg, "tolerances.accumulation", 1e-9, zero_ok=True)
    tol_66 = _positive(cfg, "tolerances.square_density_rel", 1e-6, zero_ok=True)
    # the squared density is singular for fractional exponents below 1 and
    # its quadrature converges at rate mesh^(2 alpha - 1); gate separately
    tol_66_frac = _positive(cfg, "tolerances.square_density_rel_fractional", 1e-2, zero_ok=True)
    # the variance gate needs two scenarios, and a midpoint u = T/2 after t = 0
    iso_P = _positive(cfg, "isometry.scenarios", 20000, int)
    tg_iso = TimeGrid(timegrid.horizon, _positive(cfg, "isometry.n_steps", 1024, int))
    for key, value in (("scenarios", iso_P), ("n_steps", tg_iso.n_steps)):
        if value < 2:
            raise ConfigError(f"isometry.{key} is {value}; the variance gate needs at least 2")
    scen_cfg = _get(cfg, "scenarios", {"seed": 12345})
    seed = seed_override if seed_override is not None else int(scen_cfg.get("seed", 12345))
    T = timegrid.horizon

    S = simulate_driver(DriverSpec("brownian"), timegrid, ScenarioSet.monte_carlo(2, seed))
    # terminal-variance check: one draw of the isometry stream serves every exponent
    u_indices = [tg_iso.n_steps // 2, tg_iso.n_steps]
    terminals = vol.power_volterra_terminals(alphas, u_indices, tg_iso, iso_P, seed=seed)
    # roughness slopes: every exponent reads the same diagnostic stream
    tv = vol.power_volterra_paths(alphas, tg_diag, diag_scenarios, seed=seed + 1, n_levels=levels)
    rows = []
    all_ok = True
    for a, alpha in enumerate(alphas):
        phi, spec = dom.power_law_integrand(alpha, timegrid, J)
        # variation closed form at t = 0 and t = T/2, read from those two slots only
        idx_half = timegrid.n_steps // 2
        var = np.sum(np.abs(phi.weights[0, [0, idx_half], 0, :]), axis=1)
        var_err = max(abs(var[0] - T**alpha),
                      abs(var[1] - (T - timegrid.times[idx_half]) ** alpha))
        # accumulated squared variation at the horizon
        member = integrability_check(phi, S.control, timegrid)
        d_err = abs(member["d_path"][0, -1] - T ** (2 * alpha + 1) / (2 * alpha + 1))
        # square-density condition: closed value or divergence probe
        conds = dom.condition_evaluator(spec, S, S.control)
        cert = dom.measure_valuedness_certificate(spec, S, S.control, growth_factor=growth_factor,
                                                  doublings=doublings)
        if alpha > 0.5:
            closed = spec.profile.square_density_integral(T)
            c66_rel = abs(conds["c66_value_at_horizon"] - closed) / closed
            c66_ok = c66_rel <= (tol_66 if alpha >= 1.0 else tol_66_frac)
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
            sample = float(np.var(terminals[:, a, col], ddof=1))
            se = sample * np.sqrt(2.0 / (iso_P - 1))
            iso_z = max(iso_z, abs(sample - target) / se)
        slope = vol.semimartingale_diagnostic(tv[a], tg_diag)["slope"]
        row_ok = (var_err <= tol_var and d_err <= tol_d and c66_ok and cert_ok and iso_z <= 3.0)
        all_ok &= row_ok
        rows.append([alpha, var_err, d_err, c66_rel, cert["hypotheses_met"],
                     iso_z, iso_bias, slope, row_ok])
    write_csv(out_dir / "example7_report.csv",
              ["alpha", "variation_err", "accumulation_err", "square_density_rel_err",
               "certificate", "isometry_max_z", "isometry_bias_rel", "tv_slope", "pass"], rows)
    write_summary(out_dir, {"experiment": "example7", "pass": bool(all_ok),
                            "alphas": alphas})
    return 0 if all_ok else 1


def run_conditions(cfg: dict, out_dir: Path, seed_override: int | None = None) -> int:
    timegrid = build_timegrid(cfg)
    scenarios = build_scenarios(cfg, seed_override)
    J = _positive(cfg, "grid.J", timegrid.n_steps, int)
    if _get(cfg, "integrand", {"kind": "power_law"}).get("kind") != "power_law":
        raise ConfigError("the conditions experiment is defined for the power_law integrand")
    alpha = _positive(cfg, "integrand.alpha", 1.0)
    doublings = _positive(cfg, "probe.doublings", 3, int, zero_ok=True)
    growth_factor = _positive(cfg, "probe.growth_factor", 1.5)
    S = simulate_driver(build_driver_spec(cfg), timegrid, scenarios)
    spec = dom.DominatedSpec.from_power_profile(alpha, timegrid, J)
    report = dom.condition_evaluator(spec, S, S.control)
    # spatial-refinement growth ratio per condition (sup at 2^k J over sup at J);
    # the refined grid is also the certificate's last probe, so it is built once
    refined = dom.condition_evaluator(spec.reatomize(J * 2**doublings), S, S.control)
    cert = dom.measure_valuedness_certificate(
        spec, S, S.control, growth_factor=growth_factor,
        doublings=doublings, finest_sup=refined["c66"]["sup"])
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
        cfg = load_config(args.config)
        out_dir = Path(args.out if args.out is not None else cfg.get("output", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        return RUNNERS[args.command](cfg, out_dir, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
