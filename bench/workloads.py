"""The benchmark's workloads: generated configs and checks on their reports.

Every workload starts from a config shipped in ``configs/``.  The workload
seed moves every seed in it: each seed key present in the config becomes
``shipped + seed``, and Monte Carlo workloads pass the scenario seed as
``--seed`` too.  Seed 0 therefore reproduces the shipped seeds.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SEED_MODULUS = 2**32


def _get(cfg: dict, dotted: str):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


def _set(cfg: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    for part in parents:
        cfg = cfg.setdefault(part, {})
    cfg[last] = value


def _has(cfg: dict, dotted: str) -> bool:
    try:
        _get(cfg, dotted)
    except (KeyError, TypeError):
        return False
    return True


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_volterra(out: Path, cfg: dict) -> list[str]:
    # kernel names such as "affine[1.0,2.0]" are written unquoted, so split
    # each row from the right: kernel, identity_gap, density_route_gap
    lines = (out / "volterra_report.csv").read_text().splitlines()[1:]
    rows = [line.rsplit(",", 2) for line in lines]
    problems = [] if len(rows) == len(cfg["kernels"]) else [
        f"volterra_report.csv has {len(rows)} rows for {len(cfg['kernels'])} kernels"]
    tol = 1e-10
    problems += [f"kernel {kernel}: identity_gap {gap} > {tol}"
                 for kernel, gap, _ in rows if not float(gap) <= tol]
    return problems


def _check_conditions(out: Path, cfg: dict) -> list[str]:
    report = json.loads((out / "conditions.json").read_text())
    cond, cert = report["conditions"], report["certificate"]
    problems = []
    value, closed = cond["c66_value_at_horizon"], cond["c66_closed_form"]
    if not abs(value - closed) <= 1e-6 * abs(closed):
        problems.append(f"c66 at horizon {value!r} is not within 1e-6 of closed form {closed!r}")
    if cert["hypotheses_met"] is not True:
        problems.append("certificate.hypotheses_met is not true")
    if not cond["c63"]["sup"] <= cond["c64"]["sup"]:
        problems.append(f"c63 sup {cond['c63']['sup']!r} exceeds c64 sup {cond['c64']['sup']!r}")
    return problems


def _check_example7(out: Path, cfg: dict) -> list[str]:
    rows = _rows(out / "example7_report.csv")
    problems = [] if len(rows) == len(cfg["alphas"]) else [
        f"example7_report.csv has {len(rows)} rows for {len(cfg['alphas'])} exponents"]
    problems += [f"alpha {r['alpha']}: row does not pass" for r in rows if r["pass"] != "True"]
    return problems


def _check_approx(out: Path, cfg: dict) -> list[str]:
    rows = _rows(out / "approx_report.csv")
    expected = int(cfg["integrand"]["count"]) * len(cfg["schedule"])
    problems = [] if len(rows) == expected else [
        f"approx_report.csv has {len(rows)} rows, expected {expected}"]
    by_integrand: dict[str, list[float]] = {}
    for r in rows:
        by_integrand.setdefault(r["integrand"], []).append(float(r["q_error"]))
    for label, errs in by_integrand.items():
        if not all(b < a for a, b in zip(errs, errs[1:])):
            problems.append(f"{label}: q_error {errs} is not strictly decreasing")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    shipped: str                      # file name under configs/
    check: Callable[[Path, dict], list[str]]
    overrides: dict = field(default_factory=dict)   # dotted key -> value
    seed_keys: tuple[str, ...] = ()
    cli_seed_key: str | None = None   # passed as --seed as well

    def config(self, root: Path, seed: int, extra: dict | None = None) -> dict:
        cfg = json.loads((root / "configs" / self.shipped).read_text())
        for key, value in {**self.overrides, **(extra or {})}.items():
            _set(cfg, key, value)
        for key in self.seed_keys:
            if _has(cfg, key):
                _set(cfg, key, (int(_get(cfg, key)) + seed) % SEED_MODULUS)
        return cfg

    def cli_args(self, cfg: dict) -> list[str]:
        if self.cli_seed_key is None:
            return []
        return ["--seed", str(_get(cfg, self.cli_seed_key))]

    def verify(self, out: Path, cfg: dict) -> list[str]:
        """Problems found in the reports of one run; empty when they pass."""
        try:
            summary = json.loads((out / "summary.json").read_text())
            problems = [] if summary.get("pass") is True else ["summary.json pass is not true"]
            return problems + self.check(out, cfg)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {type(exc).__name__}: {exc}"]


WORKLOADS = {w.name: w for w in [
    Workload(
        "example7", "example7", "example7.json",
        _check_example7,
        # The shipped config runs 46 s at 2.5 GB, too long to repeat within a
        # run.  Halving N, quartering J and cutting the Monte Carlo sample
        # counts keeps every stage, the five-exponent loop (so the repeated
        # draws and spec builds) and the volterra/dominated split (55/45) at
        # about 7 s.  Smaller grids breach the report's own tolerances:
        # N = 512 the alpha = 2 square-density bound, J = 512 the alpha <= 1 ones.
        overrides={"time.N": 1024, "grid.J": 1024,
                   "isometry.scenarios": 10000, "diagnostic.scenarios": 250},
        seed_keys=("scenarios.seed",), cli_seed_key="scenarios.seed"),
    Workload(
        "conditions", "conditions", "conditions.json",
        _check_conditions,
        # Half the shipped N: 5 s and 3.0 GB instead of 10 s and 5.8 GB, so
        # that repeated runs leave the machine's other users memory to spare.
        # The broadcast over scenarios still dominates time and memory.
        overrides={"time.N": 512},
        seed_keys=("scenarios.seed",), cli_seed_key="scenarios.seed"),
    Workload(
        "volterra", "volterra", "volterra.json",
        _check_volterra,
        seed_keys=("scenarios.seed", "diagnostic.seed"), cli_seed_key="scenarios.seed"),
    Workload(
        "approx-tree", "approx", "approx.json",
        _check_approx,
        # J = 4 keeps the default test family at 37 members; J = 8 has 521
        # and makes depth 12 take about two minutes.
        overrides={"scenarios.depth": 12, "time.N": 12, "grid.J": 4},
        seed_keys=("integrand.seed",)),
]}
