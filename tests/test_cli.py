import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mvstoch
from mvstoch import cli, drivers, integrands, mvintegral
from mvstoch.cli import main
from mvstoch.dominated import DominatedSpec
from mvstoch.drivers import DriverSpec, ScenarioSet, StoppingRule, TimeGrid, simulate_driver
from mvstoch.grid import CompactGrid, build_test_family


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def fubini_config(tmp_path, **overrides):
    cfg = {
        "time": {"T": 1.0, "N": 32},
        "grid": {"J": 32},
        "scenarios": {"mode": "monte_carlo", "count": 20, "seed": 99},
        "driver": {"kind": "brownian"},
        "integrand": {"kind": "power_law", "alpha": 1.0},
        "test_family": {"k_max": 8},
        "tolerances": {"fubini": 1e-10},
    }
    cfg.update(overrides)
    return write_config(tmp_path, "fubini.json", cfg)


class TestFubiniCommand:
    def test_power_law_passes(self, tmp_path):
        cfg = fubini_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fubini", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] and summary["schema_version"] == 1
        assert (out / "fubini_report.csv").exists()

    def test_elementary_passes_tight_tolerance(self, tmp_path):
        cfg = fubini_config(
            tmp_path,
            integrand={"kind": "random_elementary", "count": 3, "seed": 5},
            tolerances={"fubini": 1e-12},
        )
        assert main(["fubini", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_corrupted_comparison_fails(self, tmp_path):
        cfg = fubini_config(tmp_path, corrupt_comparison=True)
        assert main(["fubini", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
        summary = json.loads((tmp_path / "bad" / "summary.json").read_text())
        assert not summary["pass"]

    def test_deterministic_outputs(self, tmp_path):
        cfg = fubini_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["fubini", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["fubini", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "fubini_report.csv").read_bytes() == (out2 / "fubini_report.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        cfg = fubini_config(tmp_path, integrand={"kind": "random_dominated"})
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["fubini", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["fubini", "--config", cfg, "--out", str(out2), "--seed", "123"]) == 0
        assert (out1 / "fubini_report.csv").read_bytes() != (out2 / "fubini_report.csv").read_bytes()

    def test_bad_config_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["fubini", "--config", str(path)]) == 2

    def test_threads_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fubini", "--config", fubini_config(tmp_path), "--threads", "4"])
        assert exc.value.code == 2

    def test_missing_time_block_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "incomplete.json",
                           {"scenarios": {"mode": "monte_carlo", "count": 2, "seed": 1}})
        assert main(["fubini", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestApproxCommand:
    def approx_config(self, tmp_path, **overrides):
        cfg = {
            "time": {"T": 4.0, "N": 3},
            "grid": {"J": 8, "T_K": 1.0},
            "scenarios": {"mode": "tree", "branching": 2, "depth": 3},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": "random_lattice", "count": 1, "seed": 2024, "ball": 1.0},
            "schedule": [4, 16, 64],
            "tolerances": {"approx_q": 1e-6},
        }
        cfg.update(overrides)
        return write_config(tmp_path, "approx.json", cfg)

    def test_pipeline_passes(self, tmp_path):
        cfg = self.approx_config(tmp_path)
        out = tmp_path / "out"
        assert main(["approx", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "approx_report.csv").read_text().strip().splitlines()
        assert body[0].startswith("integrand,n,net_size,q_error,r_error")
        assert len(body) == 4  # header + three net sizes

    def test_monte_carlo_rejected(self, tmp_path):
        cfg = self.approx_config(
            tmp_path, scenarios={"mode": "monte_carlo", "count": 8, "seed": 1})
        assert main(["approx", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_each_seminorm_computed_once(self, tmp_path, monkeypatch):
        calls = {"_distinct_rows": 0, "_norm_sums": 0, "integrand_seminorm": 0,
                 "continuity_constant": 0, "charge_blocks": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # rebind each in every module that imported it, so that any caller counts
        for fname in calls:
            original = getattr(integrands, fname, None) or getattr(mvintegral, fname)
            wrapped = counting(fname, original)
            for name, module in list(sys.modules.items()):
                if name.startswith("mvstoch") and getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, wrapped)
        cfg = self.approx_config(tmp_path, integrand={"kind": "random_lattice", "count": 2,
                                                      "seed": 2024, "ball": 1.0})
        assert main(["approx", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        # per lattice integrand: its distinct rows and one pass over its scenarios for every
        # seminorm and continuity constant, and its charge drawn once beside each of the three
        # approximants' charges
        assert calls == {"_distinct_rows": 2, "_norm_sums": 2, "integrand_seminorm": 0,
                         "continuity_constant": 0, "charge_blocks": 2 * (1 + 3)}
        monkeypatch.undo()
        # the reports equal the public seminorms of the approximants
        sc = ScenarioSet.tree(2, 3)
        tg, grid = TimeGrid(4.0, 3), CompactGrid(1.0, 8)
        fam = build_test_family(grid, grid.n_atoms + 2**grid.n_atoms)
        tau = StoppingRule.never(sc, 3)
        V = simulate_driver(DriverSpec("brownian"), tg, sc).control
        phi = integrands.random_lattice_process(grid, tg, sc, np.random.default_rng(2024))
        result = integrands.approximate_elementary(phi, tau, V, fam, sc, c=1.0)
        with open(tmp_path / "o" / "approx_report.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["integrand"] == "lattice_0"]
        for row, elem in zip(rows, result.processes, strict=True):
            assert float(row["q_error"]) == integrands.integrand_seminorm(elem, fam, tau, V, sc,
                                                                          minus=phi)


class TestVolterraCommand:
    def volterra_config(self, tmp_path, **overrides):
        cfg = {
            "time": {"T": 1.0, "N": 128},
            "scenarios": {"mode": "monte_carlo", "count": 30, "seed": 7},
            "driver": {"kind": "brownian"},
            "kernels": [{"name": "power_alpha", "alpha": 0.75}, {"name": "affine"}],
            "alphas": [0.25],
            "diagnostic": {"n_steps": 1024, "scenarios": 100, "levels": 5, "seed": 3},
            "tolerances": {"decomposition": 1e-10},
        }
        cfg.update(overrides)
        return write_config(tmp_path, "volterra.json", cfg)

    def test_decomposition_and_slopes(self, tmp_path):
        cfg = self.volterra_config(tmp_path)
        out = tmp_path / "out"
        assert main(["volterra", "--config", cfg, "--out", str(out)]) == 0
        slopes = (out / "volterra_slopes.csv").read_text().strip().splitlines()
        assert slopes[0] == "alpha,slope"
        assert len(slopes) == 2

    def test_report_rows_parse_with_kernel_names_intact(self, tmp_path):
        cfg = self.volterra_config(
            tmp_path, kernels=[{"name": "power_alpha", "alpha": 0.75},
                               {"name": "affine", "level": 1.0, "slope": 2.0}])
        out = tmp_path / "out"
        assert main(["volterra", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "volterra_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert list(row) == ["kernel", "identity_gap", "density_route_gap"]
            assert None not in row.values()
        assert rows[1]["kernel"] == "affine[1.0,2.0]"
        assert float(rows[1]["identity_gap"]) <= 1e-10

    def test_unknown_kernel_exits_two(self, tmp_path, monkeypatch):
        # the kernels are the lead of the diagnostic's pool: its worker must be joined
        monkeypatch.setattr(drivers, "WORKERS", 2)
        cfg = self.volterra_config(tmp_path, kernels=[{"name": "affine"}, {"name": "nope"}])
        threads = threading.active_count()
        assert main(["volterra", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert threading.active_count() == threads

    def test_kernel_failing_the_variation_condition_is_reported(self, tmp_path):
        # the exploding kernel of test_exploding_kernel_flagged, as a tabulated CSV
        matrix = np.zeros((9, 9))
        matrix[8, 2] = 1e200
        matrix[7, 2] = -1e200
        kernel_csv = tmp_path / "exploding.csv"
        np.savetxt(kernel_csv, matrix, delimiter=",")
        cfg = self.volterra_config(
            tmp_path, time={"T": 1.0, "N": 8},
            kernels=[{"name": "affine"}, {"name": "tabulated", "path": str(kernel_csv)}])
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert main(["volterra", "--config", cfg, "--out", str(out)]) == 1
        # split from the right into kernel, identity_gap, density_route_gap
        lines = (out / "volterra_report.csv").read_text().splitlines()
        rows = [line.rsplit(",", 2) for line in lines[1:]]
        assert len(rows) == 2 and all(len(row) == 3 for row in rows)
        assert float(rows[0][1]) <= 1e-10
        assert rows[1][0].startswith("tabulated")
        assert np.isnan(float(rows[1][1])) and np.isnan(float(rows[1][2]))
        assert json.loads((out / "summary.json").read_text())["pass"] is False


class TestDiagnosticSection:
    """A bad roughness-diagnostic section is a configuration error (exit 2), found before the
    volterra kernels are decomposed or any thread starts, so no report is written."""

    @pytest.mark.parametrize("command", ["volterra", "example7"])
    @pytest.mark.parametrize("diagnostic", [{"levels": 2}, {"levels": 6, "n_steps": 48}],
                             ids=["two_levels", "indivisible_steps"])
    def test_exits_two_before_any_work(self, tmp_path, monkeypatch, capsys, command, diagnostic):
        monkeypatch.setattr(drivers, "WORKERS", 2)
        shipped = json.loads((Path(mvstoch.__file__).parents[2] / "configs" / f"{command}.json").read_text())
        shipped["diagnostic"] = {**shipped.get("diagnostic", {}), **diagnostic}
        cfg, out = write_config(tmp_path, f"{command}.json", shipped), tmp_path / "o"
        threads = threading.active_count()
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        assert err.startswith("config error: diagnostic.") and "Traceback" not in err
        assert list(out.iterdir()) == []


class TestMalformedSection:
    @pytest.mark.parametrize("section", [
        {"driver": {"vol": None}},
        {"scenarios": 5},
        {"driver": ["brownian"]},
        {"tolerances": [1e-10]},
        {"test_family": {"k_max": "x"}},
    ], ids=["driver_vol_null", "scenarios_number", "driver_list", "tolerances_list",
            "k_max_text"])
    def test_exits_two_without_traceback(self, tmp_path, capsys, section):
        out = tmp_path / "o"
        assert main(["fubini", "--config", fubini_config(tmp_path, **section),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert list(out.iterdir()) == []


class TestExample7Command:
    def test_single_alpha_report(self, tmp_path):
        cfg = write_config(tmp_path, "ex7.json", {
            "time": {"T": 1.0, "N": 256},
            "grid": {"J": 256},
            "scenarios": {"seed": 11},
            "alphas": [1.0],
            "isometry": {"scenarios": 20000, "n_steps": 1024},
            "diagnostic": {"n_steps": 1024, "scenarios": 100, "levels": 5},
        })
        out = tmp_path / "out"
        assert main(["example7", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "example7_report.csv").read_text().strip().splitlines()
        assert len(body) == 2
        row = body[1].split(",")
        assert row[0] == "1"
        assert row[4] == "True"  # certificate for alpha > 1/2

    def test_isometry_gate_reads_the_sum_variance(self, tmp_path):
        # at 64 steps the left-endpoint sum's variance sits 4.7 % above the continuous
        # u^3 / 3, which the 8209 scenarios resolve (z = 3.48 against it); the gate
        # reads the sum's own variance, and the bias goes to its own column
        cfg = write_config(tmp_path, "ex7_iso.json", {
            "time": {"T": 1.0, "N": 64},
            "grid": {"J": 64},
            "scenarios": {"seed": 11},
            "alphas": [1.0],
            "isometry": {"scenarios": 2 * drivers.SCENARIO_CHUNK + 17, "n_steps": 64},
            "diagnostic": {"n_steps": 64, "scenarios": 40, "levels": 3},
        })
        out = tmp_path / "out"
        assert main(["example7", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "example7_report.csv") as fh:
            row, = csv.DictReader(fh)
        assert float(row["isometry_max_z"]) <= 3.0 and row["pass"] == "True"
        # the sum's exact relative excess over u^3 / 3 at u = T/2 and T: dt (3 / (2u) + ...)
        dt = 1.0 / 64
        excess = max((sum((u - k * dt) ** 2 for k in range(round(u / dt))) * dt) / (u**3 / 3) - 1
                     for u in (0.5, 1.0))
        assert float(row["isometry_bias_rel"]) == pytest.approx(excess, rel=1e-12)

    def test_nonpositive_alpha_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "ex7bad.json", {
            "time": {"T": 1.0, "N": 16},
            "alphas": [0.0],
        })
        assert main(["example7", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestConditionsCommand:
    def test_report_written(self, tmp_path):
        cfg = write_config(tmp_path, "cond.json", {
            "time": {"T": 1.0, "N": 128},
            "grid": {"J": 128},
            "scenarios": {"mode": "monte_carlo", "count": 4, "seed": 2},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": "power_law", "alpha": 1.0},
        })
        out = tmp_path / "out"
        assert main(["conditions", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "conditions.json").read_text())
        assert {"c63", "c64", "c66", "c67", "c_veraar"} <= payload["conditions"].keys()
        assert payload["certificate"]["hypotheses_met"] is True


class TestNumericKeys:
    """A non-numeric or out-of-range grid, integrand, probe, kernel, isometry or tolerance
    value is a configuration error (exit 2) naming its key, found before the driver is
    simulated, so no report is written."""

    CASES = {
        "J_text": ("grid", {"J": "x"}), "J_zero": ("grid", {"J": 0}),
        "alpha_text": ("integrand", {"alpha": "x"}), "alpha_zero": ("integrand", {"alpha": 0}),
        "doublings_text": ("probe", {"doublings": "x"}),
        "doublings_negative": ("probe", {"doublings": -1}),
        "growth_factor_text": ("probe", {"growth_factor": "x"}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_conditions_exits_two_before_the_driver(self, tmp_path, monkeypatch, capsys, case):
        section, values = self.CASES[case]
        shipped = json.loads((Path(mvstoch.__file__).parents[2] / "configs" / "conditions.json").read_text())
        shipped[section] = {**shipped[section], **values}
        self.check(tmp_path, monkeypatch, capsys, "conditions", shipped, f"{section}.{next(iter(values))}")

    @pytest.mark.parametrize("case", ["J_zero", "doublings_negative", "growth_factor_text"])
    def test_example7_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys, case):
        section, values = self.CASES[case]
        shipped = json.loads((Path(mvstoch.__file__).parents[2] / "configs" / "example7.json").read_text())
        shipped[section] = {**shipped[section], **values}
        monkeypatch.setattr(cli.vol, "power_volterra_terminals", self.no_work)
        self.check(tmp_path, monkeypatch, capsys, "example7", shipped, f"{section}.{next(iter(values))}")

    VOLTERRA_CASES = {
        "alpha_text": ([{"name": "power_alpha", "alpha": "x"}], "kernels[0].alpha"),
        "alpha_negative": ([{"name": "affine"}, {"name": "power_alpha", "alpha": -1}],
                           "kernels[1].alpha"),
        "alpha_missing": ([{"name": "power_alpha"}], "kernels[0].alpha"),
        "slope_text": ([{"name": "affine", "level": 1.0, "slope": "x"}], "kernels[0].slope"),
    }

    @pytest.mark.parametrize("case", list(VOLTERRA_CASES))
    def test_volterra_kernel_exits_two_before_the_driver(self, tmp_path, monkeypatch, capsys, case):
        # the kernels were read in the decomposition lead, after the diagnostic's threads started
        kernels, key = self.VOLTERRA_CASES[case]
        shipped = json.loads((Path(mvstoch.__file__).parents[2] / "configs" / "volterra.json").read_text())
        shipped["kernels"] = kernels
        monkeypatch.setattr(cli.vol, "power_volterra_paths", self.no_work)
        self.check(tmp_path, monkeypatch, capsys, "volterra", shipped, key)

    def test_volterra_tolerance_exits_two_before_the_driver(self, tmp_path, monkeypatch, capsys):
        shipped = json.loads((Path(mvstoch.__file__).parents[2] / "configs" / "volterra.json").read_text())
        shipped["tolerances"] = {"decomposition": "x"}
        self.check(tmp_path, monkeypatch, capsys, "volterra", shipped, "tolerances.decomposition")

    def test_example7_isometry_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys):
        shipped = json.loads((Path(mvstoch.__file__).parents[2] / "configs" / "example7.json").read_text())
        shipped["isometry"] = {**shipped.get("isometry", {}), "scenarios": "x"}
        monkeypatch.setattr(cli.vol, "power_volterra_terminals", self.no_work)
        self.check(tmp_path, monkeypatch, capsys, "example7", shipped, "isometry.scenarios")

    @staticmethod
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    def check(self, tmp_path, monkeypatch, capsys, command, payload, key):
        monkeypatch.setattr(cli, "simulate_driver", self.no_work)
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, "cfg.json", payload),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and "Traceback" not in err
        assert list(out.iterdir()) == []


class TestElementaryFromConfig:
    def test_term_list_integrand(self, tmp_path):
        cfg = write_config(tmp_path, "elem.json", {
            "time": {"T": 1.0, "N": 16},
            "grid": {"J": 4},
            "scenarios": {"mode": "monte_carlo", "count": 10, "seed": 3},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": "elementary", "terms": [
                {"weights": [[0.5, -0.5, 0.0, 1.0, 0.0]], "start": 0, "stop": 8},
                {"weights": [[0.0, 0.25, 0.0, 0.0, -1.0]], "start": 4, "stop": 16},
            ]},
            "tolerances": {"fubini": 1e-12},
        })
        assert main(["fubini", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_bad_term_list(self, tmp_path):
        cfg = write_config(tmp_path, "elem_bad.json", {
            "time": {"T": 1.0, "N": 8},
            "grid": {"J": 4},
            "scenarios": {"mode": "monte_carlo", "count": 4, "seed": 3},
            "integrand": {"kind": "elementary", "terms": [{"weights": [[1.0]], "start": 0}]},
        })
        assert main(["fubini", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestConditionGrowth:
    def test_conditions_report_carries_growth_ratios(self, tmp_path):
        cfg = write_config(tmp_path, "cond2.json", {
            "time": {"T": 1.0, "N": 64},
            "grid": {"J": 64},
            "scenarios": {"mode": "monte_carlo", "count": 2, "seed": 2},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": "power_law", "alpha": 0.25},
        })
        out = tmp_path / "out"
        assert main(["conditions", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "conditions.json").read_text())
        for key in ("c63", "c64", "c66", "c67", "c_veraar"):
            assert "growth_ratio" in payload["conditions"][key]
        # the square-density condition diverges under refinement below 1/2
        assert payload["conditions"]["c66"]["growth_ratio"] > 1.5
        assert payload["certificate"]["hypotheses_met"] is False

    def test_each_probe_grid_built_once(self, tmp_path, monkeypatch):
        built = []
        original = DominatedSpec.from_power_profile.__func__

        def counting(cls, alpha, timegrid, n_cells):
            built.append(n_cells)
            return original(cls, alpha, timegrid, n_cells)

        monkeypatch.setattr(DominatedSpec, "from_power_profile", classmethod(counting))
        cfg = write_config(tmp_path, "cond3.json", {
            "time": {"T": 1.0, "N": 32},
            "grid": {"J": 16},
            "scenarios": {"mode": "monte_carlo", "count": 2, "seed": 2},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": "power_law", "alpha": 0.25},
        })
        assert main(["conditions", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert sorted(built) == [16, 32, 64, 128]


class TestImportCost:
    def run_fresh(self, code):
        src = str(Path(mvstoch.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        code = "import sys, mvstoch.cli; print('scipy.signal' in sys.modules)"
        assert self.run_fresh(code) == "False"

    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        # the diagnostic's worker threads are plain threading.Threads
        code = "import sys, mvstoch.cli; print('concurrent.futures' in sys.modules)"
        assert self.run_fresh(code) == "False"

    def test_volterra_run_loads_no_scipy(self, tmp_path):
        # scipy is a test dependency only: the FFT paths use numpy.fft
        cfg = write_config(tmp_path, "volterra.json", {
            "time": {"T": 1.0, "N": 16},
            "scenarios": {"mode": "monte_carlo", "count": 4, "seed": 7},
            "kernels": [{"name": "power_alpha", "alpha": 0.75}, {"name": "affine"}],
            "alphas": [0.25, 0.75],
            "diagnostic": {"n_steps": 64, "scenarios": 8, "levels": 3, "seed": 3},
        })
        code = ("import sys; from mvstoch.cli import main; "
                f"rc = main(['volterra', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]); "
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert self.run_fresh(code) == "0 []"


class TestDeterminismAcrossSubcommands:
    def test_approx_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "approx_det.json", {
            "time": {"T": 4.0, "N": 3},
            "grid": {"J": 8, "T_K": 1.0},
            "scenarios": {"mode": "tree", "branching": 2, "depth": 3},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": "random_lattice", "count": 1, "seed": 2024, "ball": 1.0},
            "schedule": [4, 16, 64],
        })
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert main(["approx", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["approx", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "approx_report.csv").read_bytes() == (out2 / "approx_report.csv").read_bytes()

    @pytest.mark.parametrize("subcommand", ["fubini", "approx", "example7"])
    def test_reports_independent_of_blas_threads(self, tmp_path, subcommand):
        if subcommand == "fubini":
            # a one-row integrand on 1025 atoms with 45 test functions: unbounded, its
            # pairings would be gemms large enough for OpenBLAS to split across threads
            weights = np.random.default_rng(12).uniform(-1, 1, size=(1, 1025)).tolist()
            cfg = fubini_config(tmp_path, time={"T": 1.0, "N": 128}, grid={"J": 1024},
                                scenarios={"mode": "monte_carlo", "count": 4, "seed": 3},
                                test_family={"k_max": 40},
                                integrand={"kind": "elementary",
                                           "terms": [{"weights": weights, "start": 0, "stop": 128}]})
        elif subcommand == "example7":
            # three isometry chunks, two drawn at once: each worker's gemvs are
            # 16 x 1024, large enough for OpenBLAS to split when it has threads
            cfg = write_config(tmp_path, "ex7_threads.json", {
                "time": {"T": 1.0, "N": 64},
                "grid": {"J": 64},
                "scenarios": {"seed": 11},
                "alphas": [0.25, 1.0],
                "isometry": {"scenarios": 2 * drivers.SCENARIO_CHUNK + 17, "n_steps": 1024},
                "diagnostic": {"n_steps": 64, "scenarios": 40, "levels": 3},
            })
        else:
            cfg = write_config(tmp_path, "approx_threads.json", {
                "time": {"T": 4.0, "N": 3},
                "grid": {"J": 8, "T_K": 1.0},
                "scenarios": {"mode": "tree", "branching": 2, "depth": 3},
                "driver": {"kind": "brownian"},
                "integrand": {"kind": "random_lattice", "count": 2, "seed": 2024, "ball": 1.0},
                "schedule": [4, 16, 64],
            })
        src = str(Path(mvstoch.__file__).resolve().parent.parent)
        reports = []
        for threads in ("1", None):  # one BLAS thread, then the library's default
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"out_{threads}"
            subprocess.run([sys.executable, "-m", "mvstoch.cli", subcommand, "--config", cfg,
                            "--out", str(out)], env=env, check=True, capture_output=True)
            reports.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(reports[0]) == 2
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("subcommand", ["volterra", "example7"])
    def test_reports_independent_of_workers(self, tmp_path, monkeypatch, subcommand):
        # 40 diagnostic scenarios: five blocks of 8 rows at two workers, three of 16 at one
        diagnostic = {"n_steps": 64, "scenarios": 40, "levels": 3, "seed": 3}
        if subcommand == "volterra":
            cfg = write_config(tmp_path, "volterra_workers.json", {
                "time": {"T": 1.0, "N": 16},
                "scenarios": {"mode": "monte_carlo", "count": 4, "seed": 7},
                "kernels": [{"name": "power_alpha", "alpha": 0.75}, {"name": "affine"}],
                "alphas": [0.25, 0.75],
                "diagnostic": diagnostic,
            })
        else:
            cfg = write_config(tmp_path, "ex7_workers.json", {
                "time": {"T": 1.0, "N": 64},
                "grid": {"J": 64},
                "scenarios": {"seed": 11},
                "alphas": [0.25, 1.0],
                # three chunks, two drawn at once at two workers
                "isometry": {"scenarios": 2 * drivers.SCENARIO_CHUNK + 17, "n_steps": 1024},
                "diagnostic": diagnostic,
            })
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(drivers, "WORKERS", workers)
            out = tmp_path / f"out_{workers}"
            assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
            reports.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(reports[0]) >= 2
        assert reports[0] == reports[1]

    def test_conditions_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "cond_det.json", {
            "time": {"T": 1.0, "N": 64},
            "grid": {"J": 64},
            "scenarios": {"mode": "monte_carlo", "count": 2, "seed": 5},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": "power_law", "alpha": 1.0},
        })
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["conditions", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["conditions", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "conditions.json").read_bytes() == (out2 / "conditions.json").read_bytes()
