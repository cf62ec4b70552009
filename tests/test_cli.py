import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

import mvstoch
from mvstoch import cli, drivers, integrands, mvintegral
from mvstoch import dominated as dom
from mvstoch.cli import main
from mvstoch.dominated import DominatedSpec
from mvstoch.drivers import DriverSpec, ScenarioSet, StoppingRule, TimeGrid, simulate_driver
from mvstoch.grid import CompactGrid, build_test_family
from mvstoch.mvintegral import fubini_check


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def shipped(command):
    return json.loads((Path(mvstoch.__file__).parents[2] / "configs" / f"{command}.json").read_text())


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


def no_work(*args, **kwargs):
    raise AssertionError("work started before the config was checked")


def assert_config_error(tmp_path, monkeypatch, capsys, command, payload, key):
    """``command`` on ``payload`` exits 2 with a config error naming ``key`` and no traceback,
    before its runner is entered: no driver simulated, no thread started, no report."""
    monkeypatch.setattr(cli, "simulate_driver", no_work)
    monkeypatch.setitem(cli.RUNNERS, command, no_work)
    out = tmp_path / "o"
    threads = threading.active_count()
    assert main([command, "--config", write_config(tmp_path, "cfg.json", payload),
                 "--out", str(out)]) == 2
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ") and "Traceback" not in err
    assert list(out.iterdir()) == []


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

    def test_check_peak_flat_in_scenarios(self):
        # one block of scenarios at a time: a charge block, the pairings and the Ito paths of
        # its rows (measured 2.21 and 2.22 MB at N = J = 128; the whole-ensemble check, which
        # held (P, n_f, N + 1) pairings on both sides, peaked at 6.5 and 51.9 MB)
        tg = TimeGrid(1.0, 128)
        phi, _ = dom.power_law_integrand(1.0, tg, 128)
        fam = build_test_family(phi.grid, 16)
        peaks = {}
        for P in (100, 800):
            S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(P, 3))
            peaks[P] = traced_peak(lambda: fubini_check(phi, S, fam, corrupt=1e-3))
        assert peaks[800] <= peaks[100] + 0.05e6, peaks

    def test_corrupt_comparison_must_be_a_boolean(self, tmp_path, monkeypatch, capsys):
        # bool("false") is true: read that way, the negative control would run and exit 1
        payload = json.loads(Path(fubini_config(tmp_path, corrupt_comparison="false")).read_text())
        assert_config_error(tmp_path, monkeypatch, capsys, "fubini", payload, "corrupt_comparison")

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
        # seminorm and continuity constant; the transfer check charges the run heads itself and
        # draws no charge stream
        assert calls == {"_distinct_rows": 2, "_norm_sums": 2, "integrand_seminorm": 0,
                         "continuity_constant": 0, "charge_blocks": 0}
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

    def test_a_never_rule_masks_no_charge_stream(self, tmp_path, monkeypatch):
        # approx runs stop nothing, so the transfer check integrates against the driver itself:
        # the only masks are the stopping weights', one per integrand, and none per charge stream
        masks = []
        original = StoppingRule.increment_mask

        def counting(self):
            masks.append(1)
            return original(self)

        monkeypatch.setattr(StoppingRule, "increment_mask", counting)
        cfg = self.approx_config(tmp_path, integrand={"kind": "random_lattice", "count": 2,
                                                      "seed": 2024, "ball": 1.0})
        assert main(["approx", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(masks) == 2

    def test_peak_does_not_grow_with_the_integrand_count(self, tmp_path):
        # a depth-11 binary tree (P = 2048), N = 11, J = 4: one integrand's weights are 0.9 MB.
        # Integrands are drawn one at a time and each one's approximants are freed before the
        # next is drawn, so three peak as high as one (measured: 10.0 MB for both).  Drawing
        # them all up front adds 1.8 MB, keeping the last result while the next is
        # approximated 0.56 MB.  An untraced run first, so that neither traced run counts the
        # modules it imports
        warm = self.approx_config(tmp_path)
        assert main(["approx", "--config", warm, "--out", str(tmp_path / "o")]) == 0
        peaks = {}
        for count in (1, 3):
            cfg = self.approx_config(tmp_path, time={"T": 4.0, "N": 11}, grid={"J": 4, "T_K": 1.0},
                                     scenarios={"mode": "tree", "branching": 2, "depth": 11},
                                     integrand={"kind": "random_lattice", "count": count,
                                                "seed": 2024, "ball": 1.0})
            tracemalloc.start()
            try:
                assert main(["approx", "--config", cfg, "--out", str(tmp_path / f"o{count}")]) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] <= peaks[1] + 2048 * 11 * 5 * 8 // 4, peaks  # a quarter of one's weights


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

    def test_kernel_loop_peak_flat_in_kernels(self, tmp_path):
        # each kernel's row is built in its own call, a block of scenarios at a time, which keeps
        # only the direct path past the identity gap: four kernels peak as high as one
        # (measured 1.000x at 2.47 MB, 5.82 MB when a row decomposed all 100 scenarios at once;
        # 1.40x when the previous kernel's decomposition and density paths stayed alive)
        kernels = shipped("volterra")["kernels"]
        assert len(kernels) == 4
        peaks = {}
        for count in (1, 4):
            cfg = cli.check_config("volterra", {
                "time": {"T": 1.0, "N": 1024}, "scenarios": {"count": 100, "seed": 7},
                "kernels": kernels[:count], "alphas": [0.75],
                "diagnostic": {"n_steps": 16, "scenarios": 4, "levels": 3}})
            peaks[count] = traced_peak(lambda: cli.run_volterra(cfg, tmp_path))
        assert peaks[4] <= 1.2 * peaks[1], peaks

    @pytest.mark.parametrize("alpha", [-1.0, 0.0])
    def test_nonpositive_diagnostic_alpha_exits_two(self, tmp_path, monkeypatch, capsys, alpha):
        # the diagnostic's power kernels need alpha > 0, as power_kernel and example7 do: -1.0
        # divided by zero at lag 0 and passed, and 0.0 passed
        payload = {**shipped("volterra"), "alphas": [0.25, alpha]}
        assert_config_error(tmp_path, monkeypatch, capsys, "volterra", payload, "alphas[1]")

    def test_empty_kernels_exit_two(self, tmp_path, monkeypatch, capsys):
        # no kernel wrote an empty report with "pass": true
        payload = {**shipped("volterra"), "kernels": []}
        assert_config_error(tmp_path, monkeypatch, capsys, "volterra", payload, "kernels")

    def test_kernel_row_peak_flat_in_scenarios(self):
        # a row holds one block of 46 rows at N = 512 (``block_rows``): the decomposition's
        # five paths and a row of FFT work per scenario (2.08 MB), and about 0.2 MB of fixed
        # slack, the kernel's spectra among them (measured 2.249 MB at P = 64, 2.259 MB at
        # P = 512; with the former 60-row blocks, 2.03 MB when a block's last paths lived on
        # beside the next block's, and 10.8 MB when the row decomposed all 512 at once)
        tg = TimeGrid(1.0, 512)
        row = 5 * 513 * 8 + integrands._fft_row_bytes(512)
        block = drivers.block_rows(row, 512) * row
        for params in ({"name": "power_alpha", "alpha": 0.75}, {"name": "affine", "level": 1.0,
                                                                "slope": 2.0}):
            peaks = {}
            for P in (64, 512):
                S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(P, 3))
                peaks[P] = traced_peak(lambda: cli._kernel_row(params, tg, S))
            slack = peaks[64] - block
            assert slack <= 0.4e6, peaks
            assert peaks[512] <= block + slack + 0.02e6, peaks

    def test_unknown_kernel_exits_two(self, tmp_path, monkeypatch):
        # the kernels are the lead of the diagnostic's pool: its worker must be joined
        monkeypatch.setattr(drivers, "WORKERS", 2)
        cfg = self.volterra_config(tmp_path, kernels=[{"name": "affine"}, {"name": "nope"}])
        threads = threading.active_count()
        assert main(["volterra", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert threading.active_count() == threads

    def test_tabulated_csv_of_the_wrong_shape_exits_two(self, tmp_path, monkeypatch, capsys):
        # the CSV is read with the config: before the driver and the diagnostic's worker
        monkeypatch.setattr(drivers, "WORKERS", 2)
        kernel_csv = tmp_path / "small.csv"
        np.savetxt(kernel_csv, np.eye(2), delimiter=",")
        cfg = self.volterra_config(
            tmp_path, time={"T": 1.0, "N": 16},
            kernels=[{"name": "affine"}, {"name": "tabulated", "path": str(kernel_csv)}])
        payload = json.loads(Path(cfg).read_text())
        assert_config_error(tmp_path, monkeypatch, capsys, "volterra", payload, "kernels[1].path")

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
    @pytest.mark.parametrize("diagnostic, key", [
        ({"levels": 2}, "diagnostic.levels"),
        ({"levels": 6, "n_steps": 48}, "diagnostic.n_steps"),
    ], ids=["two_levels", "indivisible_steps"])
    def test_exits_two_before_any_work(self, tmp_path, monkeypatch, capsys, command, diagnostic,
                                       key):
        monkeypatch.setattr(drivers, "WORKERS", 2)
        payload = shipped(command)
        payload["diagnostic"] = {**payload.get("diagnostic", {}), **diagnostic}
        assert_config_error(tmp_path, monkeypatch, capsys, command, payload, key)


class TestMalformedSection:
    @pytest.mark.parametrize("section, key", [
        ({"driver": {"vol": None}}, "driver.vol"),
        ({"scenarios": 5}, "scenarios"),
        ({"driver": ["brownian"]}, "driver"),
        ({"tolerances": [1e-10]}, "tolerances"),
        ({"test_family": {"k_max": "x"}}, "test_family.k_max"),
    ], ids=["driver_vol_null", "scenarios_number", "driver_list", "tolerances_list",
            "k_max_text"])
    def test_exits_two_without_traceback(self, tmp_path, monkeypatch, capsys, section, key):
        payload = json.loads(Path(fubini_config(tmp_path, **section)).read_text())
        assert_config_error(tmp_path, monkeypatch, capsys, "fubini", payload, key)


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

    def test_no_isometry_ensemble_beside_the_diagnostic(self, tmp_path, monkeypatch):
        # the (P, n_alpha, 2) terminal ensemble is reduced to its variances and freed before
        # the roughness diagnostic starts: here it would hold 657 kB
        alphas, P = [0.25, 0.4, 0.75, 1.0, 2.0], 2 * drivers.SCENARIO_CHUNK + 17
        cfg = write_config(tmp_path, "ex7_held.json", {
            "time": {"T": 1.0, "N": 64},
            "grid": {"J": 64},
            "scenarios": {"seed": 11},
            "alphas": alphas,
            "isometry": {"scenarios": P, "n_steps": 64},
            "diagnostic": {"n_steps": 64, "scenarios": 40, "levels": 3},
        })
        ensemble = P * len(alphas) * 2 * 8
        paths, held = cli.vol.power_volterra_paths, []

        def entered(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return paths(*args, **kwargs)

        monkeypatch.setattr(cli.vol, "power_volterra_paths", entered)
        argv = ["example7", "--config", cfg, "--out", str(tmp_path / "out")]
        main(argv)  # untraced warm-up: the imports a first run makes are not counted
        tracemalloc.start()
        try:
            main(argv)
        finally:
            tracemalloc.stop()
        assert len(held) == 2 and held[1] < ensemble // 2

    def test_nonpositive_alpha_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "ex7bad.json", {
            "time": {"T": 1.0, "N": 16},
            "alphas": [0.0],
        })
        assert main(["example7", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_empty_alphas_exit_two(self, tmp_path, monkeypatch, capsys):
        # an empty study wrote an empty report with "pass": true
        payload = {**shipped("example7"), "alphas": []}
        assert_config_error(tmp_path, monkeypatch, capsys, "example7", payload, "alphas")


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
    """An out-of-range or non-numeric grid, integrand, probe, kernel, isometry or tolerance
    value is a configuration error (exit 2) naming its key, found before the runner starts.
    TestKeyTable sets every key to a value of the wrong type; these cases add the bounds."""

    CASES = {
        "J_text": ("grid", {"J": "x"}), "J_zero": ("grid", {"J": 0}),
        "alpha_text": ("integrand", {"alpha": "x"}), "alpha_zero": ("integrand", {"alpha": 0}),
        "doublings_text": ("probe", {"doublings": "x"}),
        "doublings_negative": ("probe", {"doublings": -1}),
        "growth_factor_text": ("probe", {"growth_factor": "x"}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_conditions_exits_two_before_the_driver(self, tmp_path, monkeypatch, capsys, case):
        self.check_section(tmp_path, monkeypatch, capsys, "conditions", case)

    @pytest.mark.parametrize("case", ["J_zero", "doublings_negative", "growth_factor_text"])
    def test_example7_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys, case):
        self.check_section(tmp_path, monkeypatch, capsys, "example7", case)

    VOLTERRA_CASES = {
        "alpha_text": ([{"name": "power_alpha", "alpha": "x"}], "kernels[0].alpha"),
        "alpha_negative": ([{"name": "affine"}, {"name": "power_alpha", "alpha": -1}],
                           "kernels[1].alpha"),
        "alpha_missing": ([{"name": "power_alpha"}], "kernels[0].alpha"),
        "slope_text": ([{"name": "affine", "level": 1.0, "slope": "x"}], "kernels[0].slope"),
    }

    @pytest.mark.parametrize("case", list(VOLTERRA_CASES))
    def test_volterra_kernel_exits_two_before_the_driver(self, tmp_path, monkeypatch, capsys, case):
        kernels, key = self.VOLTERRA_CASES[case]
        payload = {**shipped("volterra"), "kernels": kernels}
        assert_config_error(tmp_path, monkeypatch, capsys, "volterra", payload, key)

    def test_volterra_tolerance_exits_two_before_the_driver(self, tmp_path, monkeypatch, capsys):
        payload = {**shipped("volterra"), "tolerances": {"decomposition": "x"}}
        assert_config_error(tmp_path, monkeypatch, capsys, "volterra", payload,
                            "tolerances.decomposition")

    def test_example7_isometry_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys):
        payload = shipped("example7")
        payload["isometry"] = {**payload["isometry"], "scenarios": 1}
        assert_config_error(tmp_path, monkeypatch, capsys, "example7", payload,
                            "isometry.scenarios")

    def check_section(self, tmp_path, monkeypatch, capsys, command, case):
        section, values = self.CASES[case]
        payload = shipped(command)
        payload[section] = {**payload[section], **values}
        assert_config_error(tmp_path, monkeypatch, capsys, command, payload,
                            f"{section}.{next(iter(values))}")


def witness(spec):
    """A value that ``spec`` passes: its fixed default if it has one, else the first mode,
    a one-item list, false, "out" or the least number the bound allows."""
    if isinstance(spec, cli.Modes):
        mode = next(iter(spec.tables))
        return {spec.key: mode, **witness(spec.tables[mode])}
    if isinstance(spec, dict):
        return {k: witness(s) for k, s in spec.items()}
    if spec.default is not cli.REQUIRED and not callable(spec.default):
        return spec.default
    if isinstance(spec, cli.ListOf):
        return [witness(spec.item)]
    return {bool: False, str: "out"}.get(spec.cast, spec.bound if isinstance(spec.bound, int) else 1)


def placements(spec):
    """(key, modes, key_spec, place) for every key below ``spec``.  ``place(v)`` is a witness
    of spec holding v at that key; ``key`` is relative (".name" or "[0]"), ``modes`` lists
    the modes taken on the way, and a mode key's ``key_spec`` is None."""
    if isinstance(spec, cli.Modes):
        yield f".{spec.key}", (), None, lambda v: {spec.key: v}
        for mode, table in spec.tables.items():
            for key, modes, sub, place in placements(table):
                yield key, (mode, *modes), sub, lambda v, m=mode, p=place: {spec.key: m, **p(v)}
    elif isinstance(spec, dict):
        for k, s in spec.items():
            yield f".{k}", (), s, lambda v, k=k: {**witness(spec), k: v}
            for key, modes, sub, place in placements(s):
                yield f".{k}{key}", modes, sub, lambda v, k=k, p=place: {**witness(spec), k: p(v)}
    elif isinstance(spec, cli.ListOf):
        yield "[0]", (), spec.item, lambda v: [v]
        for key, modes, sub, place in placements(spec.item):
            yield f"[0]{key}", modes, sub, lambda v, p=place: [p(v)]


def table_cases():
    """Every key of every runner's table set to "x"; every numeric key to true, and every
    integer key to 2.5.  Any string is an output directory, so output is set to true."""
    cases, seen = [], set()
    for command, table in cli.RUNNER_KEYS.items():
        for key, modes, sub, place in placements(table):
            key = key[1:]
            if (command, key, id(sub)) in seen:  # the driver kinds share one table
                continue
            seen.add((command, key, id(sub)))
            cast = getattr(sub, "cast", None) if isinstance(sub, cli.Key) else None
            values = ["x" if key != "output" else True]
            values += [True] * (cast in (int, float)) + [2.5] * (cast is int)
            label = f"{command}:{key}" + "".join(f"@{m}" for m in modes)
            cases += [pytest.param(command, key, place(v), id=f"{label}={v!r}") for v in values]
    return cases


def key_names(spec) -> set:
    if isinstance(spec, cli.Modes):
        return {spec.key}.union(*map(key_names, spec.tables.values()))
    if isinstance(spec, dict):
        return set(spec).union(*map(key_names, spec.values()))
    return key_names(spec.item) if isinstance(spec, cli.ListOf) else set()


class TestKeyTable:
    """Every key each runner reads is in ``cli.RUNNER_KEYS``, and a value of the wrong type
    in any of them exits 2 naming the key, before the runner starts."""

    @pytest.mark.parametrize("command, key, payload", table_cases())
    def test_bad_value_exits_two_before_the_runner(self, tmp_path, monkeypatch, capsys,
                                                   command, key, payload):
        assert_config_error(tmp_path, monkeypatch, capsys, command, payload, key)

    def test_walk_reaches_the_grid_integrand_and_schedule_keys(self):
        keys = {(case.values[0], case.values[1]) for case in table_cases()}
        for command in ("fubini", "approx"):
            assert {(command, k) for k in ("grid.T_K", "grid.J", "integrand.ball",
                                           "integrand.count", "integrand.terms",
                                           "integrand.seed", "integrand.wave",
                                           "integrand.drift_wave", "integrand.pool_size",
                                           "integrand.terms[0].start",
                                           "integrand.terms[0].stop")} <= keys
        assert ("approx", "schedule") in keys and ("approx", "schedule[0]") in keys

    def test_empty_schedule_exits_two_before_the_driver(self, tmp_path, monkeypatch, capsys):
        payload = {**shipped("approx"), "schedule": []}
        assert_config_error(tmp_path, monkeypatch, capsys, "approx", payload, "schedule")

    def test_integer_beyond_the_float_range_exits_two(self, tmp_path, monkeypatch, capsys):
        payload = {**shipped("conditions"), "time": {"T": 10**400, "N": 16}}
        assert_config_error(tmp_path, monkeypatch, capsys, "conditions", payload, "time.T")

    def test_per_runner_defaults(self):
        time = {"time": {"T": 2.0, "N": 16}}
        mc = {**time, "scenarios": {"count": 2, "seed": 1}}
        fubini = cli.check_config("fubini", mc)
        assert fubini["grid"] == {"J": 16, "T_K": 2.0} and fubini["test_family"]["k_max"] == 16
        approx = cli.check_config("approx", {**time, "scenarios": {"mode": "tree", "depth": 16}})
        assert approx["grid"] == {"J": 8, "T_K": 1.0}
        assert approx["test_family"]["k_max"] == 9 + 2**9
        assert cli.check_config("conditions", mc)["grid"] == {"J": 16}
        example7 = cli.check_config("example7", time, seed=5)
        assert example7["grid"] == {"J": 4096} and example7["scenarios"] == {"seed": 5}
        lattice = {**mc, "integrand": {"kind": "random_lattice"}}
        assert cli.check_config("fubini", lattice)["integrand"]["count"] == 3
        lattice["integrand"]["kind"] = "random_elementary"
        assert cli.check_config("fubini", lattice)["integrand"]["count"] == 10
        volterra = cli.check_config("volterra", mc)
        assert volterra["kernels"][1] == {"name": "affine", "level": 1.0, "slope": 1.0}

    def test_readme_schema_names_the_table(self):
        readme = (Path(mvstoch.__file__).parents[2] / "README.md").read_text()
        block = readme.split("### Config schema (JSON)")[1].split("```jsonc\n")[1].split("```")[0]
        named, section = {}, None
        for line in block.splitlines():
            top = re.match(r'  "(\w+)":', line)
            if top:
                section = top.group(1)
                named[section] = set()
            if section is not None:
                named[section].update(re.findall(r'"(\w+)"\s*:', line)[1 if top else 0:])
        table = {}
        for keys in cli.RUNNER_KEYS.values():
            for name, spec in keys.items():
                table.setdefault(name, set()).update(key_names(spec))
        assert named == table


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

    @pytest.mark.parametrize("command", ["fubini", "approx"])
    @pytest.mark.parametrize("term, driver", [
        ({"weights": [[1.0, 2.0]], "start": 0, "stop": 4}, {}),  # J + 1 = 5 atoms
        ({"weights": [[1.0, 0.0, 0.0, 0.0, 2.0]], "start": 0, "stop": 9}, {}),  # N = 8
        ({"weights": [[1.0, 0.0, 0.0, 0.0, 2.0]], "start": 0, "stop": 4}, {"d": 2}),
    ], ids=["weights", "stop", "components"])
    def test_terms_not_fitting_the_grids_exit_two_before_the_driver(
            self, tmp_path, monkeypatch, capsys, command, term, driver):
        scenarios = ({"count": 4, "seed": 3} if command == "fubini"
                     else {"mode": "tree", "depth": 3})
        payload = {"time": {"T": 1.0, "N": 8}, "grid": {"J": 4}, "scenarios": scenarios,
                   "driver": {"kind": "brownian", **driver},
                   "integrand": {"kind": "elementary", "terms": [term]}}
        assert_config_error(tmp_path, monkeypatch, capsys, command, payload, "integrand.terms")


class TestDriverFitsTheRun:
    """A driver the run cannot take exits 2 naming the key, before any driver is simulated:
    more than one component for anything but an elementary integrand of as many, a jump rate
    on a kind that draws no jumps, and on a tree (``drivers.tree_fault``) a depth other than N,
    a branching other than 2 or 3, or jumps."""

    CASES = [
        ("fubini", {"driver": {"d": 2}}, "driver.d"),
        ("approx", {"driver": {"d": 2}}, "driver.d"),
        ("volterra", {"driver": {"d": 2}}, "driver.d"),
        ("conditions", {"driver": {"d": 2}}, "driver.d"),
        ("approx", {"scenarios": {"mode": "tree", "depth": 4}}, "scenarios.depth"),
        ("fubini", {"scenarios": {"mode": "tree", "depth": 3}}, "scenarios.depth"),
        ("volterra", {"scenarios": {"mode": "tree", "depth": 3}}, "scenarios.depth"),
        ("conditions", {"scenarios": {"mode": "tree", "depth": 3}}, "scenarios.depth"),
        ("approx", {"scenarios": {"mode": "tree", "branching": 4, "depth": 3}},
         "scenarios.branching"),
        ("approx", {"driver": {"kind": "compound_poisson"}}, "driver.kind"),
        ("approx", {"driver": {"kind": "brownian", "jump_rate": 0.5}}, "driver.jump_rate"),
        # a driver kind that draws no jumps takes no jump_rate, on Monte Carlo runs too
        ("fubini", {"driver": {"kind": "brownian", "jump_rate": 0.5}}, "driver.jump_rate"),
        ("volterra", {"driver": {"kind": "brownian", "jump_rate": 0.5}}, "driver.jump_rate"),
        ("conditions", {"driver": {"kind": "fv_drift", "jump_rate": 0.5}}, "driver.jump_rate"),
    ]

    @pytest.mark.parametrize("command, sections, key", CASES,
                             ids=[f"{command}:{key}" for command, _, key in CASES])
    def test_exits_two_before_the_driver(self, tmp_path, monkeypatch, capsys, command, sections,
                                         key):
        assert_config_error(tmp_path, monkeypatch, capsys, command,
                            {**shipped(command), **sections}, key)

    @pytest.mark.parametrize("command", ["fubini", "approx"])
    def test_elementary_integrand_of_as_many_components_runs(self, tmp_path, command):
        scenarios = ({"count": 4, "seed": 3} if command == "fubini"
                     else {"mode": "tree", "depth": 3})
        cfg = write_config(tmp_path, "elem2.json", {
            "time": {"T": 4.0, "N": 3}, "grid": {"J": 4}, "scenarios": scenarios,
            "driver": {"kind": "brownian", "d": 2},
            "integrand": {"kind": "elementary", "terms": [
                {"weights": [[1.0, 0.0, 0.5, 0.0, 2.0], [0.0, 1.0, 0.0, -1.0, 0.0]],
                 "start": 0, "stop": 2}]}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


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
    def run_fresh(self, code, **extra_env):
        # this process imported mvstoch.cli, which set OPENBLAS_NUM_THREADS: leave it out
        src = str(Path(mvstoch.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""), **extra_env)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()

    THREADS = ("import os, mvstoch.cli; "
               "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")

    def test_cli_import_starts_no_blas_thread(self):
        # pull_blocks' workers are the CLI's parallelism: OpenBLAS starts no pool of its own
        assert self.run_fresh(self.THREADS) == "1 1"

    def test_cli_import_keeps_a_set_blas_thread_count(self):
        threads = min(2, len(os.sched_getaffinity(0)))  # OpenBLAS caps its pool at the cores
        assert self.run_fresh(self.THREADS, OPENBLAS_NUM_THREADS="2") == f"{threads} 2"

    def test_library_import_leaves_blas_threads_unset(self):
        code = "import os, mvstoch.volterra; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert self.run_fresh(code) == "None"

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        code = "import sys, mvstoch.cli; print('scipy.signal' in sys.modules)"
        assert self.run_fresh(code) == "False"

    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        # the diagnostic's worker threads are plain threading.Threads
        code = "import sys, mvstoch.cli; print('concurrent.futures' in sys.modules)"
        assert self.run_fresh(code) == "False"

    def test_approx_run_leaves_numpy_ma_unloaded(self, tmp_path):
        # a bare np.unique imports numpy.ma (about 37 ms); the approx pipeline uses none
        cfg = write_config(tmp_path, "approx.json", shipped("approx"))
        code = ("import sys; from mvstoch.cli import main; "
                f"rc = main(['approx', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]); "
                "print(rc, 'numpy.ma' in sys.modules)")
        assert self.run_fresh(code) == "0 False"

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
    # an indexed input and a dense one, read through its runs
    @pytest.mark.parametrize("kind", ["random_lattice", "random_elementary"])
    def test_approx_outputs_byte_identical(self, tmp_path, kind):
        cfg = write_config(tmp_path, "approx_det.json", {
            "time": {"T": 4.0, "N": 3},
            "grid": {"J": 8, "T_K": 1.0},
            "scenarios": {"mode": "tree", "branching": 2, "depth": 3},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": kind, "count": 1, "seed": 2024, "ball": 1.0},
            "schedule": [4, 16, 64],
        })
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert main(["approx", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["approx", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "approx_report.csv").read_bytes() == (out2 / "approx_report.csv").read_bytes()

    @pytest.mark.parametrize("subcommand", ["fubini", "approx", "example7", "volterra"])
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
        elif subcommand == "volterra":
            # N = 256: the kernels' slot sums span three _slot_sums tiles of 128 atoms
            cfg = write_config(tmp_path, "volterra_threads.json", {
                "time": {"T": 1.0, "N": 256},
                "scenarios": {"mode": "monte_carlo", "count": 4, "seed": 7},
                "kernels": [{"name": "power_alpha", "alpha": 0.75}, {"name": "affine"}],
                "alphas": [0.25, 0.75],
                "diagnostic": {"n_steps": 64, "scenarios": 8, "levels": 3, "seed": 3},
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
        for threads in ("1", "2"):  # the CLI's default, then a pool a user asked for
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
            out = tmp_path / f"out_{threads}"
            subprocess.run([sys.executable, "-m", "mvstoch.cli", subcommand, "--config", cfg,
                            "--out", str(out)], env=env, check=True, capture_output=True)
            reports.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(reports[0]) == (3 if subcommand == "volterra" else 2)
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


def kernel_table(tmp_path, N: int) -> str:
    """A CSV of a dense lower-triangular (N + 1, N + 1) kernel table with values that round."""
    path = tmp_path / "kernel.csv"
    table = np.tril(np.random.default_rng(3).uniform(0.5, 1.5, size=(N + 1, N + 1)))
    np.savetxt(path, table, delimiter=",")
    return str(path)


class TestBlockBudget:
    """Every runner walks its scenarios (or grid times, atoms or slots) in blocks of
    ``drivers.BLOCK_BYTES`` (``drivers.block_rows``); the square-root Veraar mix alone keeps its
    own fixed fold (``dominated.ETA_FOLD_ENTRIES``)."""

    @staticmethod
    def small(tmp_path, case):
        """(command, config, exit code) of a run whose walks span several blocks at a 16 kB
        budget: J is no multiple of N where a dense power-law spec is walked by grid time, and
        a tabulated kernel takes the tiled slot sums.  Fubini's negative control breaks the
        identity, and example7's tolerances fail at N = 32 (as below the bench sizes)."""
        return {
            "fubini-one_row": ("fubini", {
                "time": {"T": 1.0, "N": 32}, "grid": {"J": 32},
                "scenarios": {"count": 20, "seed": 99}, "test_family": {"k_max": 8},
                "corrupt_comparison": True}, 1),
            "fubini-per_scenario": ("fubini", {
                "time": {"T": 1.0, "N": 32}, "grid": {"J": 32},
                "scenarios": {"count": 20, "seed": 99}, "test_family": {"k_max": 8},
                "integrand": {"kind": "random_elementary", "count": 2},
                "corrupt_comparison": True}, 1),
            "approx": ("approx", {
                "time": {"T": 4.0, "N": 4}, "grid": {"J": 8, "T_K": 1.0},
                "scenarios": {"mode": "tree", "branching": 2, "depth": 4},
                "integrand": {"kind": "random_elementary", "count": 1, "seed": 5},
                "test_family": {"k_max": 12}, "schedule": [4, 16]}, 0),
            "volterra": ("volterra", {
                "time": {"T": 1.0, "N": 32}, "scenarios": {"count": 30, "seed": 7},
                "kernels": [{"name": "power_alpha", "alpha": 0.75}, {"name": "affine"},
                            {"name": "tabulated", "path": kernel_table(tmp_path, 32)}],
                "alphas": [0.25], "diagnostic": {"n_steps": 64, "scenarios": 40, "levels": 3}},
                0),
            "example7": ("example7", {
                "time": {"T": 1.0, "N": 32}, "grid": {"J": 50}, "alphas": [0.75],
                "isometry": {"scenarios": 300, "n_steps": 32},
                "diagnostic": {"n_steps": 64, "scenarios": 40, "levels": 3}}, 1),
            "conditions": ("conditions", {
                "time": {"T": 1.0, "N": 32}, "grid": {"J": 50},
                "scenarios": {"count": 4, "seed": 2}}, 0),
        }[case]

    @pytest.mark.parametrize("case", ["fubini-one_row", "fubini-per_scenario", "approx",
                                      "volterra", "example7", "conditions"])
    def test_reports_identical_across_budgets(self, tmp_path, monkeypatch, case):
        # from one row per block (a budget of one byte) through 16 kB to every walk whole, the
        # reports are the same bytes, a negative control's too
        command, payload, code = self.small(tmp_path, case)
        cfg = write_config(tmp_path, f"{command}.json", payload)
        reports = set()
        for budget in (1, 2**14, 2**40):
            monkeypatch.setattr(drivers, "BLOCK_BYTES", budget)
            out = tmp_path / f"o{budget}"
            assert main([command, "--config", cfg, "--out", str(out)]) == code
            reports.add(tuple((f.name, f.read_bytes()) for f in sorted(out.iterdir())))
        assert len(reports) == 1

    @staticmethod
    def large(tmp_path, command):
        """A config whose walks hold more than the budget if held whole, and a dense power-law
        spec where J is no multiple of N."""
        return {
            "fubini": {"time": {"T": 1.0, "N": 64}, "grid": {"J": 64},
                       "scenarios": {"count": 200, "seed": 3}, "test_family": {"k_max": 16}},
            "approx": {"time": {"T": 4.0, "N": 11}, "grid": {"J": 4, "T_K": 1.0},
                       "scenarios": {"mode": "tree", "branching": 2, "depth": 11},
                       "integrand": {"kind": "random_elementary", "count": 1, "seed": 5},
                       "schedule": [4, 16]},
            "volterra": {"time": {"T": 1.0, "N": 128}, "scenarios": {"count": 200, "seed": 7},
                         "kernels": [{"name": "power_alpha", "alpha": 0.75}, {"name": "affine"},
                                     {"name": "tabulated", "path": kernel_table(tmp_path, 128)}],
                         "alphas": [0.25],
                         "diagnostic": {"n_steps": 1024, "scenarios": 200, "levels": 3}},
            "example7": {"time": {"T": 1.0, "N": 64}, "grid": {"J": 100}, "alphas": [0.75],
                         "isometry": {"scenarios": 4000, "n_steps": 256},
                         "diagnostic": {"n_steps": 1024, "scenarios": 400, "levels": 3}},
            "conditions": {"time": {"T": 1.0, "N": 256}, "grid": {"J": 1000},
                           "scenarios": {"count": 50, "seed": 2}},
        }[command]

    @pytest.mark.parametrize("command", list(cli.RUNNERS))
    def test_peak_above_the_unblocked_arrays_within_budget(self, tmp_path, monkeypatch, command):
        # What no walk blocks (the driver, the integrands, the reports, the dense specs) is
        # read as the run's traced peak at 64 kB blocks.  Raising the budget to its 2 MiB adds
        # at most two budgets per worker: the blocks of every walk and their temporaries
        # (measured with two workers: 0.80 budgets for fubini, 0.83 approx, 2.75 volterra,
        # whose kernel rows on the calling thread run beside the diagnostic's second worker,
        # 1.78 example7 and 1.16 conditions).  At least half a budget: the walks fill it at
        # these sizes, so a main walk that ignored it would show
        cfg = cli.check_config(command, self.large(tmp_path, command))
        peaks = {}
        for budget in (2**16, drivers.BLOCK_BYTES):
            monkeypatch.setattr(drivers, "BLOCK_BYTES", budget)
            peaks[budget] = traced_peak(lambda: cli.RUNNERS[command](cfg, tmp_path))
        assert budget / 2 <= peaks[budget] - peaks[2**16] <= 2 * budget * drivers.WORKERS, peaks


#: The integer keys that set a run's size, by key name: tiny runs, from one scenario and one
#: time step up (so every walk meets ``drivers.block_rows`` at n = 1); a diagnostic of 6 steps
#: and a driver of two components are config errors in most runs.
TINY = {"N": st.integers(1, 4), "depth": st.integers(1, 4), "J": st.integers(1, 5),
        "count": st.integers(1, 5), "k_max": st.integers(1, 5), "scenarios": st.integers(1, 6),
        "n_steps": st.sampled_from([4, 8, 16, 6]), "levels": st.integers(3, 4),
        "d": st.sampled_from([1, 1, 1, 2])}


def tiny(spec, name: str, missing: str):
    """A strategy of tiny values for the ``RUNNER_KEYS`` entry ``spec`` at key ``name``, mostly
    within its bounds: every key present, lists of their least length up to two items, a
    tabulated kernel read from the path ``missing``."""
    if isinstance(spec, cli.Modes):
        return st.sampled_from(list(spec.tables)).flatmap(lambda mode: st.fixed_dictionaries(
            {spec.key: st.just(mode), **{k: tiny(s, k, missing)
                                         for k, s in spec.tables[mode].items()}}))
    if isinstance(spec, dict):
        return st.fixed_dictionaries({k: tiny(s, k, missing) for k, s in spec.items()})
    if isinstance(spec, cli.ListOf):
        return st.lists(tiny(spec.item, name, missing), min_size=spec.least,
                        max_size=max(2, spec.least))
    if spec.cast is bool:
        return st.booleans()
    if spec.cast is str:
        return st.just(missing if name == "path" else "out")
    if spec.cast is int:
        low = {cli.POSITIVE: 1, cli.NONNEGATIVE: 0, cli.ANY: 0}.get(spec.bound, spec.bound)
        return TINY.get(name, st.integers(low, low + 3))
    if spec.bound == cli.POSITIVE:
        return st.floats(0.25, 3.0)
    return st.just(0.0) | st.floats(0.0 if spec.bound == cli.NONNEGATIVE else -2.0, 2.0)


class TestAnyTinyConfig:
    """A run ends in one of three ways, whatever config the key table admits or rejects: exit
    0, exit 1 with "pass": false, or exit 2 with a config error; never a traceback."""

    @pytest.mark.parametrize("command", list(cli.RUNNERS))
    def test_three_outcomes(self, tmp_path_factory, command):
        root = tmp_path_factory.mktemp(command)
        missing = str(root / "missing.csv")

        @given(raw=tiny(cli.RUNNER_KEYS[command], command, missing),
               budget=st.sampled_from([1, 2**12, drivers.BLOCK_BYTES]))
        @settings(max_examples=25, deadline=None, database=None)
        def run(raw, budget):
            cfg, out = root / "cfg.json", root / "out"
            shutil.rmtree(out, ignore_errors=True)
            cfg.write_text(json.dumps(raw))
            err = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                    np.errstate(all="ignore"):
                mp.setattr(drivers, "BLOCK_BYTES", budget)
                code = main([command, "--config", str(cfg), "--out", str(out)])
            if code == 2:
                assert err.getvalue().startswith("config error: "), err.getvalue()
            else:
                summary = json.loads((out / "summary.json").read_text())
                assert (code, summary["pass"]) in ((0, True), (1, False)), (code, summary)

        run()
