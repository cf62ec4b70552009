"""Acceptance suite: each test runs one gate criterion at its stated
tolerance and prints a single pass line (pytest reports failures).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math

import numpy as np
import pytest
from helpers import control_inequality_check, seminorm_domination_check

from mvstoch.cli import main as cli_main
from mvstoch.dominated import (
    DominatedSpec,
    condition_evaluator,
    make_dominated,
    measure_valuedness_certificate,
    power_law_integrand,
)
from mvstoch.drivers import (
    DriverSpec,
    PredictablePath,
    ScenarioSet,
    StoppingRule,
    TimeGrid,
    simulate_driver,
)
from mvstoch.grid import CompactGrid, build_test_family
from mvstoch.integrands import (
    MeasureProcess,
    approximate_elementary,
    continuity_constant,
    integrability_check,
    integrand_seminorm,
    random_elementary_process,
    random_lattice_process,
    variation_path,
)
from mvstoch.mvintegral import (
    convergence_transfer_check,
    fubini_check,
    maximal_seminorm,
    standard_cell_sets,
)
from mvstoch.volterra import (
    decompose,
    affine_kernel,
    power_kernel,
    power_volterra_paths,
    power_volterra_terminals,
    semimartingale_diagnostic,
    tabulated_kernel,
)


def report(criterion, text):
    print(f"[criterion {criterion}] PASS: {text}")


def identity_control(tg, P):
    return np.broadcast_to(tg.times, (P, tg.n_steps + 1)).copy()


class TestCriterion1PowerLawClosedForms:
    def test_closed_forms(self):
        T = 1.0
        tg = TimeGrid(T, 256)
        worst_var = worst_acc = 0.0
        for alpha in (0.5, 1.0, 2.0):
            phi, _ = power_law_integrand(alpha, tg, n_cells=256)
            var = variation_path(phi)[0, :, 0]
            for idx in (0, 128):  # t = 0 and t = T/2
                t = tg.times[idx]
                worst_var = max(worst_var, abs(var[idx] - (T - t) ** alpha))
            member = integrability_check(phi, identity_control(tg, 1), tg)
            worst_acc = max(worst_acc,
                            abs(member["d_path"][0, -1] - T ** (2 * alpha + 1) / (2 * alpha + 1)))
        assert worst_var <= 1e-9
        assert worst_acc <= 1e-9

        # square-density condition value at the horizon, alpha = 1, J = 2^12
        tg_c = TimeGrid(T, 2**10)
        S = simulate_driver(DriverSpec("brownian"), tg_c, ScenarioSet.monte_carlo(2, 1))
        _, spec = power_law_integrand(1.0, tg_c, n_cells=2**12)
        conds = condition_evaluator(spec, S, S.control)
        rel = abs(conds["c66_value_at_horizon"] - 0.5) / 0.5
        assert rel <= 1e-6
        report(1, f"variation err {worst_var:.2e}, accumulation err {worst_acc:.2e}, "
                  f"square-density rel err {rel:.2e}")


class TestCriterion2FubiniExactness:
    def test_three_drivers(self):
        N = J = 256
        P = 100
        tg = TimeGrid(1.0, N)
        grid = CompactGrid(1.0, J)
        fam = build_test_family(grid, 12)
        drivers = {
            "brownian": DriverSpec("brownian"),
            "compound_poisson": DriverSpec("compound_poisson", jump_rate=2.0,
                                           jump_mean=0.1, jump_std=0.5),
            "fv_drift": DriverSpec("fv_drift", drift=0.8),
        }
        worst = 0.0
        for name, spec in drivers.items():
            S = simulate_driver(spec, tg, ScenarioSet.monte_carlo(P, 41))
            rng = np.random.default_rng(43)

            def integrands():
                for i in range(10):
                    yield random_elementary_process(grid, tg, S.scenarios, rng,
                                                    driver_values=S.values)
                yield power_law_integrand(1.0, tg, n_cells=J)[0]
                dspec = DominatedSpec.from_adapted_density(
                    lambda t, z, s: np.cos(3 * z + 2 * t + s), S, grid)
                yield make_dominated(dspec)

            for phi in integrands():
                checks = fubini_check(phi, S, fam, sets=standard_cell_sets(grid))
                worst = max(worst, checks["regular"]["max_abs_discrepancy"],
                            checks["general"]["max_abs_discrepancy"])
        assert worst <= 1e-10
        report(2, f"max interchange discrepancy {worst:.2e} over 3 drivers x 12 integrands")


class TestCriterion3VolterraDecomposition:
    def test_kernel_registry(self, tmp_path):
        N, P = 512, 100
        tg = TimeGrid(1.0, N)
        S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(P, 47))
        rng = np.random.default_rng(53)
        inc = rng.uniform(-1, 1, size=(N + 1, N + 1)) * tg.dt
        fv_matrix = np.cumsum(inc, axis=0) + rng.uniform(-1, 1, size=(1, N + 1))
        csv_path = tmp_path / "fv_kernel.csv"
        np.savetxt(csv_path, fv_matrix, delimiter=",")
        kernels = [
            power_kernel(0.25, tg),
            power_kernel(0.75, tg),
            power_kernel(1.5, tg),
            affine_kernel(1.0, 2.0, tg),
            tabulated_kernel(np.loadtxt(csv_path, delimiter=","), tg),
        ]
        worst = 0.0
        for kernel in kernels:
            out = decompose(kernel, S)
            assert out["condition_ok"]
            worst = max(worst, out["max_identity_gap"])
        assert worst <= 1e-10
        report(3, f"max decomposition gap {worst:.2e} over {len(kernels)} kernels")


class TestCriterion4TerminalVarianceIsometry:
    def test_isometry(self):
        P = 100_000
        N = 2048
        tg = TimeGrid(1.0, N)
        worst_z = 0.0
        alphas, u_indices = (0.5, 1.0), [N // 2, N]
        terms = power_volterra_terminals(alphas, u_indices, tg, P, seed=59)
        for a, alpha in enumerate(alphas):
            for col, u_idx in enumerate(u_indices):
                # the left-endpoint sum's exact variance, sum_{t_k < u} (u - t_k)^(2 alpha) dt,
                # which sits above the continuous u^(2 alpha + 1) / (2 alpha + 1)
                u = tg.times[u_idx]
                target = float(np.sum((u - tg.times[:u_idx]) ** (2 * alpha)) * tg.dt)
                sample = float(np.var(terms[:, a, col], ddof=1))
                se = sample * math.sqrt(2.0 / (P - 1))
                z = abs(sample - target) / se
                worst_z = max(worst_z, z)
        assert worst_z <= 3.0
        report(4, f"terminal variance within {worst_z:.2f} standard errors of the exact sum")


class TestCriterion5AlphaThreshold:
    def test_slope_and_certificate(self):
        tg = TimeGrid(1.0, 2**13)
        alphas = (0.25, 0.75)
        tv = power_volterra_paths(alphas, tg, 2000, seed=61, n_levels=8)
        slopes = {alpha: semimartingale_diagnostic(t, tg)["slope"] for alpha, t in zip(alphas, tv)}
        assert -0.1 <= slopes[0.75] <= 0.1
        assert 0.15 <= slopes[0.25] <= 0.35

        tg_c = TimeGrid(1.0, 256)
        S = simulate_driver(DriverSpec("brownian"), tg_c, ScenarioSet.monte_carlo(2, 3))
        verdicts = {}
        for alpha in (0.25, 0.75):
            _, spec = power_law_integrand(alpha, tg_c, n_cells=1024)
            verdicts[alpha] = measure_valuedness_certificate(spec, S, S.control)["hypotheses_met"]
        assert verdicts[0.75] is True
        assert verdicts[0.25] is False
        report(5, f"slopes {slopes[0.25]:.3f} (alpha 0.25) / {slopes[0.75]:.3f} (alpha 0.75), "
                  f"certificate true for 0.75 and false for 0.25")


class TestCriterion6ApproximationPipeline:
    def test_three_lattice_integrands(self):
        grid = CompactGrid(1.0, 8)
        tg = TimeGrid(4.0, 3)
        sc = ScenarioSet.tree(2, 3)
        fam = build_test_family(grid, grid.n_atoms + 2**grid.n_atoms)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        tau = StoppingRule.never(sc, 3)
        v_pre = tau.left_limit(S.control)
        v_norm = math.sqrt(float(sc.probs @ (v_pre**2)))
        final_errors = []
        for seed in (2024, 77, 4099):
            rng = np.random.default_rng(seed)
            phi = random_lattice_process(grid, tg, sc, rng, c=1.0)
            result = approximate_elementary(phi, tau, S.control, fam, sc,
                                            schedule=(4, 16, 64), c=1.0)
            errs = [r.q_error for r in result.reports]
            assert errs[0] > errs[1] > errs[2], f"seed {seed}: {errs}"
            assert errs[2] <= 1e-6
            c_phi = continuity_constant(phi, fam, tau, S.control, sc)["lower"]
            bound = 2 * result.truncation_level * v_norm + 2 * c_phi
            for rep in result.reports:
                assert rep.uniform_constant <= bound + 1e-12
            final_errors.append(errs[2])
        report(6, f"q-errors strictly decreasing, final {max(final_errors):.2e} <= 1e-6")


class TestCriterion7SeminormSuite:
    def test_axioms_on_random_triples(self):
        grid = CompactGrid(1.0, 3)
        tg = TimeGrid(1.0, 4)
        sc = ScenarioSet.monte_carlo(6, 0)
        fam = build_test_family(grid, 8)
        V = identity_control(tg, 6)
        tau = StoppingRule.never(sc, 4)
        rng = np.random.default_rng(67)

        def r(charge):  # maximal seminorm of a dense (P, N + 1, J + 1) charge
            return maximal_seminorm(np.einsum("plj,kj->pkl", charge, fam.functions),
                                    fam, sc.probs)

        for _ in range(100):
            a = MeasureProcess("kernel", grid, rng.normal(size=(6, 4, 1, 4)))
            b = MeasureProcess("kernel", grid, rng.normal(size=(6, 4, 1, 4)))
            lam = float(rng.uniform(-3, 3))
            qa = integrand_seminorm(a, fam, tau, V, sc)
            qb = integrand_seminorm(b, fam, tau, V, sc)
            qab = integrand_seminorm(MeasureProcess("kernel", grid, a.weights + b.weights),
                                     fam, tau, V, sc)
            assert qab <= qa + qb + 1e-12 * max(1.0, qa + qb)
            qla = integrand_seminorm(MeasureProcess("kernel", grid, a.weights * lam),
                                     fam, tau, V, sc)
            assert abs(qla - abs(lam) * qa) <= 1e-12 * max(1.0, qa)
            ca = rng.normal(size=(6, 5, 4))
            cb = rng.normal(size=(6, 5, 4))
            ra, rb = r(ca), r(cb)
            rab = r(ca + cb)
            assert rab <= ra + rb + 1e-12 * max(1.0, ra + rb)
            rla = r(lam * ca)
            assert abs(rla - abs(lam) * ra) <= 1e-12 * max(1.0, ra)

    def test_domination_tree_exact_and_monte_carlo(self):
        grid = CompactGrid(1.0, 4)
        fam = build_test_family(grid, 10)
        tg = TimeGrid(4.0, 3)
        sc = ScenarioSet.tree(2, 3)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        tau = StoppingRule.never(sc, 3)
        rng = np.random.default_rng(71)
        for _ in range(10):
            phi = random_elementary_process(grid, tg, sc, rng)
            out = seminorm_domination_check(phi, S, S.control, tau, fam)
            assert out["holds"] and out["r_value"] <= out["q_value"] + 1e-12

        tg_mc = TimeGrid(4.0, 32)
        sc_mc = ScenarioSet.monte_carlo(20_000, 73)
        S_mc = simulate_driver(DriverSpec("brownian"), tg_mc, sc_mc)
        tau_mc = StoppingRule.never(sc_mc, 32)
        for _ in range(5):
            phi = random_elementary_process(grid, tg_mc, sc_mc, rng,
                                            driver_values=S_mc.values)
            out = seminorm_domination_check(phi, S_mc, S_mc.control, tau_mc, fam)
            assert out["holds"]
        report(7, "seminorm axioms on 100 triples; domination exact on trees, "
                  "within 3 SE in Monte Carlo")


class TestCriterion8ControlInequality:
    def test_every_documented_pair(self):
        P, N, T = 100_000, 64, 4.0
        tg = TimeGrid(T, N)
        rng = np.random.default_rng(79)
        integrands = [PredictablePath(rng.uniform(-1, 1, size=(1, N, 1)))
                      for _ in range(20)]
        specs = [
            DriverSpec("brownian"),
            DriverSpec("fv_drift", drift=0.7),
            DriverSpec("compound_poisson", jump_rate=1.5, jump_mean=0.0, jump_std=0.6),
            DriverSpec("mixture", vol=1.0, drift=0.4, jump_rate=1.0, jump_mean=0.0,
                       jump_std=0.5),
        ]
        margins = {}
        for spec in specs:
            S = simulate_driver(spec, tg, ScenarioSet.monte_carlo(P, 83))
            tau = StoppingRule.never(S.scenarios, N)
            out = control_inequality_check(S, S.control, integrands, tau)
            assert out["min_margin"] >= -3 * out["min_margin_se"], spec.kind
            margins[spec.kind] = out["min_margin"]
        report(8, "control margin >= -3 SE for " + ", ".join(
            f"{k} ({v:.3g})" for k, v in margins.items()))


class TestCriterion9NegativeControlAndDeterminism:
    def test_corrupted_fixture_and_byte_identical_reruns(self, tmp_path):
        cfg = {
            "time": {"T": 1.0, "N": 64},
            "grid": {"J": 64},
            "scenarios": {"mode": "monte_carlo", "count": 40, "seed": 89},
            "driver": {"kind": "brownian"},
            "integrand": {"kind": "random_dominated"},
            "test_family": {"k_max": 8},
            "tolerances": {"fubini": 1e-10},
        }
        good = tmp_path / "good.json"
        good.write_text(json.dumps(cfg))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**cfg, "corrupt_comparison": True}))

        out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "bad_out"))
        assert cli_main(["fubini", "--config", str(good), "--out", str(out1)]) == 0
        assert cli_main(["fubini", "--config", str(good), "--out", str(out2)]) == 0
        for name in ("fubini_report.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert cli_main(["fubini", "--config", str(bad), "--out", str(out3)]) == 1
        report(9, "corrupted comparison exits 1; repeated runs byte-identical")
