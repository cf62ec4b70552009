import math
import time
import tracemalloc

import helpers
import numpy as np
import pytest
from helpers import (
    classic_fubini_rhs,
    compare_classic_vs_mv,
    general_kernel_conditions,
    kernel_process,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mvstoch import dominated as dom
from mvstoch.dominated import (
    DominatedSpec,
    PowerLawDensity,
    condition_evaluator,
    make_dominated,
    measure_valuedness_certificate,
    power_law_integrand,
)
from mvstoch.drivers import (
    DriverSpec,
    PredictablePath,
    ScenarioSet,
    TimeGrid,
    ito_integral,
    running_sum,
    simulate_driver,
)
from mvstoch.grid import CompactGrid
from mvstoch.integrands import variation_path
from mvstoch.mvintegral import standard_cell_sets


def brownian(P, N, T=1.0, seed=19):
    return simulate_driver(DriverSpec("brownian"), TimeGrid(T, N), ScenarioSet.monte_carlo(P, seed))


class TestPowerLawDensity:
    def test_variation_and_accumulation_against_quadrature(self):
        prof = PowerLawDensity(0.8, 1.0)
        num, _ = quad(lambda r: (1.0 - r) ** 1.6, 0.0, 0.7)
        assert prof.var_sq_integral(0.7) == pytest.approx(num, abs=1e-12)

    def test_square_density_closed_form_against_quadrature(self):
        prof = PowerLawDensity(0.9, 1.0)
        inner = lambda r: quad(lambda z: (0.9 * (z - r) ** (-0.1)) ** 2, r, 1.0)[0]
        num, _ = quad(inner, 0.0, 1.0, limit=200)
        assert prof.square_density_integral(1.0) == pytest.approx(num, rel=1e-6)

    def test_diverging_branch_returns_none(self):
        assert PowerLawDensity(0.5, 1.0).square_density_integral(1.0) is None
        assert PowerLawDensity(0.25, 1.0).square_density_integral(1.0) is None


class TestMakeDominated:
    def test_constant_density_reproduces_eta(self):
        tg = TimeGrid(1.0, 5)
        grid = CompactGrid(1.0, 8)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.ones_like(z), tg, grid)
        phi = make_dominated(spec)
        for slot in range(5):
            np.testing.assert_allclose(phi.weights[0, slot, 0], spec.eta, atol=1e-15)

    def test_zero_eta_gives_zero_process(self):
        tg = TimeGrid(1.0, 3)
        grid = CompactGrid(1.0, 4)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.sin(z), tg, grid,
                                                   eta_cells=np.zeros(5))
        assert np.all(make_dominated(spec).weights == 0.0)

    def test_negative_eta_rejected(self):
        tg = TimeGrid(1.0, 2)
        grid = CompactGrid(1.0, 2)
        with pytest.raises(ValueError):
            DominatedSpec(grid, tg, np.zeros((1, 3, 3)), np.array([0.5, -0.1, 0.2]))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_power_profile_variation_path(self, alpha):
        tg = TimeGrid(1.0, 16)
        phi, _ = power_law_integrand(alpha, tg, n_cells=64)
        var = variation_path(phi)
        expected = (1.0 - tg.times[:16]) ** alpha
        np.testing.assert_allclose(var[0, :, 0], expected, atol=1e-12)


class TestClassicFubiniRhs:
    def test_constant_density_full_space(self):
        S = brownian(10, 16)
        grid = CompactGrid(1.0, 8)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.ones_like(z), S.timegrid, grid)
        rhs = classic_fubini_rhs(spec, S, (0, 8))
        eta_total = spec.eta.sum()
        np.testing.assert_allclose(rhs, eta_total * (S.values[:, :, 0] - S.values[:, :1, 0]),
                                   atol=1e-12)

    def test_massless_atom_contributes_nothing(self):
        S = brownian(4, 8)
        grid = CompactGrid(1.0, 4)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.cos(z), S.timegrid, grid)
        assert np.all(classic_fubini_rhs(spec, S, (0, 0)) == 0.0)  # eta puts no mass at atom 0

    def test_power_law_prefix_equals_direct_integral(self):
        N = 128
        S = brownian(30, N)
        _, spec = power_law_integrand(1.0, S.timegrid, n_cells=N)
        u_idx = N // 2
        u = S.timegrid.times[u_idx]
        rhs = classic_fubini_rhs(spec, S, (0, u_idx))
        t = S.timegrid.times[:N]
        h = np.maximum(u - t, 0.0) * (t < u)
        direct = ito_integral(PredictablePath(h[None, :, None]), S)
        np.testing.assert_allclose(rhs, direct, atol=1e-10)

    def test_unresolvable_set(self):
        S = brownian(2, 4)
        grid = CompactGrid(1.0, 4)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.ones_like(z), S.timegrid, grid)
        with pytest.raises(ValueError):
            classic_fubini_rhs(spec, S, (0, 7))


class TestCompareClassicVsMv:
    def test_single_atom_spec_exact_zero(self):
        S = brownian(8, 12)
        grid = CompactGrid(1.0, 4)
        masses = np.zeros((1, 13, 5))
        masses[:, :, 2] = 0.7  # all mass on one atom: both routes sum identically
        spec = DominatedSpec(grid, S.timegrid, masses, np.full(5, 1.0))
        report = compare_classic_vs_mv(spec, S, standard_cell_sets(grid))
        assert report["max_abs_discrepancy"] == 0.0

    def test_power_law_prefixes(self):
        N = 128
        S = brownian(40, N)
        _, spec = power_law_integrand(0.75, S.timegrid, n_cells=N)
        sets = [(f"u{k}", 0, idx) for k, idx in enumerate((N // 4, N // 2, N))]
        report = compare_classic_vs_mv(spec, S, sets)
        assert report["max_abs_discrepancy"] <= 1e-10

    def test_random_density_compound_poisson_driver(self):
        tg = TimeGrid(1.0, 64)
        sc = ScenarioSet.monte_carlo(50, 29)
        S = simulate_driver(DriverSpec("compound_poisson", jump_rate=3.0, jump_mean=0.1,
                                       jump_std=0.4), tg, sc)
        grid = CompactGrid(1.0, 32)
        spec = DominatedSpec.from_adapted_density(
            lambda t, z, s: np.cos(3 * z + 2 * t + s), S, grid)
        report = compare_classic_vs_mv(spec, S, standard_cell_sets(grid))
        assert report["max_abs_discrepancy"] <= 1e-10


class TestConditionEvaluator:
    def test_bounded_density_all_finite(self):
        S = brownian(6, 32)
        grid = CompactGrid(1.0, 16)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.sin(z + t), S.timegrid, grid)
        out = condition_evaluator(spec, S, S.control)
        for key in ("c63", "c64", "c66", "c67", "c_veraar"):
            assert out[key]["finite"]

    def test_power_alpha_one_closed_value(self):
        N = 256
        S = brownian(2, N)
        _, spec = power_law_integrand(1.0, S.timegrid, n_cells=N)
        out = condition_evaluator(spec, S, S.control)
        assert out["c66_value_at_horizon"] == pytest.approx(0.5, rel=1e-6)
        assert out["c66_closed_form"] == pytest.approx(0.5, rel=1e-12)

    def test_smooth_density_against_quadrature_oracle(self):
        # independent oracle: nested closed-form quadrature of cos^2
        N = 128
        S = brownian(2, N)
        grid = CompactGrid(1.0, N)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.cos(z + t), S.timegrid, grid)
        out = condition_evaluator(spec, S, S.control)
        inner = lambda r: quad(lambda z: np.cos(z + r) ** 2, 0.0, 1.0)[0]
        oracle, _ = quad(inner, 0.0, 1.0)
        assert out["c66_value_at_horizon"] == pytest.approx(oracle, abs=1e-3)

    def test_cauchy_schwarz_ordering_random_specs(self):
        rng = np.random.default_rng(31)
        S = brownian(4, 16)
        grid = CompactGrid(1.0, 8)
        for _ in range(20):
            a, b = rng.uniform(0.5, 3.0, size=2)
            spec = DominatedSpec.from_density_callable(
                lambda t, z, a=a, b=b: np.sin(a * z + b * t) + 0.2, S.timegrid, grid)
            out = condition_evaluator(spec, S, S.control)  # raises if ordering fails
            assert out["c64"]["finite"] and out["c63"]["finite"]


def broadcast_veraar_paths(spec, qv, var_a):
    """Oracle: the dense mixture-last formula, per-atom time paths for every scenario."""
    dens = spec.density_values()
    dens_b = np.broadcast_to(dens, (var_a.shape[0],) + dens.shape[1:])
    per_atom_a = np.abs(dens_b[:, :-1]) * np.diff(var_a, axis=1)[:, :, None]
    atom_time_a = np.concatenate(
        [np.zeros_like(per_atom_a[:, :1]), np.cumsum(per_atom_a, axis=1)], axis=1)
    per_atom_m = dens_b[:, :-1] ** 2 * np.diff(qv, axis=1)[:, :, None]
    atom_time_m = np.concatenate(
        [np.zeros_like(per_atom_m[:, :1]), np.cumsum(per_atom_m, axis=1)], axis=1)
    return atom_time_a @ spec.eta, np.sqrt(atom_time_m) @ spec.eta


def rel_gap(new, old):
    new, old = np.broadcast_arrays(new, old)
    gap, scale = np.max(np.abs(new - old)), np.max(np.abs(old))
    return float(gap / scale if scale > 0 else gap)


class TestVeraarAgainstBroadcastOracle:
    def check(self, spec, S, qv=None):
        qv_S, var_a = S.decomposition_paths()
        qv = qv_S if qv is None else qv
        fv, root = dom._veraar_paths(spec, dom._eta_mix(spec, np.abs), qv, var_a)
        oracle_fv, oracle_root = broadcast_veraar_paths(spec, qv, var_a)
        assert fv.shape == oracle_fv.shape
        assert rel_gap(fv, oracle_fv) <= 1e-12
        # the square-root variant is read at the horizon only: one value per density or bracket row
        assert root.shape == (max(spec.n_scenario_rows, len(qv)),)
        assert rel_gap(root, oracle_root[:, -1]) <= 1e-12
        return oracle_fv, oracle_root

    @pytest.mark.parametrize("driver", [DriverSpec("brownian"),
                                        DriverSpec("mixture", drift=0.4, jump_rate=3.0,
                                                   jump_std=0.3)])
    def test_power_law(self, driver):
        S = simulate_driver(driver, TimeGrid(1.0, 48), ScenarioSet.monte_carlo(5, 19))
        # three column blocks of atoms
        spec = DominatedSpec.from_power_profile(0.75, S.timegrid, 2 * (dom.BLOCK_ENTRIES // 48) + 300)
        oracle_fv, oracle_root = self.check(spec, S)
        sup = condition_evaluator(spec, S, S.control)["c_veraar"]["sup"]
        assert sup == pytest.approx(max(oracle_fv.max(), oracle_root.max()), rel=1e-12)

    def test_adapted_density_mixture_with_jumps(self):
        tg = TimeGrid(1.0, 40)
        S = simulate_driver(DriverSpec("mixture", vol=0.8, drift=0.3, jump_rate=4.0,
                                       jump_mean=0.1, jump_std=0.5),
                            tg, ScenarioSet.monte_carlo(7, 43))
        spec = DominatedSpec.from_adapted_density(
            lambda t, z, s: np.cos(3 * z + 2 * t + s), S,
            CompactGrid(1.0, dom.BLOCK_ENTRIES // 40 + 77))
        _, var_a = S.decomposition_paths()
        assert spec.n_scenario_rows == 7
        assert not np.all(var_a == var_a[:1])  # the jumps make var_a scenario-dependent
        oracle_fv, oracle_root = self.check(spec, S)
        sup = condition_evaluator(spec, S, S.control)["c_veraar"]["sup"]
        assert sup == pytest.approx(max(oracle_fv.max(), oracle_root.max()), rel=1e-12)

    @pytest.mark.parametrize("case", ["power_law", "adapted", "scenario_bracket"])
    @pytest.mark.parametrize("block_entries", [16 * 7, 16 * 50, 16 * 64, dom.BLOCK_ENTRIES])
    def test_reused_buffers_equal_fresh_blocks(self, monkeypatch, case, block_entries):
        # the square root walks the atoms in blocks through one set of buffers (the last block
        # narrower, one atom wide at 16 * 50); its horizon values must equal the last row of the
        # former loop over fresh block arrays, mixed by eta one row at a time, bit for bit
        S = brownian(6, 16)
        qv, var_a = S.decomposition_paths()
        if case == "power_law":
            spec = DominatedSpec.from_power_profile(0.75, S.timegrid, 200)
        elif case == "adapted":
            spec = DominatedSpec.from_adapted_density(lambda t, z, s: np.cos(3 * z + t + s), S,
                                                      CompactGrid(1.0, 150))
        else:
            spec = DominatedSpec.from_density_callable(lambda t, z: np.sin(z + t) + 0.5,
                                                       S.timegrid, CompactGrid(1.0, 150))
            qv = qv + np.linspace(0.0, 0.1, 6)[:, None] * S.timegrid.times
        monkeypatch.setattr(dom, "BLOCK_ENTRIES", block_entries)
        fv, root = dom._veraar_paths(spec, dom._eta_mix(spec, np.abs), qv, var_a)
        dqv = np.diff(qv, axis=1)
        fresh = np.zeros_like(root)
        for cols in dom._blocks(spec.grid.n_atoms, 16):
            dens = spec.density_values(rows=slice(0, 16), cols=cols)
            last = running_sum(np.square(dens, out=dens) * dqv[:, :, None])[:, -1]
            fresh += np.sqrt(last) @ spec.eta[cols]
        assert np.array_equal(root, fresh)
        assert np.array_equal(fv, running_sum(dom._eta_mix(spec, np.abs)[:, :-1] * np.diff(var_a, axis=1)))

    def test_density_block_into_a_used_buffer(self):
        # atoms without eta mass read zero, whatever the buffer held before
        S = brownian(3, 8)
        base = DominatedSpec.from_adapted_density(lambda t, z, s: np.cos(3 * z + t + s), S,
                                                  CompactGrid(1.0, 20))
        spec = DominatedSpec(base.grid, base.timegrid, base.point_masses,
                             base.eta * (np.arange(21) % 3 != 1))
        out = np.full((3, 8, 7), np.nan)
        got = spec.density_values(rows=slice(0, 8), cols=slice(5, 12), out=out)
        assert got is out
        assert np.array_equal(got, spec.density_values(rows=slice(0, 8), cols=slice(5, 12)))

    def test_deterministic_density_root_is_one_row(self):
        S = brownian(5, 16)
        spec = DominatedSpec.from_power_profile(0.75, S.timegrid, 64)
        qv, var_a = S.decomposition_paths()
        _, root = dom._veraar_paths(spec, dom._eta_mix(spec, np.abs), qv, var_a)
        assert root.shape == (1,)

    def test_decreasing_bracket_rejected(self):
        # the horizon read relies on a nondecreasing bracket
        S = brownian(2, 8)
        spec = DominatedSpec.from_power_profile(0.75, S.timegrid, 16)
        qv, var_a = S.decomposition_paths()
        qv = qv.copy()
        qv[0, 5] = qv[0, 6] + 1e-9
        with pytest.raises(ValueError, match="nondecreasing"):
            dom._veraar_paths(spec, dom._eta_mix(spec, np.abs), qv, var_a)

    def test_deterministic_density_scenario_dependent_bracket(self):
        # a bracket with unequal rows gives one square-root row per scenario
        S = brownian(4, 24)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.sin(z + t) + 0.5, S.timegrid,
                                                   CompactGrid(1.0, 1500))
        rng = np.random.default_rng(47)
        qv = np.zeros((4, 25))
        qv[:, 1:] = np.cumsum(rng.uniform(0.0, 0.1, size=(4, 24)), axis=1)
        self.check(spec, S, qv=qv)


class TestPowerProfileVectorised:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.3, 2.0])
    def test_equals_row_loop(self, alpha):
        tg = TimeGrid(1.0, 37)
        spec = DominatedSpec.from_power_profile(alpha, tg, 3000)  # four row blocks
        assert spec.stationary is None  # 3000 is not a multiple of 37
        assert np.array_equal(spec.point_masses, row_loop_spec(alpha, tg, 3000).point_masses)


def row_loop_spec(alpha, tg, n_cells):
    """The power-law spec with dense masses, one row per grid time: walks the row-block path."""
    grid = CompactGrid(tg.horizon, n_cells)
    profile = PowerLawDensity(alpha, tg.horizon)
    loop = np.zeros((1, tg.n_steps + 1, grid.n_atoms))
    for l, t in enumerate(tg.times):
        loop[0, l, 1:] = np.diff(profile.mass_antiderivative(grid.atoms, t))
    eta = np.zeros(grid.n_atoms)
    eta[1:] = grid.cell_width
    return DominatedSpec(grid, tg, loop, eta, profile=profile)


def probe_sup(spec, V):
    return float(np.max(dom._trapezoid_against(dom._eta_mix(spec, np.square), V)))


class TestStationarySpec:
    """Commensurate grids (J = m N): one mass vector read through a strided view.

    The oracle is the dense row-loop spec.  On these dyadic grids the masses
    are bit-equal; the mixes are prefix sums instead of per-row sums, so they
    move by ulps.  Measured worst relative gaps over this matrix: mixes
    1.6e-15, condition sups 1.0e-15, certificate probes 2.2e-15 (all at
    alpha 0.25, m 8); alpha 1 and 2 are bit-equal throughout.
    """

    RTOL = 1e-13  # about 450 ulps

    @pytest.fixture(scope="class")
    def driver(self):
        return brownian(2, 32)

    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("alpha", [0.25, 0.4, 0.5, 0.75, 1.0, 1.3, 2.0])
    def test_equals_row_loop(self, driver, alpha, m):
        tg, V = driver.timegrid, driver.control
        spec = DominatedSpec.from_power_profile(alpha, tg, m * tg.n_steps)
        oracle = row_loop_spec(alpha, tg, m * tg.n_steps)
        assert spec.stationary is not None and oracle.stationary is None
        assert np.array_equal(spec.point_masses, oracle.point_masses)
        exact = alpha in (1.0, 2.0)
        for fn in (np.abs, np.square):
            got, want = dom._eta_mix(spec, fn), dom._eta_mix(oracle, fn)
            assert got.shape == want.shape == (1, tg.n_steps + 1)
            assert np.array_equal(got, want) if exact else np.allclose(got, want, rtol=self.RTOL, atol=0)

        got, want = condition_evaluator(spec, driver, V), condition_evaluator(oracle, driver, V)
        assert got.keys() == want.keys()
        for key in ("c63", "c64", "c66", "c67", "c_veraar"):
            assert got[key]["finite"] is want[key]["finite"]
            for sub in set(want[key]) - {"finite"}:
                assert got[key][sub] == pytest.approx(want[key][sub], rel=0 if exact else self.RTOL, abs=0)
        assert got["c66_value_at_horizon"] == pytest.approx(want["c66_value_at_horizon"],
                                                            rel=0 if exact else self.RTOL, abs=0)

        cert = measure_valuedness_certificate(spec, driver, V)
        values = [probe_sup(row_loop_spec(alpha, tg, m * tg.n_steps * 2**k), V) for k in range(4)]
        np.testing.assert_allclose(cert["c66_probe"]["values"], values, rtol=self.RTOL, atol=0)
        assert cert["c66_probe"]["divergent"] is (values[-1] / values[0] > 1.5)
        assert cert["hypotheses_met"] is not cert["c66_probe"]["divergent"]

    @given(n_exp=st.integers(0, 6), m_exp=st.integers(0, 3),
           alpha=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.1, 3.0)),
           entries=st.integers(1, 2000))
    @settings(max_examples=100, deadline=None)
    def test_eta_mix_equals_row_loop_in_row_blocks(self, n_exp, m_exp, alpha, entries):
        # dyadic grids, where the row loop's masses are the stationary ones bit for bit;
        # the row loop walks row blocks of every height from one grid time up
        tg, m = TimeGrid(1.0, 2**n_exp), 2**m_exp
        spec, oracle = (DominatedSpec.from_power_profile(alpha, tg, m * tg.n_steps),
                        row_loop_spec(alpha, tg, m * tg.n_steps))
        assert np.array_equal(spec.point_masses, oracle.point_masses)
        exact = alpha in (1.0, 2.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dom, "BLOCK_ENTRIES", entries)
            for fn in (np.abs, np.square):
                got, want = dom._eta_mix(spec, fn), dom._eta_mix(oracle, fn)
                assert got.shape == want.shape == (1, tg.n_steps + 1)
                assert np.array_equal(got, want) if exact else np.allclose(got, want, rtol=self.RTOL, atol=0)

    @given(N=st.integers(1, 48), m=st.integers(1, 8),
           alpha=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.1, 3.0)),
           entries=st.integers(1, 2000), ramp=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_square_root_equals_the_general_route(self, N, m, alpha, entries, ramp, seed):
        # the shifted-vector route adds each atom's products in the general route's order and
        # mixes the same column blocks (one atom wide at small ``entries``): bit for bit against
        # the same masses held dense, and against the row loop's on dyadic grids, where the
        # masses are the same
        tg = TimeGrid(1.0, N)
        spec = DominatedSpec.from_power_profile(alpha, tg, m * N)
        oracles = [DominatedSpec(spec.grid, tg, np.array(spec.point_masses), spec.eta)]
        if N & (N - 1) == 0 and m & (m - 1) == 0:
            oracles.append(row_loop_spec(alpha, tg, m * N))
            assert np.array_equal(oracles[1].point_masses, spec.point_masses)
        rng = np.random.default_rng(seed)
        qv = np.zeros((1, N + 1))
        if ramp:  # a continuous driver's bracket
            qv[0] = rng.uniform(0.1, 2.0) * tg.times
        else:  # steps, some of them flat
            qv[0, 1:] = np.cumsum(rng.uniform(0.0, 0.1, N) * (rng.random(N) < 0.7))
        var_a = np.zeros((1, N + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dom, "BLOCK_ENTRIES", entries)
            _, root = dom._veraar_paths(spec, dom._eta_mix(spec, np.abs), qv, var_a)
            assert root.shape == (1,)
            for oracle in oracles:
                assert oracle.stationary is None
                _, want = dom._veraar_paths(oracle, dom._eta_mix(oracle, np.abs), qv, var_a)
                assert np.array_equal(root, want)

    def test_masses_are_read_only(self):
        spec = DominatedSpec.from_power_profile(0.75, TimeGrid(1.0, 8), 32)
        assert np.shares_memory(spec.point_masses, spec.stationary)
        with pytest.raises(ValueError):
            spec.point_masses[0, 1, 5] = 1.0


class TestCertificateCost:
    """The certificate's probes are O(N + J): no (N + 1) x (J + 1) masses array."""

    @staticmethod
    def certificate_peak(N, n_cells, alpha=0.75):
        tg = TimeGrid(1.0, N)
        S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(2, 3))
        spec = DominatedSpec.from_power_profile(alpha, tg, n_cells)
        tracemalloc.start()
        try:
            out = measure_valuedness_certificate(spec, S, S.control)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_grid_times(self):
        # probes up to J = 16384 atoms; N * J grows 64-fold from N = 16 to N = 1024
        # (a dense masses array of the finest probe goes from 2.2 MB to 134 MB)
        _, small = self.certificate_peak(16, 2048)
        _, large = self.certificate_peak(1024, 2048)
        assert large <= 1.5 * small, (small, large)

    def test_probe_at_quarter_million_atoms(self):
        # N = 2048 with a finest probe at J = 2^18: a dense probe would hold 4.3 GB
        start = time.perf_counter()
        out, peak = self.certificate_peak(2048, 2**15)
        assert time.perf_counter() - start < 10.0
        assert peak < 64 * 2**20, peak
        assert out["hypotheses_met"] and not out["c66_probe"]["divergent"]


class TestPowerLawIntegrandMemory:
    def test_no_dense_density(self):
        # a dense (1, N, 1, J + 1) density would be 64.1 MB here
        tg = TimeGrid(1.0, 2048)
        power_law_integrand(0.75, tg, 4096)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            phi, spec = power_law_integrand(0.75, tg, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.weights.shape == (1, 2048, 1, 4097)
        assert peak <= 8 * 2**20

    def test_general_kernel_conditions_in_slot_blocks(self):
        # whole-weights |w| and w * w temporaries would be 64 MB each here
        tg = TimeGrid(1.0, 2048)
        phi, spec = power_law_integrand(0.75, tg, 4096)
        V = np.linspace(0.0, 1.0, tg.n_steps + 1)[None]
        general_kernel_conditions(phi, spec.eta, V)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            out = general_kernel_conditions(phi, spec.eta, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["c63"]["finite"] and out["c64"]["finite"]
        assert peak <= 16 * 2**20, peak


class TestConditionEvaluatorMemory:
    def test_peak_does_not_scale_with_scenarios(self):
        tg = TimeGrid(1.0, 8)
        spec = DominatedSpec.from_power_profile(1.0, tg, 16384)
        peaks = {}
        for P in (1, 64):
            S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(P, 3))
            tracemalloc.start()
            try:
                condition_evaluator(spec, S, S.control)
                peaks[P] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.5 * peaks[1], peaks

    def test_stationary_spec_at_quarter_million_atoms(self):
        # N = 2048 grid times against J = 2^18 atoms: N J = 5.4e8, minutes of work if the square
        # root went through blocks of the density; the shifted vector makes it three of J + 1
        tg = TimeGrid(1.0, 2048)
        S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(2, 3))
        spec = DominatedSpec.from_power_profile(0.75, tg, 2**18)
        assert spec.stationary is not None
        condition_evaluator(spec, S, S.control)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            start = time.perf_counter()
            out = condition_evaluator(spec, S, S.control)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5.0, elapsed
        assert peak < 16 * 2**20, peak
        assert out["c_veraar"]["finite"]


class TestCertificate:
    def test_bounded_density_true(self):
        S = brownian(2, 32)
        grid = CompactGrid(1.0, 16)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.cos(z * t), S.timegrid, grid)
        out = measure_valuedness_certificate(spec, S, S.control)
        assert out["hypotheses_met"]

    @pytest.mark.parametrize("alpha,expected", [(0.75, True), (1.0, True),
                                                (0.4, False), (0.25, False)])
    def test_power_threshold(self, alpha, expected):
        N = 64
        S = brownian(2, N)
        _, spec = power_law_integrand(alpha, S.timegrid, n_cells=256)
        out = measure_valuedness_certificate(spec, S, S.control)
        assert out["hypotheses_met"] is expected
        assert out["c66_probe"]["divergent"] is (not expected)

    def test_probe_trace_exposed(self):
        N = 32
        S = brownian(2, N)
        _, spec = power_law_integrand(0.25, S.timegrid, n_cells=128)
        out = measure_valuedness_certificate(spec, S, S.control)
        probe = out["c66_probe"]
        assert len(probe["values"]) == probe["doublings"] + 1
        assert probe["growth_ratio"] > probe["growth_factor"]

    @pytest.mark.parametrize("alpha", [0.25, 1.0])
    def test_finest_sup_from_refined_conditions(self, alpha):
        S = brownian(2, 32)
        _, spec = power_law_integrand(alpha, S.timegrid, n_cells=64)
        refined = condition_evaluator(spec.reatomize(64 * 2**3), S, S.control)
        given = measure_valuedness_certificate(spec, S, S.control,
                                               finest_sup=refined["c66"]["sup"])
        assert given == measure_valuedness_certificate(spec, S, S.control)

    def test_array_spec_cannot_probe(self):
        tg = TimeGrid(1.0, 4)
        grid = CompactGrid(1.0, 4)
        spec = DominatedSpec(grid, tg, np.zeros((1, 5, 5)), np.full(5, 0.2))
        S = brownian(2, 4)
        with pytest.raises(ValueError):
            measure_valuedness_certificate(spec, S, S.control)


class TestConditionsWithJumpDriver:
    def test_bounded_density_finite_under_jumps(self):
        tg = TimeGrid(1.0, 32)
        sc = ScenarioSet.monte_carlo(20, 37)
        S = simulate_driver(DriverSpec("compound_poisson", jump_rate=2.0, jump_mean=0.1,
                                       jump_std=0.4), tg, sc)
        grid = CompactGrid(1.0, 16)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.cos(z - t), tg, grid)
        out = condition_evaluator(spec, S, S.control)
        for key in ("c63", "c64", "c66", "c67", "c_veraar"):
            assert out[key]["finite"]
        # the FV-part condition really sees the realized jump variation
        assert out["c67"]["fv_part_sup"] > 0.0


class TestGeneralKernelConditions:
    def test_two_component_random_kernel(self):
        rng = np.random.default_rng(41)
        grid = CompactGrid(1.0, 6)
        P, N, d = 8, 12, 2
        psi = rng.normal(size=(P, N, d, 7))
        rho = rng.uniform(0.0, 0.5, size=(P, N, 7))  # scenario-dependent kernel
        phi = kernel_process(grid, psi, rho)
        V = np.broadcast_to(np.linspace(0, 1, N + 1), (P, N + 1)).copy()
        out = general_kernel_conditions(phi, rho, V)
        assert out["c63"]["finite"] and out["c64"]["finite"]
        assert out["c63"]["sup"] <= out["c64"]["sup"] + 1e-12

    @staticmethod
    def psi_oracle(psi, rho, V):
        """The conditions read from the density psi itself (einsum against rho)."""
        abs_mix = np.einsum("pnij,pnj->pni", np.abs(psi), rho)
        inner63 = np.sum(abs_mix**2, axis=2)
        inner64 = rho.sum(axis=2) * np.einsum("pnij,pnj->pn", psi**2, rho)
        dV = np.diff(V, axis=1)
        return np.max(running_sum(inner63 * dV)), np.max(running_sum(inner64 * dV))

    def test_matches_psi_oracle_random_kernel(self):
        rng = np.random.default_rng(53)
        grid = CompactGrid(1.0, 9)
        P, N, d = 5, 14, 2
        psi = rng.normal(size=(P, N, d, 10))
        rho = rng.uniform(0.0, 0.5, size=(P, N, 10))
        rho[:, :, ::3] = 0.0  # massless atoms contribute nothing
        V = np.linspace(0.0, 2.0, N + 1)[None]
        out = general_kernel_conditions(kernel_process(grid, psi, rho), rho, V)
        c63, c64 = self.psi_oracle(psi, rho, V)
        assert out["c63"]["sup"] == pytest.approx(c63, rel=1e-12)
        assert out["c64"]["sup"] == pytest.approx(c64, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.4, 0.75, 1.5])
    def test_matches_psi_oracle_power_law(self, alpha):
        tg = TimeGrid(1.0, 16)
        phi, spec = power_law_integrand(alpha, tg, 64)
        psi = spec.density_values()[:, :16, None, :]
        V = np.linspace(0.0, 1.0, 17)[None]
        rho = np.broadcast_to(spec.eta, (1, 16, 65))  # the kernel of the spec's process
        out = general_kernel_conditions(phi, spec.eta, V)
        c63, c64 = self.psi_oracle(psi, rho, V)
        assert out["c63"]["sup"] == pytest.approx(c63, rel=1e-12)
        assert out["c64"]["sup"] == pytest.approx(c64, rel=1e-12)

    @staticmethod
    def whole_weights_paths(phi, rho, V):
        """The c63 and c64 paths from sums over the whole weights array at once."""
        w, r = phi.weights, rho[:, :, None, :]
        sq = w * w
        np.divide(sq, r, out=sq, where=r > 0)
        dV = np.diff(V, axis=1)
        return (running_sum(np.sum(np.sum(np.abs(w), axis=3) ** 2, axis=2) * dV),
                running_sum(rho.sum(axis=2) * np.sum(sq, axis=(2, 3)) * dV))

    def test_slot_blocks_equal_whole_weights_sums(self):
        # 300 slots of 2 x 200 atoms span four slot blocks; the sums of the
        # whole weights array are the reference, bit for bit
        rng = np.random.default_rng(7)
        psi = rng.normal(size=(3, 300, 2, 200))
        rho = rng.uniform(0.0, 0.5, size=(3, 300, 200))
        rho[:, :, ::5] = 0.0
        V = np.linspace(0.0, 2.0, 301)[None]
        phi = kernel_process(CompactGrid(1.0, 199), psi, rho)
        c63, c64 = self.whole_weights_paths(phi, rho, V)
        out = general_kernel_conditions(phi, rho, V)
        assert out["c63"]["sup"] == float(np.max(c63))
        assert out["c64"]["sup"] == float(np.max(c64))

    @given(P=st.integers(1, 12), N=st.integers(1, 20), d=st.integers(1, 2), J=st.integers(1, 8),
           rows=st.sampled_from([1, "P"]), entries=st.integers(1, 200), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_slot_blocks_equal_the_whole_array_formula(self, P, N, d, J, rows, entries, seed):
        # every path, not only its sup: from one slot per block to all of them in one
        rng = np.random.default_rng(seed)
        n = P if rows == "P" else 1
        rho = rng.uniform(0.0, 0.5, size=(n, N, J + 1)) * (rng.random((n, N, J + 1)) < 0.7)
        phi = kernel_process(CompactGrid(1.0, J), rng.normal(size=(n, N, d, J + 1)), rho)
        V = np.cumsum(rng.uniform(0.0, 1.0, size=(P, N + 1)), axis=1)
        paths = []

        def recording(x):
            paths.append(running_sum(x))
            return paths[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dom, "BLOCK_ENTRIES", entries)
            mp.setattr(helpers, "running_sum", recording)
            out = general_kernel_conditions(phi, rho, V)
        c63, c64 = self.whole_weights_paths(phi, rho, V)
        assert np.array_equal(paths[0], c63) and np.array_equal(paths[1], c64)
        assert out["c63"]["sup"] == float(np.max(c63))
        assert out["c64"]["sup"] == float(np.max(c64))
