import numpy as np
import pytest
from helpers import (
    diagonal_jump_check,
    fft_error_bound,
    fft_volterra,
    increment_blocks,
    lag_sum_bound,
    left_limit_remainder,
    order_bound,
    traced_peak,
    variation_condition_check,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvstoch import drivers, integrands, mvintegral
from mvstoch import volterra as vol
from mvstoch.dominated import power_law_integrand
from mvstoch.drivers import (
    SCENARIO_CHUNK,
    DriverPath,
    DriverSpec,
    PredictablePath,
    ScenarioSet,
    TimeGrid,
    control_process,
    ito_integral,
    simulate_driver,
)
from mvstoch.integrands import variation_path
from mvstoch.volterra import (
    VolterraKernel,
    affine_kernel,
    decompose,
    density_construction,
    induced_phi,
    level_variations,
    make_kernel,
    power_kernel,
    power_volterra_paths,
    power_volterra_terminals,
    semimartingale_diagnostic,
    tabulated_kernel,
    volterra_direct,
)


def brownian(P, N, T=1.0, seed=3):
    return simulate_driver(DriverSpec("brownian"), TimeGrid(T, N), ScenarioSet.monte_carlo(P, seed))


def random_fv_kernel(rng, timegrid, scale=1.0):
    N = timegrid.n_steps
    inc = rng.uniform(-scale, scale, size=(N + 1, N + 1)) * timegrid.dt
    matrix = np.cumsum(inc, axis=0) + rng.uniform(-1, 1, size=(1, N + 1))
    return tabulated_kernel(matrix, timegrid, name="random_fv")


class TestVolterraDirect:
    def test_constant_kernel_recovers_driver(self):
        S = brownian(12, 32)
        k = affine_kernel(1.0, 0.0, S.timegrid)
        X = volterra_direct(k, S)
        np.testing.assert_allclose(X, S.values[:, :, 0] - S.values[:, :1, 0], atol=1e-12)

    def test_s_only_kernel_is_plain_integral(self):
        S = brownian(10, 16)
        rng = np.random.default_rng(0)
        h = rng.uniform(-1, 1, size=17)
        matrix = np.tile(h[None, :], (17, 1))
        k = tabulated_kernel(matrix, S.timegrid)
        X = volterra_direct(k, S)
        H = PredictablePath(h[None, :16, None])
        np.testing.assert_allclose(X, ito_integral(H, S), atol=1e-12)

    def test_power_terminal_variance_isometry(self):
        # oracle: sum_j (T - t_j)^(2a) dt of the squared kernel weights
        alpha, N, P = 0.5, 256, 40_000
        tg = TimeGrid(1.0, N)
        term = power_volterra_terminals([alpha], [N], tg, P, seed=11)[:, 0, 0]
        sample_var = float(np.var(term))
        t = tg.times[:N]
        discrete = float(np.sum((1.0 - t) ** (2 * alpha)) * tg.dt)
        se = discrete * np.sqrt(2.0 / P)
        assert abs(sample_var - discrete) < 3 * se
        assert abs(discrete - 1.0 / (2 * alpha + 1)) < 2.0 / N

    def test_fft_path_matches_direct(self):
        # one transform of all scenarios against the direct sum's blocks: pocketfft rounds a
        # row alike whatever the rows beside it
        S = brownian(11, 64)
        # the affine profile is nonzero at lag 0, which the sum over j < l excludes
        for k in (power_kernel(0.75, S.timegrid), affine_kernel(1.0, 2.0, S.timegrid)):
            assert np.array_equal(fft_volterra(k, S), volterra_direct(k, S))

    def test_terminal_sampler_matches_driver_route(self):
        N, P = 32, 20
        tg = TimeGrid(1.0, N)
        S = brownian(P, N, seed=77)
        term = power_volterra_terminals([1.0], [N // 2, N], tg, P, seed=77)[:, 0]
        for c, u in enumerate((N // 2, N)):
            w = np.maximum(tg.times[u] - tg.times[:N], 0.0) ** 1.0 * (tg.times[:N] < tg.times[u])
            direct = ito_integral(PredictablePath(w[None, :, None]), S)[:, -1]
            np.testing.assert_allclose(term[:, c], direct, atol=1e-12)


def serial_paths(alphas, tg, P, seed, n_levels):
    """power_volterra_paths as one thread's loop over 16-row blocks, with
    np.diff for the level differences."""
    N = tg.n_steps
    spectra = integrands._profile_spectra([(np.arange(N + 1) * tg.dt) ** a for a in alphas], N)
    out = np.empty((len(alphas), P, n_levels))
    for lo, hi, dW, _ in increment_blocks(DriverSpec("brownian"), tg, seed, P, rows=16):
        for a, paths in enumerate(integrands._fft_paths(dW[:, :, 0], spectra)):
            diffs = [np.diff(paths[:, :: 2**k], axis=1) for k in range(n_levels)]
            out[a, lo:hi] = np.stack([np.sum(np.abs(d), axis=1) for d in diffs], axis=1)
    return out


def serial_terminals(alphas, u_indices, tg, P, seed):
    """power_volterra_terminals as one thread's loop over blocks of the budget's rows, one
    gemv per exponent and index: a gemv rounds a row by its place among the rows it holds."""
    N, t = tg.n_steps, tg.times
    out = np.empty((P, len(alphas), len(u_indices)))
    rows = drivers.block_rows(N * 8, P)
    for lo, hi, dW, _ in increment_blocks(DriverSpec("brownian"), tg, seed, P, rows=rows):
        for a, alpha in enumerate(alphas):
            for c, u in enumerate(u_indices):
                w = np.maximum(t[u] - t[:N], 0.0) ** alpha * (t[:N] < t[u])
                out[lo:hi, a, c] = dW[:, :, 0] @ w
    return out


class TestSharedBrownianSource:
    """The streamed power-kernel samplers read the driver simulate_driver builds."""

    N = 32
    P = SCENARIO_CHUNK + 3  # crosses a chunk boundary

    @pytest.fixture(scope="class")
    def driver(self):
        return brownian(self.P, self.N, seed=19)

    def test_terminals_match_volterra_direct(self, driver):
        tg, alphas, u_indices = driver.timegrid, (0.4, 1.0, 2.0), [self.N // 2, self.N - 1, self.N]
        terms = power_volterra_terminals(alphas, u_indices, tg, self.P, seed=19)
        assert terms.shape == (self.P, len(alphas), len(u_indices))
        for a, alpha in enumerate(alphas):
            direct = volterra_direct(power_kernel(alpha, tg), driver)
            for c, u in enumerate(u_indices):
                scale = np.max(np.abs(direct[:, u]))
                np.testing.assert_allclose(terms[:, a, c], direct[:, u], rtol=1e-12,
                                           atol=1e-12 * scale)

    def test_paths_match_volterra_direct_fft(self, driver):
        tg, alphas = driver.timegrid, (0.25, 0.75)
        tv = power_volterra_paths(alphas, tg, self.P, seed=19, n_levels=4)
        assert tv.shape == (len(alphas), self.P, 4)
        for a, alpha in enumerate(alphas):
            fft = fft_volterra(power_kernel(alpha, tg), driver)
            np.testing.assert_allclose(tv[a], level_variations(fft, 4), rtol=1e-12)

    def test_terminals_hold_one_chunk_of_normals(self, monkeypatch):
        # two chunks, drawn in 16-row blocks: the first must be freed before the second is
        # drawn, so the peak stays near one chunk's normals (2.0 chunks if it is not)
        tg = TimeGrid(1.0, 64)
        monkeypatch.setattr(drivers, "BLOCK_BYTES", 16 * tg.n_steps * 8)
        chunk_bytes = SCENARIO_CHUNK * tg.n_steps * 8
        peak = traced_peak(
            lambda: power_volterra_terminals([0.75], [32, 64], tg, 2 * SCENARIO_CHUNK, seed=3))
        assert peak <= 1.3 * chunk_bytes, (peak, chunk_bytes)

    @pytest.mark.parametrize("sampler", ["terminals", "paths"])
    def test_peak_flat_in_scenarios(self, sampler):
        # one draw block against a whole chunk of blocks: a whole-chunk draw
        # would hold 4096 rows of normals, 64 MB here
        tg = TimeGrid(1.0, 2048)
        if sampler == "terminals":
            run = lambda P: power_volterra_terminals([0.75], [tg.n_steps], tg, P, seed=3)
            block = drivers.block_rows(tg.n_steps * 8, SCENARIO_CHUNK)
        else:
            run = lambda P: power_volterra_paths([0.75], tg, P, seed=3, n_levels=3)
            block = drivers.block_rows(integrands._fft_row_bytes(tg.n_steps), SCENARIO_CHUNK)
        peaks = {P: traced_peak(lambda: run(P)) for P in (block, SCENARIO_CHUNK)}
        assert peaks[SCENARIO_CHUNK] <= 1.3 * peaks[block], peaks

    def test_two_workers_hold_one_block_of_rows(self, monkeypatch):
        # every worker draws the budget's rows into its own buffers, whatever the worker count:
        # one worker holds one block's transforms and a strided ufunc's three buffers, and a
        # second worker adds as much
        tg, peaks = TimeGrid(1.0, 2048), {}
        n, row = integrands._fft_length(tg.n_steps), integrands._fft_row_bytes(tg.n_steps)
        share = drivers.block_rows(row, 256) * row + 3 * np.getbufsize() * 8
        for workers in (1, 2):
            monkeypatch.setattr(drivers, "WORKERS", workers)
            peaks[workers] = traced_peak(
                lambda: power_volterra_paths([0.75], tg, 256, seed=3, n_levels=3))
        # then the profile's spectrum and the output
        assert peaks[1] <= share + (n // 2 + 1) * 16 + 0.15e6, peaks
        assert peaks[2] <= peaks[1] + share + 0.05e6, peaks

    def test_two_workers_hold_three_transform_buffers_each(self, monkeypatch):
        # each worker draws its block of the budget's rows into its path buffer and takes its
        # level differences in its product buffer
        monkeypatch.setattr(drivers, "WORKERS", 2)
        tg = TimeGrid(1.0, 2048)
        n, row = integrands._fft_length(tg.n_steps), integrands._fft_row_bytes(tg.n_steps)
        transforms = drivers.block_rows(row, 256) * row  # one worker's
        spectra = (n // 2 + 1) * 16
        # a strided ufunc (the level differences, the spectrum product) buffers three operands
        # of np.getbufsize() values, in both workers at once; then the profile and the output
        slack = 2 * 3 * np.getbufsize() * 8 + 0.15e6
        peak = traced_peak(lambda: power_volterra_paths([0.75], tg, 256, seed=3, n_levels=3))
        assert peak <= 2 * transforms + spectra + slack, (peak, transforms)

    @given(P=st.integers(1, SCENARIO_CHUNK + 3), rows=st.integers(1, 40),
           n_levels=st.integers(3, 5), workers=st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None)
    def test_paths_equal_the_serial_block_loop(self, P, rows, n_levels, workers):
        # blocks of any rows against the serial loop's 16-row blocks
        tg, alphas = TimeGrid(1.0, 2 ** (n_levels - 1) * 3), (0.25, 0.75)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(drivers, "WORKERS", workers)
            mp.setattr(drivers, "BLOCK_BYTES", rows * integrands._fft_row_bytes(tg.n_steps))
            tv = power_volterra_paths(alphas, tg, P, seed=29, n_levels=n_levels)
        assert np.array_equal(tv, serial_paths(alphas, tg, P, 29, n_levels))

    @given(chunk=st.integers(1, 48), n_chunks=st.integers(1, 4), short=st.integers(0, 47),
           rows=st.integers(1, 20), workers=st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_terminals_equal_the_serial_block_loop(self, chunk, n_chunks, short, rows, workers):
        # P spans n_chunks chunks, the last one short by up to a chunk less one row
        P = max(1, n_chunks * chunk - short % chunk)
        tg, alphas, u_indices = TimeGrid(1.0, 24), (0.4, 1.5), [7, 24]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(drivers, "SCENARIO_CHUNK", chunk)
            mp.setattr(drivers, "WORKERS", workers)
            mp.setattr(drivers, "BLOCK_BYTES", rows * tg.n_steps * 8)
            terms = power_volterra_terminals(alphas, u_indices, tg, P, seed=31)
            assert np.array_equal(terms, serial_terminals(alphas, u_indices, tg, P, 31))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_terminal_workers_hold_one_buffer_each(self, monkeypatch, workers):
        # eight chunks: each worker draws all of its chunks' 16-row blocks into one
        # buffer; a fresh array per block beside it doubles that
        tg, rows = TimeGrid(1.0, 4096), 16
        monkeypatch.setattr(drivers, "SCENARIO_CHUNK", 4 * rows)
        monkeypatch.setattr(drivers, "BLOCK_BYTES", rows * tg.n_steps * 8)
        monkeypatch.setattr(drivers, "WORKERS", workers)
        buffer_bytes = rows * tg.n_steps * 8
        run = lambda: power_volterra_terminals([0.75], [tg.n_steps], tg, 32 * rows, seed=3)
        peak = traced_peak(run)
        assert peak <= (workers + 0.5) * buffer_bytes, (peak, buffer_bytes)

    def test_batched_exponents_equal_single_calls(self):
        tg, alphas, u_indices = TimeGrid(1.0, self.N), [0.25, 0.75, 1.5], [7, self.N]
        batched = power_volterra_terminals(alphas, u_indices, tg, self.P, seed=5)
        batched_tv = power_volterra_paths(alphas, tg, self.P, seed=5, n_levels=3)
        for a, alpha in enumerate(alphas):
            single = power_volterra_terminals([alpha], u_indices, tg, self.P, seed=5)
            assert np.array_equal(batched[:, a], single[:, 0])
            single_tv = power_volterra_paths([alpha], tg, self.P, seed=5, n_levels=3)
            assert np.array_equal(batched_tv[a], single_tv[0])

    def test_streamed_slopes_equal_fftconvolve_ensemble(self):
        # the former route: a full ensemble per exponent from scipy's fftconvolve
        # in blocks of 256 rows, then the mean total variation per level
        from scipy.signal import fftconvolve

        N, n_levels, alphas = 256, 5, (0.25, 0.75)
        tg = TimeGrid(1.0, N)
        streamed = power_volterra_paths(alphas, tg, self.P, seed=23, n_levels=n_levels)
        for a, alpha in enumerate(alphas):
            w = (np.arange(N + 1) * tg.dt) ** alpha
            Y = np.empty((self.P, N + 1))
            for lo, hi, dW, _ in increment_blocks(DriverSpec("brownian"), tg, 23, self.P):
                for b in range(lo, hi, 256):
                    e = min(b + 256, hi)
                    Y[b:e] = fftconvolve(dW[b - lo : e - lo, :, 0], w[None, :], axes=1)[:, : N + 1]
            Y[:, 0] = 0.0
            means = [float(np.mean(np.sum(np.abs(np.diff(Y[:, :: 2**k], axis=1)), axis=1)))
                     for k in range(n_levels)]
            mesh = [tg.dt * 2**k for k in range(n_levels)]
            slope = float(np.polyfit(np.log([1.0 / m for m in mesh]), np.log(means), 1)[0])
            out = semimartingale_diagnostic(streamed[a], tg)
            assert [r["mean_tv"] for r in out["levels"]] == means
            assert out["slope"] == slope


class TestRowView:
    """Every path a decomposition reads is per scenario: on a block of rows (``DriverPath.view``)
    it is those rows of the whole ensemble's, bit for bit, which lets the CLI walk blocks."""

    @given(tree=st.booleans(), N=st.integers(1, 40), P=st.integers(1, 30),
           kind=st.sampled_from(["power", "affine", "tabulated"]), alpha=st.floats(0.1, 1.9),
           data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_the_whole_ensemble_rows(self, tree, N, P, kind, alpha, data, seed):
        N = min(N, 7) if tree else N  # a tree takes one level per step
        sc = ScenarioSet.tree(2, N) if tree else ScenarioSet.monte_carlo(P, seed)
        tg = TimeGrid(1.0, N)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        lo = data.draw(st.integers(0, sc.n_scenarios - 1))
        hi = data.draw(st.integers(lo + 1, sc.n_scenarios))
        kernel = {"power": lambda: power_kernel(alpha, tg),
                  "affine": lambda: affine_kernel(1.0, alpha, tg),
                  "tabulated": lambda: random_fv_kernel(np.random.default_rng(seed), tg)}[kind]()
        diagonal = PredictablePath(kernel.diagonal())
        paths = [lambda S: ito_integral(diagonal, S), lambda S: volterra_direct(kernel, S),
                 lambda S: mvintegral.horizon_charge(induced_phi(kernel, tg), S)]
        if kind != "tabulated":  # a tabulated kernel carries no density
            paths.append(lambda S: density_construction(kernel, S)["x"])
        for path in paths:
            assert np.array_equal(path(S.view(lo, hi)), path(S)[lo:hi])
        whole, part = decompose(kernel, S), decompose(kernel, S.view(lo, hi))
        for key in ("diag", "y", "x_reconstructed", "x_direct"):
            assert np.array_equal(part[key], whole[key][lo:hi])


class TestInducedPhi:
    def test_time_constant_kernel_gives_zero_measures(self):
        tg = TimeGrid(1.0, 8)
        k = affine_kernel(2.0, 0.0, tg)
        phi = induced_phi(k, tg)
        assert np.all(phi.weights == 0.0)

    def test_power_cumulative_mass(self):
        tg = TimeGrid(1.0, 16)
        k = power_kernel(0.6, tg)
        phi = induced_phi(k, tg)
        cum = np.cumsum(phi.weights[0, :, 0, :], axis=1)
        for j in range(16):
            for l in range(17):
                expect = max(tg.times[l] - tg.times[j], 0.0) ** 0.6
                assert cum[j, l] == pytest.approx(expect, abs=1e-12)

    def test_no_mass_at_atom_zero(self):
        tg = TimeGrid(1.0, 8)
        phi = induced_phi(power_kernel(1.5, tg), tg)
        assert np.all(phi.weights[:, :, :, 0] == 0.0)

    def test_variation_is_t_slice_total_variation(self):
        tg = TimeGrid(1.0, 12)
        rng = np.random.default_rng(5)
        k = random_fv_kernel(rng, tg)
        phi = induced_phi(k, tg)
        var = variation_path(phi)
        for j in range(12):
            slice_tv = float(np.sum(np.abs(np.diff(k.matrix[j:, j, 0]))))
            assert var[0, j, 0] == pytest.approx(slice_tv, abs=1e-12)

    def test_matches_power_law_integrand_masses(self):
        tg = TimeGrid(1.0, 32)
        phi_v = induced_phi(power_kernel(0.75, tg), tg)
        phi_d, _ = power_law_integrand(0.75, tg, n_cells=32)
        assert np.array_equal(phi_v.weights, phi_d.weights)


class TestDecompose:
    def test_constant_kernel_all_diagonal(self):
        S = brownian(10, 16)
        out = decompose(affine_kernel(1.0, 0.0, S.timegrid), S)
        assert np.all(out["y"] == 0.0)
        np.testing.assert_allclose(out["x_reconstructed"], out["diag"], atol=1e-14)

    def test_power_kernel_all_remainder(self):
        S = brownian(10, 16)
        out = decompose(power_kernel(0.8, S.timegrid), S)
        assert np.all(out["diag"] == 0.0)
        assert out["max_identity_gap"] <= 1e-12

    def test_random_fv_kernel_identity(self):
        S = brownian(30, 64, seed=9)
        k = random_fv_kernel(np.random.default_rng(13), S.timegrid)
        out = decompose(k, S)
        assert out["condition_ok"]
        assert out["max_identity_gap"] <= 1e-10

    @pytest.mark.parametrize("pair_entries", [1, integrands.PAIR_ENTRIES])
    def test_remainders_equal_dense_cumsum(self, monkeypatch, pair_entries):
        # oracle: the dense charge and its full cumsum over atoms
        N, P = 24, 6
        rng = np.random.default_rng(31)
        S1 = brownian(P, N, seed=4)
        S2 = simulate_driver(DriverSpec("brownian", d=2), TimeGrid(1.0, N),
                             ScenarioSet.monte_carlo(P, 4))
        tg = S1.timegrid
        random = tabulated_kernel(rng.normal(size=(P, N + 1, N + 1, 1)), tg, name="random")
        cases = [(power_kernel(0.75, tg), S1), (affine_kernel(1.0, 2.0, tg), S1),
                 (random_fv_kernel(rng, tg), S1), (random, S1),
                 (tabulated_kernel(rng.normal(size=(N + 1, N + 1, 2)), tg, name="d2"), S2)]
        monkeypatch.setattr(integrands, "PAIR_ENTRIES", pair_entries)  # times per charge block
        for kernel, S in cases:
            phi = induced_phi(kernel, tg)
            inc = np.einsum("pnij,pni->pnj",
                            np.broadcast_to(phi.weights, (P,) + phi.weights.shape[1:]),
                            S.increments)
            charge = np.zeros((P, N + 1, N + 1))
            np.cumsum(inc, axis=1, out=charge[:, 1:])
            cum = np.cumsum(charge, axis=2)
            idx = np.arange(1, N + 1)
            out = decompose(kernel, S)
            y_leftlim = left_limit_remainder(kernel, S)
            # y_l sums the products of atoms 0..l: N d roundings in the slot sum, at most N in
            # the atom cumsum, in whatever order each side takes
            abs_inc = np.einsum("pnij,pni->pnj",
                                np.abs(np.broadcast_to(phi.weights, (P,) + phi.weights.shape[1:])),
                                np.abs(S.increments))
            d = S.increments.shape[2]
            bound = order_bound(N * d + N + 1, np.cumsum(np.sum(abs_inc, axis=1), axis=1))
            if phi.lag is not None:  # a convolution by FFT in place of the slot sum
                bound += np.arange(1, N + 2) * fft_error_bound(phi.lag, S.increments[:, :, 0])
            assert np.all(np.abs(out["y"] - cum[:, N, :]) <= bound), kernel.name
            assert np.array_equal(y_leftlim[:, 1:], cum[:, idx - 1, idx]), kernel.name
            assert np.all(y_leftlim[:, 0] == 0.0)

    def test_induced_phi_built_once(self, monkeypatch):
        calls = []
        original = vol.induced_phi

        def counting(kernel, timegrid):
            calls.append(kernel.name)
            return original(kernel, timegrid)

        monkeypatch.setattr(vol, "induced_phi", counting)
        S = brownian(4, 16)
        decompose(power_kernel(0.75, S.timegrid), S)
        assert calls == ["power_alpha[0.75]"]

    def test_draws_no_charge_stream(self, monkeypatch):
        calls = []
        original = mvintegral.charge_blocks

        def counting(phi, S, *rows):
            calls.append(phi.kind)
            return original(phi, S, *rows)

        # also where volterra would hold the name itself
        monkeypatch.setattr(mvintegral, "charge_blocks", counting)
        monkeypatch.setattr(vol, "charge_blocks", counting, raising=False)
        S = brownian(6, 16)
        assert decompose(power_kernel(0.75, S.timegrid), S)["max_identity_gap"] <= 1e-12
        assert calls == []

    def test_overflow_raises(self, monkeypatch):
        # t-increments of 1e306 against increments of about 1e3: the variation check
        # would already refuse the kernel, so it is passed here to reach the charge
        S = brownian(3, 4, T=4e6)
        t = S.timegrid.times
        kernel = tabulated_kernel(np.maximum(t[:, None] - t[None, :], 0.0) * 1e300, S.timegrid)
        monkeypatch.setattr(vol, "_variation_check", lambda *args: {"integrable": True})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
            decompose(kernel, S)

    def test_peak_memory_flat_in_scenarios(self):
        # no (P, N + 1, N + 1) charge, and no block of it: one tile of the slot table and a
        # few (P, N + 1) paths, within 1 MB and eight paths (3.10 MB at P = 64, where the
        # charge blocks of the block reduce peaked at 3.17 MB)
        tg = TimeGrid(1.0, 512)
        kernel = power_kernel(0.75, tg)
        peaks = {}
        for P in (1, 64):
            S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(P, 3))
            peaks[P] = traced_peak(lambda: decompose(kernel, S))
        for P, peak in peaks.items():
            assert peak <= 1e6 + 8 * P * 8 * 513, (P, peak)

    def test_left_limit_remainder_predictable_on_tree(self):
        tg = TimeGrid(4.0, 3)
        sc = ScenarioSet.tree(2, 3)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        k = random_fv_kernel(np.random.default_rng(1), tg)
        out = decompose(k, S)
        y_leftlim = left_limit_remainder(k, S)
        for l in range(1, 4):
            assert sc.is_measurable(y_leftlim[:, l], l - 1)
        # the identity-exact remainder is adapted but generally not predictable
        for l in range(4):
            assert sc.is_measurable(out["y"][:, l], l)


STATIONARY = [lambda tg: power_kernel(0.25, tg), lambda tg: power_kernel(0.75, tg),
              lambda tg: power_kernel(1.5, tg), lambda tg: affine_kernel(1.0, 2.0, tg),
              lambda tg: affine_kernel(0.5, -3.0, tg)]


class TestStationaryKernel:
    """Power and affine kernels are held as lag profiles: every route reads views of them and
    agrees with the dense table of the same values."""

    @pytest.mark.parametrize("N", [1, 7, 64])
    @pytest.mark.parametrize("make", STATIONARY, ids=["power_0.25", "power_0.75", "power_1.5",
                                                      "affine_1_2", "affine_0.5_-3"])
    def test_lag_route_equals_the_dense_table(self, make, N):
        S = brownian(6, N, seed=N + 2)
        tg = S.timegrid
        kernel = make(tg)
        dense = tabulated_kernel(np.array(kernel.matrix), tg, name="dense")
        assert kernel.lag is not None and dense.lag is None
        # diff of the lag equals diff of the table, value for value
        phi, phi_dense = induced_phi(kernel, tg), induced_phi(dense, tg)
        assert np.array_equal(phi.weights, phi_dense.weights)
        # the lag route convolves by FFT and the dense one sums its table: each sum lies within
        # the FFT's a-priori error and the table's rounding of the other
        dS, eps = S.increments[:, :, 0], np.finfo(float).eps
        charge = mvintegral.horizon_charge(phi, S)
        assert np.all(np.abs(charge - mvintegral.horizon_charge(phi_dense, S))
                      <= lag_sum_bound(phi.lag, dS))
        out, out_dense = decompose(kernel, S), decompose(dense, S)
        bound_x = lag_sum_bound(kernel.lag, dS)
        assert np.all(np.abs(out["x_direct"] - out_dense["x_direct"]) <= bound_x)
        # y is the charge's cumsum over atoms: the charges' gaps add up, and both cumsums round
        bound_y = (np.cumsum(lag_sum_bound(phi.lag, dS), axis=1)
                   + order_bound(N + 1, np.cumsum(np.abs(charge), axis=1)))
        assert np.all(np.abs(out["y"] - out_dense["y"]) <= bound_y)
        # each gap rounds once in diag + y and once in the subtraction
        slack = eps * (np.abs(out["x_reconstructed"]) + np.abs(out["x_direct"]))
        assert (abs(out["max_identity_gap"] - out_dense["max_identity_gap"])
                <= np.max(bound_x + bound_y + slack))
        # a scalar kernel weighs every component of a vector driver alike
        S2 = simulate_driver(DriverSpec("brownian", d=2), tg, ScenarioSet.monte_carlo(6, N))
        summed = np.sum(S2.increments, axis=2)
        assert np.all(np.abs(volterra_direct(kernel, S2) - volterra_direct(dense, S2))
                      <= lag_sum_bound(kernel.lag, summed))
        # the density as a table of psi(t_k, t_j), not of f'(t_{k - j}): other values
        with_density = VolterraKernel("dense", np.array(kernel.matrix), tg,
                                      density_fn=kernel.density_fn)
        dc, dc_dense = density_construction(kernel, S), density_construction(with_density, S)
        assert np.max(np.abs(dc["x"] - dc_dense["x"])) <= 1e-12
        assert abs(dc["kernel_rebuild_residual"] - dc_dense["kernel_rebuild_residual"]) <= 1e-12

    @pytest.mark.parametrize("make", STATIONARY[::3], ids=["power", "affine"])
    def test_matrix_is_a_read_only_view(self, make):
        tg = TimeGrid(1.0, 16)
        kernel = make(tg)
        gap = np.arange(17)[:, None] - np.arange(17)[None, :]
        table = np.where(gap >= 0, kernel.lag[np.maximum(gap, 0)], 0.0)
        assert np.array_equal(kernel.matrix[:, :, 0], table)
        for view in (kernel.matrix, induced_phi(kernel, tg).weights):  # spans 2 N + 1 values
            span = sum(abs(step) * (n - 1) for step, n in zip(view.strides, view.shape))
            assert span + view.itemsize <= 8 * (2 * 16 + 1)
        with pytest.raises(ValueError):
            kernel.matrix[3, 1, 0] = 0.0
        with pytest.raises(ValueError):
            induced_phi(kernel, tg).weights[0, 1, 0, 3] = 0.0

    @pytest.mark.parametrize("entry", [{"alpha": 0.75}, {"level": 1.0, "slope": 2.0}],
                             ids=["power", "affine"])
    def test_peak_of_the_decompositions(self, entry):
        # dense kernel tables read 28.6 MB here; the lag route holds O(N) vectors and the charge block
        tg = TimeGrid(1.0, 1024)
        S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(100, 12345))
        name = "power_alpha" if "alpha" in entry else "affine"

        def run():
            kernel = make_kernel(name, entry, tg)
            decompose(kernel, S)
            density_construction(kernel, S)

        peak = traced_peak(run)
        assert peak < 12e6, peak

    @given(P=st.integers(1, 13), N=st.integers(1, 64), alpha=st.sampled_from([0.25, 0.75, 1.5]),
           kind=st.sampled_from(["power", "affine"]), seed=st.integers(0, 2**16))
    @example(P=5, N=64, alpha=0.25, kind="power", seed=0)
    @settings(max_examples=40, deadline=None)
    def test_first_scenarios_equal_at_p_and_2p(self, P, N, alpha, kind, seed):
        # every lag sum takes 4 scenarios per block here: unless P is a multiple of 4, the
        # first P of 2P scenarios are split into other blocks, and must still be the same bits
        tg = TimeGrid(1.0, N)
        S2 = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(2 * P, seed))
        S1 = DriverPath(S2.spec, tg, ScenarioSet.monte_carlo(P, seed), S2.values[:P], S2.control)
        kernel = power_kernel(alpha, tg) if kind == "power" else affine_kernel(1.0, 2 - alpha, tg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(drivers, "BLOCK_BYTES", 4 * integrands._fft_row_bytes(N))
            for f in (lambda S: mvintegral.horizon_charge(induced_phi(kernel, tg), S),
                      lambda S: volterra_direct(kernel, S),
                      lambda S: density_construction(kernel, S)["x"]):
                assert np.array_equal(f(S1), f(S2)[:P])

    @pytest.mark.parametrize("entry", [{"alpha": 0.75}, {"level": 1.0, "slope": 2.0}],
                             ids=["power", "affine"])
    def test_decompositions_hold_no_whole_spectrum(self, entry):
        # N = 4096, P = 100: a whole (P, n / 2 + 1) spectrum is 6.6 MB, two paths' worth.  The
        # decomposition holds five (P, N + 1) paths (its parts, their sum and their gap) and the
        # density route three, beside one work set of the budget's rows
        tg = TimeGrid(1.0, 4096)
        S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(100, 12345))
        kernel = make_kernel("power_alpha" if "alpha" in entry else "affine", entry, tg)
        path = 8 * 100 * 4097
        row = integrands._fft_row_bytes(4096)
        work = drivers.block_rows(row, 100) * row + 0.5e6
        assert traced_peak(lambda: decompose(kernel, S)) <= 5 * path + work
        assert traced_peak(lambda: density_construction(kernel, S)) <= 3 * path + work


class TestSlotSums:
    """A dense kernel's slot sums are one tiled product per scenario (``integrands._slot_sums``)."""

    @given(P=st.integers(1, 12), N=st.integers(1, 40), d=st.integers(1, 2),
           kind=st.sampled_from(["dense", "random"]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_first_scenarios_equal_at_p_and_2p(self, P, N, d, kind, seed):
        # the first P of 2P scenarios, and a random kernel's first P rows
        tg, rng = TimeGrid(1.0, N), np.random.default_rng(seed)
        S2 = simulate_driver(DriverSpec("brownian", d=d), tg, ScenarioSet.monte_carlo(2 * P, seed))
        S1 = DriverPath(S2.spec, tg, ScenarioSet.monte_carlo(P, seed), S2.values[:P], S2.control)
        table = rng.normal(size=(2 * P, N + 1, N + 1, d))
        kernels = {"dense": lambda rows: tabulated_kernel(table[0], tg),
                   "random": lambda rows: tabulated_kernel(table[:rows], tg)}[kind]
        k1, k2 = kernels(P), kernels(2 * P)
        for f in (lambda k, S: mvintegral.horizon_charge(induced_phi(k, tg), S), volterra_direct):
            assert np.array_equal(f(k1, S1), f(k2, S2)[:P])

    @pytest.mark.parametrize("entry", [{"alpha": 0.75}, {"level": 1.0, "slope": 2.0}],
                             ids=["power", "affine"])
    def test_decompose_at_n_2048_below_one_dense_table(self, entry):
        # the affine variation check formed |weights| whole, 33.7 MB here
        tg = TimeGrid(1.0, 2048)
        S = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(100, 12345))
        kernel = make_kernel("power_alpha" if "alpha" in entry else "affine", entry, tg)
        assert decompose(kernel, S)["max_identity_gap"] <= 1e-10
        peak = traced_peak(lambda: decompose(kernel, S))
        assert peak < 8 * 2048 * 2049, peak


class TestVariationCondition:
    def test_bounded_smooth_kernel(self):
        S = brownian(5, 16)
        k = affine_kernel(0.5, 2.0, S.timegrid)
        out = variation_condition_check(k, S, S.control)
        assert out["integrable"]

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0])
    def test_power_kernel_closed_form(self, alpha):
        S = brownian(4, 64)
        k = power_kernel(alpha, S.timegrid)
        out = variation_condition_check(k, S, S.control)
        assert out["integrable"]
        closed = 1.0 / (2 * alpha + 1)
        assert out["d_path"][0, -1] == pytest.approx(closed, abs=1e-9)

    def test_exploding_kernel_flagged(self):
        tg = TimeGrid(1.0, 8)
        matrix = np.zeros((9, 9))
        matrix[8, 2] = 1e200  # one huge t-increment late in the slice
        matrix[7, 2] = -1e200
        k = tabulated_kernel(matrix, tg)
        S = brownian(3, 8)
        with np.errstate(over="ignore"):
            out = variation_condition_check(k, S, S.control)
        assert not out["integrable"]
        assert "location" in out


def density_construction_oracle(kernel, S):
    """``density_construction`` as first written, with a fresh table per step; also the absolute
    values of the terms each x_l sums.  A stationary kernel's density table is read from its
    profile, psi(t_k, t_j) = f'(t_{k - j})."""
    t, N, dt = S.timegrid.times, S.timegrid.n_steps, S.timegrid.dt
    dS = S.increments[:, :, 0]
    if kernel.lag is None:
        psi = np.where(t[:, None] > t[None, :N], kernel.density_fn(t[:, None], t[None, :N]), 0.0)
    else:
        gap = np.arange(N + 1)[:, None] - np.arange(N)[None, :]
        psi = np.where(gap > 0, kernel.density_fn(t, t[0])[np.maximum(gap, 0)], 0.0)
    inner = np.einsum("kj,pj->pk", psi, dS)
    diag = kernel.diagonal()
    x = ito_integral(PredictablePath(diag), S) + drivers.running_sum(inner[:, 1:] * dt)
    abs_terms = (drivers.running_sum(np.abs(diag[:, :, 0] * dS))
                 + drivers.running_sum((np.abs(dS) @ np.abs(psi).T)[:, 1:] * dt))
    rebuilt = np.cumsum(psi[1:, :] * dt, axis=0)
    target = kernel.matrix[1:, :N, 0] - kernel.matrix[np.arange(N), np.arange(N), 0][None, :]
    keep = t[1:, None] > t[None, :N]
    return x, float(np.max(np.abs(np.where(keep, rebuilt - target, 0.0)))), abs_terms


def quadratic_kernel(tg):
    t = tg.times
    return VolterraKernel("quad", np.maximum(t[:, None] - t[None, :], 0.0) ** 2, tg,
                          density_fn=lambda r, s: 2.0 * np.maximum(r - s, 0.0))


class TestDensityConstruction:
    @pytest.mark.parametrize("N", [1, 7, 64])
    def test_equals_the_where_formula(self, N):
        S = brownian(5, N, T=2.0, seed=N)
        for kernel in (power_kernel(0.25, S.timegrid), power_kernel(1.5, S.timegrid),
                       affine_kernel(0.5, -3.0, S.timegrid), quadratic_kernel(S.timegrid)):
            x, residual, abs_terms = density_construction_oracle(kernel, S)
            out = density_construction(kernel, S)
            # a term of x_l passes through a product, the slot sum (N - 1 adds), dt, the time
            # sum (N - 1 adds) and the diagonal's add: at most 2 N + 1 roundings; a stationary
            # kernel's inner sums are convolutions instead, each within the FFT's a-priori error
            bound = order_bound(2 * N + 1, abs_terms)
            if kernel.lag is not None:
                psi = kernel.density_fn(S.timegrid.times, 0.0)
                bound += (np.arange(N + 1) * S.timegrid.dt
                          * fft_error_bound(psi, S.increments[:, :, 0]))
            assert np.all(np.abs(out["x"] - x) <= bound), kernel.name
            assert out["kernel_rebuild_residual"] == residual, kernel.name

    def test_peak_under_three_tables(self):
        # psi is zeroed, summed and compared in place: the where formula peaked near 6 tables
        S = brownian(4, 512)
        kernel = power_kernel(0.75, S.timegrid)
        peak = traced_peak(lambda: density_construction(kernel, S))
        assert peak < 3 * 8 * 513 * 512, peak

    def test_zero_density_reduces_to_diagonal(self):
        S = brownian(8, 16)
        out = density_construction(affine_kernel(1.5, 0.0, S.timegrid), S)
        np.testing.assert_allclose(out["x"], out["diag"], atol=1e-14)

    def test_affine_exact(self):
        S = brownian(15, 32)
        k = affine_kernel(0.0, 1.0, S.timegrid)
        direct = volterra_direct(k, S)
        out = density_construction(k, S)
        assert out["kernel_rebuild_residual"] <= 1e-12
        np.testing.assert_allclose(out["x"], direct, atol=1e-12)

    def test_quadratic_first_order_refinement(self):
        # halving the mesh halves the quadrature gap for K = (t-s)^2
        fine = brownian(10, 128, seed=21)
        gaps = {}
        for N, S in ((128, fine), (64, _subsample(fine, 2))):
            tg = S.timegrid
            k = quadratic_kernel(tg)
            gaps[N] = float(np.max(np.abs(density_construction(k, S)["x"] - volterra_direct(k, S))))
        ratio = gaps[64] / gaps[128]
        assert 1.5 < ratio < 2.7


def _subsample(S: DriverPath, stride: int) -> DriverPath:
    tg = TimeGrid(S.timegrid.horizon, S.timegrid.n_steps // stride)
    vals = S.values[:, ::stride]
    control = control_process(S.spec, tg)
    return DriverPath(S.spec, tg, S.scenarios, vals, control)


class TestDiagnostic:
    def test_smooth_deterministic_path(self):
        tg = TimeGrid(1.0, 2**9)
        Y = np.sin(2 * np.pi * tg.times)[None, :]
        out = semimartingale_diagnostic(level_variations(Y, n_levels=4), tg)
        assert abs(out["slope"]) < 0.05

    def test_rough_and_regular_power_paths(self):
        tg = TimeGrid(1.0, 2**12)
        rough, smooth = power_volterra_paths([0.25, 0.75], tg, 400, seed=5, n_levels=6)
        s_rough = semimartingale_diagnostic(rough, tg)["slope"]
        s_smooth = semimartingale_diagnostic(smooth, tg)["slope"]
        assert 0.13 <= s_rough <= 0.37
        assert abs(s_smooth) <= 0.12

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            level_variations(np.zeros((2, 9)), n_levels=2)


class TestDiagonalJumpCheck:
    def test_continuous_driver_zero(self):
        S = brownian(6, 8)
        out = diagonal_jump_check(affine_kernel(1.0, 1.0, S.timegrid), S)
        assert np.all(out["stat"] == 0.0)

    def test_zero_diagonal_zero(self):
        tg = TimeGrid(1.0, 8)
        sc = ScenarioSet.monte_carlo(5, 2)
        S = simulate_driver(DriverSpec("compound_poisson", jump_rate=3.0, jump_std=1.0), tg, sc)
        out = diagonal_jump_check(power_kernel(1.0, tg), S)
        assert np.all(out["stat"] == 0.0)

    def test_matches_enumeration_oracle(self):
        tg = TimeGrid(1.0, 16)
        sc = ScenarioSet.monte_carlo(50, 4)
        S = simulate_driver(DriverSpec("compound_poisson", jump_rate=4.0, jump_mean=0.2,
                                       jump_std=0.5), tg, sc)
        k = affine_kernel(2.0, 1.0, tg)
        out = diagonal_jump_check(k, S)
        diag = k.diagonal()[0, :, 0]
        for p in range(0, 50, 7):
            total = np.sqrt(np.sum((diag * S.jump_increments[p, :, 0]) ** 2))
            assert out["stat"][p, -1] == pytest.approx(total, abs=1e-12)
        assert np.isfinite(out["mean_at_horizon"])


class TestRegistry:
    def test_power_and_affine(self):
        tg = TimeGrid(1.0, 4)
        assert make_kernel("power_alpha", {"alpha": 0.5}, tg).name.startswith("power")
        assert make_kernel("affine", {"level": 1, "slope": 2}, tg).d == 1

    def test_tabulated_csv_roundtrip(self, tmp_path):
        tg = TimeGrid(1.0, 4)
        rng = np.random.default_rng(6)
        k = random_fv_kernel(rng, tg)
        path = tmp_path / "kernel.csv"
        np.savetxt(path, k.matrix[:, :, 0], delimiter=",")
        loaded = tabulated_kernel(np.loadtxt(path, delimiter=","), tg)
        np.testing.assert_allclose(loaded.matrix, k.matrix, atol=1e-12)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            make_kernel("mystery", {}, TimeGrid(1.0, 2))

    def test_zero_above_diagonal_enforced(self):
        tg = TimeGrid(1.0, 2)
        k = tabulated_kernel(np.ones((3, 3)), tg)
        assert k.matrix[0, 1, 0] == 0.0 and k.matrix[1, 2, 0] == 0.0
        assert k.matrix[2, 1, 0] == 1.0


class TestInducedFubiniBridge:
    def test_prefix_pairings_match_driver_integrals_at_every_index(self):
        # the induced integrand satisfies the interchange identity pathwise
        from mvstoch.grid import build_test_family
        from mvstoch.mvintegral import fubini_check

        S = brownian(25, 48, seed=15)
        k = random_fv_kernel(np.random.default_rng(8), S.timegrid)
        phi = induced_phi(k, S.timegrid)
        sets = [(f"[0,t_{i}]", 0, i) for i in (0, 12, 24, 48)]
        report = fubini_check(phi, S, build_test_family(phi.grid, 4), sets=sets)["general"]
        assert report["max_abs_discrepancy"] <= 1e-12
