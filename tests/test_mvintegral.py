import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    evaluate,
    order_bound,
    paired_gap,
    resolve,
    seminorm_domination_check,
    stopped_driver,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mvstoch import integrands, mvintegral
from mvstoch.dominated import power_law_integrand
from mvstoch.drivers import (
    DriverPath,
    DriverSpec,
    PredictablePath,
    ScenarioSet,
    StoppingRule,
    TimeGrid,
    ito_integral,
    simulate_driver,
)
from mvstoch.grid import CompactGrid, SignedMeasureVec, build_test_family
from mvstoch.integrands import (
    ElementaryTerm,
    MeasureProcess,
    _family_evals,
    _pair_rows,
    approximate_elementary,
    elementary_process,
    integrand_seminorm,
    random_elementary_process,
    random_lattice_process,
    truncate,
)
from mvstoch.mvintegral import (
    charge_blocks,
    convergence_transfer_check,
    fubini_check,
    horizon_charge,
    maximal_seminorm,
    mv_integral,
    paired_charge,
    standard_cell_sets,
)


def brownian(P, N, T=1.0, seed=5, d=1):
    tg = TimeGrid(T, N)
    sc = ScenarioSet.monte_carlo(P, seed)
    return simulate_driver(DriverSpec("brownian", d=d), tg, sc)


def identity_control(timegrid, P):
    return np.broadcast_to(timegrid.times, (P, timegrid.n_steps + 1)).copy()


def pair(charge, functions, step=None):
    """Pair a dense (P, N + 1, J + 1) charge with K grid functions: (P, K, N + 1).

    Through the package's pairing helper, into the transposed layout of
    ``paired_charge``, times 1.. in blocks of ``step`` (default: all at once).
    A BLAS matmul rounds by how many rows it holds, so the dense fill paired
    in the time blocks ``charge_blocks`` draws equals the block stream bit for
    bit.  ``TestPairRows`` bounds the helper against einsum.
    """
    P, n1, _ = charge.shape
    out = np.zeros((P, len(functions), n1))
    step = step or n1 - 1
    for lo in range(1, n1, step):
        _pair_rows(charge[:, lo : lo + step], functions, out=out[:, :, lo : lo + step].swapaxes(1, 2))
    return out


class TestMvIntegral:
    def test_zero_integrand(self):
        S = brownian(4, 8)
        grid = CompactGrid(1.0, 3)
        phi = MeasureProcess("kernel", grid, np.zeros((1, 8, 1, 4)))
        charge = mv_integral(phi, S)
        assert np.all(charge == 0.0)

    def test_single_term_scales_driver(self):
        S = brownian(10, 16)
        grid = CompactGrid(1.0, 2)
        m = SignedMeasureVec(grid, np.array([[1.0, -0.5, 0.25]]))
        phi = elementary_process(grid, 16, [ElementaryTerm(m, 0, 16)])
        charge = mv_integral(phi, S)
        drift = S.values[:, :, 0] - S.values[:, :1, 0]
        expected = drift[:, :, None] * m.weights[0][None, None, :]
        np.testing.assert_allclose(charge, expected, atol=1e-12)

    def test_null_at_zero_index(self):
        S = brownian(3, 5)
        grid = CompactGrid(1.0, 2)
        phi = MeasureProcess("kernel", grid, np.random.default_rng(0).normal(size=(1, 5, 1, 3)))
        charge = mv_integral(phi, S)
        assert np.all(charge[:, 0, :] == 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_power_law_pairing_matches_direct_integral(self, alpha):
        # the horizon charge paired with I_{[0,u]} is the direct integral of (u-r)^alpha
        N = 64
        tg = TimeGrid(1.0, N)
        S = brownian(20, N)
        phi, _ = power_law_integrand(alpha=alpha, timegrid=tg, n_cells=N)
        charge = mv_integral(phi, S)
        for u_idx in (16, 32, 64):
            u = tg.times[u_idx]
            indicator = phi.grid.indicator(0, u_idx)
            lhs = (charge @ indicator)[:, -1]
            h = np.maximum(u - tg.times[:-1], 0.0) ** alpha * (tg.times[:-1] < u)
            rhs = ito_integral(PredictablePath(h[None, :]), S)[:, -1]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_linearity_in_integrand_and_driver(self):
        S = brownian(6, 10)
        grid = CompactGrid(1.0, 4)
        rng = np.random.default_rng(1)
        a = MeasureProcess("kernel", grid, rng.normal(size=(6, 10, 1, 5)))
        b = MeasureProcess("kernel", grid, rng.normal(size=(6, 10, 1, 5)))
        lhs = mv_integral(MeasureProcess("kernel", grid, a.weights + b.weights), S)
        rhs = mv_integral(a, S) + mv_integral(b, S)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_stopping_consistency_exact(self):
        S = brownian(12, 8)
        grid = CompactGrid(1.0, 3)
        rng = np.random.default_rng(2)
        phi = MeasureProcess("kernel", grid, rng.normal(size=(12, 8, 1, 4)))
        tau = StoppingRule(rng.integers(0, 10, size=12), 8)
        stopped = mv_integral(phi, stopped_driver(S, tau))
        masked = MeasureProcess("kernel", grid,
                                phi.weights * tau.increment_mask()[:, :, None, None])
        unstopped = mv_integral(masked, S)
        assert np.array_equal(stopped[:, -1], unstopped[:, -1])

    def test_adapted_in_tree_mode(self):
        tg = TimeGrid(4.0, 3)
        sc = ScenarioSet.tree(2, 3)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        grid = CompactGrid(1.0, 4)
        phi = random_lattice_process(grid, tg, sc, np.random.default_rng(3))
        charge = mv_integral(phi, S)
        for level in range(4):
            assert sc.is_measurable(charge[:, level, :], level)

    def test_uniqueness_surrogate(self):
        # identical family evaluations force identical charge paths
        S = brownian(5, 6)
        grid = CompactGrid(1.0, 3)
        m = SignedMeasureVec(grid, np.array([[0.3, -0.7, 0.1, 0.4]]))
        whole = elementary_process(grid, 6, [ElementaryTerm(m, 0, 6)])
        split = elementary_process(grid, 6, [ElementaryTerm(m, 0, 2), ElementaryTerm(m, 2, 6)])
        fam = build_test_family(grid, 8)
        for u in fam.functions:
            assert np.array_equal(evaluate(whole, u).values, evaluate(split, u).values)
        assert np.array_equal(mv_integral(whole, S), mv_integral(split, S))

    def test_block_size_one_equals_dense_path(self, monkeypatch):
        S = brownian(4, 6)
        grid = CompactGrid(1.0, 3)
        rng = np.random.default_rng(4)
        phi = MeasureProcess("kernel", grid, rng.normal(size=(4, 6, 1, 4)))
        dense = mv_integral(phi, S)
        monkeypatch.setattr(integrands, "PAIR_ENTRIES", 1)  # one grid time per block
        blocked = mv_integral(phi, S)
        assert np.array_equal(dense, blocked)
        assert np.array_equal(blocked, dense_charge_oracle(phi, S))

    def test_overflow_raises(self):
        S = brownian(2, 4)
        grid = CompactGrid(1.0, 2)
        w = np.full((1, 4, 1, 3), 1e308)
        phi = MeasureProcess("kernel", grid, w)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError):
                charge = mv_integral(MeasureProcess("kernel", grid, w * 1e8), S)


def dense_charge_oracle(phi, S):
    """The former dense fill: one time cumsum per scenario block into zeros."""
    P, N = S.scenarios.n_scenarios, S.timegrid.n_steps
    dS = S.increments
    out = np.zeros((P, N + 1, phi.grid.n_atoms))
    for lo in range(0, P, 3):
        hi = min(lo + 3, P)
        if phi.weights.shape[0] == 1:
            inc = np.einsum("nij,pni->pnj", phi.weights[0], dS[lo:hi])
        else:
            inc = np.einsum("pnij,pni->pnj", phi.weights[lo:hi], dS[lo:hi])
        np.cumsum(inc, axis=1, out=out[lo:hi, 1:])
    return out


class TestChargeBlocks:
    """The time-blocked accumulator, and the pairings drawn from it, against
    the former dense fill."""

    # PAIR_ENTRIES 1 and 97 against K (J + 1) from 2 to 90 give from one time per block to
    # all of them; the shipped 2**18 holds every time in one block and pairs all scenarios at once
    @pytest.mark.parametrize("pair_entries", [1, 97, integrands.PAIR_ENTRIES])
    @pytest.mark.parametrize("rows", [1, "P"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("stopped", [False, True])
    @given(P=st.integers(1, 30), N=st.integers(1, 30), J=st.integers(1, 8), K=st.integers(1, 10),
           seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_equals_dense_fill(self, pair_entries, rows, d, stopped, P, N, J, K, seed):
        S = brownian(P, N, d=d, seed=seed)
        grid = CompactGrid(1.0, J)
        rng = np.random.default_rng(seed)
        n_rows = P if rows == "P" else 1
        phi = MeasureProcess("kernel", grid, rng.normal(size=(n_rows, N, d, J + 1)))
        psi = MeasureProcess("kernel", grid, rng.normal(size=(n_rows, N, d, J + 1)))
        if stopped:
            S = stopped_driver(S, StoppingRule(rng.integers(0, N + 2, size=P), N))
        functions = build_test_family(grid, K).functions
        dense = dense_charge_oracle(phi, S)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrands, "PAIR_ENTRIES", pair_entries)
            assert np.array_equal(mv_integral(phi, S), dense)
            step = next(charge_blocks(phi, S, K))[1].shape[1] - 1  # times per block of K pairings
            assert np.array_equal(paired_charge(phi, S, functions), pair(dense, functions, step))
            # the in-step difference pairs as the difference of the dense charges
            gap = paired_gap(phi, psi, S, functions)
        assert np.array_equal(gap, pair(dense - dense_charge_oracle(psi, S), functions, step))

    def test_blocks_cover_every_time_with_carry_row(self, monkeypatch):
        S = brownian(3, 10)
        grid = CompactGrid(1.0, 4)
        phi = MeasureProcess("kernel", grid, np.random.default_rng(2).normal(size=(1, 10, 1, 5)))
        dense = dense_charge_oracle(phi, S)
        monkeypatch.setattr(integrands, "PAIR_ENTRIES", 5 * 4)  # four times per block
        seen = []
        for lo, block in charge_blocks(phi, S):
            assert np.array_equal(block, dense[:, lo : lo + block.shape[1]])
            seen.append((lo, block.shape[1]))
        assert seen == [(0, 5), (4, 5), (8, 3)]

    def test_overflow_raises_from_the_first_block(self, monkeypatch):
        S = brownian(2, 6)
        grid = CompactGrid(1.0, 2)
        w = np.zeros((1, 6, 1, 3))
        w[0, 0] = 1e308
        monkeypatch.setattr(integrands, "PAIR_ENTRIES", 1)  # one time per block
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = charge_blocks(MeasureProcess("kernel", grid, w * 1e8), S)
            with pytest.raises(OverflowError):
                next(blocks)


def last_charge_row(phi, S):
    """The horizon row of the ``charge_blocks`` stream, copied out of its buffer."""
    for _, block in charge_blocks(phi, S):
        pass
    return block[:, -1].copy()


def horizon_gap_bound(phi, S):
    """What any two orders of the horizon charge's sum of N d products may differ by."""
    P, N, d = S.increments.shape
    w = np.broadcast_to(phi.weights, (P,) + phi.weights.shape[1:])
    return order_bound(N * d + 1, np.einsum("pnij,pni->pj", np.abs(w), np.abs(S.increments)))


class TestHorizonCharge:
    """``horizon_charge`` against the last row of the block stream: each slot
    charges atoms from a random first one on, with zeros scattered after it."""

    @given(P=st.integers(1, 40), N=st.integers(1, 30), d=st.integers(1, 3), J=st.integers(1, 30),
           one_row=st.booleans(), pair_entries=st.integers(1, 64), seed=st.integers(0, 2**16),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_last_row_of_the_block_stream(self, P, N, d, J, one_row, pair_entries,
                                                     seed, data):
        # a first atom of J + 1 leaves the slot without mass
        first = data.draw(st.lists(st.integers(0, J + 1), min_size=N, max_size=N))
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(1 if one_row else P, N, d, J + 1))
        w[rng.random(w.shape) < 0.2] = 0.0
        for n, f in enumerate(first):
            w[:, n, :, :f] = 0.0
        phi, S = MeasureProcess("kernel", CompactGrid(1.0, J), w), brownian(P, N, seed=seed, d=d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrands, "PAIR_ENTRIES", pair_entries)
            gap = np.abs(horizon_charge(phi, S) - last_charge_row(phi, S))
        assert np.all(gap <= horizon_gap_bound(phi, S))

    @pytest.mark.parametrize("seed", range(4))
    def test_one_scenario_charged_on_the_last_atom_only(self, monkeypatch, seed):
        # 41 rows of one column, summed in one block of all 40 times
        S = brownian(1, 40, seed=seed)
        w = np.zeros((1, 40, 1, 4))
        w[..., 3] = np.random.default_rng(seed).normal(size=(1, 40, 1))
        phi = MeasureProcess("kernel", CompactGrid(1.0, 3), w)
        monkeypatch.setattr(integrands, "PAIR_ENTRIES", 256)
        gap = np.abs(horizon_charge(phi, S) - last_charge_row(phi, S))
        assert np.all(gap <= horizon_gap_bound(phi, S))


class TestEvaluateCharge:
    """Evaluating the charge at grid functions: ``paired_charge``."""

    def setup_method(self):
        self.S = brownian(6, 8)
        self.grid = CompactGrid(1.0, 4)
        rng = np.random.default_rng(8)
        self.phi = MeasureProcess("kernel", self.grid, rng.normal(size=(1, 8, 1, 5)))

    def test_zero_function(self):
        paired = paired_charge(self.phi, self.S, np.zeros((1, 5)))
        assert paired.shape == (6, 1, 9) and np.all(paired == 0.0)

    def test_net_mass_path(self):
        path = paired_charge(self.phi, self.S, np.ones((1, 5)))[:, 0]
        manual = mv_integral(self.phi, self.S).sum(axis=2)
        np.testing.assert_allclose(path, manual, atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_charge(self.phi, self.S, np.ones((1, 6)))


class TestMaximalSeminorm:
    def test_zero_charge(self):
        grid = CompactGrid(1.0, 2)
        fam = build_test_family(grid, 4)
        paired = pair(np.zeros((3, 4, 3)), fam.functions)
        assert maximal_seminorm(paired, fam, np.full(3, 1 / 3)) == 0.0

    def test_triangle_inequality(self):
        grid = CompactGrid(1.0, 3)
        fam = build_test_family(grid, 6)
        probs = np.full(5, 0.2)
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.normal(size=(5, 4, 4))
            b = rng.normal(size=(5, 4, 4))
            ra = maximal_seminorm(pair(a, fam.functions), fam, probs)
            rb = maximal_seminorm(pair(b, fam.functions), fam, probs)
            rab = maximal_seminorm(pair(a + b, fam.functions), fam, probs)
            assert rab <= ra + rb + 1e-12 * (1 + ra + rb)

    def test_hand_enumeration_two_scenarios_two_steps(self):
        # single hat test function; gamma_1 = 1 after renormalization
        grid = CompactGrid(1.0, 1)
        fam = build_test_family(grid, 1)
        w = np.zeros((2, 3, 2))
        w[0, :, 0] = [0.0, 2.0, -3.0]  # running max of |pairing| = 3
        w[1, :, 0] = [0.0, 1.0, 0.5]  # running max = 1
        r = maximal_seminorm(pair(w, fam.functions), fam, np.array([0.5, 0.5]))
        assert r == pytest.approx(math.sqrt(0.5 * 9 + 0.5 * 1))

    def test_equals_the_sup_of_the_absolute_pairings(self):
        # the sup is taken as max(max, -min), without a |paired| copy: same float,
        # on all-negative, signed-zero and NaN paths too
        grid = CompactGrid(1.0, 3)
        fam = build_test_family(grid, 6)
        probs = np.full(4, 0.25)
        paired = np.random.default_rng(3).normal(size=(4, len(fam.functions), 7))
        paired[0] = -np.abs(paired[0])
        paired[1, :2] = -0.0
        oracle = float(np.sqrt(fam.gammas @ (probs @ np.max(np.abs(paired), axis=2) ** 2)))
        assert maximal_seminorm(paired, fam, probs) == oracle
        paired[2, 0, 3] = np.nan
        assert math.isnan(maximal_seminorm(paired, fam, probs))

    def test_holds_no_copy_of_the_pairings(self):
        grid = CompactGrid(1.0, 3)
        fam = build_test_family(grid, 6)
        paired = np.random.default_rng(4).normal(size=(2048, len(fam.functions), 33))
        tracemalloc.start()
        try:
            maximal_seminorm(paired, fam, np.full(2048, 1 / 2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < paired.nbytes / 4  # (P, K) arrays only; a |paired| copy is all of it


class TestFubiniRegular:
    def test_elementary_exact(self):
        S = brownian(40, 32)
        grid = CompactGrid(1.0, 8)
        fam = build_test_family(grid, 12)
        rng = np.random.default_rng(21)
        for _ in range(5):
            phi = random_elementary_process(grid, S.timegrid, S.scenarios, rng,
                                            driver_values=S.values)
            report = fubini_check(phi, S, fam)["regular"]
            assert report["max_abs_discrepancy"] <= 1e-12

    def test_power_law_kernel(self):
        N = 128
        tg = TimeGrid(1.0, N)
        S = brownian(50, N)
        phi, _ = power_law_integrand(alpha=1.0, timegrid=tg, n_cells=N)
        fam = build_test_family(phi.grid, 16)
        report = fubini_check(phi, S, fam)["regular"]
        assert report["max_abs_discrepancy"] <= 1e-10

    def test_sum_of_terms_by_linearity(self):
        S = brownian(20, 16)
        grid = CompactGrid(1.0, 4)
        fam = build_test_family(grid, 8)
        m1 = SignedMeasureVec(grid, np.array([[1.0, 0.0, -1.0, 0.5, 0.0]]))
        m2 = SignedMeasureVec(grid, np.array([[0.0, 2.0, 0.0, -0.25, 1.0]]))
        phi = elementary_process(grid, 16, [ElementaryTerm(m1, 0, 8), ElementaryTerm(m2, 4, 16)])
        report = fubini_check(phi, S, fam)["regular"]
        assert report["max_abs_discrepancy"] <= 1e-12

    def test_report_rows(self):
        S = brownian(5, 8)
        grid = CompactGrid(1.0, 2)
        fam = build_test_family(grid, 4)
        phi = MeasureProcess("kernel", grid, np.random.default_rng(0).normal(size=(1, 8, 1, 3)))
        report = fubini_check(phi, S, fam)["regular"]
        assert len(report["per_f"]) == 4
        assert {"test", "max_discrepancy", "scenario", "time_index"} <= report["per_f"][0].keys()


class TestFubiniGeneral:
    def test_empty_set_both_sides_zero(self):
        S = brownian(5, 8)
        grid = CompactGrid(1.0, 4)
        phi = MeasureProcess("kernel", grid, np.random.default_rng(1).normal(size=(1, 8, 1, 5)))
        assert np.all(mv_integral(phi, S) @ np.zeros(5) == 0.0)
        assert np.all(evaluate(phi, np.zeros(5)).values == 0.0)

    def test_full_space_reduces_to_ones(self):
        S = brownian(10, 16)
        grid = CompactGrid(1.0, 4)
        phi = MeasureProcess("kernel", grid, np.random.default_rng(2).normal(size=(1, 16, 1, 5)))
        report = fubini_check(phi, S, build_test_family(grid, 4), sets=[("K", 0, 4)])["general"]
        assert report["max_abs_discrepancy"] <= 1e-12

    def test_power_law_prefix_sets(self):
        N = 128
        tg = TimeGrid(1.0, N)
        S = brownian(50, N)
        phi, _ = power_law_integrand(alpha=0.75, timegrid=tg, n_cells=N)
        sets = [(f"[0,{u}]", 0, resolve(phi.grid, u)) for u in (0.25, 0.5, 1.0)]
        report = fubini_check(phi, S, build_test_family(phi.grid, 4), sets=sets)["general"]
        assert report["max_abs_discrepancy"] <= 1e-10

    def test_standard_sets_include_full_and_singletons(self):
        grid = CompactGrid(1.0, 8)
        names = [name for name, _, _ in standard_cell_sets(grid)]
        assert "K" in names and "atom_0" in names and "atom_last" in names

    def test_unresolvable_set_rejected(self):
        S = brownian(3, 4)
        grid = CompactGrid(1.0, 4)
        phi = MeasureProcess("kernel", grid, np.zeros((1, 4, 1, 5)))
        with pytest.raises(ValueError):
            fubini_check(phi, S, build_test_family(grid, 4), sets=[("bad", 2, 9)])


class TestFubiniCheck:
    """Both comparisons from one pairing of the charge."""

    def test_reports_independent_of_what_is_stacked(self):
        S = brownian(30, 24, seed=7)
        grid = CompactGrid(1.0, 6)
        fam = build_test_family(grid, 10)
        phi = random_elementary_process(grid, S.timegrid, S.scenarios,
                                        np.random.default_rng(5), driver_values=S.values)
        both = fubini_check(phi, S, fam)
        assert both["regular"] == fubini_check(phi, S, fam, sets=[("K", 0, 6)])["regular"]
        assert both["general"] == fubini_check(phi, S, build_test_family(grid, 3))["general"]
        assert [r["test"] for r in both["general"]["per_f"]] == [
            name for name, _, _ in standard_cell_sets(grid)]
        # the negative control: the family pairings against the Ito paths of phi scaled by
        # 1 + 1e-3, folded into the same walk; J + 1 = 7 pairs alike in any block of times
        scaled = MeasureProcess("kernel", grid, phi.weights * (1.0 + 1e-3))
        ito = mvintegral._paired_ito_paths(_family_evals(scaled, fam.functions), S)
        gap = np.max(np.abs(pair(mv_integral(phi, S), fam.functions) - np.moveaxis(ito, 2, 1)))
        corrupted = fubini_check(phi, S, fam, corrupt=1e-3)
        assert "corrupted" not in both and corrupted["corrupted"] == gap > 1e-6
        assert {k: corrupted[k] for k in both} == both

    # pairings round by their place among a product's rows from J + 1 = 32 up, past the J + 1
    # hats of the family, with values that round (uniform, not dyadic)
    @given(P=st.integers(1, 8), N=st.integers(1, 64), J=st.integers(31, 40),
           extra=st.integers(1, 8), one_row=st.booleans(),
           block_entries=st.sampled_from([1, 2000, 2**18]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_first_scenarios_equal_at_p_and_2p(self, P, N, J, extra, one_row, block_entries,
                                               seed):
        # the charge's time blocks are set by J + 1 and the function count, not by P
        rng = np.random.default_rng(seed)
        S2, grid = brownian(2 * P, N, seed=seed), CompactGrid(1.0, J)
        S1 = DriverPath(S2.spec, S2.timegrid, ScenarioSet.monte_carlo(P, seed), S2.values[:P],
                        S2.control)
        fam = build_test_family(grid, J + 1 + extra)
        w = rng.uniform(-1.0, 1.0, size=(1 if one_row else P, N, 1, J + 1))
        phi1 = MeasureProcess("kernel", grid, w)
        phi2 = phi1 if one_row else MeasureProcess("kernel", grid, np.concatenate([w, 0 * w]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mvintegral, "BLOCK_ENTRIES", block_entries)
            assert np.array_equal(paired_charge(phi1, S1, fam.functions),
                                  paired_charge(phi2, S2, fam.functions)[:P])
            if not one_row:  # the second P scenarios charge nothing, and their gaps are zero
                assert fubini_check(phi1, S1, fam, corrupt=1e-3) == fubini_check(
                    phi2, S2, fam, corrupt=1e-3)

    @given(P=st.integers(1, 30), N=st.integers(1, 16), J=st.sampled_from([3, 33]),
           kind=st.sampled_from(["one_row", "dense", "indexed"]), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_reports_do_not_depend_on_the_scenario_blocks(self, P, N, J, kind, seed):
        rng = np.random.default_rng(seed)
        S, grid = brownian(P, N, seed=seed), CompactGrid(1.0, J)
        fam = build_test_family(grid, J + 4)
        phi = {"one_row": lambda: MeasureProcess("kernel", grid,
                                                 rng.uniform(-1, 1, size=(1, N, 1, J + 1))),
               "dense": lambda: MeasureProcess("kernel", grid,
                                               rng.uniform(-1, 1, size=(P, N, 1, J + 1))),
               "indexed": lambda: random_lattice_process(grid, S.timegrid, S.scenarios, rng)}[kind]()
        reports = []
        for block_entries in (1, 97, 5000, mvintegral.BLOCK_ENTRIES):  # 1 scenario to all of them
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mvintegral, "BLOCK_ENTRIES", block_entries)
                reports.append(fubini_check(phi, S, fam, corrupt=1e-3))
        assert all(r == reports[0] for r in reports[1:])

    def test_finiteness_check_guards_the_indicator_comparison(self):
        S = brownian(3, 4)
        grid = CompactGrid(1.0, 2)
        phi = MeasureProcess("kernel", grid, np.full((1, 4, 1, 3), 1e300))
        with pytest.raises(ValueError, match="finiteness"):
            fubini_check(phi, S, build_test_family(grid, 2), sets=[("K", 0, 2)])

    def test_peak_memory_does_not_follow_the_dense_charge(self):
        # the dense (P, N + 1, J + 1) charge grows 64x from N = J = 128 to 1024;
        # the pairings and the Ito paths grow 8x, with N only (measured 1.52x in blocks of
        # scenarios, 2.62x when every scenario was charged and paired at once)
        import tracemalloc

        peaks = []
        for N in (128, 1024):
            tg = TimeGrid(1.0, N)
            S = brownian(8, N)
            phi, _ = power_law_integrand(alpha=1.0, timegrid=tg, n_cells=N)
            fam = build_test_family(phi.grid, 8)
            tracemalloc.start()
            try:
                report = fubini_check(phi, S, fam)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report["regular"]["max_abs_discrepancy"] <= 1e-10
        assert peaks[1] < 8 * peaks[0], peaks


class TestSeminormDomination:
    def test_zero_integrand(self):
        S = brownian(4, 6, T=4.0)
        grid = CompactGrid(1.0, 2)
        phi = elementary_process(
            grid, 6, [ElementaryTerm(SignedMeasureVec(grid, np.zeros((1, 3))), 0, 6)])
        fam = build_test_family(grid, 4)
        tau = StoppingRule.never(S.scenarios, 6)
        out = seminorm_domination_check(phi, S, S.control, tau, fam)
        assert out["r_value"] == 0.0 and out["q_value"] == 0.0 and out["holds"]

    def test_single_term_brownian_monte_carlo(self):
        S = brownian(20_000, 32, T=4.0, seed=17)
        grid = CompactGrid(1.0, 4)
        fam = build_test_family(grid, 8)
        m = SignedMeasureVec(grid, np.array([[0.4, -0.2, 0.6, 0.0, -0.3]]))
        phi = elementary_process(grid, 32, [ElementaryTerm(m, 0, 32)])
        tau = StoppingRule(np.full(S.scenarios.n_scenarios, 32), 32)
        out = seminorm_domination_check(phi, S, S.control, tau, fam)
        assert out["holds"]

    def test_random_elementary_tree_exact(self):
        tg = TimeGrid(4.0, 3)
        sc = ScenarioSet.tree(2, 3)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        grid = CompactGrid(1.0, 4)
        fam = build_test_family(grid, 10)
        tau = StoppingRule.never(sc, 3)
        rng = np.random.default_rng(23)
        for _ in range(10):
            phi = random_elementary_process(grid, tg, sc, rng)
            out = seminorm_domination_check(phi, S, S.control, tau, fam)
            assert out["holds"]
            assert out["r_value"] <= out["q_value"] + 1e-12

    def test_kernel_input_rejected(self):
        S = brownian(3, 4)
        grid = CompactGrid(1.0, 2)
        phi = MeasureProcess("kernel", grid, np.zeros((1, 4, 1, 3)))
        fam = build_test_family(grid, 4)
        with pytest.raises(ValueError):
            seminorm_domination_check(phi, S, S.control, StoppingRule.never(S.scenarios, 4), fam)


class TestConvergenceTransfer:
    def setup_method(self):
        self.tg = TimeGrid(4.0, 3)
        self.sc = ScenarioSet.tree(2, 3)
        self.S = simulate_driver(DriverSpec("brownian"), self.tg, self.sc)
        self.grid = CompactGrid(1.0, 8)
        self.fam = build_test_family(self.grid, 30)
        self.tau = StoppingRule.never(self.sc, 3)

    def q_gap(self, phi_n, phi):
        return integrand_seminorm(phi_n, self.fam, self.tau, self.S.control, self.sc, minus=phi)

    def test_constant_sequence_all_zero(self):
        rng = np.random.default_rng(29)
        phi = random_lattice_process(self.grid, self.tg, self.sc, rng)
        r_gaps = convergence_transfer_check(phi, [phi, phi], self.S, self.fam)
        assert r_gaps == [0.0, 0.0]
        assert self.q_gap(phi, phi) == 0.0

    def test_truncation_sequence_r_below_q(self):
        rng = np.random.default_rng(31)
        w = rng.uniform(-2, 2, size=(self.sc.n_scenarios, 3, 1, 9))
        # adapted values: copy within level atoms
        for j in range(3):
            ids = self.sc.atom_ids(j)
            for a in range(ids[-1] + 1):
                rows_in = np.flatnonzero(ids == a)
                w[rows_in[1:], j] = w[rows_in[0], j]
        phi = MeasureProcess("kernel", self.grid, w)
        seq = [truncate(phi, c) for c in (1.0, 2.0, 4.0)]
        r_gaps = convergence_transfer_check(phi, seq, self.S, self.fam)
        assert len(r_gaps) == len(seq)
        for phi_n, r_gap in zip(seq, r_gaps):
            assert r_gap <= self.q_gap(phi_n, phi) + 1e-12

    def test_pipeline_output_converges_in_r(self):
        rng = np.random.default_rng(2024)
        phi = random_lattice_process(self.grid, self.tg, self.sc, rng, c=1.0)
        result = approximate_elementary(phi, self.tau, self.S.control, self.fam, self.sc,
                                        schedule=(4, 16, 64), c=1.0)
        r_gaps = convergence_transfer_check(phi, result.processes, self.S, self.fam)
        assert len(r_gaps) == len(result.reports)
        assert r_gaps[-1] <= 1e-6
        for rep, r_gap in zip(result.reports, r_gaps):
            assert r_gap <= rep.q_error + 1e-12


class TestStreamedTransfer:
    """``convergence_transfer_check`` charges, pairs and carries only the run heads of each block
    of scenarios, one time at a time; against the dense gap per approximant."""

    @given(P=st.integers(1, 30), N=st.integers(1, 10), d=st.integers(1, 2), J=st.integers(1, 6),
           K=st.integers(1, 10), rows_of=st.lists(st.booleans(), min_size=1, max_size=4),
           stopped=st.booleans(), block_entries=st.integers(1, 300), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_dense_gap_per_approximant(self, P, N, d, J, K, rows_of, stopped,
                                                  block_entries, seed):
        # rows_of: whether phi and each approximant has P rows or one
        rng = np.random.default_rng(seed)
        S, grid = brownian(P, N, seed=seed, d=d), CompactGrid(1.0, J)
        fam = build_test_family(grid, K)
        phi, *processes = [MeasureProcess("kernel", grid, rng.normal(size=(P if many else 1, N, d, J + 1)))
                           for many in rows_of]
        if stopped:
            S = stopped_driver(S, StoppingRule(rng.integers(0, N + 2, size=P), N))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mvintegral, "BLOCK_ENTRIES", block_entries)  # scenarios per block
            mp.setattr(integrands, "PAIR_ENTRIES", block_entries)  # the streams' times per block
            got = convergence_transfer_check(phi, processes, S, fam)
            want = [maximal_seminorm(paired_gap(q, phi, S, fam.functions), fam, S.scenarios.probs)
                    for q in processes]
        assert got == want

    @given(N=st.integers(1, 6), d=st.integers(1, 2), J=st.integers(1, 6), K=st.integers(1, 10),
           pool=st.integers(1, 8), kinds=st.lists(st.sampled_from(["indexed", "dense", "one_row",
                                                                   "indexed_one_row"]),
                                                  min_size=1, max_size=4),
           stopped=st.booleans(),
           block_entries=st.integers(1, 300) | st.integers(300, 3000) | st.just(2**18),
           seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_runs_on_a_tree_equal_the_dense_gap(self, N, d, J, K, pool, kinds, stopped,
                                                 block_entries, seed):
        # adapted processes share runs on a tree; the last approximant, a dense copy of phi
        # changed in a few (scenario, slot) cells, is not adapted and splits them
        rng = np.random.default_rng(seed)
        sc, tg, grid = ScenarioSet.tree(2, N), TimeGrid(1.0, N), CompactGrid(1.0, J)
        S, fam = simulate_driver(DriverSpec("brownian", d=d), tg, sc), build_test_family(grid, K)
        P = sc.n_scenarios

        def process(kind):
            lattice = random_lattice_process(grid, tg, sc, rng, c=1.0, d=d, pool_size=pool)
            return {"indexed": lattice,
                    "dense": MeasureProcess("kernel", grid, lattice.weights),
                    "one_row": MeasureProcess("kernel", grid, rng.normal(size=(1, N, d, J + 1))),
                    "indexed_one_row": MeasureProcess("kernel", grid, lattice.table,
                                                      index=lattice.index[:1])}[kind]

        phi, *processes = [process(kind) for kind in ["indexed", *kinds]]
        w = np.broadcast_to(phi.weights, (P, N, d, J + 1)).copy()
        cells = rng.random((P, N)) < 0.2
        w[cells] = rng.normal(size=(int(cells.sum()), d, J + 1))
        processes.append(MeasureProcess("kernel", grid, w))
        if stopped:  # an adapted rule: the first time the driver reaches a level, if it does
            hit = S.values[:, 1:, 0] >= rng.normal(0.0, 0.5)
            first = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, N + 1)
            S = stopped_driver(S, StoppingRule(first, N))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mvintegral, "BLOCK_ENTRIES", block_entries)  # scenarios per block
            mp.setattr(integrands, "PAIR_ENTRIES", block_entries)  # the streams' times per block
            got = convergence_transfer_check(phi, processes, S, fam)
            want = [maximal_seminorm(paired_gap(q, phi, S, fam.functions), fam, S.scenarios.probs)
                    for q in processes]
        assert got == want

    def test_overflow_raises(self):
        # each slot charges 1e308 times an increment of sqrt(4 / 3): the scenario whose three
        # increments share a sign overflows at the horizon
        sc, tg, grid = ScenarioSet.tree(2, 3), TimeGrid(4.0, 3), CompactGrid(1.0, 2)
        S, fam = simulate_driver(DriverSpec("brownian"), tg, sc), build_test_family(grid, 4)
        phi = MeasureProcess("kernel", grid, np.zeros((1, 3, 1, 3)))
        big = MeasureProcess("kernel", grid, np.full((1, 3, 1, 3), 1e308))
        assert convergence_transfer_check(phi, [phi], S, fam) == [0.0]
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            convergence_transfer_check(phi, [phi, big], S, fam)

    def test_peak_of_the_approx_pipeline(self):
        # approximate_elementary and the transfer check at the approx-tree bench size: a depth-12
        # binary tree (P = 4096), N = 12, J = 4 and the default 37-member family.  One (P, N, K)
        # evaluation array is 14.5 MB.  Measured: 0.60 of them, in the transfer check: its three
        # running sups and the approximants' indexes and masks (0.75 when it paired every
        # scenario in a 2 MB buffer, 1.06 when the approximants held dense payloads, 1.70 when
        # it drew four whole charge streams, 3.75 when each step held whole arrays)
        sc, tg = ScenarioSet.tree(2, 12), TimeGrid(4.0, 12)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        grid = CompactGrid(1.0, 4)
        fam = build_test_family(grid, grid.n_atoms + 2**grid.n_atoms)
        tau = StoppingRule.never(sc, 12)
        phi = random_lattice_process(grid, tg, sc, np.random.default_rng(2035))
        evals_nbytes = sc.n_scenarios * 12 * fam.size * 8
        tracemalloc.start()
        try:
            result = approximate_elementary(phi, tau, S.control, fam, sc, schedule=(4, 16, 64), c=1.0)
            gaps = convergence_transfer_check(phi, result.processes, S, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged and gaps[-1] <= 1e-6
        assert peak <= 1.25 * evals_nbytes, peak / evals_nbytes  # 18 % above the 1.06 peak


class TestFamilyInvariance:
    """The integral object is family-free; family-built seminorms interlace
    additively and the pipeline limit does not depend on the family."""

    def test_interlaced_seminorm_splits_additively(self):
        from mvstoch.drivers import stopping_weights
        from mvstoch.integrands import _family_evals

        grid = CompactGrid(1.0, 3)
        tg = TimeGrid(1.0, 4)
        sc = ScenarioSet.monte_carlo(5, 1)
        V = identity_control(tg, 5)
        tau = StoppingRule.never(sc, 4)
        fam_a = build_test_family(grid, 6)
        fam_b = build_test_family(grid, 10)
        rng = np.random.default_rng(41)
        phi = MeasureProcess("kernel", grid, rng.normal(size=(5, 4, 1, 4)))
        w = stopping_weights(tau, V, sc)

        def q_sq(fam, gammas):
            evals = _family_evals(phi, fam.functions)
            sq = np.sum(evals * evals, axis=3)
            return float(gammas @ np.einsum("pn,pnk->k", w, sq))

        qa = q_sq(fam_a, fam_a.gammas)
        qb = q_sq(fam_b, fam_b.gammas)
        combined = qa * 0.5 + qb * 0.5  # interlacing with halved weights
        direct = q_sq(fam_a, 0.5 * fam_a.gammas) + q_sq(fam_b, 0.5 * fam_b.gammas)
        assert direct == pytest.approx(combined, rel=1e-12)

    def test_pipeline_limit_family_independent(self):
        grid = CompactGrid(1.0, 8)
        tg = TimeGrid(4.0, 3)
        sc = ScenarioSet.tree(2, 3)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        tau = StoppingRule.never(sc, 3)
        rng = np.random.default_rng(2024)
        phi = random_lattice_process(grid, tg, sc, rng, c=1.0)
        target = mv_integral(phi, S)
        for k_max in (30, 200):
            fam = build_test_family(grid, k_max)
            result = approximate_elementary(phi, tau, S.control, fam, sc,
                                            schedule=(4, 16, 64), c=1.0)
            assert result.reports[-1].q_error <= 1e-12
            final = mv_integral(result.processes[-1], S)
            np.testing.assert_allclose(final, target, atol=1e-12)


class TestMultidimensionalDriver:
    def test_interchange_exact_for_two_components(self):
        tg = TimeGrid(1.0, 32)
        sc = ScenarioSet.monte_carlo(25, 9)
        S = simulate_driver(DriverSpec("brownian", d=2), tg, sc)
        grid = CompactGrid(1.0, 6)
        fam = build_test_family(grid, 10)
        rng = np.random.default_rng(33)
        phi = MeasureProcess("kernel", grid, rng.normal(size=(25, 32, 2, 7)))
        report = fubini_check(phi, S, fam)["regular"]
        assert report["max_abs_discrepancy"] <= 1e-12

    def test_component_pairing_collapses_to_scalar_charge(self):
        # each component measure integrates against its own driver component
        tg = TimeGrid(1.0, 8)
        sc = ScenarioSet.monte_carlo(10, 13)
        S = simulate_driver(DriverSpec("brownian", d=2), tg, sc)
        grid = CompactGrid(1.0, 3)
        m = np.zeros((2, 4))
        m[0, 1] = 1.0  # component 0 puts mass on atom 1
        m[1, 3] = 2.0  # component 1 puts mass on atom 3
        phi = elementary_process(grid, 8, [ElementaryTerm(SignedMeasureVec(grid, m), 0, 8)])
        charge = mv_integral(phi, S)
        drift = S.values - S.values[:, :1, :]
        np.testing.assert_allclose(charge[:, :, 1], drift[:, :, 0], atol=1e-12)
        np.testing.assert_allclose(charge[:, :, 3], 2.0 * drift[:, :, 1], atol=1e-12)
