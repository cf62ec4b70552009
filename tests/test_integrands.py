import itertools
import math

import numpy as np
import pytest
from helpers import (
    dense_evals,
    dense_sq_norms,
    evaluate,
    kernel_process,
    net_fineness,
    order_bound,
    project_loop,
    variation,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvstoch import integrands
from mvstoch.dominated import DominatedSpec, power_law_integrand
from mvstoch.drivers import ScenarioSet, StoppingRule, TimeGrid, stopping_weights
from mvstoch.grid import CompactGrid, SignedMeasureVec, build_test_family
from mvstoch.grid import TestFamily as Family  # a Test* name would be collected
from mvstoch.integrands import (
    ElementaryTerm,
    MeasureProcess,
    _pair_rows,
    approximate_elementary,
    continuity_constant,
    elementary_process,
    integrability_check,
    integrand_seminorm,
    project_to_net,
    random_lattice_process,
    rectangle_refine,
    truncate,
    variation_path,
    weak_star_net,
)


def identity_control(timegrid, n_scenarios):
    return np.broadcast_to(timegrid.times, (n_scenarios, timegrid.n_steps + 1)).copy()


def random_kernel(grid, n_steps, rng, P=1, d=1, scale=1.0):
    w = rng.uniform(-scale, scale, size=(P, n_steps, d, grid.n_atoms))
    return MeasureProcess("kernel", grid, w)


class TestEvaluate:
    def test_single_term_constant_path(self):
        grid = CompactGrid(1.0, 3)
        m = SignedMeasureVec(grid, np.array([[0.5, -1.0, 2.0, 0.0]]))
        phi = elementary_process(grid, 4, [ElementaryTerm(m, 0, 4)])
        path = evaluate(phi, np.ones(4))
        np.testing.assert_allclose(path.values[0, :, 0], np.full(4, 1.5))

    def test_zero_function(self):
        grid = CompactGrid(1.0, 2)
        phi = random_kernel(grid, 5, np.random.default_rng(0))
        assert np.all(evaluate(phi, np.zeros(3)).values == 0.0)

    def test_power_law_full_mass_path(self):
        tg = TimeGrid(1.0, 16)
        phi, _ = power_law_integrand(alpha=0.5, timegrid=tg, n_cells=64)
        path = evaluate(phi, np.ones(65))
        expected = (1.0 - tg.times[:-1]) ** 0.5
        np.testing.assert_allclose(path.values[0, :, 0], expected, atol=1e-12)

    def test_grid_mismatch(self):
        grid = CompactGrid(1.0, 2)
        phi = random_kernel(grid, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            evaluate(phi, np.zeros(5))


class TestVariationPath:
    def test_zero_process(self):
        grid = CompactGrid(1.0, 4)
        phi = MeasureProcess("kernel", grid, np.zeros((1, 3, 1, 5)))
        assert np.all(variation_path(phi) == 0.0)

    def test_power_law_at_half_horizon(self):
        tg = TimeGrid(1.0, 8)
        phi, _ = power_law_integrand(alpha=1.0, timegrid=tg, n_cells=32)
        var = variation_path(phi)
        slot = 4  # left endpoint t = 0.5
        assert var[0, slot, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_family_sup_with_hats(self):
        grid = CompactGrid(1.0, 3)
        rng = np.random.default_rng(5)
        phi = random_kernel(grid, 2, rng)
        fam = build_test_family(grid, (3 + 1) + 2**4)
        var = variation_path(phi)
        for slot in range(2):
            sup = max(float(phi.weights[0, slot, 0] @ u) for u in fam.functions)
            assert sup == pytest.approx(var[0, slot, 0], abs=1e-12)


class TestIntegrandSeminorm:
    def setup_method(self):
        self.grid = CompactGrid(1.0, 3)
        self.fam = build_test_family(self.grid, 8)
        self.sc = ScenarioSet.monte_carlo(6, 0)
        self.tg = TimeGrid(1.0, 4)
        self.V = identity_control(self.tg, 6)
        self.tau = StoppingRule.never(self.sc, 4)

    def test_zero_process(self):
        phi = MeasureProcess("kernel", self.grid, np.zeros((1, 4, 1, 4)))
        assert integrand_seminorm(phi, self.fam, self.tau, self.V, self.sc) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = random_kernel(self.grid, 4, rng, P=6)
            b = random_kernel(self.grid, 4, rng, P=6)
            qa = integrand_seminorm(a, self.fam, self.tau, self.V, self.sc)
            qb = integrand_seminorm(b, self.fam, self.tau, self.V, self.sc)
            qab = integrand_seminorm(MeasureProcess("kernel", self.grid, a.weights + b.weights),
                                     self.fam, self.tau, self.V, self.sc)
            assert qab <= qa + qb + 1e-12 * (1 + qa + qb)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(2)
        a = random_kernel(self.grid, 4, rng, P=6)
        qa = integrand_seminorm(a, self.fam, self.tau, self.V, self.sc)
        qs = integrand_seminorm(MeasureProcess("kernel", self.grid, a.weights * -2.5),
                                self.fam, self.tau, self.V, self.sc)
        assert qs == pytest.approx(2.5 * qa, rel=1e-12)

    def test_tree_hand_enumeration(self):
        # 2 scenarios, 1 step, single hat: q^2 = sum_p prob * V_pre * dV * phi(u)^2
        grid = CompactGrid(1.0, 1)
        sc = ScenarioSet.tree(2, 1)
        fam = build_test_family(grid, 1)  # the atom-0 hat only
        m = SignedMeasureVec(grid, np.array([[2.0, 0.0]]))
        phi = elementary_process(grid, 1, [ElementaryTerm(m, 0, 1)])
        V = np.array([[0.0, 1.0], [0.0, 2.0]])
        tau = StoppingRule.never(sc, 1)
        q = integrand_seminorm(phi, fam, tau, V, sc)
        assert q == pytest.approx(math.sqrt(0.5 * 1 * 1 * 4 + 0.5 * 2 * 2 * 4))

    @pytest.mark.parametrize("d", [1, 2])
    def test_difference_peak_at_monte_carlo(self, d):
        # the difference seminorm of two Monte Carlo processes, whose rows do not repeat,
        # holds each one's distinct rows, their joint rows and its squares
        import tracemalloc

        rng = np.random.default_rng(9)
        sc, tg = ScenarioSet.monte_carlo(512, 0), TimeGrid(1.0, 16)
        a = random_kernel(self.grid, 16, rng, P=512, d=d)
        b = random_kernel(self.grid, 16, rng, P=512, d=d)
        fam = build_test_family(self.grid, 40)
        V, tau = identity_control(tg, 512), StoppingRule.never(sc, 16)
        w = stopping_weights(tau, V, sc)
        evals_nbytes = 512 * 16 * 40 * d * 8
        tracemalloc.start()
        try:
            q = integrand_seminorm(a, fam, tau, V, sc, minus=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q == float(np.sqrt(fam.gammas @ dense_sq_norms(a, w, fam.functions, minus=b)))
        # measured 6.23 (d = 1) and 6.09 (d = 2) evaluation arrays
        assert peak <= 7 * evals_nbytes, peak / evals_nbytes


def _adapted_process(kind, sc, tg, grid, d, rng, tree):
    """A process of the given kind, adapted on a tree: ``dense``, uniform values; ``pooled``,
    those rounded to three levels, so that rows repeat and zeros take both signs; ``lattice``,
    net-indexed; ``one-row``, one scenario-free row."""
    N, n_atoms = tg.n_steps, grid.n_atoms
    if kind == "lattice":
        return random_lattice_process(grid, tg, sc, rng, c=1.0, d=d,
                                      pool_size=int(rng.integers(1, 25)))
    if kind == "one-row":
        return MeasureProcess("kernel", grid, rng.uniform(-0.5, 0.5, size=(1, N, d, n_atoms)))
    w = (_tree_values(sc, N, rng, d, n_atoms) if tree
         else rng.uniform(-0.5, 0.5, size=(sc.n_scenarios, N, d, n_atoms)))
    return MeasureProcess("kernel", grid, np.round(2 * w) / 4 if kind == "pooled" else w)


class TestNormSums:
    """The seminorms' weighted sums, each distinct row of squares once, against the same rule
    on the whole (P, N, K) array of squares (``helpers.dense_sq_norms``), bit for bit, whether
    the cells are the approximation pipeline's or the public seminorms' joint index."""

    KINDS = st.sampled_from(["dense", "pooled", "lattice", "one-row"])

    @given(tree=st.booleans(), N=st.integers(1, 5), P=st.integers(1, 40), d=st.integers(1, 2),
           J=st.integers(1, 40), K=st.integers(1, 40), kinds=st.tuples(KINDS, KINDS),
           bites=st.booleans(), eval_entries=st.integers(1, 500), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_dense_rule(self, tree, N, P, d, J, K, kinds, bites, eval_entries, seed):
        # phi and a second process of the drawn kinds on a tree or on Monte Carlo scenarios
        # (with zero weights there): the public route folds the two distinct-row indexes into
        # one; on a tree, phi is approximated too, truncated when ``bites``
        rng = np.random.default_rng(seed)
        sc = ScenarioSet.tree(2, N) if tree else ScenarioSet.monte_carlo(P, seed)
        tg, grid = TimeGrid(1.0, N), CompactGrid(1.0, J)
        fam = build_test_family(grid, K)
        phi, other = (_adapted_process(k, sc, tg, grid, d, rng, tree) for k in kinds)
        P = sc.n_scenarios
        V = np.concatenate((np.zeros((P, 1)), np.cumsum(rng.random((P, N)), axis=1)), axis=1)
        w = rng.random((P, N)) * (rng.random((P, N)) < 0.8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrands, "EVAL_ENTRIES", eval_entries)
            for a, b in [(phi, None), (phi, other), (other, phi)]:
                assert np.array_equal(integrands._seminorm_sums(a, fam.functions, w, b),
                                      dense_sq_norms(a, w, fam.functions, minus=b))
            if tree:
                top = float(np.max(variation_path(phi)))
                c = 0.5 * top if bites and top > 0 else None
                tau = StoppingRule.never(sc, N)
                result = approximate_elementary(phi, tau, V, fam, sc, schedule=(3, 12), c=c)
                w = stopping_weights(tau, V, sc)
                for elem, rep in zip(result.processes, result.reports):
                    sq = dense_sq_norms(elem, w, fam.functions, minus=phi)
                    assert rep.q_error == float(np.sqrt(fam.gammas @ sq))

    def test_net_table_rows_are_each_scenarios_pairing(self):
        # J + 1 = 34, K = 37: a scenario's product rounds a row by its place in it, so the net's
        # own pairing (one element per product) differs here in a few rows; the table does not
        grid = CompactGrid(1.0, 33)
        fam = build_test_family(grid, 37)
        net_w = np.stack([m.weights for m in weak_star_net(1.0, 150, grid)])
        index = np.arange(64).reshape(16, 4)  # every pair a distinct row
        assignment = np.random.default_rng(0).integers(0, len(net_w), size=64)[index]
        table, at = integrands._net_table(net_w, assignment, index, fam.functions)
        paired = integrands._family_evals(MeasureProcess("kernel", grid, net_w[assignment]),
                                          fam.functions)
        assert np.array_equal(table[at.ravel()[index * 4 + np.arange(4)]], paired)

    def test_equals_the_dense_rule_at_the_bench_shape(self):
        # P = 4096, N = 12, K = 37: the pipeline's 49 152 pairs take a few hundred cells
        sc, tg = ScenarioSet.tree(2, 12), TimeGrid(4.0, 12)
        grid = CompactGrid(1.0, 4)
        fam = build_test_family(grid, 37)
        phi = random_lattice_process(grid, tg, sc, np.random.default_rng(0))
        tau, V = StoppingRule.never(sc, 12), identity_control(tg, sc.n_scenarios)
        result = approximate_elementary(phi, tau, V, fam, sc, schedule=(4, 16), c=1.0)
        w = stopping_weights(tau, V, sc)
        for elem, rep in zip(result.processes, result.reports):
            sq = dense_sq_norms(elem, w, fam.functions, minus=phi)
            assert rep.q_error == float(np.sqrt(fam.gammas @ sq))
            assert rep.uniform_constant == integrands._continuity(
                elem, fam, w, dense_sq_norms(elem, w, fam.functions))["lower"]
        assert result.constant == integrands._continuity(
            phi, fam, w, dense_sq_norms(phi, w, fam.functions))["lower"]

    @given(P=st.integers(1, 300), N=st.integers(1, 8), d=st.integers(1, 2), J=st.integers(1, 8),
           K=st.integers(1, 40), pooled=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_within_the_order_bound_of_one_einsum(self, P, N, d, J, K, pooled, seed):
        # every term w[p, n] sq[p, n, k] is >= 0, and either sum takes at most P N + 1 roundings
        # per term, so the rule and one einsum over all P N pairs are each within
        # gamma_{PN+1} sum w sq of the exact sum; the larger computed sum stands in for the exact
        # one at the cost of one rounding more
        rng = np.random.default_rng(seed)
        sc, tg, grid = ScenarioSet.monte_carlo(P, seed), TimeGrid(1.0, N), CompactGrid(1.0, J)
        fam = build_test_family(grid, K)
        a, b = (_adapted_process("pooled" if pooled else "dense", sc, tg, grid, d, rng, False)
                for _ in range(2))
        w = rng.random((P, N)) * (rng.random((P, N)) < 0.8)
        new = integrands._seminorm_sums(a, fam.functions, w, b)
        evals = dense_evals(a, fam.functions) - dense_evals(b, fam.functions)
        old = np.einsum("pn,pnk->k", w, np.sum(evals * evals, axis=3))
        assert np.all(np.abs(new - old) <= order_bound(P * N + 2, np.maximum(new, old)))


class TestContinuityConstant:
    def test_zero_process(self):
        grid = CompactGrid(1.0, 2)
        fam = build_test_family(grid, 4)
        sc = ScenarioSet.monte_carlo(3, 0)
        tg = TimeGrid(1.0, 2)
        phi = MeasureProcess("kernel", grid, np.zeros((1, 2, 1, 3)))
        out = continuity_constant(phi, fam, StoppingRule.never(sc, 2), identity_control(tg, 3), sc)
        assert out == {"lower": 0.0, "upper": 0.0}

    def test_ball_valued_bound(self):
        # values with variation <= c give upper <= c * sqrt(d) * ||V_pre||_L2
        grid = CompactGrid(1.0, 3)
        fam = build_test_family(grid, 6)
        sc = ScenarioSet.monte_carlo(10, 0)
        tg = TimeGrid(2.0, 5)
        V = identity_control(tg, 10)
        tau = StoppingRule.never(sc, 5)
        rng = np.random.default_rng(3)
        c, d = 1.5, 2
        w = rng.uniform(-1, 1, size=(10, 5, d, 4))
        w *= c / np.maximum(np.sum(np.abs(w), axis=3), c)[:, :, :, None]
        phi = MeasureProcess("kernel", grid, w)
        out = continuity_constant(phi, fam, tau, V, sc)
        v_pre = V[np.arange(10), tau.pre_index()]
        bound = c * math.sqrt(d) * math.sqrt(float(sc.probs @ (v_pre**2)))
        assert out["lower"] <= out["upper"] <= bound + 1e-12

    def test_power_law_upper_matches_accumulation_oracle(self):
        # upper^2 = V_T * D_T for the deterministic power integrand
        tg = TimeGrid(1.0, 512)
        phi, _ = power_law_integrand(alpha=1.0, timegrid=tg, n_cells=64)
        sc = ScenarioSet.monte_carlo(1, 0)
        fam = build_test_family(CompactGrid(1.0, 64), 8)
        V = identity_control(tg, 1)
        out = continuity_constant(phi, fam, StoppingRule.never(sc, 512), V, sc)
        closed = 1.0 * (1.0 / 3.0)  # V_T times the accumulated squared variation
        assert out["upper"] ** 2 == pytest.approx(closed, abs=2.0 / 512)


class TestContinuityTolerance:
    """``_continuity``'s lower <= upper check allows rounding relative to upper, from the
    lengths of the sums, not an absolute 1e-12."""

    J, P, N = 40, 6, 5

    def inputs(self, seed):
        # positive atoms near 150 paired with the all-ones function: lower == upper exactly in
        # real arithmetic, upper about 6150, and the two sides round differently
        grid, tg = CompactGrid(1.0, self.J), TimeGrid(1.0, self.N)
        sc = ScenarioSet.monte_carlo(self.P, 0)
        w = stopping_weights(StoppingRule.never(sc, self.N), identity_control(tg, self.P), sc)
        values = np.random.default_rng(seed).uniform(149.0, 151.0, (self.P, self.N, 1, self.J + 1))
        phi = MeasureProcess("kernel", grid, values)
        fam = Family(grid, np.ones((1, self.J + 1)))
        return phi, fam, w, integrands._seminorm_sums(phi, fam.functions, w)

    @pytest.mark.parametrize("seed", range(150, 160))
    def test_scaled_equality_passes(self, seed):
        # seeds 152-154 put lower 1.8e-12 above upper, which the absolute tolerance raised on
        out = integrands._continuity(*self.inputs(seed))
        assert out["lower"] == pytest.approx(out["upper"], rel=1e-14)

    def test_real_violation_raises(self):
        phi, fam, w, sq_norms = self.inputs(150)
        with pytest.raises(AssertionError, match="variation bound"):
            integrands._continuity(phi, fam, w, sq_norms * (1.0 + 1e-9) ** 2)


class TestTruncate:
    def test_no_bite_returns_same_object(self):
        grid = CompactGrid(1.0, 2)
        phi = random_kernel(grid, 3, np.random.default_rng(0))
        assert truncate(phi, 1e6) is phi

    def test_small_level_zeroes_everything(self):
        grid = CompactGrid(1.0, 2)
        phi = random_kernel(grid, 3, np.random.default_rng(1))
        out = truncate(phi, 1e-9)
        assert np.all(out.weights == 0.0)

    def test_componentwise(self):
        grid = CompactGrid(1.0, 1)
        w = np.zeros((1, 1, 2, 2))
        w[0, 0, 0] = [3.0, 0.0]  # variation 3
        w[0, 0, 1] = [0.5, 0.0]  # variation 0.5
        out = truncate(MeasureProcess("kernel", grid, w), 1.0)
        assert np.all(out.weights[0, 0, 0] == 0.0)
        assert np.array_equal(out.weights[0, 0, 1], [0.5, 0.0])

    def test_truncation_gap_vanishes(self):
        grid = CompactGrid(1.0, 3)
        fam = build_test_family(grid, 8)
        sc = ScenarioSet.monte_carlo(8, 0)
        tg = TimeGrid(1.0, 4)
        V = identity_control(tg, 8)
        tau = StoppingRule.never(sc, 4)
        phi = random_kernel(grid, 4, np.random.default_rng(7), P=8, scale=2.0)
        gaps = [
            integrand_seminorm(phi, fam, tau, V, sc, minus=truncate(phi, c))
            for c in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == 0.0


class TestWeakStarNet:
    def test_zero_first_by_convention(self):
        net = weak_star_net(1.0, 1, CompactGrid(1.0, 4))
        assert len(net) == 1
        assert np.all(net[0].weights == 0.0)

    def test_ball_constraint(self):
        net = weak_star_net(0.7, 40, CompactGrid(1.0, 8), d=2)
        for m in net:
            assert np.all(variation(m) <= 0.7 + 1e-12)

    def test_fineness_nonincreasing(self):
        grid = CompactGrid(1.0, 4)
        fam = build_test_family(grid, 10)
        rng = np.random.default_rng(9)
        probes = []
        for _ in range(12):
            w = rng.uniform(-1, 1, size=(1, 5))
            w /= max(1.0, np.sum(np.abs(w)))
            probes.append(SignedMeasureVec(grid, w))
        vals = [net_fineness(weak_star_net(1.0, n, grid), probes, fam) for n in (4, 16, 64)]
        assert vals[0] >= vals[1] >= vals[2]

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("J", [1, 6])  # J = 1 exhausts its anchors at 25 or 625 elements
    def test_enumeration_is_prefix_stable(self, J, d):
        # approximate_elementary enumerates the largest net of its schedule only
        grid = CompactGrid(1.0, J)
        big = weak_star_net(0.7, 700, grid, d=d)
        for n in (1, 10, 30, 200, 699):
            small = weak_star_net(0.7, n, grid, d=d)
            assert len(small) == len(big[:n])
            assert all(np.array_equal(a.weights, b.weights) for a, b in zip(small, big))


class TestProjectToNet:
    def setup_method(self):
        self.grid = CompactGrid(1.0, 4)
        self.fam = build_test_family(self.grid, 10)

    def test_net_element_projects_to_itself(self):
        net = weak_star_net(1.0, 12, self.grid)
        target = net[5]
        w = np.broadcast_to(target.weights, (1, 3) + target.weights.shape).copy()
        phi = MeasureProcess("kernel", self.grid, w[:, :, :, :])
        projected, assignment, dist = project_to_net(phi, net, self.fam)
        assert np.all(assignment == 5)
        assert np.all(dist == 0.0)
        assert np.array_equal(projected.weights, phi.weights)

    def test_tie_break_takes_lowest_index(self):
        net = weak_star_net(1.0, 6, self.grid)
        duplicated = [net[0], net[3], net[3]]
        w = np.broadcast_to(net[3].weights, (1, 2) + net[3].weights.shape).copy()
        phi = MeasureProcess("kernel", self.grid, w)
        _, assignment, _ = project_to_net(phi, duplicated, self.fam)
        assert np.all(assignment == 1)

    def test_pointwise_distance_nonincreasing_in_net(self):
        rng = np.random.default_rng(13)
        w = rng.uniform(-0.25, 0.25, size=(4, 3, 1, 5))
        phi = MeasureProcess("kernel", self.grid, w)
        dists = []
        for n in (4, 16, 64):
            _, _, attained = project_to_net(phi, weak_star_net(1.0, n, self.grid), self.fam)
            dists.append(attained)
        assert np.all(dists[1] <= dists[0] + 1e-15)
        assert np.all(dists[2] <= dists[1] + 1e-15)

    def test_empty_net_rejected(self):
        phi = MeasureProcess("kernel", self.grid, np.zeros((1, 2, 1, 5)))
        with pytest.raises(ValueError):
            project_to_net(phi, [], self.fam)


class TestPairRows:
    """The one helper that pairs measures with test functions, against einsum."""

    @staticmethod
    def weights(case):
        rng = np.random.default_rng(31)
        if case == "strided_view":  # make_dominated's read-only sliding window, d = 1
            phi, _ = power_law_integrand(0.75, TimeGrid(1.0, 64), 256)
            assert not phi.weights.flags.writeable and phi.weights.strides[1] < 0
            return phi.weights
        P, N, d, n_atoms = {"d1": (5, 8, 1, 6), "d2": (3, 4, 2, 7), "one_row": (1, 16, 1, 33),
                            "odd_rows": (7, 13, 1, 5)}[case]
        return rng.normal(size=(P, N, d, n_atoms))

    @pytest.mark.parametrize("pair_entries", [integrands.PAIR_ENTRIES, 40])
    @pytest.mark.parametrize("case", ["d1", "d2", "one_row", "odd_rows", "strided_view"])
    def test_within_rounding_of_einsum(self, monkeypatch, case, pair_entries):
        w = self.weights(case)
        n_atoms = w.shape[3]
        f = np.random.default_rng(32).uniform(-1, 1, size=(9, n_atoms))
        calls = []
        matmul = np.matmul

        def recording(a, b, out=None):
            calls.append(a.shape[-2] * a.shape[-1] * b.shape[-1])  # multiply-adds per scenario
            return matmul(a, b, out=out)

        monkeypatch.setattr(integrands, "PAIR_ENTRIES", pair_entries)
        monkeypatch.setattr(np, "matmul", recording)
        got = _pair_rows(w, f)
        monkeypatch.undo()
        assert calls and max(calls) <= max(pair_entries, f.size)  # one row may exceed a small cap
        P, N, d, _ = w.shape
        ref = np.einsum("pnij,kj->pnik", w, f).reshape(P, N * d, len(f))
        # |fl(w . f) - w . f| <= gamma_n |w| . |f| for either order of the n = J + 1 products
        u = np.finfo(float).eps / 2
        gamma = n_atoms * u / (1 - n_atoms * u)
        bound = 2 * gamma * np.einsum("pnij,kj->pnik", np.abs(w), np.abs(f)).reshape(ref.shape)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound)

    def test_strided_view_is_not_copied(self):
        import tracemalloc

        phi, _ = power_law_integrand(0.75, TimeGrid(1.0, 512), 4096)
        f = build_test_family(phi.grid, 3).functions
        dense = phi.weights.shape[1] * phi.weights.shape[3] * 8  # 16.8 MB as a dense array
        tracemalloc.start()
        try:
            out = _pair_rows(phi.weights, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 512, 3)
        assert peak <= out.nbytes + 64 * 1024  # the output, no copy of the weights
        assert peak < dense / 100


def _tree_values(sc, n_steps, rng, d, n_atoms):
    """Continuous per-atom values at every slot, shape (P, N, d, n_atoms)."""
    w = np.empty((sc.n_scenarios, n_steps, d, n_atoms))
    for j in range(n_steps):
        ids = sc.atom_ids(j)
        w[:, j] = rng.uniform(-0.5, 0.5, size=(ids[-1] + 1, d, n_atoms))[ids]
    return w


class TestProjectToNetAgainstLoop:
    """Distances computed once per distinct row match the per-pair loop bit for bit."""

    def setup_method(self):
        self.grid = CompactGrid(1.0, 4)
        self.fam = build_test_family(self.grid, 20)

    def check(self, phi, net):
        projected, assignment, attained = project_to_net(phi, net, self.fam)
        w_ref, a_ref, d_ref = project_loop(phi, net, self.fam)
        assert assignment.shape == attained.shape == phi.weights.shape[:2]
        assert np.array_equal(assignment, a_ref)
        assert np.array_equal(attained, d_ref, equal_nan=True)
        assert np.array_equal(projected.weights, w_ref)
        return assignment, attained

    def test_deterministic_single_scenario(self):
        phi = random_kernel(self.grid, 5, np.random.default_rng(1), P=1)
        self.check(phi, weak_star_net(1.0, 40, self.grid))

    def test_depth_six_lattice_process(self):
        sc = ScenarioSet.tree(2, 6)
        phi = random_lattice_process(self.grid, TimeGrid(1.0, 6), sc, np.random.default_rng(2))
        for n in (4, 16, 64):
            self.check(phi, weak_star_net(1.0, n, self.grid))

    def test_tree_adapted_continuous_values(self):
        sc = ScenarioSet.tree(3, 4)
        w = _tree_values(sc, 4, np.random.default_rng(3), 1, self.grid.n_atoms)
        self.check(MeasureProcess("kernel", self.grid, w), weak_star_net(1.0, 64, self.grid))

    def test_iid_weights_without_repeated_rows(self):
        phi = random_kernel(self.grid, 6, np.random.default_rng(4), P=50, scale=0.5)
        self.check(phi, weak_star_net(1.0, 64, self.grid))

    def test_two_components(self):
        sc = ScenarioSet.tree(2, 5)
        w = _tree_values(sc, 5, np.random.default_rng(5), 2, self.grid.n_atoms)
        self.check(MeasureProcess("kernel", self.grid, w), weak_star_net(1.0, 64, self.grid, d=2))

    def test_signed_zero_rows(self):
        net = weak_star_net(1.0, 16, self.grid)
        w = np.zeros((4, 2, 1, self.grid.n_atoms))
        w[:, 1, 0, 0] = 0.5
        w[1, 0] = -0.0  # slot 0: scenario 1 differs from scenario 0 only by the sign of zero
        w[3, 1, 0, 1:] = -0.0  # slot 1: scenario 3 against scenario 2
        assert np.array_equal(w[0, 0], w[1, 0]) and np.signbit(w[1, 0]).all()
        self.check(MeasureProcess("kernel", self.grid, w), net)

    def test_nan_rows(self):
        w = np.random.default_rng(6).uniform(-0.5, 0.5, size=(5, 3, 1, self.grid.n_atoms))
        w[1:3] = w[0]
        w[1, 1, 0, 2] = np.nan
        w[2, 1, 0, 2] = np.nan  # equal NaN rows do not compare equal
        w[4, :, 0, 0] = np.nan
        _, attained = self.check(MeasureProcess("kernel", self.grid, w),
                                 weak_star_net(1.0, 16, self.grid))
        assert np.isnan(attained[1, 1]) and np.isnan(attained[4]).all()

    # a row paired alone rounds unlike one in a product (J + 1 = 5, K = 12 on OpenBLAS), and
    # from J + 1 = 32 on, by its place in a product (J + 1 = 34, K = 37 and 5 or 6 rows, as in
    # the example; not J + 1 = 41)
    @example(P=8, N=5, d=1, J=33, K=37, one_row=False, n_net=40, seed=0)
    @given(P=st.integers(1, 30), N=st.integers(1, 6), d=st.integers(1, 2),
           J=st.sampled_from([1, 2, 3, 4, 5, 33, 40]), K=st.integers(1, 40),
           one_row=st.booleans(), n_net=st.integers(1, 40), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_distinct_rows_in_blocks_equal_the_pair_loop(self, P, N, d, J, K, one_row, n_net,
                                                         seed):
        # a dense input, indexed by its runs and paired by (table row, slot) cells: rows drawn
        # from a few, so they repeat within and across slots, of values that round; then
        # signed zeros and NaNs
        rng = np.random.default_rng(seed)
        grid = CompactGrid(1.0, J)
        fam = build_test_family(grid, K)
        pool = rng.uniform(-0.5, 0.5, size=(6, d, J + 1))
        pool[rng.random(pool.shape) < 0.2] = 0.0
        w = pool[rng.integers(0, len(pool), size=(1 if one_row else P, N))]
        w[rng.random(w.shape) < 0.1] *= -1.0
        w[rng.random(w.shape) < 0.02] = np.nan
        phi = MeasureProcess("kernel", grid, w)
        projected, assignment, attained = project_to_net(
            phi, weak_star_net(1.0, n_net, grid, d=d), fam)
        w_ref, a_ref, d_ref = project_loop(phi, weak_star_net(1.0, n_net, grid, d=d), fam)
        assert np.array_equal(assignment, a_ref)
        assert np.array_equal(attained, d_ref, equal_nan=True)
        assert np.array_equal(projected.weights, w_ref)
        rows, index = integrands._distinct_rows(phi, fam.functions)  # each pair's row, bit for bit
        want = np.ascontiguousarray(dense_evals(phi, fam.functions))
        assert rows[index].tobytes() == want.tobytes()

    def test_duplicated_net_elements_take_lowest_index(self):
        base = weak_star_net(1.0, 12, self.grid)
        net = [base[0], base[7], base[3], base[7], base[3], base[9]]
        idx = np.array([[1, 2, 3], [1, 2, 3], [3, 4, 4], [3, 4, 0],
                        [5, 2, 2], [5, 2, 2], [1, 1, 4], [1, 1, 3]])
        phi = MeasureProcess("kernel", self.grid, np.stack([m.weights for m in net])[idx])
        assignment, _ = self.check(phi, net)
        assert np.array_equal(assignment, np.array([0, 1, 2, 1, 2, 5])[idx])


class TestRectangleRefine:
    def test_full_space_single_rectangle(self):
        grid = CompactGrid(1.0, 2)
        sc = ScenarioSet.tree(2, 2)
        net = weak_star_net(1.0, 5, grid)
        w = np.broadcast_to(net[2].weights, (sc.n_scenarios, 2) + net[2].weights.shape).copy()
        projected = MeasureProcess("kernel", grid, w)
        assignment = np.full((sc.n_scenarios, 2), 2)
        out = rectangle_refine(projected, assignment, net, sc)
        assert out.kind == "elementary"
        assert len(out.terms) == 2  # one rectangle per slot
        assert all(t.scenario_mask is None for t in out.terms)

    def test_single_atom_rectangle(self):
        # assignments may differ only across atoms of the slot's left endpoint
        grid = CompactGrid(1.0, 2)
        sc = ScenarioSet.tree(2, 2)
        net = weak_star_net(1.0, 5, grid)
        assignment = np.array([[0, 1], [0, 1], [0, 0], [0, 0]])
        w = np.stack([[net[j].weights for j in row] for row in assignment])
        out = rectangle_refine(MeasureProcess("kernel", grid, w), assignment, net, sc)
        masked = [t for t in out.terms if t.scenario_mask is not None]
        assert len(masked) == 2
        assert all(t.start == 1 for t in masked)

    def test_evaluations_identical(self):
        grid = CompactGrid(1.0, 3)
        sc = ScenarioSet.tree(2, 3)
        fam = build_test_family(grid, 8)
        rng = np.random.default_rng(17)
        phi = random_lattice_process(grid, TimeGrid(1.0, 3), sc, rng)
        net = weak_star_net(1.0, 25, grid)
        projected, assignment, _ = project_to_net(phi, net, fam)
        out = rectangle_refine(projected, assignment, net, sc)
        for u in fam.functions:
            a = evaluate(out, u).values
            b = evaluate(projected, u, None).values
            assert np.array_equal(a, np.broadcast_to(b, a.shape))

    @pytest.mark.parametrize("fault", ["scenario_dropped", "scenario_doubled", "net_index",
                                       "term_missing"])
    def test_planted_fault_fails_the_term_check(self, fault):
        grid = CompactGrid(1.0, 3)
        sc = ScenarioSet.tree(2, 3)
        fam = build_test_family(grid, 8)
        phi = random_lattice_process(grid, TimeGrid(1.0, 3), sc, np.random.default_rng(17))
        net = weak_star_net(1.0, 25, grid)
        projected, assignment, _ = project_to_net(phi, net, fam)
        terms = list(rectangle_refine(projected, assignment, net, sc).terms)
        integrands._check_terms(terms, assignment, net)  # the true list passes
        i = next(i for i, t in enumerate(terms) if t.scenario_mask is not None)
        t, mask = terms[i], terms[i].scenario_mask.copy()
        if fault == "scenario_dropped":
            mask[np.argmax(mask)] = False
        elif fault == "scenario_doubled":  # also held by another term of the slot
            mask[np.argmin(mask)] = True
        if fault == "net_index":
            j = next(j for j, m in enumerate(net) if m is t.measure)
            terms[i] = ElementaryTerm(net[j + 1], t.start, t.stop, scenario_mask=mask)
        elif fault == "term_missing":
            del terms[i]
        else:
            terms[i] = ElementaryTerm(t.measure, t.start, t.stop, scenario_mask=mask)
        with pytest.raises(AssertionError, match="reproduce the projection"):
            integrands._check_terms(terms, assignment, net)

    def test_monte_carlo_unsupported(self):
        grid = CompactGrid(1.0, 2)
        sc = ScenarioSet.monte_carlo(4, 0)
        net = weak_star_net(1.0, 3, grid)
        phi = MeasureProcess("kernel", grid, np.zeros((4, 2, 1, 3)))
        with pytest.raises(ValueError, match="tree"):
            rectangle_refine(phi, np.zeros((4, 2), dtype=int), net, sc)


class TestApproximateElementary:
    def setup_method(self):
        self.grid = CompactGrid(1.0, 8)
        self.tg = TimeGrid(4.0, 3)
        self.sc = ScenarioSet.tree(2, 3)
        self.fam = build_test_family(self.grid, 30)
        self.V = identity_control(self.tg, self.sc.n_scenarios)
        self.tau = StoppingRule.never(self.sc, 3)

    def test_elementary_input_passthrough(self):
        m = SignedMeasureVec(self.grid, np.ones((1, 9)) / 9)
        phi = elementary_process(self.grid, 3, [ElementaryTerm(m, 0, 3)])
        result = approximate_elementary(phi, self.tau, self.V, self.fam, self.sc)
        assert result.converged
        assert result.reports[0].q_error == 0.0
        assert result.processes == [phi]

    def test_zero_process(self):
        phi = MeasureProcess("kernel", self.grid, np.zeros((1, 3, 1, 9)))
        result = approximate_elementary(phi, self.tau, self.V, self.fam, self.sc)
        assert all(r.q_error == 0.0 for r in result.reports)

    def test_lattice_kernel_strictly_decreasing_to_zero(self):
        rng = np.random.default_rng(2024)
        phi = random_lattice_process(self.grid, self.tg, self.sc, rng, c=1.0)
        result = approximate_elementary(phi, self.tau, self.V, self.fam, self.sc,
                                        schedule=(4, 16, 64), c=1.0)
        errs = [r.q_error for r in result.reports]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-6
        assert result.converged

    def test_each_approximant_evaluated_once_per_step(self, monkeypatch):
        phi = random_lattice_process(self.grid, self.tg, self.sc, np.random.default_rng(2024), c=1.0)
        calls = {"evals": 0, "weights": 0, "rows": 0, "sums": 0}
        counted = {"evals": "_family_evals", "weights": "stopping_weights",
                   "rows": "_distinct_rows", "sums": "_norm_sums"}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for key, name in counted.items():
            monkeypatch.setattr(integrands, name, counting(key, getattr(integrands, name)))
        result = approximate_elementary(phi, self.tau, self.V, self.fam, self.sc,
                                        schedule=(4, 16, 64), c=1.0)
        # once per call: the input's distinct rows serve every projection and, as truncation
        # does not bite, its norms; the indexed input is paired through its table, and the
        # approximants are read from their net tables, so nothing is paired scenario by scenario
        assert calls == {"evals": 0, "weights": 1, "rows": 1, "sums": 1}
        monkeypatch.undo()
        for elem, rep in zip(result.processes, result.reports):
            assert rep.q_error == integrand_seminorm(elem, self.fam, self.tau, self.V, self.sc,
                                                     minus=phi)
            assert rep.uniform_constant == continuity_constant(elem, self.fam, self.tau, self.V,
                                                               self.sc)["lower"]
        assert result.constant == continuity_constant(phi, self.fam, self.tau, self.V,
                                                      self.sc)["lower"]

    def test_norm_sums_hold_cell_tables_at_the_bench_shape(self, monkeypatch):
        # approx-tree's shape (depth 12, N = 12, J = 4, K = 37): each term's squares are a table
        # of the (distinct row, slot) cells its pairs take, and the sums hold (P, N) indexes,
        # never a (P, N, K) array
        import tracemalloc

        sc, tg, grid = ScenarioSet.tree(2, 12), TimeGrid(4.0, 12), CompactGrid(1.0, 4)
        fam = build_test_family(grid, 37)
        phi = random_lattice_process(grid, tg, sc, np.random.default_rng(2024))
        P, N = sc.n_scenarios, 12
        norm_sums, seen = integrands._norm_sums, []

        def traced(w, cells, squares):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            out = norm_sums(w, cells, squares)
            seen.append((tracemalloc.get_traced_memory()[1] - held, [sq.shape for sq in squares]))
            return out

        monkeypatch.setattr(integrands, "_norm_sums", traced)
        tracemalloc.start()
        try:
            approximate_elementary(phi, StoppingRule.never(sc, N), identity_control(tg, P), fam,
                                   sc, schedule=(4, 16, 64), c=1.0)
        finally:
            tracemalloc.stop()
        [(peak, shapes)] = seen
        cells = len(integrands._distinct_rows(phi, fam.functions)[0]) * N
        assert len(shapes) == 7 and all(C <= cells and k == 37 for C, k in shapes), shapes
        # measured 1.01 (P, N) index arrays (398 kB); a (P, N, K) array is 37 of them
        assert peak <= 1.25 * 8 * P * N, peak / (8 * P * N)

    def test_empty_schedule_rejected(self):
        phi = random_lattice_process(self.grid, self.tg, self.sc, np.random.default_rng(1))
        with pytest.raises(ValueError, match="schedule"):
            approximate_elementary(phi, self.tau, self.V, self.fam, self.sc, schedule=())

    @given(branching=st.integers(2, 3), depth=st.integers(1, 5), d=st.integers(1, 2),
           J=st.integers(1, 39), K=st.integers(1, 40), lattice=st.booleans(),
           bites=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_reports_equal_the_public_seminorms(self, branching, depth, d, J, K, lattice, bites,
                                                 seed):
        # read from net tables and distinct rows, each report is bit for bit what the public
        # seminorms compute by pairing the approximant scenario by scenario, and the term list
        # rebuilds the approximant's payload exactly
        rng = np.random.default_rng(seed)
        sc, tg, grid = ScenarioSet.tree(branching, depth), TimeGrid(1.0, depth), CompactGrid(1.0, J)
        fam = build_test_family(grid, K)
        if lattice:
            phi = random_lattice_process(grid, tg, sc, rng, c=1.0, d=d)
        else:
            phi = MeasureProcess("kernel", grid, _tree_values(sc, depth, rng, d, grid.n_atoms))
        top = float(np.max(variation_path(phi)))
        c = 0.5 * top if bites and top > 0 else None
        V, tau = identity_control(tg, sc.n_scenarios), StoppingRule.never(sc, depth)
        result = approximate_elementary(phi, tau, V, fam, sc, schedule=(4, 30, 150), c=c)
        for elem, rep in zip(result.processes, result.reports):
            assert rep.q_error == integrand_seminorm(elem, fam, tau, V, sc, minus=phi)
            assert rep.uniform_constant == continuity_constant(elem, fam, tau, V, sc)["lower"]
            rebuilt = elementary_process(grid, depth, elem.terms, n_scenarios=sc.n_scenarios, d=d)
            assert np.array_equal(rebuilt.weights, elem.weights)
        assert result.constant == continuity_constant(phi, fam, tau, V, sc)["lower"]

    def test_one_row_approximant_of_a_p_row_input(self):
        # an input held as P equal rows projects with no masks, so its approximants are one
        # row; their terms are then summed whole, as the public seminorms sum them
        sc, tg, grid = ScenarioSet.tree(3, 1), TimeGrid(1.0, 1), CompactGrid(1.0, 3)
        V, tau = identity_control(tg, 3), StoppingRule.never(sc, 1)
        for K, seed in itertools.product((1, 2), range(10)):
            fam = build_test_family(grid, K)
            w = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(1, 1, 1, 4)).repeat(3, axis=0)
            phi = MeasureProcess("kernel", grid, w)
            result = approximate_elementary(phi, tau, V, fam, sc, schedule=(4, 30))
            for elem, rep in zip(result.processes, result.reports):
                assert elem.weights.shape[0] == 1
                assert rep.q_error == integrand_seminorm(elem, fam, tau, V, sc, minus=phi)
                assert rep.uniform_constant == continuity_constant(elem, fam, tau, V, sc)["lower"]

    def test_unconverged_flag(self):
        rng = np.random.default_rng(3)
        phi = random_kernel(self.grid, 3, rng, P=self.sc.n_scenarios, scale=0.1)
        result = approximate_elementary(phi, self.tau, self.V, self.fam, self.sc,
                                        schedule=(4, 8), tol=1e-9)
        assert not result.converged
        assert len(result.processes) == 2


class TestIntegrabilityCheck:
    def test_zero_process(self):
        grid = CompactGrid(1.0, 2)
        tg = TimeGrid(1.0, 3)
        phi = MeasureProcess("kernel", grid, np.zeros((1, 3, 1, 3)))
        out = integrability_check(phi, identity_control(tg, 1), tg)
        assert out["member"] and out["sup"] == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_power_law_closed_form_path(self, alpha):
        tg = TimeGrid(1.0, 64)
        phi, _ = power_law_integrand(alpha=alpha, timegrid=tg, n_cells=32)
        V = identity_control(tg, 1)
        out = integrability_check(phi, V, tg)
        assert out["member"]
        closed = 1.0 / (2 * alpha + 1)
        assert out["d_path"][0, -1] == pytest.approx(closed, abs=1e-9)
        mid = (1.0 - (1.0 - tg.times[32]) ** (2 * alpha + 1)) / (2 * alpha + 1)
        assert out["d_path"][0, 32] == pytest.approx(mid, abs=1e-9)

    def test_reciprocal_boundary_density_is_member(self):
        grid = CompactGrid(1.0, 32)
        tg = TimeGrid(1.0, 4)
        # midpoint masses of the density 1 / (1 - z), unbounded at the right end
        spec = DominatedSpec.from_density_callable(lambda t, z: 1.0 / (1.0 - z), tg, grid)
        w = np.broadcast_to(spec.point_masses[0, 0], (1, 4, 1, 33)).copy()
        phi = MeasureProcess("kernel", grid, w)
        out = integrability_check(phi, identity_control(tg, 1), tg)
        assert out["member"] and np.isfinite(out["sup"])

    def test_overflow_reports_location(self):
        grid = CompactGrid(1.0, 2)
        tg = TimeGrid(1.0, 2)
        w = np.zeros((2, 2, 1, 3))
        w[1, 1] = 1e200
        phi = MeasureProcess("kernel", grid, w)
        out = integrability_check(phi, identity_control(tg, 2), tg)
        assert not out["member"]
        assert out["location"] == (1, 2)


class TestInclusionChain:
    def test_elementary_has_finite_constants(self):
        grid = CompactGrid(1.0, 4)
        tg = TimeGrid(1.0, 5)
        sc = ScenarioSet.monte_carlo(6, 1)
        fam = build_test_family(grid, 8)
        V = identity_control(tg, 6)
        tau = StoppingRule.never(sc, 5)
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = SignedMeasureVec(grid, rng.uniform(-1, 1, size=(1, 5)))
            phi = elementary_process(grid, 5, [ElementaryTerm(m, 1, 4)])
            assert integrability_check(phi, V, tg)["member"]
            out = continuity_constant(phi, fam, tau, V, sc)
            assert 0.0 <= out["lower"] <= out["upper"] + 1e-12
            assert out["upper"] < np.inf


class TestWeakStarContinuitySurrogate:
    def test_truncation_sequence_q_convergence(self):
        # ball-valued pointwise weak* convergence forces q convergence
        grid = CompactGrid(1.0, 3)
        tg = TimeGrid(1.0, 4)
        sc = ScenarioSet.monte_carlo(5, 2)
        fam = build_test_family(grid, 8)
        V = identity_control(tg, 5)
        tau = StoppingRule.never(sc, 4)
        rng = np.random.default_rng(37)
        phi = random_kernel(grid, 4, rng, P=5, scale=3.0)
        seq = [truncate(phi, c) for c in (1.0, 2.0, 4.0, 8.0, 16.0)]
        gaps = [integrand_seminorm(s, fam, tau, V, sc, minus=phi) for s in seq]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == 0.0
