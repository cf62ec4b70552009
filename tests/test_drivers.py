import dataclasses
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from helpers import (
    check_adapted,
    check_stopping_time,
    control_inequality_check,
    increment_blocks,
    localizing_sequence,
    stopped_driver,
    traced_peak,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mvstoch import drivers
from mvstoch.drivers import (
    SCENARIO_CHUNK,
    DriverSpec,
    PredictablePath,
    ScenarioSet,
    StoppingRule,
    TimeGrid,
    chunk_streams,
    control_process,
    energy_integral,
    ito_integral,
    pull_blocks,
    running_sum,
    simulate_driver,
    stopping_weights,
)


def weighted_sq_norm(w, H):
    """Squared L2 norm of the (P, N) interval values H against stopping weights."""
    return float(np.sum(w * H * H))


def brownian_path(P=200, N=64, T=1.0, seed=42, vol=1.0):
    tg = TimeGrid(T, N)
    sc = ScenarioSet.monte_carlo(P, seed)
    return simulate_driver(DriverSpec("brownian", vol=vol), tg, sc)


class TestSimulateDriver:
    def test_pure_drift_is_deterministic(self):
        tg = TimeGrid(2.0, 8)
        sc = ScenarioSet.monte_carlo(5, 1)
        path = simulate_driver(DriverSpec("fv_drift", drift=1.5), tg, sc)
        expected = 1.5 * tg.times
        for p in range(5):
            np.testing.assert_allclose(path.values[p, :, 0], expected, atol=1e-14)

    def test_brownian_increment_variance(self):
        # Monte Carlo oracle: normalized squared increments have mean 1
        tg = TimeGrid(1.0, 8)
        sc = ScenarioSet.monte_carlo(100_000, 7)
        path = simulate_driver(DriverSpec("brownian"), tg, sc)
        ratio = np.mean(path.increments**2) / tg.dt
        assert abs(ratio - 1.0) < 0.02

    def test_same_seed_bit_identical(self):
        a = brownian_path(seed=99)
        b = brownian_path(seed=99)
        assert np.array_equal(a.values, b.values)

    def test_chunk_boundary_determinism(self):
        # scenario i's path depends only on (seed, i), not on ensemble size
        tg = TimeGrid(1.0, 4)
        small = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(10, 3))
        big = simulate_driver(DriverSpec("brownian"), tg, ScenarioSet.monte_carlo(200, 3))
        assert np.array_equal(small.values, big.values[:10])

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            DriverSpec("brownian", vol=-1.0)
        with pytest.raises(ValueError):
            DriverSpec("weird")

    def test_compound_poisson_jump_moments(self):
        tg = TimeGrid(1.0, 16)
        sc = ScenarioSet.monte_carlo(50_000, 11)
        spec = DriverSpec("compound_poisson", jump_rate=2.0, jump_mean=0.5, jump_std=0.3)
        path = simulate_driver(spec, tg, sc)
        assert path.jump_increments is not None
        total_mean = np.mean(path.values[:, -1, 0])
        assert total_mean == pytest.approx(2.0 * 0.5 * 1.0, abs=0.03)

    def test_tree_driver_adapted(self):
        tg = TimeGrid(1.0, 3)
        sc = ScenarioSet.tree(2, 3)
        path = simulate_driver(DriverSpec("brownian"), tg, sc)
        for level in range(4):
            assert sc.is_measurable(path.values[:, level, 0], level)

    def test_tree_rejects_jumps(self):
        tg = TimeGrid(1.0, 3)
        sc = ScenarioSet.tree(2, 3)
        with pytest.raises(ValueError):
            simulate_driver(DriverSpec("compound_poisson", jump_rate=1.0, jump_std=1.0), tg, sc)


def whole_chunk_values(spec, tg, seed, P):
    """``simulate_driver``'s values and jump part by whole-chunk draws, each chunk's
    increments summed by ``running_sum``."""
    values, jumps = np.empty((P, tg.n_steps + 1, spec.d)), []
    for lo, hi, inc, block_jumps in increment_blocks(spec, tg, seed, P,
                                                     rows=drivers.SCENARIO_CHUNK):
        values[lo:hi] = running_sum(inc)
        jumps.append(block_jumps)
    return values, (np.concatenate(jumps) if spec.has_jumps else None)


class TestSimulateDriverBlocks:
    """``simulate_driver`` sums blocks of the budget's rows into the values: the same bits as
    the whole chunks, and no chunk-sized temporary."""

    SPECS = {"brownian": DriverSpec("brownian", vol=0.8),
             "fv_drift": DriverSpec("fv_drift", drift=1.5),
             "mixture": DriverSpec("mixture", vol=0.7, drift=-0.3),
             "compound_poisson": DriverSpec("compound_poisson", jump_rate=2.0, jump_std=0.5),
             "jump_mixture": DriverSpec("mixture", vol=0.5, drift=0.2, jump_rate=1.0,
                                        jump_mean=0.2, jump_std=0.3)}

    @given(kind=st.sampled_from(list(SPECS)), chunk=st.integers(1, 40), P=st.integers(1, 130),
           rows=st.integers(1, 50), N=st.integers(1, 6), d=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_values_equal_the_whole_chunk_sums(self, kind, chunk, P, rows, N, d):
        spec, tg = dataclasses.replace(self.SPECS[kind], d=d), TimeGrid(2.0, N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(drivers, "SCENARIO_CHUNK", chunk)
            mp.setattr(drivers, "BLOCK_BYTES", rows * N * d * 8)  # rows per block
            path = simulate_driver(spec, tg, ScenarioSet.monte_carlo(P, 41))
            values, jumps = whole_chunk_values(spec, tg, 41, P)
        assert np.array_equal(path.values, values)
        if jumps is None:
            assert path.jump_increments is None
        else:
            assert np.array_equal(path.jump_increments, jumps)

    @pytest.mark.parametrize("kind", ["brownian", "jump_mixture"])
    def test_values_equal_across_the_real_chunk_boundary(self, kind):
        spec, tg, P = self.SPECS[kind], TimeGrid(1.0, 3), SCENARIO_CHUNK + 70
        path = simulate_driver(spec, tg, ScenarioSet.monte_carlo(P, 5))
        values, jumps = whole_chunk_values(spec, tg, 5, P)
        assert np.array_equal(path.values, values)
        assert jumps is None or np.array_equal(path.jump_increments, jumps)

    def test_traced_peak_flat_in_scenarios(self):
        # beyond the (P, N + 1) values it returns, the simulation holds one block of the
        # budget's rows (1024 rows at N = 256); whole chunks held 2 * 8.4 MB more at P = 4096
        tg, over = TimeGrid(1.0, 256), {}
        block = drivers.block_rows(tg.n_steps * 8, SCENARIO_CHUNK)
        for P in (block, SCENARIO_CHUNK):
            sc = ScenarioSet.monte_carlo(P, 3)
            over[P] = (traced_peak(lambda: simulate_driver(DriverSpec("brownian"), tg, sc))
                       - P * (tg.n_steps + 1) * 8)
        assert over[SCENARIO_CHUNK] <= over[block] + 64 * 1024


class TestIncrementRowBlocks:
    """Row blocks of a chunk are the chunk's own draw, in order."""

    P = SCENARIO_CHUNK + 3  # crosses a chunk boundary

    @pytest.mark.parametrize("spec", [DriverSpec("brownian", d=2, vol=0.8),
                                      DriverSpec("fv_drift", drift=1.5),
                                      DriverSpec("mixture", vol=0.7, drift=-0.3)])
    @pytest.mark.parametrize("rows", [1, 7, 64, SCENARIO_CHUNK])
    def test_blocks_concatenate_to_whole_chunks(self, spec, rows):
        tg = TimeGrid(1.0, 5)
        whole = [inc for _, _, inc, _ in increment_blocks(spec, tg, 17, self.P)]
        bounds, blocks = [], []
        for lo, hi, inc, jumps in increment_blocks(spec, tg, 17, self.P, rows=rows):
            assert jumps is None and inc.shape == (hi - lo, 5, spec.d)
            assert hi - lo <= rows and lo // SCENARIO_CHUNK == (hi - 1) // SCENARIO_CHUNK
            bounds.append((lo, hi))
            blocks.append(inc)
        assert [hi for _, hi in bounds[:-1]] == [lo for lo, _ in bounds[1:]]
        assert bounds[0][0] == 0 and bounds[-1][1] == self.P
        assert np.array_equal(np.concatenate(blocks), np.concatenate(whole))

    @pytest.mark.parametrize("rows", [0, -1])
    def test_rows_must_be_positive(self, rows):
        with pytest.raises(ValueError):
            next(increment_blocks(DriverSpec("brownian"), TimeGrid(1.0, 4), 3, self.P, rows=rows))

    @pytest.mark.parametrize("spec", [
        DriverSpec("compound_poisson", jump_rate=2.0, jump_std=0.5),
        DriverSpec("mixture", vol=0.5, jump_rate=1.0, jump_mean=0.2)])
    def test_jump_driver_takes_whole_chunks_only(self, spec):
        tg = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            next(increment_blocks(spec, tg, 3, self.P, rows=SCENARIO_CHUNK - 1))
        lo, hi, _, jumps = next(increment_blocks(spec, tg, 3, self.P))
        assert (lo, hi) == (0, SCENARIO_CHUNK) and jumps is not None


def dense_chunks(spec, tg, seed, P):
    """Each chunk's increments drawn in one call of its generator, (P, N, d)."""
    chunk, dt = drivers.SCENARIO_CHUNK, tg.dt
    children = np.random.SeedSequence(seed).spawn(-(-P // chunk))
    out = []
    for c, child in enumerate(children):
        shape = (min(chunk, P - c * chunk), tg.n_steps, spec.d)
        inc = np.zeros(shape)
        if spec.kind in ("brownian", "mixture"):
            inc = np.random.default_rng(child).standard_normal(shape) * (spec.vol * math.sqrt(dt))
        if spec.kind in ("fv_drift", "mixture"):
            inc = inc + spec.drift * dt
        out.append(inc)
    return np.concatenate(out)


class TestChunkStreams:
    """Row blocks, streamed or per chunk, fresh or into a reused buffer, are the
    chunks' whole draws, at block and chunk boundaries anywhere."""

    @given(kind=st.sampled_from(["brownian", "fv_drift", "mixture"]), chunk=st.integers(1, 40),
           P=st.integers(1, 130), rows=st.integers(1, 50), N=st.integers(1, 6),
           d=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_row_blocks_equal_the_dense_chunk_draw(self, kind, chunk, P, rows, N, d):
        spec, tg = DriverSpec(kind, d=d, vol=0.7, drift=-0.3), TimeGrid(2.0, N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(drivers, "SCENARIO_CHUNK", chunk)
            expected = dense_chunks(spec, tg, 41, P)
            streamed = list(increment_blocks(spec, tg, 41, P, rows=rows))
            chunks = list(chunk_streams(spec, tg, 41, P, rows=rows))
        assert [(lo, hi) for lo, hi, _ in chunks] == [
            (lo, min(lo + chunk, P)) for lo in range(0, P, chunk)]
        for lo, hi, inc, jumps in streamed:
            assert jumps is None and 0 < hi - lo <= rows and lo // chunk == (hi - 1) // chunk
        assert np.array_equal(np.concatenate([inc for _, _, inc, _ in streamed]), expected)
        # chunks drawn last to first, each into one buffer reused by its blocks
        buf = np.full((rows, N, d), np.nan)
        for lo, hi, draws in reversed(chunks):
            for draw in draws():
                b_lo, b_hi, inc, _ = draw(buf)
                assert np.shares_memory(inc, buf) and lo <= b_lo < b_hi <= hi
                assert np.array_equal(inc, expected[b_lo:b_hi])


def counted(n_blocks, pulled):
    """A source of blocks 0..n_blocks-1, recording each one pulled; its generator
    raises if two threads advance it at once."""
    def blocks():
        for b in range(n_blocks):
            pulled.append(b)
            yield b

    stream = blocks()
    return lambda worker: next(stream, None)


def run_bounded(fn, timeout=30.0):
    """fn() on a thread joined with a timeout; returns what it raised, or None."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    t = threading.Thread(target=target)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "pull_blocks did not return"
    return raised[0] if raised else None


class TestPullBlocks:
    def test_workers_fit_the_cpus(self):
        assert 1 <= drivers.WORKERS <= min(2, len(os.sched_getaffinity(0)))

    def test_every_block_consumed_once_under_contention(self, monkeypatch):
        # more workers than cores, switching threads every microsecond
        monkeypatch.setattr(drivers, "WORKERS", 4)
        pulled, seen = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            err = run_bounded(lambda: pull_blocks(lambda w, b: seen.append((w, b)),
                                                  counted(2000, pulled)))
        finally:
            sys.setswitchinterval(interval)
        assert err is None
        assert pulled == list(range(2000))
        assert sorted(b for _, b in seen) == pulled
        assert {w for w, _ in seen} <= set(range(4))

    @pytest.mark.parametrize("failing", [0, 1])
    def test_consumer_error_reaches_the_caller_and_stops_the_pool(self, monkeypatch, failing):
        monkeypatch.setattr(drivers, "WORKERS", 2)
        pulled = []

        def consume(worker, block):
            if worker == failing:
                raise RuntimeError(f"block {block}")
            time.sleep(0.01)  # the other worker keeps pulling until it sees the error

        err = run_bounded(lambda: pull_blocks(consume, counted(1000, pulled)))
        assert isinstance(err, RuntimeError)
        assert len(pulled) < 100, len(pulled)  # 1000 if the other worker drew on

    def test_lead_runs_on_the_caller_while_worker_1_consumes(self, monkeypatch):
        monkeypatch.setattr(drivers, "WORKERS", 2)
        consumed, pulled, seen, threads = threading.Event(), [], [], {}

        def consume(worker, block):
            seen.append((worker, block))
            if worker == 1:
                consumed.set()

        def lead():
            threads["lead"] = threading.get_ident()
            assert consumed.wait(10), "worker 1 consumed nothing while the lead ran"

        def call():
            threads["caller"] = threading.get_ident()
            pull_blocks(consume, counted(50, pulled), lead)

        assert run_bounded(call) is None
        assert threads["lead"] == threads["caller"]
        assert sorted(b for _, b in seen) == pulled == list(range(50))

    def test_every_block_consumed_once_beside_a_lead(self, monkeypatch):
        monkeypatch.setattr(drivers, "WORKERS", 4)
        pulled, seen, leads = [], [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            err = run_bounded(lambda: pull_blocks(lambda w, b: seen.append(b),
                                                  counted(2000, pulled),
                                                  lambda: leads.append(time.sleep(0.01))))
        finally:
            sys.setswitchinterval(interval)
        assert err is None
        assert len(leads) == 1
        assert pulled == sorted(seen) == list(range(2000))

    def test_lead_error_reaches_the_caller_and_stops_the_pool(self, monkeypatch):
        monkeypatch.setattr(drivers, "WORKERS", 2)
        pulled, consuming = [], threading.Event()

        def consume(worker, block):
            consuming.set()
            time.sleep(0.01)  # worker 1 keeps pulling until it sees the error

        def lead():
            consuming.wait(10)
            raise RuntimeError("lead")

        err = run_bounded(lambda: pull_blocks(consume, counted(1000, pulled), lead))
        assert isinstance(err, RuntimeError) and str(err) == "lead"
        assert len(pulled) < 100, len(pulled)

    def test_one_worker_runs_the_lead_before_the_first_pull(self, monkeypatch):
        monkeypatch.setattr(drivers, "WORKERS", 1)
        events = []

        def blocks():
            for b in range(3):
                events.append(("pull", b))
                yield b

        stream = blocks()
        err = run_bounded(lambda: pull_blocks(lambda w, b: events.append(("consume", w, b)),
                                              lambda w: next(stream, None),
                                              lambda: events.append("lead")))
        assert err is None
        assert events == ["lead"] + [e for b in range(3) for e in (("pull", b), ("consume", 0, b))]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jump_driver_error_surfaces(self, monkeypatch, workers):
        monkeypatch.setattr(drivers, "WORKERS", workers)
        spec = DriverSpec("compound_poisson", jump_rate=2.0, jump_std=0.5)
        blocks = increment_blocks(spec, TimeGrid(1.0, 4), 3, 10, rows=8)
        with pytest.raises(ValueError, match="whole chunks"):
            pull_blocks(lambda w, b: None, lambda w: next(blocks, None))


class TestControlProcess:
    def test_brownian_control_is_time(self):
        path = brownian_path(P=3, N=10)
        np.testing.assert_allclose(path.control[0], path.timegrid.times, atol=1e-15)

    def test_fv_control_includes_variation(self):
        tg = TimeGrid(1.0, 4)
        v = control_process(DriverSpec("fv_drift", drift=-2.0), tg)
        np.testing.assert_allclose(v[0], (2.0 + 1e-9) * tg.times, atol=1e-15)
        assert np.all(np.diff(v[0]) > 0)

    def test_mixture_control_margin(self):
        # Monte Carlo check of the control inequality for the mixture formula
        tg = TimeGrid(4.0, 32)
        sc = ScenarioSet.monte_carlo(20_000, 5)
        spec = DriverSpec("mixture", vol=1.0, drift=0.5, jump_rate=1.0, jump_std=0.5)
        path = simulate_driver(spec, tg, sc)
        rng = np.random.default_rng(0)
        hs = [PredictablePath(rng.uniform(-1, 1, size=(1, 32, 1))) for _ in range(5)]
        tau = StoppingRule.never(sc, 32)
        report = control_inequality_check(path, path.control, hs, tau)
        assert report["min_margin"] >= -3 * report["min_margin_se"]


ONE_ROW_KINDS = {
    # spec, closed form of V_t / t, whether the drift variation jumps
    "brownian": (DriverSpec("brownian", vol=1.3), 1.3**2, False),
    "fv_drift": (DriverSpec("fv_drift", drift=-0.7), 0.7 + 1e-9, False),
    "compound_poisson": (DriverSpec("compound_poisson", jump_rate=2.0, jump_mean=0.3, jump_std=0.5),
                         4.0 * (1.0 + 2.0 * (0.3**2 + 0.5**2)), True),
    "mixture": (DriverSpec("mixture", vol=0.8, drift=0.4, jump_rate=1.5, jump_std=0.6),
                4.0 * (0.8**2 + 0.4 + 1.5 * 0.6**2), True),
}


class TestOneRowDeterministicPaths:
    """The control, the bracket and a continuous drift variation are one row."""

    P, N = 6, 10

    def simulate(self, kind):
        spec = ONE_ROW_KINDS[kind][0]
        return simulate_driver(spec, TimeGrid(2.0, self.N), ScenarioSet.monte_carlo(self.P, 23))

    @pytest.mark.parametrize("kind", sorted(ONE_ROW_KINDS))
    def test_control_is_one_closed_form_row(self, kind):
        S = self.simulate(kind)
        rate = ONE_ROW_KINDS[kind][1]
        assert S.control.shape == (1, self.N + 1)
        np.testing.assert_allclose(S.control[0], rate * S.timegrid.times, rtol=1e-15, atol=0)
        assert np.array_equal(control_process(S.spec, S.timegrid), S.control)

    @pytest.mark.parametrize("kind", sorted(ONE_ROW_KINDS))
    def test_bracket_one_row_variation_rows_follow_the_jumps(self, kind):
        S = self.simulate(kind)
        qv, var_a = S.decomposition_paths()
        assert qv.shape == (1, self.N + 1)
        jumps = ONE_ROW_KINDS[kind][2]
        assert var_a.shape == ((self.P if jumps else 1), self.N + 1)

    def test_left_limit_equals_index_expression(self):
        rng = np.random.default_rng(31)
        tau = StoppingRule(rng.integers(0, self.N + 2, size=self.P), self.N)
        one = rng.uniform(size=(1, self.N + 1))
        many = rng.uniform(size=(self.P, self.N + 1))
        assert np.array_equal(tau.left_limit(one), one[np.zeros(self.P, int), tau.pre_index()])
        assert np.array_equal(tau.left_limit(many), many[np.arange(self.P), tau.pre_index()])
        assert tau.left_limit(one).shape == tau.left_limit(many).shape == (self.P,)

    def test_localizing_one_row_control_gives_every_scenario_an_index(self):
        S = self.simulate("brownian")
        levels = [0.5, 2.0, 100.0]
        one_row = S.control[:1]
        dense = np.broadcast_to(one_row, (self.P, self.N + 1))
        for rule, dense_rule in zip(localizing_sequence(one_row, levels, S.scenarios),
                                    localizing_sequence(dense, levels, S.scenarios)):
            assert rule.indices.shape == (self.P,)
            assert np.array_equal(rule.indices, dense_rule.indices)


class TestItoIntegral:
    def test_constant_one_recovers_path(self):
        path = brownian_path(P=20, N=32)
        H = PredictablePath(np.ones((1, 32, 1)))
        out = ito_integral(H, path)
        np.testing.assert_allclose(out, path.values[:, :, 0], atol=1e-12)

    def test_indicator_rectangle(self):
        # H = I_{A x (t_a, t_b]} gives I_A (S_{t_b ^ t} - S_{t_a ^ t})
        path = brownian_path(P=50, N=16)
        a, b = 4, 9
        mask = path.values[:, a, 0] > 0.0  # F_{t_a}-measurable event
        vals = np.zeros((50, 16, 1))
        vals[mask, a:b, 0] = 1.0
        out = ito_integral(PredictablePath(vals), path)
        S = path.values[:, :, 0]
        for ell in range(17):
            expect = mask * (S[:, min(b, ell)] - S[:, min(a, ell)])
            np.testing.assert_allclose(out[:, ell], expect, atol=1e-12)

    def test_linearity_exact(self):
        path = brownian_path(P=10, N=8)
        rng = np.random.default_rng(1)
        H = PredictablePath(rng.normal(size=(10, 8, 1)))
        doubled = PredictablePath(2.0 * H.values)
        assert np.array_equal(ito_integral(doubled, path), 2.0 * ito_integral(H, path))

    def test_stopped_consistency_exact(self):
        # integrating H against the frozen driver == integrating masked H
        path = brownian_path(P=30, N=16)
        rng = np.random.default_rng(2)
        H = PredictablePath(rng.normal(size=(30, 16, 1)))
        tau = StoppingRule(rng.integers(0, 18, size=30), 16)
        frozen = ito_integral(H, stopped_driver(path, tau))
        masked = PredictablePath(H.values * tau.increment_mask()[:, :, None])
        assert np.array_equal(frozen, ito_integral(masked, path))  # at every time

    def test_grid_mismatch(self):
        path = brownian_path(N=8)
        with pytest.raises(ValueError):
            ito_integral(PredictablePath(np.ones((1, 9, 1))), path)


class TestStoppedDriver:
    """``helpers.stopped_driver``: the driver frozen strictly before tau, whose increments are the
    driver's times the rule's mask, bit for bit."""

    @given(kind=st.sampled_from(["monte_carlo", "jumps", "tree"]), d=st.integers(1, 2),
           N=st.integers(1, 6), never=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_masked_increments_and_values_held_at_the_pre_index(self, kind, d, N, never, seed):
        rng = np.random.default_rng(seed)
        tg = TimeGrid(1.0, N)
        if kind == "tree":
            sc, spec = ScenarioSet.tree(2, N), DriverSpec("mixture", d=d, drift=0.3)
        else:
            sc = ScenarioSet.monte_carlo(int(rng.integers(1, 40)), seed)
            spec = (DriverSpec("mixture", d=d, drift=0.3, jump_rate=4.0, jump_mean=0.5,
                               jump_std=1.0) if kind == "jumps" else DriverSpec("brownian", d=d))
        S = simulate_driver(spec, tg, sc)
        P = sc.n_scenarios
        if never:
            tau = StoppingRule.never(sc, N)
        elif sc.is_tree:  # a first passage of |S|, so a stopping time
            hit = np.abs(S.values[:, :, 0]) >= rng.uniform(0.0, 1.5)
            tau = StoppingRule(np.where(hit.any(axis=1), hit.argmax(axis=1), N + 1), N)
            check_stopping_time(tau, sc)
        else:
            tau = StoppingRule(rng.integers(0, N + 2, size=P), N)
        S_pre = stopped_driver(S, tau)
        mask = tau.increment_mask()[:, :, None]
        assert S_pre.increments.tobytes() == (S.increments * mask).tobytes()
        assert not S_pre.increments.flags.writeable
        for ell in range(N + 1):
            held = np.minimum(ell, tau.pre_index())
            assert np.array_equal(S_pre.values[:, ell], S.values[np.arange(P), held])
        if never:
            assert S_pre.increments.tobytes() == S.increments.tobytes()
        if S.jump_increments is not None:
            assert S_pre.jump_increments.tobytes() == (S.jump_increments * mask).tobytes()
        with pytest.raises(ValueError, match="grid mismatch"):
            stopped_driver(S, StoppingRule.never(sc, N + 1))
        with pytest.raises(ValueError, match="grid mismatch"):  # one rule row too many
            stopped_driver(S, StoppingRule(np.full(P + 1, N), N))

    def test_a_rule_that_peeks_ahead_is_not_adapted(self):
        # on a binary tree, stopping at time 1 (so freezing at 0) where the second step goes up
        tg, sc = TimeGrid(1.0, 2), ScenarioSet.tree(2, 2)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        tau = StoppingRule(np.where(sc.digits()[:, 1] == 1, 1, 3), 2)
        with pytest.raises(AssertionError, match="not adapted"):
            stopped_driver(S, tau)


class TestEnergyIntegral:
    def test_constant_one_gives_increment(self):
        A = np.array([[0.0, 0.5, 0.75, 2.0]])
        out = energy_integral(np.ones((1, 3)), A)
        np.testing.assert_array_equal(out, A - A[:, :1])

    def test_zero_integrand(self):
        A = np.array([[0.0, 1.0, 2.0]])
        assert np.all(energy_integral(np.zeros((1, 2)), A) == 0.0)

    def test_additivity_exact_on_dyadic_values(self):
        rng = np.random.default_rng(9)
        H = rng.integers(-4, 5, size=(3, 8)) / 4.0
        incA = rng.integers(0, 5, size=(3, 8)) / 8.0
        incB = rng.integers(0, 5, size=(3, 8)) / 8.0
        A = np.concatenate([np.zeros((3, 1)), np.cumsum(incA, axis=1)], axis=1)
        B = np.concatenate([np.zeros((3, 1)), np.cumsum(incB, axis=1)], axis=1)
        assert np.array_equal(
            energy_integral(H, A + B), energy_integral(H, A) + energy_integral(H, B)
        )

    def test_decreasing_integrator_rejected(self):
        A = np.array([[0.0, 1.0, 0.5]])
        with pytest.raises(ValueError):
            energy_integral(np.ones((1, 2)), A)

    def test_power_law_d_path_converges(self):
        # left sums of (T - r)^{2a} approach T^{2a+1}/(2a+1) at rate dt
        T, alpha = 1.0, 1.0
        for N in (256, 1024):
            t = np.linspace(0, T, N + 1)
            H = ((T - t[:-1]) ** alpha)[None, :]
            out = energy_integral(H, t[None, :])
            assert abs(out[0, -1] - 1.0 / 3.0) < 1.0 / N


class TestStoppingWeights:
    def test_tau_zero_all_weights_vanish(self):
        sc = ScenarioSet.monte_carlo(4, 0)
        V = np.tile(np.linspace(0, 1, 6), (4, 1))
        tau = StoppingRule(np.full(sc.n_scenarios, 0), 5)
        assert np.all(stopping_weights(tau, V, sc) == 0.0)

    def test_tree_hand_enumeration(self):
        # two scenarios, one step: weights are prob * V_pre * dV by hand
        sc = ScenarioSet.tree(2, 1)
        V = np.array([[0.0, 1.0], [0.0, 2.0]])
        tau = StoppingRule.never(sc, 1)
        w = stopping_weights(tau, V, sc)
        np.testing.assert_allclose(w, [[0.5 * 1.0 * 1.0], [0.5 * 2.0 * 2.0]])
        H = np.array([[3.0], [4.0]])
        assert weighted_sq_norm(w, H) == pytest.approx(0.5 * 9 + 2.0 * 16)  # = 36.5

    def test_bounded_process_bound(self):
        rng = np.random.default_rng(3)
        sc = ScenarioSet.monte_carlo(50, 0)
        inc = rng.uniform(0, 0.3, size=(50, 10))
        V = np.concatenate([np.zeros((50, 1)), np.cumsum(inc, axis=1)], axis=1)
        tau = StoppingRule(rng.integers(0, 12, size=50), 10)
        C = 2.5
        H = rng.uniform(-C, C, size=(50, 10))
        w = stopping_weights(tau, V, sc)
        v_pre = V[np.arange(50), tau.pre_index()]
        bound = C**2 * np.mean(v_pre * (v_pre - V[:, 0]))
        assert weighted_sq_norm(w, H) <= bound + 1e-12


class TestLocalizingSequence:
    def test_bounded_path_never_stops(self):
        sc = ScenarioSet.monte_carlo(3, 0)
        V = np.tile(np.linspace(0, 0.9, 5), (3, 1))
        (tau,) = localizing_sequence(V, [1.0], sc)
        assert np.all(tau.indices == 5)

    def test_deterministic_threshold(self):
        sc = ScenarioSet.monte_carlo(2, 0)
        t = np.linspace(0, 1, 11)
        V = np.tile(t, (2, 1))
        (tau,) = localizing_sequence(V, [0.5], sc)
        assert np.all(tau.indices == 5)

    def test_monotone_coverage(self):
        rng = np.random.default_rng(8)
        sc = ScenarioSet.monte_carlo(500, 0)
        inc = rng.exponential(0.2, size=(500, 20))
        V = np.concatenate([np.zeros((500, 1)), np.cumsum(inc, axis=1)], axis=1)
        rules = localizing_sequence(V, [1.0, 2.0, 4.0], sc)
        never_frac = [np.mean(r.indices == r.n_steps + 1) for r in rules]
        assert never_frac[0] <= never_frac[1] <= never_frac[2]

    def test_tree_rules_are_stopping_times(self):
        tg = TimeGrid(4.0, 3)
        sc = ScenarioSet.tree(2, 3)
        path = simulate_driver(DriverSpec("brownian"), tg, sc)
        running_max = np.maximum.accumulate(np.abs(path.values[:, :, 0]), axis=1)
        for rule in localizing_sequence(running_max, [0.5, 1.5], sc):
            check_stopping_time(rule, sc)  # raises on failure


class TestControlInequality:
    def test_zero_integrand(self):
        path = brownian_path(P=10, N=8)
        tau = StoppingRule.never(path.scenarios, 8)
        rep = control_inequality_check(path, path.control, [PredictablePath(np.zeros((1, 8, 1)))], tau)
        assert rep["per_integrand"][0]["lhs"] == 0.0
        assert rep["per_integrand"][0]["rhs"] == 0.0

    def test_brownian_margin_positive_at_T4(self):
        tg = TimeGrid(4.0, 64)
        sc = ScenarioSet.monte_carlo(20_000, 13)
        path = simulate_driver(DriverSpec("brownian"), tg, sc)
        tau = StoppingRule.never(sc, 64)
        H = PredictablePath(np.ones((1, 64, 1)))
        rep = control_inequality_check(path, path.control, [H], tau)
        row = rep["per_integrand"][0]
        assert row["margin"] > 3 * row["se"]

    def test_drift_driver_margin(self):
        tg = TimeGrid(2.0, 32)
        sc = ScenarioSet.monte_carlo(5_000, 21)
        path = simulate_driver(DriverSpec("fv_drift", drift=0.7), tg, sc)
        rng = np.random.default_rng(4)
        hs = [PredictablePath(rng.uniform(-1, 1, size=(1, 32, 1))) for _ in range(20)]
        tau = StoppingRule.never(sc, 32)
        rep = control_inequality_check(path, path.control, hs, tau)
        assert rep["min_margin"] >= -3 * rep["min_margin_se"]

    def test_one_mask_for_all_integrands(self, monkeypatch):
        path = brownian_path(P=300, N=16, T=4.0)
        rng = np.random.default_rng(6)
        hs = [PredictablePath(rng.uniform(-1, 1, size=(1, 16, 1))) for _ in range(4)]
        hs.append(PredictablePath(rng.normal(size=(300, 16, 1))))
        tau = StoppingRule(rng.integers(0, 18, size=300), 16)
        # the per-integrand path: one ito_integral, so one mask, per integrand
        probs, v_pre = path.scenarios.probs, tau.left_limit(path.control)
        expected = []
        for H in hs:
            lhs_p = np.max(ito_integral(H, stopped_driver(path, tau)) ** 2, axis=1)
            rhs_p = v_pre * tau.left_limit(energy_integral(H, path.control))
            diff = rhs_p - lhs_p
            mean_diff = float(probs @ diff)
            se = math.sqrt(float(probs @ (diff - mean_diff) ** 2) / len(diff))
            lhs, rhs = float(probs @ lhs_p), float(probs @ rhs_p)
            expected.append({"lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "se": se})
        masks = []
        original = StoppingRule.increment_mask

        def counting(self):
            masks.append(1)
            return original(self)

        monkeypatch.setattr(StoppingRule, "increment_mask", counting)
        rep = control_inequality_check(path, path.control, hs, tau)
        assert len(masks) == 1
        assert rep["per_integrand"] == expected  # bit for bit
        for rows in (1, 7, 256):  # blocks of scenarios that split the 300 unevenly
            blocked = control_inequality_check(path, path.control, hs, tau, rows=rows)
            assert blocked["per_integrand"] == expected

    def test_integrand_must_match_the_driver(self):
        path = brownian_path(P=4, N=8)
        tau = StoppingRule.never(path.scenarios, 8)
        for bad in (np.ones((1, 9, 1)), np.ones((1, 8, 2))):
            with pytest.raises(ValueError):
                control_inequality_check(path, path.control, [PredictablePath(bad)], tau)


class TestPredictablePath:
    def test_tree_adaptedness_check(self):
        sc = ScenarioSet.tree(2, 2)
        rng = np.random.default_rng(0)  # slot j: one uniform per level-j atom
        good = PredictablePath(np.stack([rng.uniform(-1, 1, sc.atom_ids(j)[-1] + 1)[sc.atom_ids(j)]
                                         for j in range(2)], axis=1)[:, :, None])
        check_adapted(good, sc)
        bad = PredictablePath(np.arange(8.0).reshape(4, 2, 1))
        with pytest.raises(AssertionError):
            check_adapted(bad, sc)

    def test_tree_probabilities(self):
        sc = ScenarioSet.tree(3, 2)
        assert sc.n_scenarios == 9
        assert sc.probs.sum() == pytest.approx(1.0)
        assert sc.atom_ids(1)[-1] + 1 == 3
        assert sc.atom_ids(2)[-1] + 1 == 9


class TestWeightIdentity:
    def test_weighted_norm_matches_expectation_form(self):
        # weighted sum of |H|^2 equals E[V_pre * energy-before-tau]
        rng = np.random.default_rng(12)
        sc = ScenarioSet.monte_carlo(40, 0)
        inc = rng.uniform(0, 0.5, size=(40, 12))
        V = np.concatenate([np.zeros((40, 1)), np.cumsum(inc, axis=1)], axis=1)
        tau = StoppingRule(rng.integers(0, 14, size=40), 12)
        H = rng.normal(size=(40, 12))
        w = stopping_weights(tau, V, sc)
        lhs = weighted_sq_norm(w, H)
        masked = H * tau.increment_mask()
        energy = energy_integral(masked, V)
        v_pre = V[np.arange(40), tau.pre_index()]
        d_pre = energy[np.arange(40), tau.pre_index()]
        rhs = float(sc.probs @ (v_pre * d_pre))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestLocalizingWithAuxiliaryPath:
    def test_extra_path_triggers_earlier_stop(self):
        sc = ScenarioSet.monte_carlo(3, 0)
        t = np.linspace(0, 1, 9)
        V = np.tile(t, (3, 1))  # reaches 1.0 only at the end
        extra = np.tile(np.linspace(0, 4, 9), (3, 1))  # reaches 1.0 at index 2
        (tau_v,) = localizing_sequence(V, [1.0], sc)
        (tau_both,) = localizing_sequence(V, [1.0], sc, extra=extra)
        assert np.all(tau_v.indices == 8)
        assert np.all(tau_both.indices == 2)


class TestTreeFault:
    """``drivers.tree_fault`` is the one rule for a driver on a tree: simulation raises its
    message, which names the config key at fault."""

    @pytest.mark.parametrize("spec, branching, depth, key", [
        (DriverSpec("compound_poisson"), 2, 3, "driver.kind"),
        (DriverSpec("mixture", jump_rate=0.5), 2, 3, "driver.jump_rate"),
        (DriverSpec("brownian"), 2, 2, "scenarios.depth"),
        (DriverSpec("brownian"), 4, 3, "scenarios.branching"),
    ])
    def test_simulation_raises_the_fault(self, spec, branching, depth, key):
        fault = drivers.tree_fault(spec, 3, branching, depth)
        assert fault.startswith(f"{key} is ")
        with pytest.raises(ValueError) as raised:
            simulate_driver(spec, TimeGrid(1.0, 3), ScenarioSet.tree(branching, depth))
        assert str(raised.value) == fault

    @pytest.mark.parametrize("branching", [2, 3])
    def test_a_fitting_driver_has_none(self, branching):
        assert drivers.tree_fault(DriverSpec("mixture", drift=0.3), 3, branching, 3) is None


class TestTreeBranchProbabilities:
    def test_custom_branch_weights(self):
        sc = ScenarioSet.tree(2, 2, level_probs=[0.25, 0.75])
        assert sc.probs.sum() == pytest.approx(1.0)
        # scenario 0 takes the low branch twice, last scenario the high twice
        assert sc.probs[0] == pytest.approx(0.0625)
        assert sc.probs[-1] == pytest.approx(0.5625)

    def test_invalid_branch_weights(self):
        with pytest.raises(ValueError):
            ScenarioSet.tree(2, 2, level_probs=[0.4, 0.4])


def _is_measurable_loop(sc, values, level, tol=0.0):
    """Reference: one boolean mask per atom, O(P) each."""
    ids = sc.atom_ids(level)
    v = np.asarray(values)
    for a in range(ids[-1] + 1):
        block = v[ids == a]
        if np.any(np.abs(block - block[0]) > tol):
            return False
    return True


class TestIsMeasurable:
    @pytest.mark.parametrize("branching, depth, d", [(2, 7, 1), (3, 4, 2)])
    def test_matches_per_atom_loop(self, branching, depth, d):
        rng = np.random.default_rng(branching * 10 + depth)
        sc = ScenarioSet.tree(branching, depth)
        tol = 1e-3
        for level in range(depth + 1):
            ids = sc.atom_ids(level)
            base = rng.normal(size=(ids[-1] + 1, d))[ids]
            noisy = base + rng.uniform(-tol / 2, tol / 2, size=base.shape)
            cases = [(base[:, 0], 0.0), (base, 0.0), (noisy, 0.0), (noisy, tol),
                     (rng.normal(size=base.shape), tol)]
            for shift in (0.5 * tol, 3.0 * tol):
                bumped = base.copy()
                bumped[rng.integers(sc.n_scenarios), rng.integers(d)] += shift
                cases += [(bumped, tol), (bumped, 0.0)]
            for values, t in cases:
                assert sc.is_measurable(values, level, tol=t) == _is_measurable_loop(
                    sc, values, level, tol=t)

    def test_single_scenario_perturbation_at_deepest_atoms(self):
        sc = ScenarioSet.tree(2, 6)
        level = sc.depth - 1  # atoms are pairs of scenarios
        values = np.repeat(np.arange(sc.n_scenarios // 2, dtype=float), 2)
        assert sc.is_measurable(values, level)
        for p in (0, 1, sc.n_scenarios // 2 + 1, sc.n_scenarios - 1):
            bumped = values.copy()
            bumped[p] += 1e-6
            assert not sc.is_measurable(bumped, level)
            assert not _is_measurable_loop(sc, bumped, level)
            assert sc.is_measurable(bumped, level, tol=2e-6)
            assert sc.is_measurable(bumped, sc.depth)  # singleton atoms

    def test_rejects_wrong_length_and_monte_carlo(self):
        sc = ScenarioSet.tree(2, 3)
        with pytest.raises(ValueError):
            sc.is_measurable(np.zeros(4), 1)
        with pytest.raises(ValueError):
            ScenarioSet.monte_carlo(8, 0).is_measurable(np.zeros(8), 1)


class TestIncrementsCache:
    def test_computed_once_and_read_only(self):
        path = brownian_path(P=4, N=8)
        first = path.increments
        assert path.increments is first
        assert np.array_equal(first, np.diff(path.values, axis=1))
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0


class TestDriverPathView:
    """``DriverPath.view``: a block of scenario rows as a driver path of its own."""

    def test_rows_share_the_ensemble_arrays(self):
        spec = DriverSpec("mixture", jump_rate=3.0, jump_mean=0.1, jump_std=0.4)
        S = simulate_driver(spec, TimeGrid(2.0, 12), ScenarioSet.monte_carlo(9, 5))
        view = S.view(2, 6)
        assert view.values.base is not None and np.shares_memory(view.values, S.values)
        assert np.array_equal(view.values, S.values[2:6])
        assert np.array_equal(view.jump_increments, S.jump_increments[2:6])
        assert np.shares_memory(view.jump_increments, S.jump_increments)
        assert view.control is S.control and (view.spec, view.timegrid) == (S.spec, S.timegrid)
        assert view.scenarios.n_scenarios == 4 and view.scenarios.mode == "rows"
        assert np.allclose(view.scenarios.probs, 0.25)
        assert np.array_equal(view.increments, np.diff(S.values[2:6], axis=1))  # the view's own
        assert "increments" not in S.__dict__
        assert np.array_equal(view.increments, S.increments[2:6])
        S.increments  # once read, the views share it
        assert np.shares_memory(S.view(0, 3).increments, S.increments)
        assert S.view(7, 100).scenarios.n_scenarios == 2  # hi is clipped to P
        for lo, hi in [(-1, 3), (3, 3), (9, 12)]:
            with pytest.raises(ValueError):
                S.view(lo, hi)

    def test_tree_rows_take_conditional_probabilities_unchecked(self, monkeypatch):
        sc = ScenarioSet.tree(2, 4, level_probs=[0.3, 0.7])
        S = simulate_driver(DriverSpec("brownian"), TimeGrid(4.0, 4), sc)

        def no_check(*args):
            raise AssertionError("the adaptedness check ran again")

        monkeypatch.setattr(ScenarioSet, "is_measurable", no_check)
        view = S.view(4, 12)
        assert np.array_equal(view.values, S.values[4:12]) and not view.scenarios.is_tree
        assert np.allclose(view.scenarios.probs, sc.probs[4:12] / sc.probs[4:12].sum())


class TestRunningSum:
    @pytest.mark.parametrize("shape", [(5, 9), (4, 7, 3)])
    def test_zero_row_then_cumsum(self, shape):
        x = np.random.default_rng(1).normal(size=shape)
        out = running_sum(x)
        assert out.shape == (shape[0], shape[1] + 1) + shape[2:]
        assert np.all(out[:, 0] == 0.0)
        zero_row = np.zeros((shape[0], 1) + shape[2:])
        assert np.array_equal(out, np.concatenate([zero_row, np.cumsum(x, axis=1)], axis=1))
