"""Net-indexed processes: a (table, index) pair read block by block through ``rows``, against
its dense twin ``MeasureProcess("kernel", grid, phi.weights)``."""

import gc
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvstoch import integrands, mvintegral
from mvstoch.drivers import DriverSpec, ScenarioSet, StoppingRule, TimeGrid, simulate_driver
from mvstoch.grid import CompactGrid, build_test_family
from mvstoch.integrands import (
    MeasureProcess,
    _distinct_rows,
    approximate_elementary,
    project_to_net,
    random_lattice_process,
    truncate,
    variation_path,
    weak_star_net,
)
from mvstoch.mvintegral import charge_blocks, convergence_transfer_check, fubini_check, paired_charge


def same(a, b) -> bool:
    """Byte equality: shape, dtype and every bit, signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def twin(phi: MeasureProcess) -> MeasureProcess:
    return MeasureProcess("kernel", phi.grid, phi.weights)


def reachable_arrays(*roots) -> list[np.ndarray]:
    """Every ndarray reachable from the roots, bases included; types, modules and functions
    are not followed."""
    seen, stack, arrays = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
            stack.extend(getattr(obj, "__dict__", {}).values())
    return arrays


class TestRows:
    def setup_method(self):
        self.grid = CompactGrid(1.0, 3)
        self.table = np.random.default_rng(0).normal(size=(5, 2, 4))

    def test_dense_rows_are_views(self):
        w = np.random.default_rng(1).normal(size=(6, 3, 2, 4))
        phi = MeasureProcess("kernel", self.grid, w)
        assert phi.rows(2, 4).base is w and np.array_equal(phi.rows(2, 4), w[2:4])
        assert phi.rows().base is w and phi.weights is w

    def test_indexed_rows_gather_the_table(self):
        index = np.random.default_rng(2).integers(0, 5, size=(6, 3))
        phi = MeasureProcess("kernel", self.grid, self.table, index=index)
        assert phi.shape == (6, 3, 2, 4) and (phi.n_steps, phi.d, phi.is_random) == (3, 2, True)
        assert same(phi.weights, self.table[index])
        for lo, hi in [(0, 6), (2, 4), (5, None), (0, 1)]:
            assert same(phi.rows(lo, hi), phi.weights[lo:hi])

    def test_one_row_reads_its_row_for_any_range(self):
        for phi in (MeasureProcess("kernel", self.grid, self.table, index=[[4, 0, 4]]),
                    MeasureProcess("kernel", self.grid, self.table[None, [4, 0, 4]])):
            assert not phi.is_random
            assert same(phi.rows(3, 5), phi.weights) and phi.rows(3, 5).shape == (1, 3, 2, 4)

    @pytest.mark.parametrize("table, index", [((5, 2, 4), None), ((1, 3, 2, 4), (1, 3)),
                                              ((5, 2, 4), (3,)), ((5, 2, 3), (1, 3))])
    def test_malformed_shapes_rejected(self, table, index):
        with pytest.raises(ValueError, match="on the grid"):
            MeasureProcess("kernel", self.grid, np.zeros(table),
                           index=None if index is None else np.zeros(index, dtype=int))


class TestMeasures:
    """``integrands._measures``: a dense process as a table of its distinct measure vectors and
    an index, which gathers the payload back bit for bit; an indexed one as its own."""

    NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.int64).view(float)

    @given(kind=st.sampled_from(["tree", "monte_carlo", "one-row"]), N=st.integers(1, 5),
           P=st.integers(1, 30), d=st.integers(1, 2), J=st.integers(1, 5),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_table_and_index_rebuild_the_payload(self, kind, N, P, d, J, seed):
        # rows repeat over consecutive scenarios (on a tree, over an atom; on Monte Carlo
        # scenarios, rows drawn sorted); levels include both zeros and NaNs of two payloads,
        # and single cells then flip sign or turn NaN
        rng = np.random.default_rng(seed)
        levels = np.concatenate(([-0.5, 0.0, -0.0, 0.5], self.NANS))

        def draw(*shape):
            return rng.choice(levels, size=shape + (d, J + 1), p=[0.3, 0.2, 0.2, 0.24, 0.03, 0.03])

        if kind == "tree":
            sc = ScenarioSet.tree(2, N)
            w = np.stack([draw(sc.atom_ids(j)[-1] + 1)[sc.atom_ids(j)] for j in range(N)], axis=1)
        else:
            Q = 1 if kind == "one-row" else P
            w = draw(Q, N)[np.sort(rng.integers(0, Q, size=Q))]
        w[rng.random(w.shape) < 0.05] *= -1.0
        w[rng.random(w.shape) < 0.02] = rng.choice(self.NANS)
        grid = CompactGrid(1.0, J)
        table, index = integrands._measures(MeasureProcess("kernel", grid, w))
        assert index.shape == w.shape[:2]  # (1, N) for a one-row process
        assert same(table[index], w)
        assert len({row.tobytes() for row in table}) == len(table)
        indexed = MeasureProcess("kernel", grid, table, index=index)
        got = integrands._measures(indexed)
        assert got[0] is indexed.table and got[1] is indexed.index


class TestDenseTwin:
    """Every reader draws the indexed process's blocks with the dense twin's values, so every
    output of the approximation pipeline and of the charge is byte-equal to the twin's."""

    # From J + 1 = 32 on, OpenBLAS rounds a row by its place in a product, but only where the
    # pairing rounds: a hat (the first J + 1 members) picks one atom, and a net element of a
    # pool of at most 25 has at most 3 nonzero atoms.  So K reaches past J + 1, and the
    # "uniform" table puts values that round at every atom: at J + 1 = 34, K = 37, as in the
    # example, reversing a 5-row product changes 17 % of its rows (none at K = 12).
    @example(tree=True, d=1, one_row=False, N=5, P=1, J=33, K=37, values="uniform", pool=25,
             bites=True, block_entries=2**18, eval_entries=2**15, seed=0)
    @given(tree=st.booleans(), d=st.integers(1, 2), one_row=st.booleans(), N=st.integers(1, 5),
           P=st.integers(1, 30), J=st.sampled_from([1, 2, 3, 4, 5, 33, 40]), K=st.integers(1, 40),
           values=st.sampled_from(["net", "uniform"]), pool=st.integers(1, 25),
           bites=st.booleans(), block_entries=st.sampled_from([1, 37, 400, 2**18]),
           eval_entries=st.sampled_from([1, 29, 300, 2**15]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_byte_equal_to_the_dense_twin(self, tree, d, one_row, N, P, J, K, values, pool,
                                          bites, block_entries, eval_entries, seed):
        rng = np.random.default_rng(seed)
        sc = ScenarioSet.tree(2, N) if tree else ScenarioSet.monte_carlo(P, seed)
        tg, grid = TimeGrid(1.0, N), CompactGrid(1.0, J)
        fam = build_test_family(grid, K)
        S = simulate_driver(DriverSpec("brownian", d=d), tg, sc)
        phi = random_lattice_process(grid, tg, sc, rng, c=1.0, d=d, pool_size=pool)
        table = phi.table if values == "net" else rng.uniform(-0.5, 0.5, size=phi.table.shape)
        phi = MeasureProcess("kernel", grid, table, index=phi.index[:1] if one_row else phi.index)
        dense = twin(phi)
        nets = [weak_star_net(1.0, n, grid, d=d) for n in (3, 12, 40)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mvintegral, "BLOCK_ENTRIES", block_entries)  # fubini's scenarios per block
            mp.setattr(integrands, "PAIR_ENTRIES", block_entries)  # the charge's times per block
            mp.setattr(integrands, "EVAL_ENTRIES", eval_entries)
            got = [(t, b.copy()) for t, b in charge_blocks(phi, S)]
            want = [(t, b.copy()) for t, b in charge_blocks(dense, S)]
            assert [t for t, _ in got] == [t for t, _ in want]
            assert all(same(a, b) for (_, a), (_, b) in zip(got, want))
            assert same(paired_charge(phi, S, fam.functions), paired_charge(dense, S, fam.functions))
            checks = [fubini_check(q, S, fam) for q in (phi, dense)]
            assert checks[0]["regular"] == checks[1]["regular"]
            assert checks[0]["general"] == checks[1]["general"]
            assert same(variation_path(phi), variation_path(dense))
            assert all(same(a, b) for a, b in zip(_distinct_rows(phi, fam.functions),
                                                   _distinct_rows(dense, fam.functions)))
            projections = []
            for net in nets:
                (proj, *got), (_, *want) = project_to_net(phi, net, fam), project_to_net(dense, net, fam)
                assert all(same(a, b) for a, b in zip(got, want))
                projections.append(proj)
            if tree:  # rectangles need explicit filtration atoms
                tau = StoppingRule.never(sc, N)
                top = float(np.max(variation_path(phi)))
                c = 0.5 * top if bites and top > 0 else None
                results = [approximate_elementary(q, tau, S.control, fam, sc, schedule=(3, 12, 40), c=c)
                           for q in (phi, dense)]
                assert results[0].reports == results[1].reports
                assert results[0].constant == results[1].constant
                projections = results[0].processes
            gaps = convergence_transfer_check(phi, projections, S, fam)
            assert gaps == convergence_transfer_check(dense, [twin(q) for q in projections], S, fam)


class TestTruncate:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("c", [0.3, 0.5, 0.9])
    def test_stays_indexed_and_equals_the_dense_truncation(self, d, c):
        # at approx-tree's shape: the ball bites, and the truncated table rows under the same
        # index are the dense twin's truncation, byte for byte, with the same distinct rows
        sc, tg, grid = ScenarioSet.tree(2, 12), TimeGrid(4.0, 12), CompactGrid(1.0, 4)
        fam = build_test_family(grid, grid.n_atoms + 2**grid.n_atoms)
        phi = random_lattice_process(grid, tg, sc, np.random.default_rng(2024), d=d)
        got, want = truncate(phi, c), truncate(twin(phi), c)
        assert got is not phi and got.index is phi.index and got.table.shape == phi.table.shape
        assert same(got.weights, want.weights)
        assert all(same(a, b) for a, b in zip(_distinct_rows(got, fam.functions),
                                               _distinct_rows(want, fam.functions)))


class TestBenchShape:
    """approx-tree's shape: a depth-12 binary tree (P = 4096), N = 12, J = 4, the default
    37-member family and the schedule (4, 16, 64)."""

    def test_no_payload_held_or_materialized(self, monkeypatch):
        sc, tg, grid = ScenarioSet.tree(2, 12), TimeGrid(4.0, 12), CompactGrid(1.0, 4)
        S = simulate_driver(DriverSpec("brownian"), tg, sc)
        fam = build_test_family(grid, grid.n_atoms + 2**grid.n_atoms)
        phi = random_lattice_process(grid, tg, sc, np.random.default_rng(2035))

        def materialized(self):
            raise AssertionError("a dense payload was materialized")

        tracemalloc.start()
        try:
            with monkeypatch.context() as mp:
                mp.setattr(MeasureProcess, "weights", property(materialized))
                result = approximate_elementary(phi, StoppingRule.never(sc, 12), S.control, fam,
                                                sc, schedule=(4, 16, 64), c=1.0)
                peak = tracemalloc.get_traced_memory()[1]
                gaps = convergence_transfer_check(phi, result.processes, S, fam)
        finally:
            tracemalloc.stop()
        assert result.converged and gaps[-1] <= 1e-6
        payload = sc.n_scenarios * 12 * 1 * grid.n_atoms  # P N d (J + 1) entries
        # measured 2.87 payloads' bytes (3.07 when the continuity bounds formed variation paths,
        # 4.32 when each projection held a dense payload): the input's distinct rows and
        # variation, the norm sums' buffers and the terms' masks
        assert peak <= 3.5 * 8 * payload, peak / (8 * payload)
        sizes = [a.size for a in reachable_arrays(phi, result.processes)]
        assert sc.n_scenarios * 12 in sizes  # the walk reaches the (P, N) indexes
        assert max(sizes) < payload, max(sizes) / payload
