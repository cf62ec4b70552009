"""The measure-valued stochastic integral and its interchange checks.

The integral of a measure-valued integrand against a d-dimensional driver
accumulates, per scenario, one signed measure per time index:

    charge_l = sum_{j < l} sum_i (component-i measure at slot j) * dS^i_{j+1},

which for elementary integrands coincides with the rectangle-sum formula
exactly.  The result is one-dimensional in the measure slot (components of
the integrand pair off against driver components), null at time zero and
adapted.  The integral stopped before tau is the integral against the
stopped driver, whose increments are the driver's times the rule's
``increment_mask``, so no function here takes a stopping rule.

In discrete time both sides of the stochastic Fubini identity -- pairing
the integral measure with a test function versus integrating the paired
integrand -- are the same finite double sum in different orders, so the
checks here assert near machine-precision agreement on every run, for
continuous test functions and for indicators of atom-resolvable sets
alike.

Seminorm machinery: the maximal seminorm aggregates, over the test
family, the running-sup L2 norms of the paired integral paths; for
elementary integrands it is dominated by the integrand seminorm whenever
the driver's control inequality holds (exactly on scenario trees with
late enough horizons, within Monte Carlo error otherwise; the test suite
checks both).

The charge is accumulated in blocks of grid times that carry the running
measure (P, J + 1) into each block's time cumsum, so it equals one
sequential sum bit for bit.  The integral is known through its pairings:
``paired_charge`` pairs each block with K test functions as it is drawn
and keeps the (P, K, N + 1) paths, which is all the interchange checks
and the seminorms read, through ``integrands._pair_rows`` (one-thread BLAS
matmuls, which round by the rows one call holds, so by block partition but
not by thread count).  A block holds the times whose pairing with the K
functions is one product per scenario (``_block_step``: J + 1 and K set it,
never P), so every scenario's pairings are the same bits whatever the other
scenarios drawn.  ``fubini_check`` therefore walks blocks of scenarios
(``DriverPath.view``) of about BLOCK_ENTRIES values, each charged, paired,
compared with its Ito side and folded into the largest gaps, and holds no
array that grows with P.  The convergence transfer draws no stream: it reads each process as a
table and an index (``integrands._measures``), and per block of scenarios and time it charges
and pairs only the heads of runs of equal inputs so far (on a tree, the atoms) and keeps the
(L, P, K) running sups of the paired gap.  The Volterra
decomposition reads only ``horizon_charge``: for a stationary integrand, which carries its slot 0
measure as a ``lag`` profile, the increments convolved with it by FFT in blocks of scenarios
(``integrands._lag_sums``); otherwise one tiled product per scenario of the increments and the
slot table (``integrands._slot_sums``).  No consumer holds the dense (P, N + 1, J + 1)
ensemble; ``mv_integral`` fills it from the same blocks as a small-size reference.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Sequence

import numpy as np

from . import integrands
from .drivers import DriverPath, running_sum
from .grid import CompactGrid, TestFamily
from .integrands import (MeasureProcess, integrability_check, _family_evals, _lag_sums, _measures,
                         _pair_rows, _slot_sums)

__all__ = [
    "charge_blocks",
    "horizon_charge",
    "paired_charge",
    "mv_integral",
    "maximal_seminorm",
    "fubini_check",
    "convergence_transfer_check",
    "standard_cell_sets",
]

# float64 entries (2 MB) that one block of scenarios holds in a walk over them (``fubini_check``,
# ``convergence_transfer_check``); at least one scenario
BLOCK_ENTRIES = 2**18


def _check_grids(phi: MeasureProcess, S: DriverPath) -> None:
    if (phi.n_steps, phi.d) != (S.timegrid.n_steps, S.spec.d):
        raise ValueError("time grid or component count mismatch")


def _block_step(phi: MeasureProcess, n_functions: int) -> int:
    """Grid times per charge block paired with n_functions test functions: one scenario's block
    pairs in one product of at most ``PAIR_ENTRIES`` multiply-adds (``_pair_rows``' own split), so
    the pairings round by J + 1 and n_functions alone, never by the number of scenarios drawn."""
    return min(phi.n_steps, max(1, integrands.PAIR_ENTRIES // (n_functions * phi.grid.n_atoms)))


def charge_blocks(phi: MeasureProcess, S: DriverPath,
                  n_functions: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """The running charge in time blocks: (t, block) pairs, where ``block[:, k]`` is the measure
    at time t + k and row 0 repeats the last row of the previous block (zeros first).  A block
    holds the ``_block_step(phi, n_functions)`` times that pair with n_functions test functions,
    of every scenario of S (a walk over scenarios passes a ``DriverPath.view``); it is a view of
    one reused time-major buffer, valid until the next is drawn.  phi's rows are read once
    (``phi.rows``), gathered from its table if it is indexed."""
    _check_grids(phi, S)
    step = _block_step(phi, n_functions)
    N, dS, w = S.timegrid.n_steps, S.increments, phi.rows()  # one row broadcasts
    buf = np.zeros((step + 1, len(dS), phi.grid.n_atoms))  # each time's add runs contiguously
    for t in range(0, N, step):
        end = min(t + step, N)
        block = buf[: end - t + 1].transpose(1, 0, 2)
        np.einsum("pnij,pni->pnj", w[:, t:end], dS[:, t:end], out=block[:, 1:])
        for k in range(1, end - t + 1):  # cumsum order
            np.add(buf[k - 1], buf[k], out=buf[k])
        # a running sum never returns to finite values, so the last row tells
        if not np.all(np.isfinite(buf[end - t])):
            raise OverflowError("measure-valued integral overflowed")
        yield t, block
        buf[0] = buf[end - t]


def horizon_charge(phi: MeasureProcess, S: DriverPath) -> np.ndarray:
    """The charge at the horizon, (P, J + 1): the (P, N d) increments times phi's (N d, J + 1)
    slot table, one tiled product per scenario (``integrands._slot_sums``), or for a stationary
    phi the increments convolved with its ``lag`` profile (``integrands._lag_sums``); the last
    row of ``charge_blocks`` up to the rounding of either sum."""
    _check_grids(phi, S)
    w, dS = phi.weights, S.increments
    if phi.lag is not None:
        total = _lag_sums(dS[:, :, 0], phi.lag_spectrum)
    else:
        total = _slot_sums(w.reshape(len(w), -1, w.shape[3]), dS.reshape(len(dS), -1))
    if not np.all(np.isfinite(total)):
        raise OverflowError("measure-valued integral overflowed")
    return total


def _pair(out: np.ndarray, lo: int, block: np.ndarray, functions: np.ndarray) -> None:
    """Pair the measures of a ``charge_blocks`` block (rows 1..) with the rows
    of ``functions`` into their times in out (P, K, N + 1)."""
    _pair_rows(block[:, 1:], functions, out=out[:, :, lo + 1 : lo + block.shape[1]].swapaxes(1, 2))


def paired_charge(phi: MeasureProcess, S: DriverPath, functions: np.ndarray) -> np.ndarray:
    """The integral paired with each row of ``functions`` at every time,
    (P, K, N + 1); each block of the charge is paired as it is drawn."""
    functions = np.asarray(functions, dtype=float)
    if functions.ndim != 2 or functions.shape[1] != phi.grid.n_atoms:
        raise ValueError("test functions do not match the grid")
    out = np.zeros((S.scenarios.n_scenarios, len(functions), S.timegrid.n_steps + 1))
    for lo, block in charge_blocks(phi, S, len(functions)):
        _pair(out, lo, block, functions)
    return out


def mv_integral(phi: MeasureProcess, S: DriverPath) -> np.ndarray:
    """The dense (P, N + 1, J + 1) charge; a reference for small sizes."""
    out = np.zeros((S.scenarios.n_scenarios, S.timegrid.n_steps + 1, phi.grid.n_atoms))
    for lo, block in charge_blocks(phi, S):
        out[:, lo + 1 : lo + block.shape[1]] = block[:, 1:]
    return out


def maximal_seminorm(paired: np.ndarray, fam: TestFamily, probs: np.ndarray) -> float:
    """Aggregate running-sup L2 seminorm over the family, from the (P, K, N + 1)
    pairings of a charge with ``fam.functions``."""
    M = np.abs(paired[:, :, 0])  # (P, K): the running sup, slice by slice, with no |paired| copy
    for t in range(1, paired.shape[2]):
        np.maximum(M, np.abs(paired[:, :, t]), out=M)
    return _sup_seminorm(M, fam, probs)


def _sup_seminorm(M: np.ndarray, fam: TestFamily, probs: np.ndarray) -> float:
    """``maximal_seminorm`` from the (P, K) running sups of the pairings."""
    return float(np.sqrt(fam.gammas @ (probs @ (M * M))))


def _discrepancy_rows(gaps: np.ndarray, where: np.ndarray, labels: Sequence) -> dict:
    """The report of the largest pathwise gap per test function, (n_f,), and its first
    (scenario, time), (n_f, 2)."""
    rows = [{"test": label, "max_discrepancy": float(gap), "scenario": int(p), "time_index": int(ell)}
            for label, gap, (p, ell) in zip(labels, gaps, where)]
    worst = max(rows, key=lambda r: r["max_discrepancy"])
    return {
        "max_abs_discrepancy": worst["max_discrepancy"],
        "mean_discrepancy": float(np.mean([r["max_discrepancy"] for r in rows])),
        "per_f": rows,
    }


def _paired_ito_paths(evals: np.ndarray, S: DriverPath) -> np.ndarray:
    """Ito integrals of phi(f), from phi's pairings (P or 1, N, n_f, d) with the functions f
    (``_family_evals``); (P, N + 1, n_f)."""
    dS = S.increments
    contrib = np.einsum("pnki,pni->pnk", np.broadcast_to(evals, dS.shape[:2] + evals.shape[2:]), dS)
    return running_sum(contrib)


def _scenario_rows(phi: MeasureProcess, lo: int, hi: int) -> MeasureProcess:
    """phi's scenarios lo..hi as a process of their own: phi itself if it has one row, else a
    view of its dense payload's rows or of its index's rows."""
    if not phi.is_random:
        return phi
    if phi.index is None:
        return replace(phi, table=phi.table[lo:hi], terms=None)
    return replace(phi, index=phi.index[lo:hi], terms=None)


def standard_cell_sets(grid: CompactGrid) -> list[tuple[str, int, int]]:
    """Default indicator sets: empty handled separately; full space,
    singleton atoms at both ends and the midpoint, and a left half."""
    J = grid.n_cells
    return [
        ("K", 0, J),
        ("atom_0", 0, 0),
        ("atom_mid", J // 2, J // 2),
        ("atom_last", J, J),
        ("left_half", 0, J // 2),
    ]


def fubini_check(phi: MeasureProcess, S: DriverPath, fam: TestFamily,
                 sets: Sequence[tuple[str, int, int]] | None = None,
                 corrupt: float | None = None) -> dict:
    """Compare pairing-the-integral with integrating-the-pairing, for every
    family member ("regular") and for indicators of atom-index ranges
    ("general", ``standard_cell_sets`` by default): per test function the
    largest gap and its first (scenario, time).  With ``corrupt``, also the
    negative control "corrupted": the largest gap between the family pairings
    and the Ito paths of phi scaled by 1 + corrupt, where the identity breaks.

    The scenarios are walked in blocks of about BLOCK_ENTRIES values
    (``DriverPath.view`` and phi's rows).  Each block's charge is paired once
    with the family and the indicators stacked (``paired_charge``, whose time
    blocks J + 1 and the function count set), its Ito side is formed, and its
    gaps are folded in.  Every value is per scenario, so the reports do not
    depend on the block size, and no array grows with P.  The finiteness check
    runs on each block of a P-row phi; a one-row phi is checked and evaluated once.
    """
    if sets is None:
        sets = standard_cell_sets(phi.grid)
    K, P, N = fam.size, S.scenarios.n_scenarios, S.timegrid.n_steps
    if phi.is_random and phi.shape[0] != P:
        raise ValueError("integrand and driver differ in scenario count")
    functions = np.vstack([fam.functions] + [phi.grid.indicator(lo, hi) for _, lo, hi in sets])
    n_f = len(functions)
    # per scenario: one charge block, and four (n_f, N + 1) paths: the pairings, the Ito paths,
    # the gap and the control's Ito paths
    rows = min(P, max(1, BLOCK_ENTRIES // ((_block_step(phi, n_f) + 1) * phi.grid.n_atoms
                                            + 4 * n_f * (N + 1))))
    best, where, corrupted = np.full(n_f, -np.inf), np.zeros((n_f, 2), dtype=np.intp), -np.inf
    for lo in range(0, P, rows):
        q, part = _scenario_rows(phi, lo, lo + rows), S.view(lo, lo + rows)
        if lo == 0 or q is not phi:
            if not integrability_check(q, S.control, S.timegrid)["member"]:
                raise ValueError("integrand fails the finiteness check")
            evals = _family_evals(q, functions)
            if corrupt is not None:
                scaled = MeasureProcess("kernel", q.grid, q.rows() * (1.0 + corrupt))
                scaled_evals = _family_evals(scaled, fam.functions)
        lhs = paired_charge(q, part, functions)  # (b, n_f, N + 1)
        gap = np.empty((n_f,) + lhs.shape[::2])
        np.abs(np.subtract(lhs.swapaxes(0, 1), np.moveaxis(_paired_ito_paths(evals, part), 2, 0),
                           out=gap), out=gap)
        flat = gap.reshape(n_f, -1)
        at = np.argmax(flat, axis=1)  # the first largest (or nan) gap in (scenario, time) order
        top = flat[np.arange(n_f), at]
        new = (top > best) | (np.isnan(top) & ~np.isnan(best))  # an earlier block wins a tie
        best[new] = top[new]
        where[new] = np.column_stack([lo + at // (N + 1), at % (N + 1)])[new]
        if corrupt is not None:
            control = np.moveaxis(_paired_ito_paths(scaled_evals, part), 2, 1)
            corrupted = np.maximum(corrupted, np.max(np.abs(lhs[:, :K] - control)))
    out = {"regular": _discrepancy_rows(best[:K], where[:K], [f"u_{k+1}" for k in range(K)]),
           "general": _discrepancy_rows(best[K:], where[K:], [name for name, _, _ in sets])}
    if corrupt is not None:
        out["corrupted"] = float(corrupted)
    return out


def convergence_transfer_check(phi: MeasureProcess, processes: Sequence[MeasureProcess],
                               S: DriverPath, fam: TestFamily) -> list[float]:
    """Transfer of integrand convergence to the integral processes: for each
    approximant, the maximal-seminorm gap between its integral against S and
    phi's.  Against the driver stopped before tau the gap is the stopped one, which the
    q-error of the approximation report at that tau dominates
    (``integrand_seminorm(phi_n, ..., minus=phi)``).

    The scenarios are walked in blocks.  A scenario heads a run at t when its inputs up to t
    (driver increments, each process's ``_measures`` index) differ from the previous scenario's,
    or when it opens its block (on a tree, one run per atom of time t + 1; no adaptedness is
    assumed).  Only heads are charged, time by time, each as its run at t - 1 plus its own
    product (``charge_blocks``' add order); their L gaps are paired in one product per approximant
    of the kind the stream uses and folded into their runs' sups, so bit for bit as the stream
    wherever a row's rounding does not depend on its place in a product (OpenBLAS: J + 1 < 32,
    or < 8 for one test function).  No gap or stream is held whole."""
    if not processes:
        return []
    procs, N, K, L = (phi, *processes), S.timegrid.n_steps, fam.size, len(processes)
    for q in procs:
        _check_grids(q, S)
    step = _block_step(phi, K)  # the times per block of the streams charge_blocks pairs
    P, d, n_atoms = S.scenarios.n_scenarios, phi.d, phi.grid.n_atoms
    # scenarios per block: four (L, b, K) sups and pairings, (L + 1) rows of up to b N run heads
    rows = min(P, max(1, BLOCK_ENTRIES // max(4 * L * K, (L + 1) * N * d * n_atoms)))
    tables, indexes = zip(*map(_measures, procs))
    held = [S.increments] + [np.broadcast_to(x, (P, N)) for x in indexes]  # one row broadcasts
    sups = np.zeros((L, P, K))  # the gap is zero at time 0
    for lo in range(0, P, rows):
        dS, *inputs = [x[lo : lo + rows] for x in held]
        differs = np.ones((len(dS), N), dtype=bool)  # a block's first scenario heads its runs
        differs[1:] = np.any([np.any(x[1:] != x[:-1], axis=tuple(range(2, x.ndim)))
                              for x in [dS, *inputs]], axis=0)
        heads = np.logical_or.accumulate(differs, axis=1)
        runs = np.cumsum(heads, axis=0).T - 1  # (N, b): each scenario's run at each time
        ts, at = np.nonzero(heads.T)  # the run heads, time by time
        parent, cuts = np.where(ts > 0, runs[ts - 1, at], 0), np.searchsorted(ts, np.arange(N + 1))
        w = np.empty((L + 1, len(at), d, n_atoms))
        for w_q, table, x in zip(w, tables, inputs):
            w_q[:] = table[x[at, ts]]
        prods = np.einsum("lpij,pi->lpj", w, dS[at, ts])  # each head's own product
        charge, sup = np.zeros((L + 1, 1, n_atoms)), np.zeros((L, 1, K))  # one run before time 0
        for t, (s, e) in enumerate(zip(cuts[:-1], cuts[1:])):  # time t's heads are s..e
            charge = np.take(charge, parent[s:e], axis=1) + prods[:, s:e]
            if not np.all(np.isfinite(charge)):
                raise OverflowError("measure-valued integral overflowed")
            # as in the stream: one-row products at a time alone in its block, else two rows or more
            gap, alone = charge[1:] - charge[0], step == 1 or t == N - 1 == t // step * step
            gap = (gap.reshape(-1, 1, n_atoms) if alone else
                   gap if e - s > 1 else np.repeat(gap, 2, 1))
            paired = np.abs(_pair_rows(gap, fam.functions).reshape(L, -1, K)[:, : e - s])
            sup = np.maximum(np.take(sup, parent[s:e], axis=1), paired, out=paired)
        sups[:, lo : lo + rows] = np.take(sup, runs[-1], axis=1)
    return [_sup_seminorm(M, fam, S.scenarios.probs) for M in sups]
