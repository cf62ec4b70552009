"""Scenario models, driver simulation and the scalar stochastic integral.

Discrete-time conventions used throughout the package:

  * Paths live on the uniform grid t_l = l * T / N, stored as arrays of
    shape (P, N + 1) or (P, N + 1, d) indexed by the grid index l.
  * Predictable (interval) values are stored with shape (P, N, d); slot j
    carries the value on (t_j, t_{j+1}] and must be known at t_j.  In tree
    mode that means: constant on the level-j filtration atoms.
  * A stopping rule holds one grid index per scenario, with N + 1 acting
    as the "never stops" marker.  "Strictly before tau" keeps exactly the
    increments whose right endpoint index is <= tau - 1, and the left
    limit of a path at tau is its value at index tau - 1 (index N for the
    never marker), read by ``StoppingRule.left_limit``.  No interpolation
    anywhere.  An integral stopped before tau is the integral against the
    stopped driver, (H . S)^{tau-} = H . S^{tau-}, whose increments are the
    driver's times ``StoppingRule.increment_mask``: no integral takes a
    stopping rule.
  * A deterministic path (the control, the bracket, the drift variation)
    is stored as one row (1, N + 1) and broadcasts over the scenarios.

Two scenario models are supported.  Monte Carlo ensembles come from one
seeded block source, ``increment_blocks``, which the driver simulator and
the power-kernel samplers in ``volterra`` share (the tests check that they
agree), so ensembles are reproducible.  A consumer that reads a few rows
at a time asks for blocks of that many rows (the numbers of the 4096-scenario
chunks ``simulate_driver`` takes whole; jump drivers take whole chunks only),
and up to two threads (``pull_blocks``) may pull them in order, each drawing
its block into its own buffer, or draw whole chunks (``chunk_streams``) at
once, to the same results.
Paths accumulate through one ``running_sum`` and every reduction is a
deterministic ordered sum.  Scenario trees carry an explicit per-level
partition into filtration atoms (scenario indices are arranged so atoms are
contiguous blocks), probabilities are explicit, and expectations are exact
weighted sums.

Control processes: a driver's control path V is a nonnegative increasing
process against which squared stochastic integrals are bounded before any
stopping time.  Every driver kind here has a closed form in time, so V is
one row.  Closed forms per driver (validated empirically by the test
suite's control-inequality check, at scale):

  * brownian            V_t = vol^2 * t
  * fv_drift            V_t = |a| * t + 1e-9 * t   (kept strictly increasing)
  * compound_poisson    V_t = 4 * (t + rate * E[J^2] * t)
  * mixture             V_t = 4 * (vol^2 * t + |a| * t + rate * E[J^2] * t)

The jump formulas are a validated guess: no closed form is standard for
jump drivers, and the constant 4 absorbs the maximal-inequality factor.
Note that for a Brownian driver with V_t = t the control inequality is a
genuine theorem only once V_{tau-} >= E[sup |W|^2 over a unit of integral
time] (about 1.8), so experiment configs use horizons T >= 4 where the
Doob bound makes the margin certain.
"""

from __future__ import annotations

import copy
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "TimeGrid",
    "ScenarioSet",
    "DriverSpec",
    "DriverPath",
    "PredictablePath",
    "StoppingRule",
    "chunk_streams",
    "increment_blocks",
    "pull_blocks",
    "simulate_driver",
    "running_sum",
    "control_process",
    "ito_integral",
    "energy_integral",
    "stopping_weights",
    "tree_fault",
]

SCENARIO_CHUNK = 4096  # fixed: scenario i always lands in chunk i // SCENARIO_CHUNK
WORKERS = min(2, len(os.sched_getaffinity(0)))  # threads of ``pull_blocks``
C_MIX = 4.0
EPS_FV = 1e-9
TREE_BRANCHES = {2: (-1.0, 1.0), 3: (-math.sqrt(1.5), 0.0, math.sqrt(1.5))}  # mean 0, variance 1


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.horizon <= 0 or self.n_steps < 1:
            raise ValueError("need positive horizon and at least one step")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


class ScenarioSet:
    """Probability model: Monte Carlo ensemble or a finite scenario tree, or (mode "rows") a
    block of either's scenarios under their conditional probabilities (``DriverPath.view``).

    Tree scenarios are indexed so that the level-l atom of scenario p is
    the contiguous block p // b**(depth - l); the per-level partition
    therefore refines automatically and is exposed via :meth:`atoms`.
    """

    def __init__(self, mode, n_scenarios, probs, seed=None, branching=None, depth=None):
        self.mode = mode
        self.n_scenarios = int(n_scenarios)
        self.probs = np.asarray(probs, dtype=float)
        self.seed = seed
        self.branching = branching
        self.depth = depth
        if self.probs.shape != (self.n_scenarios,):
            raise ValueError("need one probability per scenario")
        if np.any(self.probs <= 0) or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be positive and sum to 1")
        self.probs.setflags(write=False)

    @classmethod
    def monte_carlo(cls, n_scenarios: int, seed: int) -> "ScenarioSet":
        if n_scenarios < 1:
            raise ValueError("need at least one scenario")
        probs = np.full(n_scenarios, 1.0 / n_scenarios)
        probs[-1] = 1.0 - probs[:-1].sum()
        return cls("monte_carlo", n_scenarios, probs, seed=int(seed))

    @classmethod
    def tree(cls, branching: int, depth: int, level_probs: Sequence[float] | None = None) -> "ScenarioSet":
        if branching < 2 or depth < 1:
            raise ValueError("need branching >= 2 and depth >= 1")
        p_branch = np.full(branching, 1.0 / branching) if level_probs is None else np.asarray(level_probs, float)
        if p_branch.shape != (branching,) or np.any(p_branch <= 0) or abs(p_branch.sum() - 1.0) > 1e-12:
            raise ValueError("branch probabilities must be positive and sum to 1")
        n = branching**depth
        digits = cls._digit_table(branching, depth)
        probs = np.prod(p_branch[digits], axis=1)
        probs = probs / probs.sum()
        obj = cls("tree", n, probs, branching=branching, depth=depth)
        obj._digits = digits
        return obj

    @staticmethod
    def _digit_table(b: int, depth: int) -> np.ndarray:
        """digits[p, k] = branch taken at step k + 1 (most significant first)."""
        p = np.arange(b**depth)
        cols = [(p // b ** (depth - 1 - k)) % b for k in range(depth)]
        return np.stack(cols, axis=1)

    @property
    def is_tree(self) -> bool:
        return self.mode == "tree"

    def digits(self) -> np.ndarray:
        if not self.is_tree:
            raise ValueError("digits only exist in tree mode")
        return self._digits

    def atom_size(self, level: int) -> int:
        """Scenarios per filtration atom at time t_level."""
        if not self.is_tree:
            raise ValueError("filtration atoms only exist in tree mode")
        if not (0 <= level <= self.depth):
            raise ValueError("level out of range")
        return self.branching ** (self.depth - level)

    def atom_ids(self, level: int) -> np.ndarray:
        """Id of the filtration atom containing each scenario at time t_level."""
        return np.arange(self.n_scenarios) // self.atom_size(level)

    def is_measurable(self, values: np.ndarray, level: int, tol: float = 0.0) -> bool:
        """True if per-scenario values are constant on every level atom.

        Atoms are contiguous blocks, so each row is compared with its atom's first.
        """
        block = self.atom_size(level)
        v = np.asarray(values)
        if v.shape[:1] != (self.n_scenarios,):
            raise ValueError("need one value per scenario")
        per_atom = v.reshape((-1, block) + v.shape[1:])
        return not np.any(np.abs(per_atom - per_atom[:, :1]) > tol)


@dataclass(frozen=True)
class DriverSpec:
    """Parameters of a simulated driver; components are independent copies."""

    kind: str
    d: int = 1
    vol: float = 1.0
    drift: float = 0.0
    jump_rate: float = 0.0
    jump_mean: float = 0.0
    jump_std: float = 0.0

    def __post_init__(self):
        if self.kind not in ("brownian", "fv_drift", "compound_poisson", "mixture"):
            raise ValueError(f"unknown driver kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.vol < 0 or self.jump_rate < 0 or self.jump_std < 0:
            raise ValueError("vol, jump_rate and jump_std must be nonnegative")

    @property
    def jump_second_moment(self) -> float:
        return self.jump_mean**2 + self.jump_std**2

    @property
    def has_jumps(self) -> bool:
        return self.kind in ("compound_poisson", "mixture") and self.jump_rate > 0


@dataclass
class PredictablePath:
    """Interval values, shape (P, N, d) or (1, N, d) for nonrandom paths."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3:
            raise ValueError("predictable values must be (P, N, d)")
        self.values = v


class StoppingRule:
    """Per-scenario grid index in 0..N, with N + 1 as the never marker."""

    def __init__(self, indices: np.ndarray, n_steps: int):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("stopping indices must be a vector")
        if np.any(idx < 0) or np.any(idx > n_steps + 1):
            raise ValueError("stopping index out of range")
        self.indices = idx
        self.n_steps = int(n_steps)
        self.indices.setflags(write=False)

    @classmethod
    def never(cls, scenarios: ScenarioSet, n_steps: int) -> "StoppingRule":
        return cls(np.full(scenarios.n_scenarios, n_steps + 1), n_steps)

    def increment_mask(self) -> np.ndarray:
        """(P, N) bool: slot j kept iff its right endpoint j + 1 <= tau - 1."""
        j = np.arange(self.n_steps)
        return (j[None, :] + 1) <= (self.indices[:, None] - 1)

    def pre_index(self) -> np.ndarray:
        """Grid index realising the left limit at tau (clipped to 0..N)."""
        return np.clip(self.indices - 1, 0, self.n_steps)

    def left_limit(self, path: np.ndarray) -> np.ndarray:
        """Value at tau- of a (P or 1, N + 1) path, one per scenario: (P,)."""
        return path[np.arange(path.shape[0]), self.pre_index()]


@dataclass
class DriverPath:
    """Simulated driver ensemble with its control path attached."""

    spec: DriverSpec
    timegrid: TimeGrid
    scenarios: ScenarioSet
    values: np.ndarray  # (P, N + 1, d)
    control: np.ndarray  # (1, N + 1): deterministic, broadcasts over scenarios
    jump_increments: np.ndarray | None = None  # (P, N, d) pure-jump part

    def __post_init__(self):
        P, n1, d = self.values.shape
        if P != self.scenarios.n_scenarios or n1 != self.timegrid.n_steps + 1 or d != self.spec.d:
            raise ValueError("driver path shape mismatch")
        if np.any(np.diff(self.control, axis=1) < 0):
            raise ValueError("control path must be nondecreasing")
        if self.scenarios.is_tree:
            for level in range(self.timegrid.n_steps + 1):
                if not self.scenarios.is_measurable(self.values[:, level, :], level):
                    raise AssertionError(f"driver not adapted at level {level}")

    @cached_property
    def increments(self) -> np.ndarray:
        """Path increments (P, N, d), computed once on first read; read-only."""
        inc = np.diff(self.values, axis=1)
        inc.setflags(write=False)
        return inc

    def view(self, lo: int, hi: int) -> "DriverPath":
        """Scenarios lo..hi (hi clipped to P) as a driver path of their own that shares this
        one's arrays: the values, the jump part and, once read here, the increments are views of
        their rows, and the control is shared.  Its scenarios are the rows' conditional
        probabilities, in a set of mode "rows" (no seed, no atoms).  The adaptedness check is
        not run again, so a walk over blocks of rows costs no more than the rows it reads."""
        hi = min(hi, self.scenarios.n_scenarios)
        if not 0 <= lo < hi:
            raise ValueError("need 0 <= lo < hi and lo below the scenario count")
        view, probs = copy.copy(self), self.scenarios.probs[lo:hi]
        view.scenarios = ScenarioSet("rows", hi - lo, probs / probs.sum())
        view.values = self.values[lo:hi]
        if self.jump_increments is not None:
            view.jump_increments = self.jump_increments[lo:hi]
        if "increments" in self.__dict__:  # the cached property's value
            view.__dict__["increments"] = self.increments[lo:hi]
        return view

    def decomposition_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """Bracket path of the martingale part and variation of the FV part.

        Only defined for scalar drivers; idealized closed forms for the
        continuous parts, realized slot sums for jumps (multiple jumps in
        one slot are seen at slot resolution).  The bracket is one row; the
        variation is one row unless the driver jumps, then one per scenario.
        """
        if self.spec.d != 1:
            raise ValueError("decomposition paths are scalar-driver only")
        t = self.timegrid.times[None, :]
        qv = (self.spec.vol**2 if self.spec.kind in ("brownian", "mixture") else 0.0) * t
        var_a = (abs(self.spec.drift) if self.spec.kind in ("fv_drift", "mixture") else 0.0) * t
        if self.jump_increments is not None:
            var_a = var_a + running_sum(np.abs(self.jump_increments[:, :, 0]))
        return qv, var_a


def chunk_streams(spec: DriverSpec, timegrid: TimeGrid, seed: int, n_scenarios: int,
                  rows: int = SCENARIO_CHUNK) -> Iterator[tuple[int, int, Callable]]:
    """``increment_blocks`` per chunk: (lo, hi, draws).  ``draws()`` lazily yields, for each
    block of the chunk in order, ``draw(buf=None)``, which draws (lo, hi, inc, jumps) from the
    chunk's own generator, into the first rows of a C-contiguous ``buf`` when given.  Each draw
    is called before the next is taken, so a caller picks every block's buffer as it draws it.
    Threads may draw different chunks at once."""
    if rows < 1 or (spec.has_jumps and rows < SCENARIO_CHUNK):
        raise ValueError("rows must be positive, and a jump driver is drawn in whole chunks")
    N, d, dt = timegrid.n_steps, spec.d, timegrid.dt

    def draw(rng, lo, hi, buf: np.ndarray | None = None):
        inc = np.empty((hi - lo, N, d)) if buf is None else buf[: hi - lo]
        if spec.kind in ("brownian", "mixture") and spec.vol > 0:
            rng.standard_normal(out=inc)
            inc *= spec.vol * math.sqrt(dt)
        else:
            inc.fill(0.0)
        jumps = None
        if spec.kind in ("fv_drift", "mixture"):
            inc += spec.drift * dt
        if spec.has_jumps:
            counts = rng.poisson(spec.jump_rate * dt, size=inc.shape)
            z = rng.standard_normal(inc.shape)
            jumps = counts * spec.jump_mean + spec.jump_std * np.sqrt(counts) * z
            inc += jumps
        return lo, hi, inc, jumps

    def draws(child, chunk_lo, chunk_hi):
        rng = np.random.default_rng(child)
        for lo in range(chunk_lo, chunk_hi, rows):
            yield partial(draw, rng, lo, min(lo + rows, chunk_hi))

    n_chunks = (n_scenarios + SCENARIO_CHUNK - 1) // SCENARIO_CHUNK
    for c, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        lo, hi = c * SCENARIO_CHUNK, min((c + 1) * SCENARIO_CHUNK, n_scenarios)
        yield lo, hi, partial(draws, child, lo, hi)


def increment_blocks(spec: DriverSpec, timegrid: TimeGrid, seed: int, n_scenarios: int,
                     rows: int = SCENARIO_CHUNK
                     ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None]]:
    """Seeded Monte Carlo increments (hi - lo, N, d) and their jump part, per row block.

    Scenario i always lands in chunk i // SCENARIO_CHUNK, drawn from that
    chunk's child of SeedSequence(seed) in a fixed order (diffusion normals,
    Poisson counts, jump normals): one (spec, grid, seed) is one driver.
    Each chunk is drawn in blocks of ``rows`` scenarios, in order from the
    chunk's own generator, which fills in C order: without jumps the blocks
    are the whole-chunk draw, bit for bit.  A jump driver draws its counts
    after the whole chunk's normals, so it takes only whole chunks.
    """
    for _, _, draws in chunk_streams(spec, timegrid, seed, n_scenarios, rows):
        for draw in draws():
            yield draw()  # no reference kept: the block is freed before the next is drawn


def pull_blocks(consume: Callable[[int, tuple], None], source: Callable[[int], tuple | None],
                lead: Callable[[], None] | None = None) -> None:
    """Call ``consume(worker, block)`` on every block on WORKERS threads, the caller being
    worker 0, which first runs ``lead()`` while the others pull.  A worker pulls its next block
    as ``source(worker)`` (None after the last) under one lock, so a source drawing from an
    ``increment_blocks``-ordered stream draws as on one thread, and may draw into the pulling
    worker's own buffers; blocks are consumed outside the lock (numpy releases the GIL).  The
    first error, the lead's too, stops the pulls and is raised here."""
    lock, failed = threading.Lock(), []

    def pull(worker: int):
        with lock:
            return None if failed else source(worker)

    def work(worker: int, first: Callable[[], None] | None = None) -> None:
        try:
            if first is not None:
                first()
            while (block := pull(worker)) is not None:
                consume(worker, block)
                del block  # free it before this worker draws the next one
        except BaseException as exc:  # re-raised in the caller
            failed.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, WORKERS)]
    for t in threads:
        t.start()
    work(0, lead)
    for t in threads:
        t.join()
    if failed:
        raise failed[0]


def tree_fault(spec: DriverSpec, n_steps: int, branching: int, depth: int) -> str | None:
    """Why ``spec`` has no driver on a tree of this branching and depth over ``n_steps`` grid
    steps, beginning with the config key at fault; None when it has one.  A tree driver has no
    jumps, takes one level per step and branches as ``TREE_BRANCHES`` lists."""
    if spec.kind == "compound_poisson":
        return "driver.kind is 'compound_poisson'; jump drivers are not supported in tree mode"
    if spec.has_jumps:
        return f"driver.jump_rate is {spec.jump_rate}; jump drivers are not supported in tree mode"
    if depth != n_steps:
        return f"scenarios.depth is {depth}; a tree takes one level per time step, N = {n_steps}"
    if branching not in TREE_BRANCHES:
        return f"scenarios.branching is {branching}; tree drivers support branching 2 or 3"
    return None


def _tree_increments(spec: DriverSpec, timegrid: TimeGrid, scenarios: ScenarioSet) -> np.ndarray:
    fault = tree_fault(spec, timegrid.n_steps, scenarios.branching, scenarios.depth)
    if fault is not None:
        raise ValueError(fault)
    dt, branch_vals = timegrid.dt, np.array(TREE_BRANCHES[scenarios.branching])
    digits = scenarios.digits()
    inc = np.zeros((scenarios.n_scenarios, timegrid.n_steps, spec.d))
    if spec.kind in ("brownian", "mixture") and spec.vol > 0:
        # same martingale increment in every component: mean 0, variance dt
        walk = spec.vol * math.sqrt(dt) * branch_vals[digits]
        inc += walk[:, :, None]
    if spec.kind in ("fv_drift", "mixture"):
        inc += spec.drift * dt
    return inc


def simulate_driver(spec: DriverSpec, timegrid: TimeGrid, scenarios: ScenarioSet) -> DriverPath:
    """Simulate the ensemble and attach the documented control path."""
    P, N, d = scenarios.n_scenarios, timegrid.n_steps, spec.d
    if scenarios.is_tree:
        values, jumps = running_sum(_tree_increments(spec, timegrid, scenarios)), None
    else:
        values = np.empty((P, N + 1, d))
        jumps = np.empty((P, N, d)) if spec.has_jumps else None
        for lo, hi, inc, block_jumps in increment_blocks(spec, timegrid, scenarios.seed, P):
            values[lo:hi] = running_sum(inc)
            if jumps is not None:
                jumps[lo:hi] = block_jumps
    control = control_process(spec, timegrid)
    return DriverPath(spec, timegrid, scenarios, values, control, jump_increments=jumps)


def running_sum(increments: np.ndarray) -> np.ndarray:
    """Partial sums along the time axis from 0: (R, N, ...) -> (R, N + 1, ...)."""
    out = np.zeros((increments.shape[0], increments.shape[1] + 1) + increments.shape[2:])
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


def control_process(spec: DriverSpec, timegrid: TimeGrid) -> np.ndarray:
    """Documented control path per driver kind: one row (1, N + 1), broadcast over scenarios."""
    t = timegrid.times
    if spec.kind == "brownian":
        v = spec.vol**2 * t
    elif spec.kind == "fv_drift":
        v = (abs(spec.drift) + EPS_FV) * t
    elif spec.kind == "compound_poisson":
        v = C_MIX * (1.0 + spec.jump_rate * spec.jump_second_moment) * t
    else:  # mixture
        rate_term = spec.jump_rate * spec.jump_second_moment
        v = C_MIX * (spec.vol**2 + abs(spec.drift) + rate_term) * t
    return v[None, :]


def ito_integral(H: PredictablePath, S: DriverPath) -> np.ndarray:
    """Pathwise integral sum_j H_j . (S_{j+1} - S_j), null at 0; shape (P, N + 1).

    The integral stopped strictly before tau is the integral against the stopped driver, whose
    increments are S's times ``tau.increment_mask()``.
    """
    if H.values.shape[1:] != S.increments.shape[1:]:
        raise ValueError("integrand and driver differ in time grid or component count")
    return running_sum(np.sum(H.values * S.increments, axis=2))


def energy_integral(H: PredictablePath | np.ndarray, A: np.ndarray) -> np.ndarray:
    """Quadratic accumulation sum_{j < l} |H_j|^2 (A_{j+1} - A_j); shape (P, N + 1)."""
    vals = H.values if isinstance(H, PredictablePath) else np.asarray(H, float)
    if vals.ndim == 2:
        vals = vals[:, :, None]
    dA = np.diff(A, axis=1)
    if np.any(dA < 0):
        raise ValueError("integrator must be nondecreasing")
    return running_sum(np.sum(vals * vals, axis=2) * dA)


def stopping_weights(tau: StoppingRule, V: np.ndarray, scenarios: ScenarioSet) -> np.ndarray:
    """Weights of the pre-tau L2 measure on (scenario, slot); shape (P, N).

    weight(p, j) = prob(p) * V_{tau-}(p) * (V_{j+1} - V_j)(p) for kept
    slots, zero otherwise.  The weighted sum of |H|^2 over (p, j) equals
    the expectation of V_{tau-} times the energy integral of H before tau.
    """
    dV = np.diff(V, axis=1)
    return scenarios.probs[:, None] * tau.left_limit(V)[:, None] * dV * tau.increment_mask()
