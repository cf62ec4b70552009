"""Measure-valued predictable integrands and their approximation by
elementary processes.

A :class:`MeasureProcess` assigns to every (scenario, interval slot) a
vector of signed measures on the spatial grid.  Three representations
share one dense payload ``weights`` of shape (P or 1, N, d, J + 1):

  * ``elementary``: a finite sum of scenario-independent measures on
    predictable rectangles ``A x (t_a, t_b]`` with ``A`` known at ``t_a``
    (the term list is kept alongside the dense payload);
  * ``kernel``: a density table against a nonnegative kernel, stored as
    the resulting atom weights (the kernel ``rho`` is kept when the
    process was built from one);
  * ``volterra``: atom weights induced by a two-parameter kernel (built
    by the volterra module).

Evaluating against a test function yields a predictable interval path, so
all seminorm machinery reduces to weighted finite sums.  Evaluations and
the weak* distances pair through ``_pair_rows``, one BLAS matmul per
scenario.  The aggregate seminorm over a test family,

    q(phi)^2 = sum_k gamma_k * ||phi(u_k)||^2_{L2(pre-tau weights)},

is computed from :func:`mvstoch.drivers.stopping_weights`.  Deterministic
integrands built from closed-form profiles may carry an exact
time-antiderivative of their squared variation; the membership check uses
it (when the control path is the identity) so closed-form accumulation
values hold to machine precision instead of first-order quadrature error.

The approximation pipeline mirrors the classical construction: truncate
into a variation ball, project pointwise onto a finite weak* net with a
first-index tie-break, then split the projection into predictable
rectangles (tree mode only, where filtration atoms are explicit).  The
net enumeration is deterministic and documented in
:func:`weak_star_net`; runs are reproducible.

Process values are immutable once built and evaluation/seminorms are pure
functions, so independent calls may run concurrently; each call is
deterministic, and each BLAS call in it stays on one thread.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .drivers import (
    PredictablePath,
    ScenarioSet,
    StoppingRule,
    TimeGrid,
    energy_integral,
    stopping_weights,
)
from .grid import CompactGrid, SignedMeasureVec, TestFamily

__all__ = [
    "ElementaryTerm",
    "MeasureProcess",
    "ApproxReport",
    "ApproxResult",
    "elementary_process",
    "kernel_process",
    "evaluate",
    "variation_path",
    "integrand_seminorm",
    "continuity_constant",
    "truncate",
    "weak_star_net",
    "net_fineness",
    "project_to_net",
    "rectangle_refine",
    "approximate_elementary",
    "integrability_check",
    "random_elementary_process",
    "random_lattice_process",
]

NET_LEVELS = (-1.0, -0.5, 0.0, 0.5, 1.0)
PAIR_ENTRIES = 2**18  # multiply-adds per BLAS call; OpenBLAS threads a larger gemm


@dataclass(frozen=True)
class ElementaryTerm:
    """One summand m * I_{A x (t_start, t_stop]}; the measure is scenario-free."""

    measure: SignedMeasureVec
    start: int
    stop: int
    scenario_mask: np.ndarray | None = None  # None means all scenarios

    def __post_init__(self):
        if not (0 <= self.start < self.stop):
            raise ValueError("need 0 <= start < stop")
        if self.scenario_mask is not None:
            m = np.asarray(self.scenario_mask, dtype=bool)
            object.__setattr__(self, "scenario_mask", m)


@dataclass
class MeasureProcess:
    """Weak* predictable measure-valued process on the shared grids."""

    kind: str
    grid: CompactGrid
    weights: np.ndarray  # (P or 1, N, d, J + 1)
    terms: list[ElementaryTerm] | None = None
    rho: np.ndarray | None = None
    var_sq_integral: Callable[[float], float] | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 4 or w.shape[3] != self.grid.n_atoms:
            raise ValueError("weights must be (P, N, d, J + 1) on the grid")
        self.weights = w

    @property
    def n_steps(self) -> int:
        return self.weights.shape[1]

    @property
    def d(self) -> int:
        return self.weights.shape[2]

    @property
    def is_random(self) -> bool:
        return self.weights.shape[0] > 1

    def expanded(self, n_scenarios: int) -> np.ndarray:
        if self.weights.shape[0] == n_scenarios:
            return self.weights
        if self.weights.shape[0] != 1:
            raise ValueError("scenario dimension mismatch")
        return np.broadcast_to(self.weights, (n_scenarios,) + self.weights.shape[1:])

    def __add__(self, other: "MeasureProcess") -> "MeasureProcess":
        if self.grid is not other.grid and self.grid != other.grid:
            raise ValueError("grid mismatch")
        return MeasureProcess("kernel", self.grid, self.weights + other.weights)

    def __sub__(self, other: "MeasureProcess") -> "MeasureProcess":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "MeasureProcess":
        return MeasureProcess("kernel", self.grid, self.weights * float(scalar))

    __rmul__ = __mul__


def elementary_process(grid: CompactGrid, n_steps: int, terms: Sequence[ElementaryTerm],
                       n_scenarios: int = 1, d: int | None = None) -> MeasureProcess:
    """Assemble the dense payload of a finite sum of rectangle terms."""
    terms = list(terms)
    if d is None:
        d = terms[0].measure.d if terms else 1
    random = any(t.scenario_mask is not None for t in terms)
    P = n_scenarios if random else 1
    w = np.zeros((P, n_steps, d, grid.n_atoms))
    for t in terms:
        if t.stop > n_steps:
            raise ValueError("term interval exceeds the time grid")
        if t.measure.d != d:
            raise ValueError("component count mismatch between terms")
        block = w[:, t.start : t.stop]
        if t.scenario_mask is None:
            block += t.measure.weights[None, None]
        else:
            block[t.scenario_mask] += t.measure.weights[None, None]
    return MeasureProcess("elementary", grid, w, terms=terms)


def kernel_process(grid: CompactGrid, psi: np.ndarray, rho: np.ndarray,
                   var_sq_integral: Callable[[float], float] | None = None) -> MeasureProcess:
    """Density values at atoms times nonnegative kernel cell masses."""
    psi = np.asarray(psi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("kernel must be nonnegative")
    if psi.ndim != 4 or rho.ndim != 3:
        raise ValueError("psi must be (P, N, d, J + 1) and rho (P, N, J + 1)")
    w = psi * rho[:, :, None, :]
    return MeasureProcess("kernel", grid, w, rho=rho, var_sq_integral=var_sq_integral)


def evaluate(phi: MeasureProcess, f: np.ndarray,
             scenarios: ScenarioSet | None = None) -> PredictablePath:
    """Pair every (scenario, slot) measure vector with the grid function f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (phi.grid.n_atoms,):
        raise ValueError("test function does not match the grid")
    vals = _pair_rows(phi.weights, f[None]).reshape(phi.weights.shape[:3])
    path = PredictablePath(vals)
    if scenarios is not None and scenarios.is_tree and phi.is_random:
        path.check_adapted(scenarios)
    return path


def variation_path(phi: MeasureProcess) -> np.ndarray:
    """Componentwise variation per (scenario, slot); shape (P, N, d)."""
    return np.sum(np.abs(phi.weights), axis=3)


def _pair_rows(measures: np.ndarray, functions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pair measures (P, ..., J + 1) with test functions (K, J + 1): (P, R, K), the middle
    axes read as R rows in C order (a view for d = 1, strided weights too); ``out`` may be a
    transposed view.  BLAS matmuls batched over scenarios, at most ``PAIR_ENTRIES`` per scenario:
    a threaded gemm rounds by thread count, and one over all P R rows spins a second thread."""
    rows = measures.reshape(measures.shape[0], -1, measures.shape[-1])
    out = np.empty(rows.shape[:2] + (len(functions),)) if out is None else out
    step = max(1, PAIR_ENTRIES // max(1, functions.size))
    for lo in range(0, rows.shape[1], step):
        np.matmul(rows[:, lo : lo + step], functions.T, out=out[:, lo : lo + step])
    return out


def _family_evals(phi: MeasureProcess, functions: np.ndarray) -> np.ndarray:
    """Pairings with every row of ``functions`` (K, J + 1); shape (P, N, K, d)."""
    return _pair_rows(phi.weights, functions).reshape(phi.weights.shape[:3] + (-1,)).swapaxes(2, 3)


def _weighted_sq_norms(evals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared weighted L2 norms of the (P, N, K, d) evaluations against the
    (P, N) stopping weights, one per family member: (K,)."""
    sq = evals[..., 0] * evals[..., 0]  # (P, N, K), summed over components in np.sum's order
    for i in range(1, evals.shape[3]):  # without a second evaluation-sized temporary
        sq += evals[..., i] * evals[..., i]
    return np.einsum("pn,pnk->k", w, np.broadcast_to(sq, w.shape + sq.shape[2:]))


def integrand_seminorm(phi: MeasureProcess, fam: TestFamily, tau: StoppingRule,
                       V: np.ndarray, scenarios: ScenarioSet, minus: MeasureProcess | None = None,
                       evals: np.ndarray | None = None, w: np.ndarray | None = None) -> float:
    """Aggregate L2 seminorm of the integrand over the test family.

    With ``minus`` the seminorm of the difference (evaluations subtract;
    no measure-level arithmetic is needed).  A caller that already holds
    phi's ``_family_evals`` and the ``stopping_weights`` passes them.
    """
    evals = _family_evals(phi, fam.functions) if evals is None else evals
    if minus is not None:
        evals = evals - _family_evals(minus, fam.functions)
    w = stopping_weights(tau, V, scenarios) if w is None else w
    return float(np.sqrt(fam.gammas @ _weighted_sq_norms(evals, w)))


def continuity_constant(phi: MeasureProcess, fam: TestFamily, tau: StoppingRule, V: np.ndarray,
                        scenarios: ScenarioSet, evals: np.ndarray | None = None,
                        w: np.ndarray | None = None) -> dict:
    """Bracket the norm of f -> phi(f) as a map into the weighted L2 space.

    lower: best ratio over the family members; upper: weighted L2 norm of
    the variation path, which dominates every ratio.  ``evals`` and ``w``
    as for ``integrand_seminorm``.
    """
    evals = _family_evals(phi, fam.functions) if evals is None else evals
    w = stopping_weights(tau, V, scenarios) if w is None else w
    norms = np.sqrt(_weighted_sq_norms(evals, w))
    sup = np.max(np.abs(fam.functions), axis=1)
    ratios = np.divide(norms, sup, out=np.zeros_like(norms), where=sup > 0)
    lower = float(np.max(ratios))
    var = variation_path(phi)
    var_sq = np.sum(var * var, axis=2)
    upper = float(np.sqrt(np.sum(w * np.broadcast_to(var_sq, w.shape))))
    if lower > upper + 1e-12:
        raise AssertionError("family ratio exceeded the variation bound")
    return {"lower": lower, "upper": upper}


def truncate(phi: MeasureProcess, c: float) -> MeasureProcess:
    """Zero out, componentwise, the slots where the variation exceeds c."""
    if c <= 0:
        raise ValueError("truncation level must be positive")
    keep = variation_path(phi) <= c
    if np.all(keep):
        return phi
    return MeasureProcess("kernel", phi.grid, phi.weights * keep[:, :, :, None],
                          var_sq_integral=None)


def _anchor_indices(grid: CompactGrid, count: int) -> np.ndarray:
    idx = np.unique(np.round(np.linspace(0, grid.n_cells, count)).astype(int))
    return idx


def weak_star_net(c: float, n: int, grid: CompactGrid, d: int = 1) -> list[SignedMeasureVec]:
    """First n elements of a deterministic weak* candidate enumeration.

    Order (fixed): the zero measure first; then stages s = 1, 2, ...  In
    stage s the anchors are 2**(s-1) + 1 evenly spaced atoms and the raw
    patterns put weights c * {-1, -1/2, 0, 1/2, 1} on the anchors,
    enumerated lexicographically (ascending levels, leftmost anchor and
    component slowest).  Each pattern is scaled into the variation ball
    componentwise (divide by its l1 norm when above 1); exact duplicates
    of earlier elements are dropped.
    """
    if n < 1:
        raise ValueError("need at least one net element")
    if c <= 0:
        raise ValueError("ball radius must be positive")
    out: list[SignedMeasureVec] = [SignedMeasureVec(grid, np.zeros((d, grid.n_atoms)))]
    seen = {out[0].weights.tobytes()}
    stage = 1
    while len(out) < n:
        anchors = _anchor_indices(grid, 2 ** (stage - 1) + 1)
        if stage > 1 and len(anchors) == grid.n_atoms:
            prev = _anchor_indices(grid, 2 ** (stage - 2) + 1)
            if len(prev) == grid.n_atoms:
                break  # anchor refinement exhausted the grid
        for combo in itertools.product(itertools.product(NET_LEVELS, repeat=len(anchors)), repeat=d):
            w = np.zeros((d, grid.n_atoms))
            for i, pattern in enumerate(combo):
                p = np.array(pattern)
                l1 = np.sum(np.abs(p))
                w[i, anchors] = c * p / max(1.0, l1)
            key = w.tobytes()
            if key in seen:
                continue
            seen.add(key)
            out.append(SignedMeasureVec(grid, w))
            if len(out) == n:
                return out
        stage += 1
    return out


def net_fineness(net: Sequence[SignedMeasureVec], probes: Sequence[SignedMeasureVec],
                 fam: TestFamily) -> float:
    """Max over probes of the weak* distance to the nearest net element."""
    from .grid import weak_star_delta

    return max(min(weak_star_delta(p, m, fam) for m in net) for p in probes)


def project_to_net(phi: MeasureProcess, net: Sequence[SignedMeasureVec],
                   fam: TestFamily) -> tuple[MeasureProcess, np.ndarray, np.ndarray]:
    """Pointwise nearest-net projection under the weak* metric.

    Returns the projected process, the assignment array (P, N) of net
    indices (ties resolved to the lowest index) and the pointwise
    distances attained.

    The distances depend on a (scenario, slot) pair only through its row
    of family evaluations, so they are computed once per run of equal rows
    over consecutive scenarios at a slot (on a tree, one run per atom) and
    gathered back.  Rows are compared with ``!=``, so the split is exact
    and assumes no adaptedness; a NaN row starts a run of its own.
    """
    if len(net) == 0:
        raise ValueError("empty net")
    evals = _family_evals(phi, fam.functions)  # (P, N, K, d)
    P, N = evals.shape[:2]
    fresh = np.ones((N, P), dtype=bool)  # slot-major: each run is contiguous
    fresh[:, 1:] = np.any(evals[1:] != evals[:-1], axis=(2, 3)).T
    run = np.cumsum(fresh).reshape(N, P).T - 1  # (P, N) run index of every pair
    heads = evals.transpose(1, 0, 2, 3)[fresh]  # (U, K, d), one row per run
    dists, gap = np.empty((len(heads), len(net))), np.empty_like(heads)  # gap: one for all j
    net_w = np.stack([m.weights for m in net])
    for j, b in enumerate(_pair_rows(net_w, fam.functions)):  # (d, K)
        np.square(np.subtract(heads, b.T[None], out=gap), out=gap)
        dists[:, j] = np.einsum("k,uk->u", fam.delta_weights, np.sqrt(np.sum(gap, axis=2)))
    best = np.argmin(dists, axis=1)
    assignment = best[run]
    attained = dists[np.arange(len(dists)), best][run]
    projected = MeasureProcess("kernel", phi.grid, net_w[assignment])
    return projected, assignment, attained


def rectangle_refine(projected: MeasureProcess, assignment: np.ndarray,
                     net: Sequence[SignedMeasureVec], scenarios: ScenarioSet) -> MeasureProcess:
    """Split a net-valued projection into predictable rectangle terms.

    Tree mode only: the scenario set at each slot taking a given net value
    is a union of filtration atoms of the slot's left endpoint, hence one
    rectangle per (slot, net index) pair.
    """
    if not scenarios.is_tree:
        raise ValueError("rectangle refinement needs tree mode (explicit filtration atoms)")
    P, N = scenarios.n_scenarios, projected.n_steps
    assign = np.broadcast_to(assignment, (P, N))
    terms = []
    for slot in range(N):
        col = assign[:, slot]
        if not scenarios.is_measurable(col, slot):
            raise AssertionError(f"projection at slot {slot} is not predictable")
        for j in np.unique(col):
            mask = col == j
            term_mask = None if mask.all() else mask
            terms.append(ElementaryTerm(net[j], slot, slot + 1, scenario_mask=term_mask))
    out = elementary_process(projected.grid, N, terms, n_scenarios=P, d=projected.d)
    if not np.array_equal(out.expanded(P), np.broadcast_to(projected.weights, (P, N) + projected.weights.shape[2:])):
        raise AssertionError("rectangle refinement must reproduce the projection exactly")
    return out


@dataclass(frozen=True)
class ApproxReport:
    index: int
    net_size: int
    q_error: float
    uniform_constant: float
    rectangle_count: int


@dataclass
class ApproxResult:
    processes: list[MeasureProcess]
    reports: list[ApproxReport]
    converged: bool
    truncation_level: float

    @property
    def monotone(self) -> bool:
        errs = [r.q_error for r in self.reports]
        return all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def approximate_elementary(phi: MeasureProcess, tau: StoppingRule, V: np.ndarray,
                           fam: TestFamily, scenarios: ScenarioSet,
                           schedule: Sequence[int] = (4, 16, 64),
                           c: float | None = None, tol: float = 1e-6) -> ApproxResult:
    """Elementary approximating sequence along a net-size schedule.

    Elementary inputs are returned unchanged (their q-error is zero by
    definition).  Otherwise the input is truncated into the variation ball
    of radius ``c`` (default: its own maximal componentwise variation, so
    truncation does not bite), projected on growing nets and refined into
    rectangles.  If the final q-error stays above ``tol`` the best
    sequence so far is returned with ``converged = False``.
    """
    member = integrability_check(phi, V)
    if not member["member"]:
        raise ValueError("integrand fails the finiteness check")
    if phi.kind == "elementary":
        report = ApproxReport(1, 0, 0.0, continuity_constant(phi, fam, tau, V, scenarios)["lower"],
                              len(phi.terms or []))
        return ApproxResult([phi], [report], True, c or 0.0)
    if c is None:
        c = float(np.max(variation_path(phi)))
        c = max(c, 1e-12)
    phi_c = truncate(phi, c)
    processes, reports = [], []
    for i, n in enumerate(schedule, start=1):
        net = weak_star_net(c, n, phi.grid, d=phi.d)
        projected, assignment, _ = project_to_net(phi_c, net, fam)
        elem = rectangle_refine(projected, assignment, net, scenarios)
        # once per step for both reports; phi's own stay per step (kept, they raise the peak RSS)
        evals, w = _family_evals(elem, fam.functions), stopping_weights(tau, V, scenarios)
        q_err = integrand_seminorm(elem, fam, tau, V, scenarios, minus=phi, evals=evals, w=w)
        processes.append(elem)
        reports.append(ApproxReport(i, len(net), q_err,
                                    continuity_constant(elem, fam, tau, V, scenarios,
                                                        evals=evals, w=w)["lower"],
                                    len(elem.terms or [])))
    return ApproxResult(processes, reports, reports[-1].q_error <= tol, c)


def integrability_check(phi: MeasureProcess, V: np.ndarray,
                        timegrid: TimeGrid | None = None) -> dict:
    """Accumulate the squared variation against the control path.

    Membership in the integrand class means this path is finite
    everywhere.  At finite resolution that only fails through overflow,
    in which case the first offending (scenario, index) is reported.
    When the process carries an exact time-antiderivative of its squared
    variation and the control path is the identity, the path is evaluated
    in closed form.
    """
    if phi.var_sq_integral is not None and timegrid is not None \
            and np.array_equal(V, np.broadcast_to(timegrid.times, V.shape)):
        vals = np.array([phi.var_sq_integral(t) for t in timegrid.times])
        d_path = np.broadcast_to(vals, (V.shape[0], len(vals))).copy()
    else:
        var = variation_path(phi)
        with np.errstate(over="ignore"):  # overflow is the reported outcome
            d_path = energy_integral(var, V)
    finite = np.isfinite(d_path)
    if not finite.all():
        p, ell = np.argwhere(~finite)[0]
        return {"member": False, "d_path": d_path, "sup": float("inf"),
                "location": (int(p), int(ell))}
    return {"member": True, "d_path": d_path, "sup": float(np.max(d_path))}


def random_elementary_process(grid: CompactGrid, timegrid: TimeGrid, scenarios: ScenarioSet,
                              rng: np.random.Generator, d: int = 1, n_terms: int = 4,
                              driver_values: np.ndarray | None = None,
                              scale: float = 1.0) -> MeasureProcess:
    """Random finite sum of rectangle terms with adapted scenario sets.

    Scenario sets are either everything or a threshold event of the
    supplied driver values at the rectangle's left endpoint (so the set is
    known there); on trees they are unions of left-endpoint atoms.
    """
    N = timegrid.n_steps
    terms = []
    for _ in range(n_terms):
        start = int(rng.integers(0, N))
        stop = int(rng.integers(start + 1, N + 1))
        w = rng.uniform(-scale, scale, size=(d, grid.n_atoms))
        mask = None
        if scenarios.is_tree:
            ids = scenarios.atom_ids(start)
            chosen = rng.random(ids[-1] + 1) < 0.5
            if chosen.any() and not chosen.all():
                mask = chosen[ids]
        elif driver_values is not None and rng.random() < 0.5:
            level = rng.normal(0.0, 0.5)
            mask = driver_values[:, start, 0] >= level
            if mask.all() or not mask.any():
                mask = None
        terms.append(ElementaryTerm(SignedMeasureVec(grid, w), start, stop, scenario_mask=mask))
    return elementary_process(grid, N, terms, n_scenarios=scenarios.n_scenarios, d=d)


def random_lattice_process(grid: CompactGrid, timegrid: TimeGrid, scenarios: ScenarioSet,
                           rng: np.random.Generator, c: float = 1.0, d: int = 1,
                           pool_size: int = 21) -> MeasureProcess:
    """Adapted random process whose values live on the first net elements.

    Used by the approximation experiment: once the net schedule reaches
    ``pool_size`` the projection error vanishes, re-enacting denseness at
    finite resolution.
    """
    pool = weak_star_net(c, pool_size, grid, d=d)
    pool_w = np.stack([m.weights for m in pool])
    N = timegrid.n_steps
    if scenarios.is_tree:
        idx = np.empty((scenarios.n_scenarios, N), dtype=int)
        for j in range(N):
            ids = scenarios.atom_ids(j)
            per_atom = rng.integers(0, len(pool), size=ids[-1] + 1)
            idx[:, j] = per_atom[ids]
    else:
        idx = rng.integers(0, len(pool), size=(scenarios.n_scenarios, N))
    return MeasureProcess("kernel", grid, pool_w[idx])
