"""Integrands dominated by one fixed reference measure.

Here every measure value has the form (density at time t) * eta for a
single nonnegative reference measure eta on the spatial grid.  The module
discretizes first and keeps the dominated structure exact: a spec stores
the signed atom masses of the integrand at every grid time (exact cell
masses when an antiderivative is known, midpoint quadrature otherwise),
and the density view is the atomized Radon-Nikodym derivative
masses / eta.  The classic Fubini route -- integrate each atom's density
path against the driver, then eta-mix -- is then a pure reordering of the
measure-valued route and the two agree to float accumulation error (the
tests hold that route as their reference).

Condition reports: the integrability conditions from the classic
literature are accumulated against a control path with the trapezoid rule
over the grid-point values of the inner spatial sums.  For the power-law
profile ``alpha * (z - t)^(alpha - 1) I_{z > t} dz`` the spec holds exact
cell masses and closed forms are attached.  When the grids are commensurate
(J = m N, so grid time t_l is atom m l) the masses are stationary: row l,
atom j is m0[j - m l] for the one vector m0[k] = (k h)^a - ((k - 1) h)^a,
k >= 1 (zero otherwise), and ``point_masses`` is a read-only strided view of
it.  The eta-mixes of such a spec are prefix sums of fn(m0 / h) h read at
J - m l, so a spec and every certificate probe cost O(N + J).  Other grids
difference the antiderivative one block of grid times (rows) at a time.

    variation(t)          = (T - t)^alpha
    int_0^t variation^2   = (T^(2a+1) - (T-t)^(2a+1)) / (2a + 1)
    int_0^t (int psi^2)   = a^2 / (2a(2a-1)) * (T^(2a) - (T-t)^(2a)),  a > 1/2

The mixture-last (Veraar) variants never hold a per-atom path for every
scenario.  The FV variant is linear in |psi| and eta >= 0, so it equals the
mix-first sum

    int_0^t int |psi_r| deta d|A|_r

taken left-endpoint, time-first, against the mixed path int |psi| deta.
The square-root variant int sqrt(int_0^t psi_r^2 d<M>_r) deta is
nondecreasing in t when the bracket is (a decreasing one is rejected), so
only its horizon value is formed: each atom's time sum, in column blocks,
mixed by eta.  The driver's bracket is one deterministic row, so for a
deterministic density that value is one number; its rows are the
density's rows broadcast against the bracket's.  A stationary spec forms
no density block: grid time r adds the one vector (m0 / h)^2 d<M>_r to the
atoms from m r + 1 on, O(N J) adds in O(J) memory.  The eta-mixes are
formed a block of grid times at a time, so no array of shape
(P, N + 1, J + 1) is built and, for a deterministic density, the
condition layer's memory does not grow with P.

The measure-valuedness certificate re-atomizes the spec across dyadic
spatial refinements and flags the square-density condition as divergent
when its sup grows by more than ``growth_factor`` across the probe window
(default: factor 1.5 over three doublings; both knobs are config-exposed).
The certificate checks sufficient hypotheses only and never claims the
converse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drivers import DriverPath, TimeGrid, running_sum
from .grid import CompactGrid
from .integrands import MeasureProcess

__all__ = [
    "PowerLawDensity",
    "DominatedSpec",
    "power_law_integrand",
    "make_dominated",
    "condition_evaluator",
    "measure_valuedness_certificate",
]

#: Entries per scenario row in one block of a spec walked by grid time (row
#: blocks) or by atom (column blocks): 256 KB of float64, which stays in cache.
BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class PowerLawDensity:
    """Closed forms for the density alpha * (z - t)^(alpha - 1) I_{z > t}."""

    alpha: float
    horizon: float

    def __post_init__(self):
        if self.alpha <= 0 or self.horizon <= 0:
            raise ValueError("need alpha > 0 and a positive horizon")

    def mass_antiderivative(self, z: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        return np.maximum(z - t, 0.0) ** self.alpha

    def variation(self, t: float) -> float:
        return max(self.horizon - t, 0.0) ** self.alpha

    def var_sq_integral(self, t: float) -> float:
        """int_0^t (T - r)^(2 alpha) dr for t <= T."""
        a, T = self.alpha, self.horizon
        t = min(t, T)
        return (T ** (2 * a + 1) - (T - t) ** (2 * a + 1)) / (2 * a + 1)

    def square_density_integral(self, t: float) -> float | None:
        """int_0^t int_K psi_r(z)^2 dz dr; None when it diverges (alpha <= 1/2)."""
        a, T = self.alpha, self.horizon
        if a <= 0.5:
            return None
        t = min(t, T)
        return a**2 / (2 * a * (2 * a - 1)) * (T ** (2 * a) - (T - t) ** (2 * a))


class DominatedSpec:
    """Atomized dominated integrand: signed masses at every grid time plus eta.

    ``point_masses`` has shape (P or 1, N + 1, J + 1): row l holds the atom
    masses of the measure parametrized by the grid point t_l.  Rows
    0 .. N - 1 are the predictable slot values of the induced integrand;
    row N only feeds the trapezoid condition quadrature.  It may be a
    read-only strided view: a stationary power-law spec keeps its mass
    vector in ``stationary`` (None for every other spec).
    """

    def __init__(self, grid: CompactGrid, timegrid: TimeGrid, point_masses: np.ndarray,
                 eta: np.ndarray, profile: PowerLawDensity | None = None,
                 density_fn: Callable | None = None):
        masses = np.asarray(point_masses, dtype=float)
        if masses.ndim == 2:
            masses = masses[None]
        if masses.shape[1] != timegrid.n_steps + 1 or masses.shape[2] != grid.n_atoms:
            raise ValueError("point masses must be (P, N + 1, J + 1)")
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (grid.n_atoms,) or np.any(eta < 0):
            raise ValueError("eta must be a nonnegative weight per atom")
        self.grid = grid
        self.timegrid = timegrid
        self.point_masses = masses
        self.eta = eta
        self.profile = profile
        self.density_fn = density_fn
        self.stationary: np.ndarray | None = None  # m0 when row l reads m0[j - (J / N) l]

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_power_profile(cls, alpha: float, timegrid: TimeGrid, n_cells: int) -> "DominatedSpec":
        """The alpha-power integrand with exact cell masses; eta is Lebesgue."""
        profile = PowerLawDensity(alpha, timegrid.horizon)
        grid = CompactGrid(timegrid.horizon, n_cells)
        N, J = timegrid.n_steps, n_cells
        z = grid.atoms  # property: read once
        eta = np.zeros(grid.n_atoms)
        eta[1:] = grid.cell_width
        if J % N == 0:  # t_l is atom m l: every row is the t = 0 row shifted by m l atoms
            m = J // N
            padded = np.zeros(m * N + J + 1)
            padded[m * N + 1 :] = np.diff(profile.mass_antiderivative(z, 0.0))
            masses = np.lib.stride_tricks.sliding_window_view(padded, J + 1)[m * N :: -m]
            spec = cls(grid, timegrid, masses[None], eta, profile=profile)
            spec.stationary = padded[m * N :]
            return spec
        t = timegrid.times[:, None]
        masses = np.zeros((1, N + 1, grid.n_atoms))
        for rows in _blocks(N + 1, grid.n_atoms):
            prim = profile.mass_antiderivative(z[None, :], t[rows])
            np.subtract(prim[:, 1:], prim[:, :-1], out=masses[0, rows, 1:])
        return cls(grid, timegrid, masses, eta, profile=profile)

    @classmethod
    def from_density_callable(cls, density_fn: Callable[[float, np.ndarray], np.ndarray],
                              timegrid: TimeGrid, grid: CompactGrid,
                              eta_cells: np.ndarray | None = None) -> "DominatedSpec":
        """Midpoint-quadrature masses of a deterministic density t, z -> psi_t(z)."""
        if eta_cells is None:
            eta_cells = np.zeros(grid.n_atoms)
            eta_cells[1:] = grid.cell_width
        mid = 0.5 * (grid.atoms[:-1] + grid.atoms[1:])
        masses = np.zeros((1, timegrid.n_steps + 1, grid.n_atoms))
        for l, t in enumerate(timegrid.times):
            masses[0, l, 1:] = density_fn(t, mid) * eta_cells[1:]
        return cls(grid, timegrid, masses, eta_cells, density_fn=density_fn)

    @classmethod
    def from_adapted_density(cls, density_fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
                             driver: DriverPath, grid: CompactGrid,
                             eta_cells: np.ndarray | None = None) -> "DominatedSpec":
        """Scenario-dependent density psi(t, z, S_t); adapted by construction."""
        tg = driver.timegrid
        if eta_cells is None:
            eta_cells = np.zeros(grid.n_atoms)
            eta_cells[1:] = grid.cell_width
        mid = 0.5 * (grid.atoms[:-1] + grid.atoms[1:])
        P = driver.scenarios.n_scenarios
        masses = np.zeros((P, tg.n_steps + 1, grid.n_atoms))
        for l, t in enumerate(tg.times):
            vals = density_fn(t, mid[None, :], driver.values[:, l, 0][:, None])
            masses[:, l, 1:] = vals * eta_cells[None, 1:]
        return cls(grid, tg, masses, eta_cells)

    # -- views ---------------------------------------------------------------
    @property
    def n_scenario_rows(self) -> int:
        return self.point_masses.shape[0]

    def density_values(self, rows: slice = slice(None), cols: slice = slice(None),
                       out: np.ndarray | None = None) -> np.ndarray:
        """Atomized Radon-Nikodym derivative masses / eta (zero off the support).

        ``rows`` (grid times) and ``cols`` (atoms) select a block, so callers
        can walk the density without forming all of it, into ``out`` if given.
        """
        masses = self.point_masses[:, rows, cols]
        eta = self.eta[cols]
        if out is None:
            out = np.zeros_like(masses)
        else:
            out[...] = 0.0
        return np.divide(masses, eta, out=out, where=eta > 0)

    def reatomize(self, n_cells: int) -> "DominatedSpec":
        if self.profile is not None:
            return DominatedSpec.from_power_profile(self.profile.alpha, self.timegrid, n_cells)
        if self.density_fn is not None:
            grid = CompactGrid(self.grid.endpoint, n_cells)
            return DominatedSpec.from_density_callable(self.density_fn, self.timegrid, grid)
        raise ValueError("spec has no density rule to re-atomize from")


def power_law_integrand(alpha: float, timegrid: TimeGrid, n_cells: int) -> tuple[MeasureProcess, DominatedSpec]:
    """The worked power-law example as an integration-ready process plus its spec."""
    spec = DominatedSpec.from_power_profile(alpha, timegrid, n_cells)
    return make_dominated(spec), spec


def make_dominated(spec: DominatedSpec) -> MeasureProcess:
    """Kernel-representation process of a dominated spec (d = 1); the weights are a view of the
    spec's masses."""
    slots = spec.point_masses[:, : spec.timegrid.n_steps, :]
    var_sq = spec.profile.var_sq_integral if spec.profile is not None else None
    return MeasureProcess("kernel", spec.grid, slots[:, :, None, :], var_sq_integral=var_sq)


def _trapezoid_against(values: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Trapezoid accumulation of grid-point values against dV; (P, N + 1)."""
    avg = 0.5 * (values[:, :-1] + values[:, 1:])
    return running_sum(avg * np.diff(V, axis=1))


def _blocks(n: int, width: int) -> list[slice]:
    """Slices covering range(n), each spanning about BLOCK_ENTRIES / width indices."""
    step = max(1, BLOCK_ENTRIES // width)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _eta_mix(spec: DominatedSpec, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """int fn(psi_t) deta at every grid time, (Pw, N + 1), a row block at a time.

    A stationary spec needs one prefix sum: row l holds m0 shifted by m l
    atoms, so its mix is the sum of fn(m0 / h) h up to atom J - m l (fn(0) = 0).
    """
    if spec.stationary is not None:
        J, N, h = spec.grid.n_cells, spec.timegrid.n_steps, spec.grid.cell_width
        prefix = np.cumsum(fn(spec.stationary / h) * h)
        return prefix[J - (J // N) * np.arange(N + 1)][None]
    return np.concatenate(
        [np.sum(fn(spec.density_values(rows=rows)) * spec.eta, axis=2)
         for rows in _blocks(spec.timegrid.n_steps + 1, spec.grid.n_atoms)], axis=1)


def _veraar_paths(spec: DominatedSpec, abs_mix: np.ndarray, qv: np.ndarray,
                  var_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mixture-last conditions: FV variant path and square-root variant at the horizon.

    FV: int int_0^t |psi_r(z)| d|A|_r deta(z), linear in |psi|, so it is the
    left-endpoint time sum of ``abs_mix`` against d|A|, (P, N + 1).
    Square root: int sqrt(int_0^T psi_r(z)^2 d<M>_r) deta(z), one value per
    row, (R,): the spec's rows broadcast against the bracket's, so one value
    for a deterministic density against the driver's one-row bracket.  Each
    atom's time sum only grows when the bracket does, so its sup over t is
    this horizon value and a path finite at T is finite throughout; a
    decreasing bracket raises ``ValueError``.  The atoms' sums are formed in
    column blocks of about BLOCK_ENTRIES / N atoms (set by the grid, never by
    P), each added in time order and mixed by the block's eta.  A stationary
    spec against a one-row bracket forms no density block: grid time r adds
    (m0[k] / h)^2 d<M>_r to atom m r + k, k >= 1, the same products in the
    same order.
    """
    fv = running_sum(abs_mix[:, :-1] * np.diff(var_a, axis=1))
    dqv = np.diff(qv, axis=1)
    if np.any(dqv < 0):
        raise ValueError("the bracket must be nondecreasing in time")
    N, Pw, n_atoms = spec.timegrid.n_steps, spec.n_scenario_rows, spec.grid.n_atoms
    R = max(Pw, len(dqv))
    root, blocks = np.zeros(R), _blocks(n_atoms, N)
    if spec.stationary is not None and len(dqv) == 1:
        m = spec.grid.n_cells // N
        dsq = np.square(spec.stationary / spec.grid.cell_width)
        total, buf = np.zeros((1, n_atoms)), np.empty(n_atoms)
        for r in range(N):  # atoms up to m r only ever receive +0.0 from time r
            n = n_atoms - 1 - m * r
            total[0, m * r + 1 :] += np.multiply(dsq[1 : n + 1], dqv[0, r], out=buf[:n])
        np.sqrt(total, out=total)
        for cols in blocks:
            root += total[:, cols] @ spec.eta[cols]
        return fv, root
    # one set of block buffers: fresh blocks are paged in again whenever glibc maps them
    # afresh or trims the heap under them, which the heap's layout decides (up to 100x faults)
    width = min(blocks[0].stop, n_atoms)
    dens_buf, sq_buf = np.empty(Pw * N * width), np.empty(R * N * width)
    for cols in blocks:
        w = min(cols.stop, n_atoms) - cols.start
        dens = spec.density_values(rows=slice(0, N), cols=cols,
                                   out=dens_buf[: Pw * N * w].reshape(Pw, N, w))
        sq = np.multiply(np.square(dens, out=dens), dqv[:, :, None],
                         out=sq_buf[: R * N * w].reshape(R, N, w))
        # the last partial sum, added in time order: numpy sums a lone column pairwise
        total = np.add.reduce(sq, axis=1) if w > 1 else np.cumsum(sq, axis=1)[:, -1]
        root += np.sqrt(total, out=total) @ spec.eta[cols]
    return fv, root


def _finiteness(path: np.ndarray) -> dict:
    finite = bool(np.all(np.isfinite(path)))
    sup = float(np.max(path)) if finite else float("inf")
    return {"finite": finite, "sup": sup}


def condition_evaluator(spec: DominatedSpec, S: DriverPath, V: np.ndarray) -> dict:
    """Grid accumulation of the integrability-condition zoo.

    Keys: ``c63`` (squared mixed-variation against dV), ``c64`` (the
    stronger total-mass weighted square condition), ``c66`` (the classic
    square-density condition, with its closed form when the profile knows
    one), ``c67`` (variation against the FV part and its square against
    the bracket) and ``c_veraar`` (the mixture-last variants).  Each entry
    reports finiteness and the path sup.  The implication "c64 finite
    forces c63 finite" holds pointwise by the Cauchy-Schwarz inequality
    and is asserted here.

    The FV Veraar variant uses the mix-first identity: with eta >= 0 and
    |psi| >= 0, mixing the per-atom time sums equals the left-endpoint time
    sum of the mixed path int |psi| deta against d|A|.  The square-root
    variant is nondecreasing in t (its terms psi^2 d<M> and eta are >= 0),
    so its sup and finiteness are read from its value at the horizon, one
    per density row, as the driver's bracket is one row.  No array of shape
    (P, N + 1, J + 1) is formed, and none of shape (N + 1, J + 1) for a
    stationary spec.
    """
    abs_mix = _eta_mix(spec, np.abs)  # int |psi| deta at grid points, (Pw, N + 1)
    sq_mix = _eta_mix(spec, np.square)  # int |psi|^2 deta
    eta_total = float(spec.eta.sum())

    c63_path = _trapezoid_against(abs_mix**2, V)
    c64_path = _trapezoid_against(eta_total * sq_mix, V)
    c66_path = _trapezoid_against(sq_mix, V)
    if np.any(c63_path > c64_path + 1e-9 * (1 + np.abs(c64_path))):
        raise AssertionError("Cauchy-Schwarz ordering of the condition paths failed")

    qv, var_a = S.decomposition_paths()
    c67_a = _trapezoid_against(abs_mix, var_a)
    c67_b = _trapezoid_against(abs_mix**2, qv)

    veraar_a, root_at_T = _veraar_paths(spec, abs_mix, qv, var_a)  # the root grows in t

    out = {
        "c63": _finiteness(c63_path),
        "c64": _finiteness(c64_path),
        "c66": _finiteness(c66_path),
        "c67": {"finite": _finiteness(c67_a)["finite"] and _finiteness(c67_b)["finite"],
                "sup": max(_finiteness(c67_a)["sup"], _finiteness(c67_b)["sup"]),
                "fv_part_sup": _finiteness(c67_a)["sup"],
                "bracket_part_sup": _finiteness(c67_b)["sup"]},
        "c_veraar": {"finite": bool(np.all(np.isfinite(veraar_a)) and np.all(np.isfinite(root_at_T))),
                     "sup": float(max(np.max(veraar_a), np.max(root_at_T)))},
        "c66_value_at_horizon": float(np.max(c66_path[:, -1])),
    }
    if spec.profile is not None:
        out["c66_closed_form"] = spec.profile.square_density_integral(spec.timegrid.horizon)
    return out


def measure_valuedness_certificate(spec: DominatedSpec, S: DriverPath, V: np.ndarray,
                                   growth_factor: float = 1.5, doublings: int = 3,
                                   finest_sup: float | None = None) -> dict:
    """Sufficient-hypothesis report for the integral staying measure-valued.

    Structural hypotheses (dominated form, product-measurable density)
    hold by construction of a spec.  The square-density condition is
    probed under dyadic spatial refinement: divergence is declared when
    the sup grows by more than ``growth_factor`` across the whole
    ``doublings``-wide window.  No claim is made about the converse.
    A caller that has already run :func:`condition_evaluator` on
    ``spec.reatomize(J * 2**doublings)`` against the same ``V`` passes its
    ``["c66"]["sup"]`` as ``finest_sup``, and the last probe is not rebuilt.
    """
    values = []
    J0 = spec.grid.n_cells
    for k in range(doublings + 1):
        if k == doublings and finest_sup is not None:
            values.append(float(finest_sup))
            continue
        probe_spec = spec.reatomize(J0 * 2**k) if k > 0 else spec
        values.append(float(np.max(_trapezoid_against(_eta_mix(probe_spec, np.square), V))))
    if values[0] <= 0.0:
        divergent = False
        ratio = 1.0
    else:
        ratio = values[-1] / values[0]
        divergent = bool(ratio > growth_factor)
    return {
        "hypotheses_met": not divergent,
        "dominated_form": True,
        "product_measurable": True,
        "c66_probe": {"values": values, "growth_ratio": ratio, "divergent": divergent,
                      "growth_factor": growth_factor, "doublings": doublings},
    }
