"""Two-parameter kernels and the paths they drive.

A Volterra path is X_l = sum_{j < l} K(t_l, t_j) . dS_{j+1}: the kernel is
read at the slot's left endpoint in its second argument (the predictable
convention) and vanishes for s > t.  Kernels are tabulated on the grid as
a matrix K[l, j] = K(t_l, t_j), deterministic (shape (N+1, N+1, d)) or
per-scenario (leading scenario axis).  A stationary kernel K(t, s) = f(t - s)
(power, affine) holds only its lag profile f(t_k), k = 0..N: its matrix and
its induced integrand's weights are read-only views of vectors of at most
2N + 1 values, so no route builds an (N + 1)^2 table for it.  Only tabulated
and random kernels are dense.

Splitting K(t, s) = K(s, s) + (K(t, s) - K(s, s)) decomposes X into a
driver integral of the diagonal slice plus the remainder Y.  The
remainder is exactly the horizon value of the measure-valued integral of
the induced integrand -- per slot j the measure on [0, T] whose
cumulative mass on [0, t] is K(t, t_j) - K(t_j, t_j) -- paired with the
indicator I_{[0, t]}.  In discrete time the identity

    X = diagonal integral + Y

is a finite-sum rearrangement and holds pathwise to accumulation error.
``decompose`` reads the identity-exact Y (which sees the driver up to the
evaluation index) from ``mvintegral.horizon_charge``, not the running charge.
The identity holds one scenario at a time, and every path ``decompose`` and
``density_construction`` form is per scenario, so on a block of rows
(``DriverPath.view``) they give those rows of the whole ensemble's paths bit
for bit: the CLI checks a kernel a block at a time.  What depends on the
kernel alone is taken once per kernel: its induced integrand (``induced``), the
spectra of a stationary kernel's lag and density profiles, a dense kernel's slot
table, and, by the caller, the variation check.

Every slot sum -- the horizon charge, the direct and the density sums -- is
the increments times a slot table.  A stationary kernel's is a causal
convolution, taken by FFT (``integrands._lag_sums``) a block of scenarios at a
time: the direct sum with the lag profile, the density sums with f', and the
horizon charge with the profile of differences that the induced integrand
carries, so Y is still that integrand's charge.  A dense table's is one
tiled product per scenario (``integrands._slot_sums``).  Neither rounds by P.

For kernels carrying a time-derivative density the classical
absolutely-continuous route is also provided: X = diagonal integral plus
the time integral (right-endpoint rule, which is exact for kernels affine
in t) of inner driver integrals of the density.  A stationary kernel's
density is read at the lags, psi(t_k, t_j) = f'(t_{k - j}).

The roughness diagnostic estimates how the mean total variation of an
ensemble scales across dyadic subsamplings; a slope near zero over
log(1/mesh) indicates finite variation, a positive slope divergence.
Its power-kernel paths are the same FFT convolutions (``numpy.fft``).  The
power-kernel samplers draw the Brownian increments a block of scenarios at a
time, as many as ``drivers.block_rows`` gives, so their memory does not
grow with the number of scenarios; every block is transformed in the same
work buffers.  Each block is read once for every exponent, against profile
spectra transformed once per call, and only per-path total variations (or
terminal values) are kept, never the ensemble.  Both run on up to two
threads that write their own rows: the paths' workers draw the blocks in
stream order, each into its own path buffer, which the forward transform
reads before the inverse overwrites it; the terminals' workers draw a chunk
each into their own buffer.  Results do not depend on the worker count.
The paths' calling thread may first run other work (the CLI's decompositions).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import drivers
from .drivers import (
    DriverPath,
    DriverSpec,
    PredictablePath,
    TimeGrid,
    chunk_streams,
    ito_integral,
    running_sum,
)
from .grid import CompactGrid
from .integrands import (MeasureProcess, _fft_paths, _fft_row_bytes, _fft_work, _lag_sums,
                         _profile_spectra, _slot_sums, integrability_check)
from .mvintegral import horizon_charge

__all__ = [
    "VolterraKernel",
    "power_kernel",
    "affine_kernel",
    "tabulated_kernel",
    "make_kernel",
    "volterra_direct",
    "induced_phi",
    "decompose",
    "density_construction",
    "level_variations",
    "semimartingale_diagnostic",
    "power_volterra_terminals",
    "power_volterra_paths",
]


@dataclass
class VolterraKernel:
    """Grid tabulation of a two-parameter kernel, zero above the diagonal.

    A stationary kernel K(t, s) = f(t - s) is given by its lag profile ``lag[k] = f(t_k)``,
    k = 0..N, and builds no (N + 1)^2 table: ``matrix`` is then a read-only view of the
    zero-padded profile, M[l, j] = lag[l - j].  A tabulated or random kernel keeps its dense
    table.  The methods below hide which of the two a kernel holds.
    """

    name: str
    matrix: np.ndarray | None  # (N+1, N+1, d) or (P, N+1, N+1, d); [.., l, j, i] = K(t_l, t_j)
    timegrid: TimeGrid
    density_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    var_sq_integral: Callable[[float], float] | None = None
    lag: np.ndarray | None = None  # (N+1,) f(t_k) of a stationary kernel, in place of a matrix

    def __post_init__(self):
        n1 = self.timegrid.n_steps + 1
        if self.lag is not None:
            self.lag = np.asarray(self.lag, dtype=float)
            if self.lag.shape != (n1,):
                raise ValueError("lag profile does not match the time grid")
            self.matrix = _lag_windows(self.lag, 0)[:, ::-1, None]
            return
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim == 2:
            m = m[:, :, None]
        if m.ndim not in (3, 4):
            raise ValueError("kernel matrix must be (N+1, N+1, d) or (P, N+1, N+1, d)")
        if m.shape[-3] != n1 or m.shape[-2] != n1:
            raise ValueError("kernel matrix does not match the time grid")
        l = np.arange(n1)
        m = np.where((l[:, None] >= l[None, :])[..., None], m, 0.0)
        self.matrix = m

    @property
    def d(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def induced(self) -> MeasureProcess:
        """``induced_phi`` on the kernel's grid, built once per kernel: its weights and, for a
        stationary kernel, its lag spectrum serve every ``decompose`` of the kernel."""
        return induced_phi(self, self.timegrid)

    @cached_property
    def lag_spectrum(self) -> np.ndarray:
        """The spectrum of a stationary kernel's lag profile (``_profile_spectra``), taken once."""
        return _profile_spectra([self.lag], self.timegrid.n_steps)[0]

    @cached_property
    def slot_table(self) -> np.ndarray:
        """A dense kernel's strictly-lower rows as a slot table [(j, i), l], (P or 1, N d, N + 1),
        built once per kernel."""
        N = self.timegrid.n_steps
        K = self.matrix if self.is_random else self.matrix[None]
        l = np.arange(N + 1)
        masked = np.where((l[:, None] > np.arange(N)[None, :])[None, :, :, None], K[:, :, :N, :], 0.0)
        return masked.transpose(0, 2, 3, 1).reshape(len(K), -1, N + 1)

    @cached_property
    def density_lag(self) -> tuple[np.ndarray, float]:
        """A stationary kernel's density profile psi(t_k, t_0) = f'(t_k) as its spectrum, and the
        largest gap between K(t_l, t_j) - K(t_j, t_j) = f(t_{l - j}) - f(0) and its rebuild
        sum_{0 < k <= l - j} f'(t_k) dt, which depends on l - j only: taken once."""
        t, dt = self.timegrid.times, self.timegrid.dt
        psi = self.density_fn(t, t[0])  # f'(t_k); k = 0 is never read
        spectrum = _profile_spectra([psi], self.timegrid.n_steps)[0]
        rebuilt = np.cumsum(np.multiply(psi[1:], dt, out=psi[1:]), out=psi[1:])
        rebuilt -= self.lag[1:] - self.lag[0]
        return spectrum, float(np.max(np.abs(rebuilt)))

    @property
    def is_random(self) -> bool:
        return self.matrix.ndim == 4

    def diagonal(self) -> np.ndarray:
        """Diagonal slice as predictable slot values, (P or 1, N, d)."""
        m = self.matrix if self.is_random else self.matrix[None]
        N = self.timegrid.n_steps
        idx = np.arange(N)
        return m[:, idx, idx, :]

    def t_increments(self) -> np.ndarray:
        """K(t_l, t_j) - K(t_{l-1}, t_j) for l > j, zero elsewhere, as (P or 1, N, d, N + 1):
        slot j, atom l.  A stationary kernel's is a read-only view of diff(lag)."""
        N = self.timegrid.n_steps
        if self.lag is not None:  # slot j is window N - j
            return _lag_windows(np.diff(self.lag, prepend=0.0))[N:0:-1][None, :, None, :]
        K = self.matrix if self.is_random else self.matrix[None]
        diffs = np.diff(K, axis=1)  # [p, l-1->l, j, i]
        l = np.arange(1, N + 1)
        keep = (l[:, None] > np.arange(N)[None, :])[None, :, :, None]
        diffs = np.where(keep, diffs[:, :, :N, :], 0.0)
        weights = np.zeros((K.shape[0], N, K.shape[-1], N + 1))
        weights[:, :, :, 1:] = np.transpose(diffs, (0, 2, 3, 1))
        return weights

    def causal_sums(self, dS: np.ndarray) -> np.ndarray:
        """sum_{j < l} K(t_l, t_j) . dS[:, j] for l = 0..N, from (P, N, d) increments: (P, N + 1);
        a stationary kernel's by convolving its lag profile (``_lag_sums``), a dense one's from
        its strictly-lower rows as a slot table [(j, i), l] (``_slot_sums``)."""
        P, N = dS.shape[:2]
        if self.d == 1:  # a scalar kernel weighs every driver component alike
            dS = np.sum(dS, axis=2, keepdims=True)
        if self.lag is not None:
            return _lag_sums(dS[:, :, 0], self.lag_spectrum)
        if self.slot_table.shape[0] not in (1, P):
            raise ValueError("kernel scenario dimension mismatch")
        return _slot_sums(self.slot_table, dS.reshape(P, -1))

    def density_sums(self, dS: np.ndarray) -> tuple[np.ndarray, float]:
        """sum_{j < k} psi(t_k, t_j) dS[:, j] for k = 0..N, from (P, N) increments of a
        deterministic scalar kernel with a density: (P, N + 1); and the largest gap, over
        j < l, between K(t_l, t_j) - K(t_j, t_j) and its rebuild sum_{j < k <= l} psi(t_k, t_j) dt.

        A stationary kernel's density is psi(t_k, t_j) = f'(t_{k - j}): its sums convolve one
        (N + 1) profile (``_lag_sums``), and the rebuild gap depends on l - j only, so both are
        taken from the profile, once per kernel (``density_lag``).  A dense kernel's density
        table is summed, then rebuilt in its own place."""
        N, dt = self.timegrid.n_steps, self.timegrid.dt
        t = self.timegrid.times
        if self.lag is not None:
            spectrum, residual = self.density_lag
            return _lag_sums(dS, spectrum), residual
        psi = self.density_fn(t[:, None], t[None, :N])  # [k, j] = psi(t_k, t_j)
        np.copyto(psi, 0.0, where=t[:, None] <= t[None, :N])
        inner = _slot_sums(psi.T[None], dS)
        rebuilt = np.cumsum(np.multiply(psi[1:], dt, out=psi[1:]), axis=0, out=psi[1:])
        rebuilt -= self.matrix[1:, :N, 0] - self.matrix[np.arange(N), np.arange(N), 0][None, :]
        residual = float(np.max(np.abs(rebuilt, out=rebuilt), where=t[1:, None] > t[None, :N],
                                initial=0.0))
        return inner, residual


def _lag_windows(profile: np.ndarray, first: int = 1) -> np.ndarray:
    """Read-only windows W[a, c] = profile[a + c - N] of an (N + 1) profile, zero where
    a + c - N < first, with positive strides on both axes: W[N - j, l] = profile[l - j].  Rows
    N..1 (``[N:0:-1]``) are the slot table [j, l], as the induced integrand's weights."""
    n1 = len(profile)
    padded = np.zeros(2 * n1 - 1)
    padded[n1 - 1 + first :] = profile[first:]
    return sliding_window_view(padded, n1)


def power_kernel(alpha: float, timegrid: TimeGrid) -> VolterraKernel:
    """K(t, s) = (t - s)^alpha for s <= t; zero diagonal, stationary."""
    if alpha <= 0:
        raise ValueError("need alpha > 0")
    T = timegrid.horizon
    return VolterraKernel(
        f"power_alpha[{alpha}]",
        None,
        timegrid,
        density_fn=lambda r, s: alpha * np.maximum(r - s, 1e-300) ** (alpha - 1) * (r > s),
        var_sq_integral=lambda u: (T ** (2 * alpha + 1) - (T - min(u, T)) ** (2 * alpha + 1))
        / (2 * alpha + 1),
        lag=timegrid.times**alpha,
    )


def affine_kernel(level: float, slope: float, timegrid: TimeGrid) -> VolterraKernel:
    """K(t, s) = level + slope * (t - s) for s <= t; stationary."""
    return VolterraKernel(
        f"affine[{level},{slope}]",
        None,
        timegrid,
        density_fn=lambda r, s: slope * np.ones_like(r - s),
        lag=level + slope * timegrid.times,
    )


def tabulated_kernel(matrix: np.ndarray, timegrid: TimeGrid, name: str = "tabulated") -> VolterraKernel:
    return VolterraKernel(name, np.asarray(matrix, dtype=float), timegrid)


def make_kernel(name: str, params: dict, timegrid: TimeGrid) -> VolterraKernel:
    """Registry lookup over checked parameters: power_alpha {alpha}, affine {level, slope},
    tabulated {path, matrix}, the matrix being the table read from the CSV at path."""
    if name == "power_alpha":
        return power_kernel(params["alpha"], timegrid)
    if name == "affine":
        return affine_kernel(params["level"], params["slope"], timegrid)
    if name == "tabulated":
        return tabulated_kernel(params["matrix"], timegrid, name=f"tabulated[{params['path']}]")
    raise KeyError(f"unknown kernel {name!r}")


def volterra_direct(kernel: VolterraKernel, S: DriverPath) -> np.ndarray:
    """X_l = sum_{j < l} K(t_l, t_j) . dS_{j+1} per scenario; O(N^2) direct, from the
    kernel's strictly-lower rows (``VolterraKernel.causal_sums``)."""
    if kernel.timegrid.n_steps != S.timegrid.n_steps:
        raise ValueError("kernel and driver grids differ")
    return kernel.causal_sums(S.increments)


def induced_phi(kernel: VolterraKernel, timegrid: TimeGrid) -> MeasureProcess:
    """Measure-valued integrand induced by the kernel on the spatial grid [0, T].

    Slot j carries the measure whose cumulative mass on [0, t] equals
    K(t, t_j) - K(t_j, t_j) for t >= t_j: atom l gets the t-increment
    K(t_l, t_j) - K(t_{l-1}, t_j) for l > j, atom 0 carries no mass, and
    the componentwise variation is the grid total variation of the
    kernel's t-slice.  The weights are ``VolterraKernel.t_increments``: for a
    stationary kernel a read-only (1, N, 1, N + 1) view of diff(lag), whose
    slot 0, diff(lag) itself, the process carries as its ``lag`` profile.
    """
    grid = CompactGrid(timegrid.horizon, timegrid.n_steps)
    weights = kernel.t_increments()
    return MeasureProcess("volterra", grid, weights, var_sq_integral=kernel.var_sq_integral,
                          lag=None if kernel.lag is None else weights[0, 0, 0])


def _variation_check(phi: MeasureProcess, V: np.ndarray, timegrid: TimeGrid) -> dict:
    out = integrability_check(phi, V, timegrid)
    return {"integrable": out["member"], "d_path": out["d_path"], "sup": out["sup"],
            **({"location": out["location"]} if "location" in out else {})}


def decompose(kernel: VolterraKernel, S: DriverPath, check: dict | None = None) -> dict:
    """Split the Volterra path into a diagonal driver integral plus remainder.

    Returns the diagonal part, the remainder Y read from the horizon
    charge (identity-exact), the reconstruction, the direct path and its
    maximal gap to the reconstruction.  Every path is per scenario, so the
    rows of a block of scenarios (``DriverPath.view``) are those rows of the
    whole ensemble's, bit for bit.  ``check`` is the variation check of the
    kernel's induced integrand (``kernel.induced``) against S's control, which
    reads neither the scenarios nor the increments: a caller walking blocks of
    S, whose views share its control, runs it once and passes it.  When not
    given it is run here.
    """
    phi = kernel.induced
    if check is None:
        check = _variation_check(phi, S.control, S.timegrid)
    if not check["integrable"]:
        return {"condition_ok": False, **check}
    diag = ito_integral(PredictablePath(kernel.diagonal()), S)
    y = horizon_charge(phi, S)
    np.cumsum(y, axis=1, out=y)  # Y_l pairs it with I_{[0, t_l]}
    x_direct = volterra_direct(kernel, S)
    x_reconstructed = diag + y
    diff = np.subtract(x_direct, x_reconstructed)
    gap = float(np.max(np.abs(diff, out=diff)))
    return {
        "condition_ok": True,
        "diag": diag,
        "y": y,
        "x_reconstructed": x_reconstructed,
        "x_direct": x_direct,
        "max_identity_gap": gap,
    }


def density_construction(kernel: VolterraKernel, S: DriverPath) -> dict:
    """Absolutely-continuous route: diagonal part plus time-integrated inner
    driver integrals of the kernel's t-derivative density.

    The outer time integral uses the right-endpoint rule, which reproduces
    kernels affine in t exactly and is first-order otherwise.  Also
    reports how well the density's time sums rebuild the kernel.  Both read
    the density's strictly-lower rows through ``VolterraKernel.density_sums``:
    for a stationary kernel a view of one profile, with the rebuild gap taken
    per lag.
    """
    if kernel.density_fn is None:
        raise ValueError("kernel carries no time-derivative density")
    if kernel.is_random or kernel.d != 1:
        raise ValueError("density route implemented for deterministic scalar kernels")
    # inner[:, k]: the driver integral of psi(t_k, .) up to k
    inner, residual = kernel.density_sums(S.increments[:, :, 0])
    time_part = running_sum(np.multiply(inner[:, 1:], S.timegrid.dt, out=inner[:, 1:]))
    del inner
    diag = ito_integral(PredictablePath(kernel.diagonal()), S)
    return {"x": np.add(diag, time_part, out=time_part), "diag": diag,
            "kernel_rebuild_residual": residual}


def level_variations(Y: np.ndarray, n_levels: int = 6, out: np.ndarray | None = None,
                     buf: np.ndarray | None = None) -> np.ndarray:
    """Per-path total variation keeping every 2**k-th point, (P, n_levels), into
    ``out``; every level's differences go into ``buf``, of at least (P, N)."""
    if n_levels < 3:
        raise ValueError("need at least three refinement levels")
    P, N = Y.shape[0], Y.shape[1] - 1
    if N % 2 ** (n_levels - 1) != 0:
        raise ValueError("finest grid must divide by the subsampling strides")
    out = np.empty((P, n_levels)) if out is None else out
    buf = np.empty((P, N)) if buf is None else buf
    for k in range(n_levels):
        s = 1 << k
        d = np.subtract(Y[:, s::s], Y[:, :-s:s], out=buf[:P, : N // s])
        np.add.reduce(np.abs(d, out=d), axis=1, out=out[:, k])
    return out


def semimartingale_diagnostic(tv: np.ndarray, timegrid: TimeGrid) -> dict:
    """Scaling of mean total variation across dyadic subsamplings.

    ``tv`` is a (P, n_levels) table from ``level_variations``; the slope of
    log(mean TV) against log(1/mesh) is estimated by least squares.
    Slopes near zero indicate paths of finite variation.
    """
    rows = [{"stride": 2**k, "mesh": timegrid.dt * 2**k, "mean_tv": float(np.mean(tv[:, k]))}
            for k in range(tv.shape[1])]
    x = np.log([1.0 / r["mesh"] for r in rows])
    y = np.log([r["mean_tv"] for r in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    return {"slope": slope, "levels": rows}


def power_volterra_terminals(alphas: Sequence[float], u_indices: Sequence[int],
                             timegrid: TimeGrid, n_scenarios: int, seed: int) -> np.ndarray:
    """Streamed power-kernel path samples at chosen grid indices, (P, n_alpha, n_u).

    Reads the Brownian driver ``simulate_driver`` builds for ``ScenarioSet.monte_carlo(
    n_scenarios, seed)``, a chunk per ``drivers.pull_blocks`` worker, ``block_rows`` at a
    time into the worker's buffer; each block is drawn once for all exponents.
    """
    N = timegrid.n_steps
    t = timegrid.times
    out = np.empty((n_scenarios, len(alphas), len(u_indices)))
    weights = [[np.maximum(t[u] - t[:N], 0.0) ** alpha * (t[:N] < t[u]) for u in u_indices]
               for alpha in alphas]
    rows = drivers.block_rows(N * 8, n_scenarios)
    bufs = [np.empty((rows, N, 1)) for _ in range(drivers.WORKERS)]

    def consume(worker: int, chunk: tuple) -> None:
        for draw in chunk[2]():
            lo, hi, dW, _ = draw(bufs[worker])
            for a, row in enumerate(weights):
                for c, w in enumerate(row):  # one gemv per column: a gemm rounds differently
                    out[lo:hi, a, c] = dW[:, :, 0] @ w

    chunks = chunk_streams(DriverSpec("brownian"), timegrid, seed, n_scenarios, rows=rows)
    drivers.pull_blocks(consume, lambda worker: next(chunks, None))
    return out


def power_volterra_paths(alphas: Sequence[float], timegrid: TimeGrid, n_scenarios: int,
                         seed: int, n_levels: int = 6,
                         lead: Callable[[], None] | None = None) -> np.ndarray:
    """``level_variations`` of the power-kernel paths ``volterra_direct`` sums, here by
    FFT convolution (``_fft_paths``) on the shared Brownian blocks, (n_alpha, P, n_levels).
    Each block is drawn and transformed once for all exponents, by one of
    ``drivers.WORKERS`` threads (``drivers.pull_blocks``), in as many rows as the budget
    holds of transform work (``block_rows``), whatever the worker count, and holds only that
    worker's three transform buffers (``_fft_work``): the block is drawn, in stream order
    under the pool's lock, into the first rows * N floats of the worker's path buffer, and
    each level's differences go into its product buffer.  The calling thread runs ``lead()``
    first, as the pool's lead."""
    N = timegrid.n_steps
    spectra = _profile_spectra([(np.arange(N + 1) * timegrid.dt) ** alpha for alpha in alphas], N)
    out = np.empty((len(alphas), n_scenarios, n_levels))
    rows = drivers.block_rows(_fft_row_bytes(N), n_scenarios)
    works = [_fft_work(rows, N) for _ in range(drivers.WORKERS)]
    blocks = [x.reshape(-1)[: rows * N].reshape(rows, N, 1) for _, _, x in works]
    draws = (draw for _, _, chunk in chunk_streams(DriverSpec("brownian"), timegrid, seed,
                                                   n_scenarios, rows=rows) for draw in chunk())

    def source(worker: int) -> tuple | None:
        draw = next(draws, None)
        return None if draw is None else draw(blocks[worker])

    def consume(worker: int, item: tuple) -> None:
        lo, hi, dW, _ = item
        diffs = works[worker][1].view(float)
        for a, paths in enumerate(_fft_paths(dW[:, :, 0], spectra, works[worker])):
            level_variations(paths, n_levels, out[a, lo:hi], diffs)

    drivers.pull_blocks(consume, source, lead)
    return out
