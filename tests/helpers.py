"""Reference computations that only the tests read."""

import numpy as np

from mvstoch.drivers import DriverPath, running_sum
from mvstoch.grid import CompactGrid, SignedMeasureVec, TestFamily
from mvstoch.integrands import _pair_rows
from mvstoch.mvintegral import _pair, charge_blocks
from mvstoch.volterra import (
    VolterraKernel,
    _fft_paths,
    _profile_spectra,
    _variation_check,
    induced_phi,
)


def resolve(grid: CompactGrid, point: float, tol: float = 1e-12) -> int:
    """Atom index of a coordinate; error if not on the grid."""
    idx = int(round(point / grid.cell_width))
    if idx < 0 or idx > grid.n_cells or abs(grid.atoms[idx] - point) > tol:
        raise ValueError(f"{point} is not an atom of the grid")
    return idx


def pair(m: SignedMeasureVec, f: np.ndarray) -> np.ndarray:
    """The d pairings of ``m`` with the grid function ``f``."""
    f = np.asarray(f, dtype=float)
    if f.shape != (m.grid.n_atoms,):
        raise ValueError("test function does not match the grid")
    return m.weights @ f


def evaluate_measure(fam: TestFamily, m: SignedMeasureVec) -> np.ndarray:
    """Pairings with every family member, (k_max, d)."""
    return fam.functions @ m.weights.T


def weak_star_delta(m: SignedMeasureVec, m2: SignedMeasureVec, fam: TestFamily) -> float:
    """Truncated weak* metric sum_k 2**-k |m(u_k) - m'(u_k)|, the componentwise
    pairing gap aggregated with the Euclidean norm."""
    diff = evaluate_measure(fam, m) - evaluate_measure(fam, m2)
    return float(fam.delta_weights @ np.sqrt(np.sum(diff * diff, axis=1)))


def left_limit_remainder(kernel: VolterraKernel, S: DriverPath) -> np.ndarray:
    """The Volterra remainder's left limit at every grid time, (P, N + 1), zero at 0:
    the charge at l - 1 paired with I_{[0, t_l]}, measurable at t_{l-1}."""
    y_leftlim = np.zeros((S.scenarios.n_scenarios, S.timegrid.n_steps + 1))
    for lo, block in charge_blocks(induced_phi(kernel, S.timegrid), S):
        l = np.arange(lo + 1, lo + block.shape[1])
        y_leftlim[:, l] = np.cumsum(block[:, :-1, : l[-1] + 1], axis=2)[:, l - 1 - lo, l]
    return y_leftlim


def order_bound(m: int, abs_sum) -> np.ndarray:
    """2 gamma_m times ``abs_sum``, gamma_m = m u / (1 - m u): how far apart two computed values
    of one sum can be, whatever their summation orders, when each term passes through at most
    m roundings and ``abs_sum`` is the sum of the terms' absolute values (Higham, sec. 3.1).
    A sum of n rounded products takes m = n."""
    mu = m * np.finfo(float).eps / 2
    return 2 * mu / (1 - mu) * np.asarray(abs_sum)


def variation_condition_check(kernel: VolterraKernel, S: DriverPath, V: np.ndarray) -> dict:
    """Finiteness of the accumulated squared t-variation of the kernel."""
    return _variation_check(induced_phi(kernel, S.timegrid), V, S.timegrid)


def diagonal_jump_check(kernel: VolterraKernel, M: DriverPath) -> dict:
    """Running root of summed squared diagonal-weighted jumps.

    Zero for continuous drivers; the ensemble mean at the horizon serves
    as the local-integrability proxy.
    """
    P = M.scenarios.n_scenarios
    N = M.timegrid.n_steps
    if M.jump_increments is None:
        stat = np.zeros((P, N + 1))
    else:
        diag = np.broadcast_to(kernel.diagonal(), (P, N, kernel.d))
        weighted = np.sum(diag * M.jump_increments, axis=2)
        stat = np.sqrt(running_sum(weighted**2))
    mean_horizon = float(M.scenarios.probs @ stat[:, -1])
    return {"stat": stat, "mean_at_horizon": mean_horizon}


def fft_volterra(kernel: VolterraKernel, S: DriverPath) -> np.ndarray:
    """The Volterra path of a stationary deterministic scalar kernel, (P, N + 1), by the
    roughness diagnostic's FFT convolution of its lag profile K(t_l, 0) with the increments."""
    N = S.timegrid.n_steps
    return next(_fft_paths(S.increments[:, :, 0], _profile_spectra([kernel.matrix[:, 0, 0]], N)))


def net_fineness(net, probes, fam) -> float:
    """Max over probes of the weak* distance to the nearest net element."""
    return max(min(weak_star_delta(p, m, fam) for m in net) for p in probes)


def dense_evals(phi, functions) -> np.ndarray:
    """phi's pairings with every row of ``functions``, all scenarios at once: (P, N, K, d)."""
    P, N, d, _ = phi.weights.shape
    return _pair_rows(phi.weights, functions).reshape(P, N, d, -1).swapaxes(2, 3)


def dense_sq_norms(phi, w, functions, minus=None) -> np.ndarray:
    """The weighted squared norms (K,) by the seminorms' rule, on the whole (P, N, K) array of
    squares: its rows grouped by their bytes, in byte order, each times the total of w over its
    pairs in (scenario, slot) order (``np.bincount``), summed by ``np.einsum``; with ``minus``
    those of the difference of evaluations."""
    evals = dense_evals(phi, functions)
    if minus is not None:
        evals = evals - dense_evals(minus, functions)
    sq = evals[..., 0] * evals[..., 0]
    for i in range(1, evals.shape[3]):
        sq += evals[..., i] * evals[..., i]
    sq = np.broadcast_to(sq, w.shape + sq.shape[2:]).reshape(w.size, -1)
    keys = sq.view(np.dtype((np.void, sq.shape[1] * sq.itemsize)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    mass = np.bincount(inverse, weights=w.ravel(), minlength=len(first))
    return np.einsum("u,uk->k", mass, sq[first])


def project_loop(phi, net, fam):
    """The weak* distance for every (scenario, slot) pair, (P, N, len(net)), then the nearest
    net element: projected weights, assignment and attained distances.  Pairs through the
    package's helper, as ``project_to_net`` does, so that its distances compare bit for bit."""
    evals = dense_evals(phi, fam.functions)
    dists = np.empty(evals.shape[:2] + (len(net),))
    for j, m in enumerate(net):
        b = _pair_rows(m.weights[None], fam.functions)[0].T  # (K, d)
        gap = evals - b[None, None]
        dists[:, :, j] = np.einsum("k,pnk->pn", fam.delta_weights,
                                   np.sqrt(np.sum(gap * gap, axis=3)))
    assignment = np.argmin(dists, axis=2)
    attained = np.take_along_axis(dists, assignment[:, :, None], axis=2)[:, :, 0]
    return np.stack([m.weights for m in net])[assignment], assignment, attained


def paired_gap(phi, minus, S, functions) -> np.ndarray:
    """The pairing of phi's charge minus that of ``minus``, (P, K, N + 1): the two block
    streams drawn in step and the difference of each pair of blocks paired whole."""
    gap = np.zeros((S.scenarios.n_scenarios, len(functions), S.timegrid.n_steps + 1))
    for (lo, block), (_, other) in zip(charge_blocks(phi, S), charge_blocks(minus, S)):
        _pair(gap, lo, block - other, functions)
    return gap
