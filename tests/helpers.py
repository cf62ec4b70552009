"""Reference computations that only the tests read."""

import math
import tracemalloc
from typing import Callable, Iterator, Sequence

import numpy as np

from mvstoch.dominated import DominatedSpec, _finiteness, make_dominated
from mvstoch.drivers import (
    SCENARIO_CHUNK,
    DriverPath,
    DriverSpec,
    PredictablePath,
    ScenarioSet,
    StoppingRule,
    TimeGrid,
    block_rows,
    chunk_streams,
    energy_integral,
    running_sum,
    stopping_weights,
)
from mvstoch.grid import CompactGrid, SignedMeasureVec, TestFamily
from mvstoch.integrands import (
    MeasureProcess,
    _family_evals,
    _fft_length,
    _fft_paths,
    _pair_rows,
    _profile_spectra,
)
from mvstoch.mvintegral import _pair, charge_blocks, paired_charge
from mvstoch.volterra import VolterraKernel, _variation_check, induced_phi


def traced_peak(fn: Callable[[], object]) -> int:
    """Peak traced bytes of one ``fn()`` call, after an untraced warm-up call, so that one-time
    set-up (imports, FFT plans, caches) is not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def increment_blocks(spec: DriverSpec, timegrid: TimeGrid, seed: int, n_scenarios: int,
                     rows: int = SCENARIO_CHUNK
                     ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None]]:
    """``drivers.chunk_streams`` flattened: each row block's (lo, hi, increments, jumps) in
    stream order, each drawn fresh, so a reference route can read the ensemble block by block
    without holding it."""
    for _, _, draws in chunk_streams(spec, timegrid, seed, n_scenarios, rows):
        for draw in draws():
            yield draw()  # no reference kept: the block is freed before the next is drawn


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


def fft_error_bound(profile: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """An a-priori bound, per row (P, 1), on how far ``integrands._lag_sums`` of (P, N)
    increments x with an (N + 1) profile may lie from the exact sums sum_{j < l} w[l - j] x_j.

    The sums are y = F^-1 (F x . F w) at n = ``_fft_length(N)``, w the profile without lag 0.
    Each transform is taken to err as Higham's radix-2 bound (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 24.2) allows, ||fl(F z) - F z||_2 <= delta ||F z||_2, with
    delta = L eta / (1 - L eta) and eta = mu + gamma_4 (sqrt 2 + mu): L = log2 n + 1 passes (one
    more for a real transform's split) and twiddles good to mu = 2u.  With ||F z||_2 =
    sqrt(n) ||z||_2, |F z| <= ||z||_1 entrywise, a complex product's rounding below
    sqrt(2) gamma_2 < 3u and an exact 1/n (n a power of 2), every entry errs by at most, to first
    order in u, (2 delta + 3u) ||w||_1 ||x||_2 + delta ||x||_1 ||w||_2."""
    x, w = np.asarray(increments, dtype=float), np.asarray(profile, dtype=float)[1:]
    u, L = np.finfo(float).eps / 2, math.log2(_fft_length(x.shape[1])) + 1
    eta = 2 * u + 4 * u / (1 - 4 * u) * (math.sqrt(2) + 2 * u)
    delta = L * eta / (1 - L * eta)
    norms = lambda z: (np.sum(np.abs(z), axis=-1, keepdims=True),
                       np.sqrt(np.sum(z * z, axis=-1, keepdims=True)))
    (x1, x2), (w1, w2) = norms(x), norms(w)
    return (2 * delta + 3 * u) * w1 * x2 + delta * x1 * w2


def lag_sum_bound(profile: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """How far the lag route's sums (``_lag_sums``, by FFT) and the dense table's
    (``_slot_sums``, N rounded products each) of the same profile may lie apart, (P, N + 1):
    ``fft_error_bound`` plus the table's ``order_bound``."""
    x = np.asarray(increments, dtype=float)
    N = x.shape[1]
    gap = np.arange(N + 1)[:, None] - np.arange(N)[None, :]
    table = np.where(gap > 0, np.abs(profile)[np.clip(gap, 0, N)], 0.0)  # [l, j] = |w[l - j]|
    return fft_error_bound(profile, x) + order_bound(N, np.abs(x) @ table.T)


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
    roughness diagnostic's FFT convolution of its lag profile K(t_l, 0) with the increments,
    all scenarios in one transform."""
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
    k = len(functions)
    for (lo, block), (_, other) in zip(charge_blocks(phi, S, k), charge_blocks(minus, S, k)):
        _pair(gap, lo, block - other, functions)
    return gap


def variation(m: SignedMeasureVec) -> np.ndarray:
    """Componentwise variation norms of ``m``, a length-d vector."""
    return np.sum(np.abs(m.weights), axis=1)


def check_adapted(path: PredictablePath, scenarios: ScenarioSet) -> None:
    """Assert slot j of ``path`` is known at t_j (constant on level-j atoms)."""
    if not scenarios.is_tree or path.values.shape[0] == 1:
        return
    for j in range(path.values.shape[1]):
        if not scenarios.is_measurable(path.values[:, j, :], j):
            raise AssertionError(f"slot {j} is not measurable at its left endpoint")


def check_stopping_time(tau: StoppingRule, scenarios: ScenarioSet) -> None:
    """Tree mode: assert {tau <= l} is a union of level-l atoms."""
    if not scenarios.is_tree:
        return
    for level in range(tau.n_steps + 1):
        hit = (tau.indices <= level).astype(float)
        if not scenarios.is_measurable(hit, level):
            raise AssertionError(f"{{tau <= {level}}} is not a union of level atoms")


def stopped_driver(S: DriverPath, tau: StoppingRule) -> DriverPath:
    """The driver frozen strictly before tau, S^{tau-}: the path held at ``tau.pre_index()``
    from there on, and increments exactly ``S.increments * tau.increment_mask()`` (a dropped
    slot keeps the sign of its zero); S itself if tau never stops.  The control still bounds
    it.  The integral against it is the integral stopped before tau."""
    P, N = S.scenarios.n_scenarios, S.timegrid.n_steps
    if tau.n_steps != N or tau.indices.shape != (P,):
        raise ValueError("stopping rule grid mismatch")
    if np.all(tau.indices > N):  # the never marker everywhere: no copy of what it keeps
        return S
    mask = tau.increment_mask()[:, :, None]
    held = np.minimum(np.arange(N + 1), tau.pre_index()[:, None])[:, :, None]
    jumps = None if S.jump_increments is None else S.jump_increments * mask
    out = DriverPath(S.spec, S.timegrid, S.scenarios,
                     np.take_along_axis(S.values, held, axis=1), S.control, jumps)
    inc = S.increments * mask
    inc.setflags(write=False)
    out.__dict__["increments"] = inc  # fills the cached property
    return out


def localizing_sequence(V: np.ndarray, levels: Sequence[float], scenarios: ScenarioSet,
                        extra: np.ndarray | None = None) -> list[StoppingRule]:
    """First-passage rules tau_M = first index where V (or extra) reaches M, per scenario."""
    n_steps = V.shape[1] - 1
    watched = V if extra is None else np.maximum(V, extra)
    rules = []
    for M in levels:
        hit = watched >= M
        idx = np.where(hit.any(axis=1), hit.argmax(axis=1), n_steps + 1)
        rule = StoppingRule(np.broadcast_to(idx, scenarios.n_scenarios), n_steps)
        check_stopping_time(rule, scenarios)
        rules.append(rule)
    return rules


def control_inequality_check(S: DriverPath, V: np.ndarray, integrands: Sequence[PredictablePath],
                             tau: StoppingRule, rows: int = 2048) -> dict:
    """Monte Carlo check of the control inequality for very simple integrands.

    For each H compares lhs = E[sup_{l <= tau-1} |(H . S)_l|^2] with
    rhs = E[V_{tau-} * energy(H, V)_{tau-}]; the margin rhs - lhs is
    reported with the standard error of the per-scenario differences.

    The scenarios are walked ``rows`` at a time: each block's increments are masked once by
    ``tau.increment_mask()`` (the increments of the driver stopped before tau), and every
    integrand's running sum, square and sup are taken in one reused time-major (N + 1, rows)
    buffer.  The d products are added in order and each time to the last, as ``ito_integral``
    adds them, so each scenario's sup is its bit for bit (for d <= 8; a zero's sign aside, which
    the square drops).
    """
    probs, dS = S.scenarios.probs, S.increments
    if any(H.values.shape[1:] != dS.shape[1:] for H in integrands):
        raise ValueError("integrand and driver differ in time grid or component count")
    v_pre, mask = tau.left_limit(V), tau.increment_mask()[:, :, None]  # one mask for all
    P, N, d = dS.shape
    lhs_ps = np.empty((len(integrands), P))
    paths, incs = np.zeros((N + 1, min(rows, P))), np.empty((N, min(rows, P), d))
    for lo in range(0, P, rows):
        hi = min(lo + rows, P)
        path, inc = paths[:, : hi - lo], incs[:, : hi - lo]
        np.multiply(dS[lo:hi].transpose(1, 0, 2), mask[lo:hi].transpose(1, 0, 2), out=inc)
        for H, lhs_p in zip(integrands, lhs_ps):
            h = (H.values[lo:hi] if len(H.values) > 1 else H.values).transpose(1, 0, 2)
            np.multiply(h[..., 0], inc[..., 0], out=path[1:])
            for i in range(1, d):
                path[1:] += h[..., i] * inc[..., i]
            for t in range(1, N + 1):  # cumsum order, each time a contiguous add
                np.add(path[t - 1], path[t], out=path[t])
            np.max(np.multiply(path, path, out=path), axis=0, out=lhs_p[lo:hi])
    rows_out = []
    for H, lhs_p in zip(integrands, lhs_ps):
        rhs_p = v_pre * tau.left_limit(energy_integral(H, V))
        lhs = float(probs @ lhs_p)
        rhs = float(probs @ rhs_p)
        diff = rhs_p - lhs_p
        mean_diff = float(probs @ diff)
        var_diff = float(probs @ (diff - mean_diff) ** 2)
        se = math.sqrt(var_diff / len(diff))
        rows_out.append({"lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "se": se})
    worst = min(rows_out, key=lambda r: r["margin"] + 3 * r["se"])
    return {"per_integrand": rows_out, "min_margin": worst["margin"], "min_margin_se": worst["se"]}


def evaluate(phi: MeasureProcess, f: np.ndarray,
             scenarios: ScenarioSet | None = None) -> PredictablePath:
    """Pair every (scenario, slot) measure vector with the grid function f; on a tree with
    ``scenarios`` given, a random phi's path is checked adapted."""
    f = np.asarray(f, dtype=float)
    if f.shape != (phi.grid.n_atoms,):
        raise ValueError("test function does not match the grid")
    path = PredictablePath(_pair_rows(phi.rows(), f[None]).reshape(phi.shape[:3]))
    if scenarios is not None and phi.is_random:
        check_adapted(path, scenarios)
    return path


def kernel_process(grid: CompactGrid, psi: np.ndarray, rho: np.ndarray,
                   var_sq_integral: Callable[[float], float] | None = None) -> MeasureProcess:
    """Density values psi (P, N, d, J + 1) at atoms times nonnegative kernel cell masses rho
    (P, N, J + 1)."""
    psi = np.asarray(psi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("kernel must be nonnegative")
    if psi.ndim != 4 or rho.ndim != 3:
        raise ValueError("psi must be (P, N, d, J + 1) and rho (P, N, J + 1)")
    return MeasureProcess("kernel", grid, psi * rho[:, :, None, :], var_sq_integral=var_sq_integral)


def seminorm_domination_check(phi: MeasureProcess, S: DriverPath, V: np.ndarray,
                              tau: StoppingRule, fam: TestFamily) -> dict:
    """Check that the maximal seminorm of the integral against S stopped before tau is
    dominated by the integrand seminorm (exact on trees, 3 standard errors otherwise)."""
    if phi.kind != "elementary":
        raise ValueError("domination check is stated for elementary integrands")
    scenarios = S.scenarios
    probs = scenarios.probs
    Z = paired_charge(phi, stopped_driver(S, tau), fam.functions)
    M2 = np.max(np.abs(Z), axis=2) ** 2  # (P, K)
    r_sq_p = M2 @ fam.gammas
    r_value = float(np.sqrt(probs @ r_sq_p))

    w = stopping_weights(tau, V, scenarios)
    evals = _family_evals(phi, fam.functions)
    sq = np.sum(evals * evals, axis=3)  # (P, N, K)
    q_sq_p = np.einsum("pn,pnk,k->p", w / probs[:, None],
                       np.broadcast_to(sq, w.shape + sq.shape[2:]), fam.gammas)
    q_value = float(np.sqrt(probs @ q_sq_p))

    if scenarios.is_tree:
        se = 0.0
        holds = r_value <= q_value + 1e-12
    else:
        P = scenarios.n_scenarios
        se_r_sq = float(np.std(r_sq_p) / math.sqrt(P))
        se_q_sq = float(np.std(q_sq_p) / math.sqrt(P))
        se_r = se_r_sq / (2 * r_value) if r_value > 0 else 0.0
        se_q = se_q_sq / (2 * q_value) if q_value > 0 else 0.0
        se = se_r + se_q
        holds = r_value <= q_value + 3 * se
    return {"r_value": r_value, "q_value": q_value, "holds": bool(holds), "se": se}


def classic_fubini_rhs(spec: DominatedSpec, S: DriverPath, cell_set: tuple[int, int]) -> np.ndarray:
    """eta-mixture of the per-atom integral paths over an atom-index range.

    Computes, for each atom z_j in the set, the driver integral of the
    atom's density path, then mixes with the eta weights.
    """
    if S.spec.d != 1:
        raise ValueError("the classic route is stated for scalar drivers")
    lo, hi = cell_set
    if not (0 <= lo <= hi <= spec.grid.n_cells):
        raise ValueError("set is not resolvable on the grid")
    dS = S.increments[:, :, 0]
    slot_masses = spec.point_masses[:, : spec.timegrid.n_steps, lo : hi + 1]
    per_atom = running_sum(slot_masses * dS[:, :, None])  # masses already carry eta
    return per_atom.sum(axis=2)


def compare_classic_vs_mv(spec: DominatedSpec, S: DriverPath,
                          sets: Sequence[tuple[str, int, int]]) -> dict:
    """Max gap between the classic mixture route and the measure-valued route."""
    indicators = np.stack([spec.grid.indicator(lo, hi) for _, lo, hi in sets])
    paired = paired_charge(make_dominated(spec), S, indicators)
    rows = []
    for k, (name, lo, hi) in enumerate(sets):
        gap = float(np.max(np.abs(classic_fubini_rhs(spec, S, (lo, hi)) - paired[:, k])))
        rows.append({"set": name, "max_discrepancy": gap})
    return {"max_abs_discrepancy": max(r["max_discrepancy"] for r in rows), "per_set": rows}


def general_kernel_conditions(phi: MeasureProcess, rho: np.ndarray, V: np.ndarray) -> dict:
    """Mixed-variation conditions for a general kernel integrand, any d.

    Works from the weights w = psi * rho and the kernel rho, (P or 1, N, J + 1) or anything that
    broadcasts to it, such as a dominated spec's eta (a scenario- and time-dependent kernel is
    allowed, unlike the fixed-reference case):

      c63: accumulate sum_i (int |psi^i| dkernel)^2 = sum_i (sum |w^i|)^2 against dV
      c64: accumulate kernel(K) * int |psi|^2 dkernel = rho(K) * sum_{rho > 0} w^2 / rho

    Values are slot quantities, so the accumulation is a left-endpoint
    sum.  c63 <= c64 pointwise by Cauchy-Schwarz, asserted.  The atom sums
    are taken in blocks of slots (``drivers.block_rows``, one (P, d, J + 1) weights block per
    slot), so no temporary the size of the weights is formed.
    """
    w = phi.weights
    rho = np.broadcast_to(rho, w.shape[:2] + w.shape[3:])
    r = rho[:, :, None, :]
    inner63, sq_sum = np.empty(w.shape[:2]), np.empty(w.shape[:2])  # (P, N)
    step = block_rows(8 * w.shape[0] * w.shape[2] * w.shape[3], w.shape[1])
    for s in (slice(lo, lo + step) for lo in range(0, w.shape[1], step)):
        inner63[:, s] = np.sum(np.sum(np.abs(w[:, s]), axis=3) ** 2, axis=2)
        sq = w[:, s] * w[:, s]  # w = psi * rho vanishes where rho does: divide where rho > 0
        np.divide(sq, r[:, s], out=sq, where=r[:, s] > 0)
        sq_sum[:, s] = np.sum(sq, axis=(2, 3))
    inner64 = rho.sum(axis=2) * sq_sum
    dV = np.diff(V, axis=1)
    c63 = running_sum(inner63 * dV)
    c64 = running_sum(inner64 * dV)
    if np.any(c63 > c64 + 1e-9 * (1 + np.abs(c64))):
        raise AssertionError("Cauchy-Schwarz ordering of the condition paths failed")
    return {"c63": _finiteness(c63), "c64": _finiteness(c64)}
