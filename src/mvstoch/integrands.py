"""Measure-valued predictable integrands and their approximation by
elementary processes.

A :class:`MeasureProcess` assigns to every (scenario, interval slot) a
vector of signed measures on the spatial grid: a payload of shape
(P or 1, N, d, J + 1), held dense or, for a net-valued process (a lattice
input, a projection, an approximant), as a table of measure vectors and a
(P or 1, N) index into it.  Readers draw it a block of scenarios at a time
(``MeasureProcess.rows``: a view, or rows gathered from the table), so an
indexed payload is never formed whole.  Three kinds share it:

  * ``elementary``: a finite sum of scenario-independent measures on
    predictable rectangles ``A x (t_a, t_b]`` with ``A`` known at ``t_a``
    (the term list is kept alongside the payload);
  * ``kernel``: a density table against a nonnegative kernel, stored as
    the resulting atom weights;
  * ``volterra``: atom weights induced by a two-parameter kernel (built
    by the volterra module).

Evaluating against a test function yields a predictable interval path, so
all seminorm machinery reduces to weighted finite sums.  Evaluations and
the weak* distances pair through ``_pair_rows``, one BLAS matmul per
scenario, as do a dense Volterra kernel's slot sums, by L2-sized tiles
(``_slot_sums``); a stationary kernel's are FFT convolutions (``_lag_sums``).
The aggregate seminorm over a test family,

    q(phi)^2 = sum_k gamma_k * ||phi(u_k)||^2_{L2(pre-tau weights)},

is summed against :func:`mvstoch.drivers.stopping_weights` once per
distinct row of squares (``_norm_sums``), read from a table of the cells
the (scenario, slot) pairs take, never from a whole (P, N, K) array: the
same bits for any cells, within 2 gamma_{PN+1} sum w |e|^2 of one sum
over all pairs.  Deterministic integrands built from
closed-form profiles may carry an exact time-antiderivative of their
squared variation; the membership check uses it (when the control path is
the identity) so closed-form accumulation values hold to machine
precision instead of first-order quadrature error.

The approximation pipeline mirrors the classical construction: truncate
into a variation ball, project pointwise onto a finite weak* net with a
first-index tie-break, then split the projection into predictable
rectangles (tree mode only, where filtration atoms are explicit).  The
net enumeration is deterministic and documented in
:func:`weak_star_net`; runs are reproducible.  Every step reads a process
as a table and an index (``_measures``; a dense one by its runs of equal
vectors over consecutive scenarios) and computes each quantity once per
integrand: the largest net; the truncated input's distinct evaluation
rows (``_distinct_rows``, one pairing per (table row, slot) cell); and
each approximant's net table (``_net_table``), from which its norms and
constants are read.  An approximant is held as the net's table and its
assignment, never as P-row weights.

Process values are immutable once built and evaluation/seminorms are pure
functions, so independent calls may run concurrently; each call is
deterministic, and each BLAS call in it stays on one thread.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .drivers import ScenarioSet, StoppingRule, TimeGrid, energy_integral, stopping_weights
from .grid import CompactGrid, SignedMeasureVec, TestFamily

__all__ = [
    "ElementaryTerm",
    "MeasureProcess",
    "ApproxReport",
    "ApproxResult",
    "elementary_process",
    "variation_path",
    "integrand_seminorm",
    "continuity_constant",
    "truncate",
    "weak_star_net",
    "project_to_net",
    "rectangle_refine",
    "approximate_elementary",
    "integrability_check",
    "random_elementary_process",
    "random_lattice_process",
]

NET_LEVELS = (-1.0, -0.5, 0.0, 0.5, 1.0)
PAIR_ENTRIES = 2**18  # multiply-adds per BLAS call: fixes a product's rows, unsplit at any thread count
EVAL_ENTRIES = PAIR_ENTRIES // 8  # float64 evaluations (256 kB) per block of scenarios, within L2
#: Scenarios per block of every lag convolution (``_fft_paths``): pocketfft's cost per row is
#: flat from 4 rows up, and 40-100 % higher at 1-2 rows (numpy 2.4, n = 16384, x86-64).
FFT_ROWS = 4


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
    """Weak* predictable measure-valued process on the shared grids.

    Dense, ``table`` is the payload (P or 1, N, d, J + 1).  Indexed, it is a table (U, d, J + 1)
    of measure vectors and ``index`` (P or 1, N) names the row each (scenario, slot) pair takes,
    as for a net-valued process.  Readers draw blocks of scenarios with ``rows``; ``weights``
    materializes the whole payload.  A stationary one-row process (a lag kernel's induced
    integrand) also carries ``lag``, its slot 0 measure: slot j's is it shifted by j atoms,
    ``lag[l - j]`` at atom l >= j, so its slot sums are convolutions (``_lag_sums``).
    """

    kind: str
    grid: CompactGrid
    table: np.ndarray
    terms: list[ElementaryTerm] | None = None
    var_sq_integral: Callable[[float], float] | None = None
    index: np.ndarray | None = None
    lag: np.ndarray | None = None  # (J + 1,) slot 0 measure of a stationary process

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        if self.index is not None:
            self.index = np.asarray(self.index, dtype=np.intp)
        dims = (self.table.ndim, None if self.index is None else self.index.ndim)
        if dims not in ((4, None), (3, 2)) or self.table.shape[-1] != self.grid.n_atoms:
            raise ValueError("weights must be (P, N, d, J + 1) on the grid, or a table "
                             "(U, d, J + 1) on it with a (P, N) index")
        if self.lag is not None and (self.shape[::2] != (1, 1) or self.lag[0] != 0.0):
            raise ValueError("a lag profile is a one-row scalar process's slot 0, null at atom 0")

    @property
    def shape(self) -> tuple[int, ...]:
        """(P or 1, N, d, J + 1), the payload's shape."""
        return self.table.shape if self.index is None else self.index.shape + self.table.shape[1:]

    @property
    def weights(self) -> np.ndarray:
        """The dense payload; an indexed process gathers all of it from its table."""
        return self.table if self.index is None else self.table[self.index]

    def rows(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Scenarios lo..hi as a dense (b, N, d, J + 1) block, a one-row process's row whatever
        the range: a view of a dense payload, gathered from an indexed process's table."""
        rows = slice(lo, hi) if self.is_random else slice(None)
        return self.table[rows] if self.index is None else self.table[self.index[rows]]

    @cached_property
    def lag_spectrum(self) -> np.ndarray:
        """The spectrum of the ``lag`` profile (``_profile_spectra``), taken once per process."""
        return _profile_spectra([self.lag], self.n_steps)[0]

    @property
    def n_steps(self) -> int:
        return self.shape[1]

    @property
    def d(self) -> int:
        return self.shape[2]

    @property
    def is_random(self) -> bool:
        return self.shape[0] > 1


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


def variation_path(phi: MeasureProcess) -> np.ndarray:
    """Componentwise variation per (scenario, slot); shape (P, N, d), gathered by the index
    from |table| for an indexed process.  A dense one's |weights| is formed in blocks of
    scenarios and, within them, of slots, of ``EVAL_ENTRIES`` values in one reused buffer, never
    whole (an affine Volterra kernel's would be an (N, N + 1) table); each row is summed whole."""
    if phi.index is not None:
        return np.sum(np.abs(phi.table), axis=2)[phi.index]
    Q, N, d, n_atoms = phi.shape
    b = min(Q, max(1, EVAL_ENTRIES // (N * d * n_atoms)))  # scenarios per block
    step = max(1, EVAL_ENTRIES // (b * d * n_atoms))
    out, buf = np.empty((Q, N, d)), np.empty(b * min(step, N) * d * n_atoms)
    for p in range(0, Q, b):
        block = phi.rows(p, p + b)
        for lo in range(0, N, step):
            w = block[:, lo : lo + step]
            np.sum(np.abs(w, out=buf[: w.size].reshape(w.shape)), axis=3,
                   out=out[p : p + b, lo : lo + step])
    return out


def _pair_rows(measures: np.ndarray, functions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pair measures (P, ..., J + 1) with test functions (K, J + 1): (P, R, K), the middle
    axes read as R rows in C order (a view for d = 1, strided weights too); ``out`` may be a
    transposed view.  BLAS matmuls batched over scenarios, at most ``PAIR_ENTRIES`` per scenario:
    this fixes the rows a call holds (a row rounds by its place among them), and under a user's
    OPENBLAS_NUM_THREADS > 1 no gemm is split (rounding by thread count) or spins a thread."""
    rows = measures.reshape(measures.shape[0], -1, measures.shape[-1])
    out = np.empty(rows.shape[:2] + (len(functions),)) if out is None else out
    step = max(1, PAIR_ENTRIES // max(1, functions.size))
    for lo in range(0, rows.shape[1], step):
        np.matmul(rows[:, lo : lo + step], functions.T, out=out[:, lo : lo + step])
    return out


def _slot_sums(table: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """sum_r increments[p, r] table[p or 0, r, m], (P, M), from (P, R) increments and a table
    (1 or P, R, M) of any strides.  The table is copied a tile of atoms at a time, as rows of R
    values, into one reused buffer of ``EVAL_ENTRIES`` values, which stays in L2 and is
    BLAS-ready (a transposed view is not).  Each scenario's increments take one product with the
    tile (``_pair_rows``, one thread): the rounding depends on R and M, never on P."""
    increments = np.ascontiguousarray(increments)
    (P, R), M = increments.shape, table.shape[2]
    width = min(M, max(1, EVAL_ENTRIES // R))
    buf, out = np.empty(width * R), np.empty((P, M))
    for lo in range(0, M, width):
        hi = min(lo + width, M)
        tile = buf[: R * (hi - lo)].reshape(hi - lo, R)
        for q, part in enumerate(table[:, :, lo:hi]):  # one P-row table row per scenario
            rows = slice(None) if len(table) == 1 else slice(q, q + 1)
            np.copyto(tile, part.T)
            _pair_rows(increments[rows, None], tile, out=out[rows, None, lo:hi])
    return out


def _fft_length(N: int) -> int:
    return 1 << (2 * N - 1).bit_length()  # the full convolution length 2N, to a power of 2


def _profile_spectra(profiles: Sequence[np.ndarray], N: int) -> list[np.ndarray]:
    """rFFTs of (N + 1,) lag profiles w at ``_fft_length(N)``; lag 0 is the slot's
    own increment, which the sum over j < l excludes."""
    n = _fft_length(N)
    return [np.fft.rfft(np.concatenate(([0.0], w[1:])), n) for w in profiles]


def _fft_work(P: int, N: int) -> tuple[np.ndarray, ...]:
    """P-row buffers for ``_fft_paths``: spectrum, product and path (0.8 MB at P = 4,
    N = 4096)."""
    n = _fft_length(N)
    return np.empty((P, n // 2 + 1), complex), np.empty((P, n // 2 + 1), complex), np.empty((P, n))


def _fft_paths(dW: np.ndarray, spectra: Sequence[np.ndarray],
               work: tuple[np.ndarray, ...] | None = None) -> Iterator[np.ndarray]:
    """X_l = sum_{j < l} w[l - j] dW[:, j], l = 0..N, for each profile spectrum
    from ``_profile_spectra``: one forward rFFT of the (P, N) increments, one
    inverse per profile.  The transforms write into ``work`` (at least P rows),
    which a block loop passes again so that no block maps fresh pages; ``dW`` may
    lie in the path buffer, which the forward transform reads before any inverse
    writes it.  Each yielded path is overwritten by the next, and the product
    buffer is free while a path is read.  pocketfft transforms each row alike
    whatever the rows beside it, so a row's path does not depend on its block."""
    P, N = dW.shape
    n = _fft_length(N)
    spectrum, product, x = (w[:P] for w in (work or _fft_work(P, N)))
    np.fft.rfft(dW, n, axis=1, out=spectrum)
    for s in spectra:
        np.fft.irfft(np.multiply(spectrum, s, out=product), n, axis=1, out=x)
        x[:, 0] = 0.0
        yield x[:, : N + 1]


def _lag_sums(increments: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """sum_{j < l} profile[l - j] increments[:, j] for l = 0..N, (P, N + 1), from (P, N)
    increments and the profile's spectrum (``_profile_spectra``, which its owner takes once):
    the slot sums of a stationary table, a causal convolution.  ``_fft_paths`` takes
    FFT_ROWS scenarios at a time through one work set, so no (P, n) spectrum is held, and
    rounds as pocketfft does: about eps log2(n) sum |profile| |increments|_2 per row, in
    place of ``_slot_sums``' O(P N^2) products."""
    P, N = increments.shape
    work, out = _fft_work(FFT_ROWS, N), np.empty((P, N + 1))
    for lo in range(0, P, FFT_ROWS):
        out[lo : lo + FFT_ROWS] = next(_fft_paths(increments[lo : lo + FFT_ROWS], [spectrum], work))
    return out


def _family_evals(phi: MeasureProcess, functions: np.ndarray) -> np.ndarray:
    """Pairings (P, N, K, d) of each scenario (a one-row phi's row) with each row of functions."""
    w = phi.rows()
    return _pair_rows(w, functions).reshape(w.shape[:3] + (-1,)).swapaxes(2, 3)


def _sq_sum(evals: np.ndarray) -> np.ndarray:
    """|e|^2 summed over the components (last axis) of (M, K, d) evaluations, in order."""
    out = evals[..., 0] * evals[..., 0]
    for i in range(1, evals.shape[-1]):
        out += evals[..., i] * evals[..., i]
    return out


def _by_bytes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique of the rows (M, ...) by their bytes: each distinct row's first place, in byte
    order, and each row's distinct row."""
    keys = np.ascontiguousarray(rows).reshape(len(rows), -1)
    keys = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _measures(phi: MeasureProcess) -> tuple[np.ndarray, np.ndarray]:
    """phi's measure vectors as a table (U, d, J + 1) and the (P or 1, N) index of each
    (scenario, slot) pair's row.  An indexed phi's are its own.  A dense phi's rows split, per
    slot, into runs of byte-equal vectors over consecutive scenarios (``!=`` on their bits; on a
    tree, one run per atom), whose heads are deduplicated by their bytes (``_by_bytes``)."""
    if phi.index is not None:
        return phi.table, phi.index
    bits = phi.table.view(np.int64)  # signed zeros differ, NaNs of one payload agree
    fresh = np.ones(phi.shape[:2], dtype=bool)  # a one-row phi's row heads every slot's run
    fresh[1:] = np.any(bits[1:] != bits[:-1], axis=(2, 3))
    heads = phi.table.swapaxes(0, 1)[fresh.T]  # slot-major, as the runs are counted
    first, inverse = _by_bytes(heads)
    return heads[first], inverse[(np.cumsum(fresh.T) - 1).reshape(fresh.shape[::-1]).T]


def _joint(cells: np.ndarray, n: int, at: np.ndarray) -> tuple:
    """The distinct (cell, at) pairs that (P or 1, N) cells and an index ``at`` into n rows take
    together, by a 1-D np.unique: each pair's cell and row, and each (scenario, slot)'s pair."""
    joint = cells * n + at
    used, inverse = np.unique(joint.ravel(), return_inverse=True)
    return used // n, used % n, inverse.reshape(joint.shape)


def _norm_sums(w: np.ndarray, cells: np.ndarray, squares: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Weighted sums (K,) of sum_{p,n} w[p, n] sq[cells[p, n]], one per table of squares sq
    (C, K), from (P or 1, N) cells that take every row of it.  Each distinct row of squares is
    summed once: rows deduplicated by their bytes, taken in byte order, each times its mass (w
    totalled by ``np.bincount`` over the pairs that take it, in (scenario, slot) order), and
    the products summed by ``np.einsum`` (no BLAS call, so no thread count).  The values fix
    the grouping: any cells that give each pair the same row of squares give the same bits."""
    cells = np.broadcast_to(cells, w.shape).ravel()
    totals = []
    for sq in squares:
        first, inverse = _by_bytes(sq)
        mass = np.bincount(inverse[cells], weights=w.ravel(), minlength=len(first))
        totals.append(np.einsum("u,uk->k", mass, sq[first]))
    return totals


def _seminorm_sums(phi: MeasureProcess, functions: np.ndarray, w: np.ndarray,
                   minus: MeasureProcess | None = None) -> np.ndarray:
    """``_norm_sums`` of phi's evaluations, or of phi's minus those of ``minus``, read from each
    process's distinct rows (``_distinct_rows``), their indexes folded into one (``_joint``)."""
    rows, cells = _distinct_rows(phi, functions)
    if minus is not None:
        other, at = _distinct_rows(minus, functions)
        mine, theirs, cells = _joint(cells, len(other), at)
        rows = rows[mine] - other[theirs]
    return _norm_sums(w, cells, [_sq_sum(rows)])[0]


def _continuity(phi: MeasureProcess, fam: TestFamily, w: np.ndarray, sq_norms: np.ndarray) -> dict:
    """``continuity_constant`` from phi's ``_norm_sums``; checks lower <= upper, whose square
    sum w |var|^2 is read per row of phi's ``_measures`` table, each row's w totalled by
    ``np.bincount`` over the pairs that take it (no (P, N, d) variation path).  Both sides
    round by at most their sums' lengths times eps, relative to upper: the check allows
    twice that, 2 (P N + table entries) eps upper, and no absolute slack."""
    norms = np.sqrt(sq_norms)
    sup = np.max(np.abs(fam.functions), axis=1)
    ratios = np.divide(norms, sup, out=np.zeros_like(norms), where=sup > 0)
    lower = float(np.max(ratios))
    table, index = _measures(phi)
    var = np.sum(np.abs(table), axis=2)
    mass = np.bincount(np.broadcast_to(index, w.shape).ravel(), weights=w.ravel(),
                       minlength=len(table))
    upper = float(np.sqrt(np.sum(mass * np.sum(var * var, axis=1))))
    if lower > upper * (1.0 + 2 * (w.size + table.size) * np.finfo(float).eps):
        raise AssertionError("family ratio exceeded the variation bound")
    return {"lower": lower, "upper": upper}


def integrand_seminorm(phi: MeasureProcess, fam: TestFamily, tau: StoppingRule, V: np.ndarray,
                       scenarios: ScenarioSet, minus: MeasureProcess | None = None) -> float:
    """Aggregate L2 seminorm of the integrand over the test family.

    With ``minus`` the seminorm of the difference (evaluations subtract;
    no measure-level arithmetic is needed).
    """
    w = stopping_weights(tau, V, scenarios)
    return float(np.sqrt(fam.gammas @ _seminorm_sums(phi, fam.functions, w, minus)))


def continuity_constant(phi: MeasureProcess, fam: TestFamily, tau: StoppingRule, V: np.ndarray,
                        scenarios: ScenarioSet) -> dict:
    """Bracket the norm of f -> phi(f) as a map into the weighted L2 space.

    lower: best ratio over the family members; upper: weighted L2 norm of
    the variation path, which dominates every ratio.
    """
    w = stopping_weights(tau, V, scenarios)
    return _continuity(phi, fam, w, _seminorm_sums(phi, fam.functions, w))


def truncate(phi: MeasureProcess, c: float) -> MeasureProcess:
    """Zero out, componentwise, the measure vectors whose variation exceeds c: the rows of phi's
    ``_measures`` table, under its index (so the result is indexed)."""
    if c <= 0:
        raise ValueError("truncation level must be positive")
    table, index = _measures(phi)
    keep = np.sum(np.abs(table), axis=2) <= c
    if np.all(keep[index]):
        return phi
    return MeasureProcess("kernel", phi.grid, table * keep[..., None], index=index)


def _anchor_indices(grid: CompactGrid, count: int) -> np.ndarray:
    idx = np.round(np.linspace(0, grid.n_cells, count)).astype(int)  # nondecreasing
    return idx[np.diff(idx, prepend=-1) != 0]


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


def _distinct_rows(phi: MeasureProcess, functions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi's family evaluations as distinct rows (D, K, d), and the (P, N) index of each
    (scenario, slot) pair's row: the (table row, slot) cells that the index of phi's
    ``_measures`` takes, paired once each (``_cell_pairs``) and deduplicated by their bytes."""
    evals, cells = _cell_pairs(*_measures(phi), functions)
    first, inverse = _by_bytes(evals)
    return evals[first], inverse[cells]


def project_to_net(phi: MeasureProcess, net: Sequence[SignedMeasureVec], fam: TestFamily,
                   distinct: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[MeasureProcess, np.ndarray, np.ndarray]:
    """Pointwise nearest-net projection under the weak* metric.

    Returns the projected process (the net's table, indexed by the
    assignment), the assignment array (P, N) of net indices (ties resolved
    to the lowest index) and the pointwise distances attained.

    The distances depend on a (scenario, slot) pair only through its row
    of family evaluations, so they are computed once per distinct row
    (``_distinct_rows``, exact and assuming no adaptedness; on a tree a
    few dozen rows stand for thousands of pairs) and gathered back.  A
    caller projecting the same phi on several nets passes ``distinct``.
    """
    if len(net) == 0:
        raise ValueError("empty net")
    rows, index = _distinct_rows(phi, fam.functions) if distinct is None else distinct
    dists, gap = np.empty((len(rows), len(net))), np.empty_like(rows)  # gap: one for all j
    net_w = np.stack([m.weights for m in net])
    for j, b in enumerate(_pair_rows(net_w, fam.functions)):  # (d, K)
        np.square(np.subtract(rows, b.T[None], out=gap), out=gap)
        dists[:, j] = np.einsum("k,uk->u", fam.delta_weights, np.sqrt(np.sum(gap, axis=2)))
    best = np.argmin(dists, axis=1)
    assignment = best[index]
    attained = dists[np.arange(len(dists)), best][index]
    projected = MeasureProcess("kernel", phi.grid, net_w, index=assignment)
    return projected, assignment, attained


def rectangle_refine(projected: MeasureProcess, assignment: np.ndarray,
                     net: Sequence[SignedMeasureVec], scenarios: ScenarioSet) -> MeasureProcess:
    """Split a net-valued projection into predictable rectangle terms.

    Tree mode only: the scenario set at each slot taking a given net value
    is a union of filtration atoms of the slot's left endpoint, hence one
    rectangle per (slot, net index) pair, checked by ``_check_terms``.  The
    result holds the net's table, indexed by the assignment (its first row
    alone when no term is masked).
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
        for j in np.flatnonzero(np.bincount(col, minlength=len(net))):
            mask = col == j
            terms.append(ElementaryTerm(net[j], slot, slot + 1, None if mask.all() else mask))
    _check_terms(terms, assign, net)
    masked = any(t.scenario_mask is not None for t in terms)  # else one row, as elementary_process
    return MeasureProcess("elementary", projected.grid, np.stack([m.weights for m in net]),
                          terms=terms, index=assign[: None if masked else 1])


def _check_terms(terms: Sequence[ElementaryTerm], assign: np.ndarray, net: Sequence) -> None:
    """Raise unless the one-slot terms reproduce the (P, N) assignment exactly: per slot their
    masks, of P scenarios in all, cover every scenario with its assigned net element."""
    place = {id(m): j for j, m in enumerate(net)}
    held, sizes = np.full(assign.shape[::-1], -1), np.zeros(assign.shape[1], dtype=int)
    for t in terms:
        on = slice(None) if t.scenario_mask is None else t.scenario_mask
        held[t.start][on] = place.get(id(t.measure), -1) if t.stop == t.start + 1 else -1
        sizes[t.start] += len(assign) if t.scenario_mask is None else np.count_nonzero(on)
    if not (np.array_equal(held, assign.T) and np.all(sizes == len(assign))):
        raise AssertionError("rectangle refinement must reproduce the projection exactly")


def _cell_pairs(table: np.ndarray, index: np.ndarray, functions: np.ndarray) -> tuple:
    """Pairings (C, K, d) of the C distinct (table row, slot) cells that ``index`` (Q, N) takes,
    and each pair's cell (Q, N).  A cell is paired at its slot's place in a product shaped as a
    scenario (a product rounds a row by its place); the cells of one slot go one per product,
    so a product holds at most as many cells as the most any one slot takes."""
    N = index.shape[1]
    cells, used = index * N + np.arange(N), np.zeros((len(table), N), dtype=bool)
    np.put(used, cells, True)  # a scatter, not a sort of the Q N cells
    row, slot = np.nonzero(used)
    place = (np.cumsum(used, axis=0) - 1)[row, slot]  # each cell's product
    products = np.zeros((place.max() + 1, N) + table.shape[1:])
    products[place, slot] = table[row]
    pairs = _pair_rows(products, functions).reshape(products.shape[:3] + (-1,)).swapaxes(2, 3)
    return pairs[place, slot], (np.cumsum(used) - 1)[cells]


def _net_table(net_w: np.ndarray, assignment: np.ndarray, index: np.ndarray,
               functions: np.ndarray) -> tuple:
    """``_cell_pairs`` of net_w[assignment] = net_w[best[index]]: a table (C, K, d) and its
    (D, N) row at each slot of each row of ``index``."""
    best = np.zeros(index.max() + 1, dtype=np.intp)
    best[index] = assignment
    return _cell_pairs(net_w, np.repeat(best[:, None], index.shape[1], axis=1), functions)


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
    constant: float  # continuity_constant(phi, ...)["lower"] of the input itself


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

    The input is read as its ``_measures`` table and index; the default ball and the truncation
    test take the variations of the table rows its index takes.  Every quantity is computed once
    per call: one net enumeration (the schedule's nets are its prefixes); the truncated input's
    distinct rows; and one ``_norm_sums`` call for every q-error and continuity constant.  Its
    terms share the cells (distinct row of the truncated input, slot), joint with the input's
    own distinct row when truncation bites, and read each approximant from the pairings of its
    own table and index (``_net_table``).
    """
    if len(schedule) == 0:
        raise ValueError("schedule needs at least one net size")
    member = integrability_check(phi, V)
    if not member["member"]:
        raise ValueError("integrand fails the finiteness check")
    w = stopping_weights(tau, V, scenarios)
    if phi.kind == "elementary":
        constant = _continuity(phi, fam, w, _seminorm_sums(phi, fam.functions, w))["lower"]
        report = ApproxReport(1, 0, 0.0, constant, len(phi.terms or []))
        return ApproxResult([phi], [report], True, c or 0.0, constant)
    table, index = _measures(phi)
    phi = MeasureProcess(phi.kind, phi.grid, table, index=index)  # read through its table
    var = np.sum(np.abs(table), axis=2)[np.bincount(index.ravel(), minlength=len(table)) > 0]
    if c is None:
        c = max(float(np.max(var)), 1e-12)
    phi_c = truncate(phi, c) if np.max(var) > c else phi
    _, index = distinct = _distinct_rows(phi_c, fam.functions)
    full = weak_star_net(c, max(schedule), phi.grid, d=phi.d)
    # the (distinct row, slot) cells of phi_c, joint with phi's own rows when truncation bites
    base, at = distinct if phi_c is phi else _distinct_rows(phi, fam.functions)
    N = index.shape[1]
    cell, mine, cells = _joint(index * N + np.arange(N), len(base), at)
    base = base[mine]
    squares, processes = [_sq_sum(base)], []
    for n in schedule:
        projected, assignment, _ = project_to_net(phi_c, full[:n], fam, distinct=distinct)
        processes.append(elem := rectangle_refine(projected, assignment, full[:n], scenarios))
        table, row = _net_table(elem.table, elem.index, index, fam.functions)
        e = table[row.ravel()[cell]]
        squares += [_sq_sum(e), _sq_sum(e - base)]  # its own norms, then its difference from phi
    sums = _norm_sums(w, cells, squares)
    constant = _continuity(phi, fam, w, sums[0])["lower"]
    reports = [ApproxReport(i, len(full[:n]), float(np.sqrt(fam.gammas @ diff)),
                            _continuity(elem, fam, w, own)["lower"], len(elem.terms))
               for i, (elem, n, own, diff)
               in enumerate(zip(processes, schedule, sums[1::2], sums[2::2]), start=1)]
    return ApproxResult(processes, reports, reports[-1].q_error <= tol, c, constant)


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
    """Adapted random process whose values live on the first net elements: the
    pool's table and a (P, N) index into it.

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
    return MeasureProcess("kernel", grid, pool_w, index=idx)
