"""Atomic signed measures on a uniform grid over a compact interval.

Everything downstream of this module identifies, at finite resolution,

  * a compact space with the atoms ``z_j = j * T_K / J`` of a uniform grid,
  * a signed finite measure with its vector of atom weights,
  * a test function with its vector of values at the atoms (sup-norm <= 1
    for members of a :class:`TestFamily`),
  * a closed set with the indicator of its atoms.

Pairings and variation norms are then finite sums and exact; a scalar
measure is a :class:`SignedMeasureVec` with d = 1.  The weak* topology is
probed through a fixed countable family of test functions via the metric

    delta(m, m') = sum_k 2**-k * |m(u_k) - m'(u_k)|,

which separates measures as soon as the family spans the grid-function
space (the default family starts with the atom indicator "hats", so it
does for ``k_max >= J + 1``).  ``integrands.project_to_net`` measures it
from a family's ``delta_weights``.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CompactGrid",
    "SignedMeasureVec",
    "TestFamily",
    "build_test_family",
]


@dataclass(frozen=True)
class CompactGrid:
    """Uniform atoms 0 = z_0 < z_1 < ... < z_J = T_K on [0, T_K]."""

    endpoint: float
    n_cells: int  # J; the grid has J + 1 atoms

    def __post_init__(self):
        if self.endpoint <= 0:
            raise ValueError("grid endpoint must be positive")
        if self.n_cells < 1:
            raise ValueError("need at least one cell (two atoms)")

    @property
    def atoms(self) -> np.ndarray:
        return np.linspace(0.0, self.endpoint, self.n_cells + 1)

    @property
    def n_atoms(self) -> int:
        return self.n_cells + 1

    @property
    def cell_width(self) -> float:
        return self.endpoint / self.n_cells

    def indicator(self, lo_atom: int, hi_atom: int) -> np.ndarray:
        """Grid function I_{[z_lo, z_hi]} (inclusive atom index range)."""
        if not (0 <= lo_atom <= hi_atom <= self.n_cells):
            raise ValueError(f"atom range [{lo_atom}, {hi_atom}] not on grid")
        f = np.zeros(self.n_atoms)
        f[lo_atom : hi_atom + 1] = 1.0
        return f


@dataclass(frozen=True)
class SignedMeasureVec:
    """d signed measures sharing one grid; weights shaped (d, J + 1)."""

    grid: CompactGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape[-1] != self.grid.n_atoms:
            raise ValueError(f"expected {self.grid.n_atoms} weights, got {w.shape[-1]}")
        if not np.all(np.isfinite(w)):
            raise ValueError("measure weights must be finite")
        if w.ndim == 1:
            w = w[None, :]
        if w.ndim != 2:
            raise ValueError("SignedMeasureVec weights must be (d, J + 1)")
        object.__setattr__(self, "weights", w)
        self.weights.setflags(write=False)

    @property
    def d(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class TestFamily:
    """Ordered test functions u_k with values in [-1, 1] and positive weights.

    ``functions`` has one row per u_k.  ``gammas`` are the aggregation
    weights 2**-k renormalised to sum to exactly 1; ``delta_weights`` are
    the raw 2**-k used by the weak* metric.
    """

    grid: CompactGrid
    functions: np.ndarray
    gammas: np.ndarray = field(init=False)
    delta_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        funcs = np.asarray(self.functions, dtype=float)
        if funcs.ndim != 2 or funcs.shape[1] != self.grid.n_atoms:
            raise ValueError("test functions must be (k_max, J + 1)")
        if funcs.shape[0] < 1:
            raise ValueError("need at least one test function")
        if np.max(np.abs(funcs)) > 1.0 + 1e-15:
            raise ValueError("test functions must have sup-norm <= 1")
        object.__setattr__(self, "functions", funcs)
        k = np.arange(1, funcs.shape[0] + 1, dtype=float)
        raw = np.power(2.0, -k)
        gam = raw / raw.sum()
        # land the float sum on 1.0 exactly; the first (largest) weight
        # absorbs the residual so tail weights stay positive
        for _ in range(2):
            gam[0] += 1.0 - gam.sum()
        if np.any(gam <= 0.0):
            raise ValueError("aggregation weights must stay strictly positive")
        object.__setattr__(self, "gammas", gam)
        object.__setattr__(self, "delta_weights", raw)
        for arr in (self.functions, self.gammas, self.delta_weights):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return self.functions.shape[0]


def sign_pattern(grid: CompactGrid, code: int) -> np.ndarray:
    """Sign vector number ``code``: atom j gets (-1)**bit_j(code).

    Code 0 is the constant function 1; codes 0 .. 2**(J+1)-1 enumerate all
    sign vectors.
    """
    j = np.arange(grid.n_atoms)
    bits = (code >> j) & 1
    return 1.0 - 2.0 * bits


def build_test_family(grid: CompactGrid, k_max: int) -> TestFamily:
    """Default family: the J+1 atom hats, then sign patterns in binary order.

    Order (fixed): u_1 .. u_{J+1} are the indicator hats of atoms 0 .. J;
    u_{J+2}, u_{J+3}, ... are the +-1 sign vectors ``sign_pattern(grid, s)``
    for s = 0, 1, 2, ...  With ``k_max >= J + 1`` the family spans the
    grid-function space; with ``k_max >= (J + 1) + 2**(J+1)`` it contains
    every sign vector, so the family supremum of pairings attains the
    variation norm exactly.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    n = grid.n_atoms
    rows = []
    for j in range(min(k_max, n)):
        hat = np.zeros(n)
        hat[j] = 1.0
        rows.append(hat)
    code = 0
    while len(rows) < k_max:
        rows.append(sign_pattern(grid, code))
        code += 1
    return TestFamily(grid, np.array(rows))
