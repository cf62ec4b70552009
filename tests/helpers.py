"""Reference computations that only the tests read."""

import numpy as np

from mvstoch.drivers import DriverPath
from mvstoch.mvintegral import charge_blocks
from mvstoch.volterra import VolterraKernel, induced_phi


def left_limit_remainder(kernel: VolterraKernel, S: DriverPath) -> np.ndarray:
    """The Volterra remainder's left limit at every grid time, (P, N + 1), zero at 0:
    the charge at l - 1 paired with I_{[0, t_l]}, measurable at t_{l-1}."""
    y_leftlim = np.zeros((S.scenarios.n_scenarios, S.timegrid.n_steps + 1))
    for lo, block in charge_blocks(induced_phi(kernel, S.timegrid), S):
        l = np.arange(lo + 1, lo + block.shape[1])
        y_leftlim[:, l] = np.cumsum(block[:, :-1, : l[-1] + 1], axis=2)[:, l - 1 - lo, l]
    return y_leftlim
