"""Discrete-time laboratory for measure-valued stochastic integration.

Modules
-------
grid        atomic signed measures, test families and the weak* metric's weights
drivers     scenario models, driver path simulation, control processes,
            the scalar stochastic integral and its L2 weighting machinery
integrands  measure-valued predictable processes and the elementary
            approximation pipeline
mvintegral  the measure-valued stochastic integral and Fubini-type checks
volterra    two-parameter kernels, the decomposition of Volterra paths,
            roughness diagnostics
dominated   fixed-reference-measure integrands and integrability condition
            reports
cli         configuration-driven experiment runner
"""

__version__ = "0.1.0"
