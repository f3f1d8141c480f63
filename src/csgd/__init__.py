"""Coupled-iterate convergence diagnostics for constant-stepsize SGD.

Modules:

- ``numkit``: float64 vectors/matrices, counter-based random streams,
  extreme eigenvalues of a symmetric matrix.
- ``problems``: synthetic stochastic objectives with certified constants
  and reference solutions.
- ``controllers``: stepsize controllers (coupled-distance diagnostics,
  gradient-inner-product and distance-based baselines, fixed schedules).
- ``engine``: the coupled SGD loop with shared per-iteration noise.
- ``oracle``: closed-form theory quantities and brute-force estimators.
- ``errors``: the shared exception types and the checks raising ConfigError.
"""

__version__ = "0.1.0"
