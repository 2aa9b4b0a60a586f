"""Shared exception types.

The command line maps these onto exit codes: a ConfigError exits with 1,
and a BudgetError with 2.
"""


class ConfigError(ValueError):
    """A run configuration is invalid or incomplete, including a value
    past the limit on pattern, calL, k-max or workers.  Only the config
    layer raises it: config, runio and cli."""


class BudgetError(RuntimeError):
    """A size past a cap on a run's work (points per sample, w, d,
    samples, digits of an integer, the gowers s and group), or an
    exhausted enumeration or rho budget."""


class ConsistencyError(RuntimeError):
    """Two supposedly identical computations disagreed (an internal bug)."""
