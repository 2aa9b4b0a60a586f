"""Shared exception types.

The command line maps these onto exit codes: configuration problems exit
with 1, and a size past its cap or an exhausted budget with 2.
"""


class ConfigError(ValueError):
    """A run configuration is invalid or incomplete.  Only the config
    layer raises it: config, runio and cli."""


class BudgetError(RuntimeError):
    """A size past its cap, or an exhausted enumeration or rho budget."""


class ConsistencyError(RuntimeError):
    """Two supposedly identical computations disagreed (an internal bug)."""
