"""Shared exception types.

The command line maps these onto exit codes: configuration problems exit
with 1 and exhausted arithmetic budgets with 2.
"""


class ConfigError(ValueError):
    """A run configuration is invalid or incomplete."""


class BudgetError(RuntimeError):
    """An enumeration or iteration cap was exceeded."""


class ConsistencyError(RuntimeError):
    """Two supposedly identical computations disagreed (an internal bug)."""
