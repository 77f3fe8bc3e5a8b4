"""Semantic exceptions shared across the package.

Invalid arguments raise plain ValueError; the classes below mark failure
modes that callers (and the CLI exit-code mapping) treat differently.
"""


class ResourceLimitError(RuntimeError):
    """Simulation would exceed a configured particle/node budget."""


class NumericalFailureError(RuntimeError):
    """A numerical scheme detected instability or non-convergence."""


class RejectionBudgetError(RuntimeError):
    """A rejection sampler exhausted its attempt budget."""
