"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific one that applies rather than a bare ValueError when the
problem is a user-facing configuration or data issue.
"""


class GbcError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(GbcError):
    """Invalid or missing run configuration (CLI exit code 2). ``key`` names
    the rejected setting where one setting is at fault."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class DataError(GbcError):
    """Missing, truncated, or malformed input data or artifacts (exit code 3)."""


class TrainingDivergence(GbcError):
    """Training produced a non-finite loss or gradient at ``epoch``."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
