"""The package's error hierarchy and the exit status of each kind.

Every error the package raises on purpose derives from `StburgersError`
and carries the exit code the CLI returns for it: 1 for a configuration
error, 2 for a solver failure.  A failed verification invariant is not
an exception; `verify` reports it and exits 3."""

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


class StburgersError(Exception):
    """Base of the package's errors; `exit_code` is the CLI's exit status."""

    exit_code = EXIT_SOLVER


class ConfigError(StburgersError, ValueError):
    """Invalid configuration; the message names the offending key."""

    exit_code = EXIT_CONFIG


class SolverError(StburgersError, RuntimeError):
    """A computation ran but did not reach its answer."""
