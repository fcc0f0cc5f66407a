"""Exception types raised by the library, in two families by CLI exit code."""


class ConfigError(Exception):
    """Input that describes no valid scenario (CLI exit code 2). Each
    member keeps its builtin base too, as does each `NumericalError`."""


class NumericalError(Exception):
    """Numbers that diverged or lost definiteness (CLI exit code 3)."""


class GraphNotConnected(ConfigError, ValueError):
    """A graph (or edge list) does not connect all nodes."""


class GraphGenerationFailed(ConfigError, RuntimeError):
    """A random graph generator exhausted its retry budget."""


class SpectralFailure(NumericalError, RuntimeError):
    """The symmetric eigen-solver failed to converge."""


class DimensionError(ConfigError, ValueError):
    """Incompatible vector/matrix dimensions."""


class NotPositiveDefinite(NumericalError, ValueError):
    """A matrix required to be positive definite is not."""


class RiccatiDivergence(NumericalError, RuntimeError):
    """The fixed-point Riccati iteration did not meet tolerance."""


class ObservabilityError(NumericalError, ValueError):
    """The pair (F, H) fails the observability rank test."""


class ConfigRejected(ConfigError, ValueError):
    """A scenario configuration failed validation (a bad value or an
    unsatisfied stability bound)."""


class WireSchemaViolation(AssertionError):
    """A payload other than a primal variable was put on the simulated
    wire: an internal invariant, in no family. Duals are never exchanged."""
