"""Domain exceptions for the Darboux pipeline."""


class DarbouxError(Exception):
    """Base class for pipeline failures."""


class SingularDarboux(DarbouxError):
    """<chi|phi> (or F_a) vanished: the rank-one dressing blows up."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class InconsistentLax(DarbouxError):
    """The projector was not built from genuine eigenvectors of the pencil."""


class DefectiveEigenproblem(DarbouxError):
    """No eigenvector could be extracted to the residual tolerance."""


class FarPin(ValueError):
    """A pinned eigenvalue lies far from every root of its pencil."""


class UnsupportedScenario(DarbouxError):
    """Seed family / parameter combination with no closed-form Lax evolution."""


class UnnormalizableError(DarbouxError):
    """Shifted solution has zero trace and cannot be rescaled to unit trace."""
