"""Exception types for numerical and structural failure modes."""


class AdiablochError(Exception):
    """Base class for all failures raised by this package."""


class NonFiniteError(AdiablochError):
    """An operation received or produced NaN/Inf entries."""


class SingularMatrixError(AdiablochError):
    """Linear solve rejected: matrix singular within tolerance."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class SpectralOverlapError(AdiablochError):
    """Eigenvalues of different clusters overlap within tolerance."""

    def __init__(self, message, separation=None):
        super().__init__(message)
        self.separation = separation


class BranchCutError(AdiablochError):
    """Square-root argument has spectrum on the closed negative real axis."""


class ClusterAmbiguityError(AdiablochError):
    """Two eigenvalue clusters are too close to separate reliably."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class ConvergenceError(AdiablochError):
    """An iterative solver did not reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.history = history


class BranchEscapeError(AdiablochError):
    """An iterate left the certified uniqueness ball of the target solution."""


class PreconditionError(AdiablochError):
    """A convergence precondition on the coupling strength is violated."""


class PhysicalityError(AdiablochError):
    """Input generator fails the HP/TP structure required by the operation."""
