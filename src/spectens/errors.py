"""Exception types shared across the library."""


class SpectensError(Exception):
    """Base class for all library errors."""


class ContractError(SpectensError):
    """An input violates a documented precondition or data contract."""


class DegeneracyError(SpectensError):
    """A formula was evaluated at invariants where it is undefined."""


class BranchError(SpectensError):
    """An operation was invoked on the wrong eigenvalue-multiplicity branch."""


class MapDomainError(SpectensError):
    """An eigenvalue fell outside the admissible domain of a scalar map."""


class KinematicsError(SpectensError):
    """The deformation input does not describe an admissible motion."""


class ConvergenceError(SpectensError):
    """An iterative verification routine failed to converge."""
