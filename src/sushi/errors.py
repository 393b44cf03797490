"""Exception types shared across the package."""


class SushiError(Exception):
    """Base class for all solver-library errors."""


class MeshError(SushiError):
    """Base class for mesh construction and validation errors."""


class NonStarShaped(MeshError):
    """Cell point lies on the wrong side of (or on) a face hyperplane."""


class DegenerateFace(MeshError):
    """Face with zero measure."""


class InvalidTopology(MeshError):
    """Cell/face/vertex references are inconsistent."""


class ParseError(MeshError):
    """Mesh file could not be parsed; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingRegionMap(SushiError):
    """A partition policy required a region map that was not supplied."""


class MissingWeights(SushiError):
    """Barycentric weights absent for a face that needs them."""


class NoValidCombination(SushiError):
    """No local affine combination reproduces the face barycentre."""


class NonSymmetricTensor(SushiError):
    """Diffusion tensor is not symmetric."""


class NonPositiveTensor(SushiError):
    """Diffusion tensor has a non-positive eigenvalue."""


class SingularAfterElimination(SushiError):
    """Elimination of face values produced a zero diagonal entry."""


class InconsistentWeights(SushiError):
    """Weight table disagrees with the face partition."""


class MaxIterations(SushiError):
    """Iterative solver failed to reach the requested tolerance.

    Carries the relative residual it stopped at and the iteration count
    when known.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BreakdownNonSPD(SushiError):
    """Negative curvature in CG: the operator is not positive definite."""


class NotPositiveDefinite(SushiError):
    """Dense factorization found a non-positive pivot."""


class UnclassifiedBoundaryFace(SushiError):
    """A boundary face does not belong to any requested side."""


class InsufficientLevels(SushiError):
    """Convergence-order fit needs at least three refinement levels."""


class InvalidSeries(SushiError):
    """Convergence-order fit got an h or error that is not finite and positive."""


class RequiresIdentityTensor(SushiError):
    """Operation is only defined for the identity diffusion tensor."""
