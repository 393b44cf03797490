"""Exception types shared across the package."""


class SushiError(Exception):
    """Base class for all solver-library errors."""


class NonStarShaped(SushiError):
    """Cell point lies on the wrong side of (or on) a face hyperplane."""


class DegenerateFace(SushiError):
    """Face with zero measure."""


class InvalidTopology(SushiError):
    """Cell/face/vertex references are inconsistent."""


class ParseError(SushiError):
    """Mesh file or problem descriptor could not be parsed; carries a line number when known."""

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
    """No local affine combination of cell values gives the centres of ``faces``."""

    def __init__(self, message, faces):
        super().__init__(message)
        self.faces = faces


class NonSymmetricTensor(SushiError):
    """Diffusion tensor is not symmetric."""


class NonPositiveTensor(SushiError):
    """Diffusion tensor has a non-positive eigenvalue or a non-finite entry."""


class NumericalFailure(SushiError):
    """The numerics failed on a well-formed input; ``sushi`` exits 1, not 2."""


class OutOfMemory(SushiError):
    """The run needed more memory than the process could allocate; ``sushi``
    maps a ``MemoryError`` to it and exits 1."""


class SingularAfterElimination(NumericalFailure):
    """Elimination of face values produced a zero diagonal entry."""


class InconsistentWeights(SushiError):
    """Weight table disagrees with the face partition."""


class MaxIterations(NumericalFailure):
    """Iterative solver failed to reach the requested tolerance.

    Carries the relative residual it stopped at (in extended precision)
    and the iteration count when known.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BreakdownNonSPD(NumericalFailure):
    """The system is not positive definite or not finite: a curvature in CG
    or a diagonal entry or pivot of its multigrid hierarchy that is not
    positive (NaN included), or a non-finite matrix or right-hand side
    entry, which both solvers reject before they start."""


class NotPositiveDefinite(NumericalFailure):
    """Dense factorization found a non-positive pivot."""


class InsufficientLevels(SushiError):
    """Convergence-order fit needs at least three refinement levels."""


class InvalidSeries(SushiError):
    """Convergence-order fit got an h or error that is not finite and positive."""
