"""Exception hierarchy for inropt."""


class InroptError(Exception):
    """Base class for all inropt errors."""


class NonHermitianInput(InroptError):
    """Input matrix violates the Hermitian symmetry tolerance."""


class ConvergenceFailure(InroptError):
    """An eigenvalue iteration exhausted its budget without converging."""


class SingularPencil(InroptError):
    """The level-set pencil is singular and no perturbation fallback applies."""


class EmptyLevelSet(InroptError):
    """No sub-level gap: lambda_max reaches the level between every two
    consecutive pencil angles, or the pencil returns no angle, as at a level
    below the minimum or above the maximum."""


class InvalidGamma(InroptError):
    """Curvature bound is missing or positive."""


class ReducedSolveFailure(ConvergenceFailure):
    """The inner small-scale solver of the subspace loop did not converge."""


class VerificationFailure(InroptError):
    """A post-solve certificate check failed (signals solver inaccuracy)."""


class NotPositiveDefiniteMass(InroptError):
    """The leading QEP coefficient failed its positive-definiteness check."""


class InvalidParams(InroptError):
    """Invalid parameters for a gallery generator."""
