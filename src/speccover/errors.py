"""Exception types shared across the package."""


class SpecCoverError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(SpecCoverError):
    """Matrix or coefficient-list shape is inconsistent."""


class DegreeError(SpecCoverError):
    """A form or polynomial has the wrong degree for the requested operation."""


class UndefinedResultantError(SpecCoverError):
    """Resultant of two zero polynomials is not defined."""


class InvalidPointError(SpecCoverError):
    """A projective point was given as [0:0] or with inconsistent data."""


class InfiniteOrderError(SpecCoverError):
    """Vanishing order of the zero form is infinite."""


class ModulusError(SpecCoverError):
    """Quotient-ring elements over different moduli were combined."""


class NotInvertibleError(SpecCoverError):
    """Element shares a factor with the modulus and has no inverse."""


class InternalCheckError(SpecCoverError):
    """A defensive cross-check failed; indicates a bug, not bad input."""


class NonReducedCurveError(SpecCoverError):
    """The curve is non-reduced (or the zero section); singularity analysis refuses it."""


class PullbackSectionError(SpecCoverError):
    """Operation requires a section with at least one nontrivial character component."""


class UnsupportedCoverError(SpecCoverError):
    """Operation is only implemented for standard cyclic covers."""


class SingularityNotRepresentableError(SpecCoverError):
    """A singular fiber value lies outside Q and the candidate's residue field."""


class JobError(SpecCoverError):
    """CLI job file is malformed or semantically invalid (exit code 2)."""
