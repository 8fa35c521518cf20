"""Typed errors raised across the package.

Validation errors carry enough context (indices, residuals) to point at the
first offending datum.
"""


class FSClassError(Exception):
    """Base class for all errors raised by this package."""


# --- algebra construction / validation ---

class NotAssociative(FSClassError):
    pass


class BadUnit(FSClassError):
    pass


class BadStar(FSClassError):
    pass


class NotAntiMap(FSClassError):
    pass


class NotCStar(FSClassError):
    """The algebra admits no C*-norm (regular trace form not positive definite)."""


class BadDualStructure(FSClassError):
    pass


# --- representations ---

class NotStarRep(FSClassError):
    pass


class DegenerateSplit(FSClassError):
    """Random commutant elements repeatedly failed to split a reducible module."""


class InternalConsistency(FSClassError):
    pass


# --- indicator engine ---

class NoTwistedMap(FSClassError):
    pass


class ComplexResult(FSClassError):
    pass


class InconsistentAlpha(FSClassError):
    pass


class UnexpectedDimension(FSClassError):
    pass


class AgreementFailure(FSClassError):
    """The two indicator computations and the signature disagree (must never
    happen on valid input)."""


# --- combinatorial constructors ---

class BadGroup(FSClassError):
    pass


class NotInvolution(FSClassError):
    pass


class AxiomViolation(FSClassError):
    pass


class BadGroupoid(FSClassError):
    pass


class NoHaar(FSClassError):
    pass


class NotHopf(FSClassError):
    pass


# --- coalgebra side ---

class NotCompact(FSClassError):
    pass


class BadVarsigma(FSClassError):
    pass


# --- input files ---

class SchemaError(FSClassError):
    """Input JSON does not match its declared schema."""
