"""Typed errors raised across the package, and `require`, the one rule by
which every numerical check passes or raises.

Validation errors carry enough context (indices, residuals) to point at the
first offending datum: a failed `require` names its residual and threshold.
"""
import numpy as np


class FSClassError(Exception):
    """Base class for all errors raised by this package."""


def require(error: type[FSClassError], text: str, residual,
            threshold, names=None) -> None:
    """Raise error unless residual <= threshold, so NaN fails.

    Arrays are compared entry by entry, so an array residual passes when its
    maximum does.  Only on failure is text formatted: its `{}` fields take
    the first failing index in row-major order, and ` (residual R,
    threshold T)`, the two numbers there, follows.  With names, the first
    axis runs over a stack, the message opens with names[r] of its entry r
    ("irrep 3: ") and the fields take the rest of the index.  A lower bound
    value >= bound is passed as -value against -bound, value > bound as
    -value against -np.nextafter(bound, np.inf)."""
    ok = np.asarray(residual) <= threshold
    if not ok.all():
        first = tuple(int(k) for k in np.argwhere(~ok)[0])
        r, t = np.broadcast_arrays(residual, threshold)
        head = "" if names is None else names[first[0]]
        raise error(f"{head}{text.format(*first[names is not None:])} "
                    f"(residual {r[first]:.3e}, threshold {t[first]:.3e})")


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
