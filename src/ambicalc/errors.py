"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class AmbicalcError(Exception):
    """Base class for all library errors."""


class UnknownElement(AmbicalcError):
    """A name does not belong to the frame or situation space."""


class DuplicateElement(AmbicalcError):
    """A name occurs twice where a set of names is expected."""


class MaskOutOfRange(AmbicalcError):
    """A bitmask does not fit the universe it is used against."""


class FrameMismatch(AmbicalcError):
    """Two objects built over different frames were combined."""


class SpaceMismatch(AmbicalcError):
    """Two objects built over different situation spaces were combined."""


class AxiomViolation(AmbicalcError):
    """An axiom check failed; carries the full report when available."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UpperAxiomViolation(AxiomViolation):
    """The upper-map axioms do not hold."""


class DualityViolation(AxiomViolation):
    """Lower and upper maps are not complement-duals of each other."""


class AssignmentAxiomViolation(AxiomViolation):
    """A set-valued map is not a basic assignment."""


class AmbiguityAxiomViolation(AxiomViolation):
    """A set-valued map is not an ambiguity measure."""


class IncidenceAxiomViolation(AxiomViolation):
    """A set-valued map is not an incidence mapping."""


class IncompatiblePair(AxiomViolation):
    """An incidence/ambiguity pair fails the compatibility condition."""


class SelectorDomainError(AmbicalcError):
    """A selector cannot produce an atom for some focal element."""


class InternalInvariantFailure(AmbicalcError):
    """A property the engine guarantees by construction was observed to fail."""


class ParseError(AmbicalcError):
    """A document is not syntactically canonical."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(AmbicalcError):
    """A document parses as JSON but does not match its declared kind."""


class UsageError(AmbicalcError):
    """A command-line flag is out of its allowed range."""


class ValidationError(AmbicalcError):
    """A document's payload violates the invariants of its kind."""
