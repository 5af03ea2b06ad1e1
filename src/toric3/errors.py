"""Exception hierarchy shared across the package."""


class Toric3Error(Exception):
    """Base class for all package errors."""


class NotPrimePower(Toric3Error):
    """q cannot be written as p^m with p prime."""


class UnsupportedOrder(Toric3Error):
    """q is a prime power but outside the supported table range."""


class DivisionByZero(Toric3Error):
    """Multiplicative inverse of zero requested."""


class ZeroArgument(Toric3Error):
    """An operation that requires a unit received zero."""


class InvalidParams(Toric3Error, ValueError):
    """Polytope, formula or argument values violate their constraints."""


class InvalidField(Toric3Error):
    """Field order outside a formula's validity range."""


class OutOfRange(Toric3Error):
    """Index outside the fixed table of representatives."""


class DegenerateConfiguration(Toric3Error):
    """Point configuration does not have a unique affine dependence."""


class ExponentCollision(Toric3Error):
    """Two lattice points give the same monomial on the torus."""


class ZeroPolynomial(Toric3Error):
    """The zero polynomial has no well-defined zero count here."""


class UnsupportedFamily(Toric3Error):
    """Operation restricted to specific polytope families."""


class ShapeMismatch(Toric3Error):
    """Codes being compared differ in length or dimension."""


class NoFormulaForFamily(Toric3Error):
    """No closed-form distance exists for this polytope family."""


class ParseError(Toric3Error):
    """Polytope spec string failed to parse."""


class TheoremWitnessMismatch(Toric3Error):
    """A theorem verdict contradicts the constructive witness grouping."""


class InternalCheckFailed(Toric3Error):
    """A computed result failed its own consistency check: a bug, not bad input."""
