"""Exception types shared across the package.

Most predicates return booleans; exceptions are reserved for contract
violations (bad input, malformed data) and for conditions that signal a
bug in the caller or in this library itself.  Every such bug in the
library is one type, :class:`ShapeAssertionFailed`.
"""


class Sp4CertError(Exception):
    """Base class for all library errors."""


class SingularMatrix(Sp4CertError):
    """Inversion of a matrix with determinant zero."""


class NotUnimodular(Sp4CertError):
    """A 2x2 integer matrix was required to have determinant 1."""


class BothZero(Sp4CertError):
    """Extended gcd of (0, 0) is undefined."""


class BadPrime(Sp4CertError):
    """A parameter that must be an odd prime is not one."""


class ZeroVector(Sp4CertError):
    """The short/long classification needs a nonzero vector."""


class UnknownName(Sp4CertError):
    """Unrecognised generator name."""


class NotInGroup(Sp4CertError):
    """Input fails the membership predicate required by an algorithm."""


class ShapeAssertionFailed(Sp4CertError):
    """An internal inconsistency, never a property of valid input: an
    intermediate matrix off the shape the theory guarantees, a first row
    that a member cannot have, or a sampler output outside its group."""


class MalformedDag(Sp4CertError):
    """A certificate's structure is invalid; ``cert_verify`` raises it before any verdict."""


class ParseError(Sp4CertError):
    """Malformed serialised data; the message carries the location."""


class DomainError(Sp4CertError):
    """Numeric argument outside its documented domain."""
