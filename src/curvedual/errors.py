"""Exception hierarchy shared by all modules."""


class AlgebraError(Exception):
    """Base class for every structured error raised by this package."""


class ParseError(AlgebraError):
    """Malformed textual input (element syntax or input file)."""


class BranchMismatch(AlgebraError):
    """Operands live over different branch counts or different fields."""


class DifferentialDegreeError(AlgebraError):
    """Operation not defined at these differential degrees."""


class BranchOutOfRange(AlgebraError):
    """Branch index outside 0..r-1."""


class NotFiniteColength(AlgebraError):
    """The generated subring does not have finite colength in the
    product of power series rings within the allowed window."""


class NotMember(AlgebraError):
    """Element does not belong to the ring (or module) it was offered to."""


class ZeroDivisor(AlgebraError):
    """A non-zerodivisor was required but the element vanishes on a branch."""


class NotCoprime(AlgebraError):
    """Numerical semigroup generators with gcd > 1."""


class NotPrimeField(AlgebraError):
    """Operation requires a prime field (or a finite field) and got
    something else."""


class ZeroOnBranch(AlgebraError):
    """Module or generator set is identically zero on some branch."""


class OwnerMismatch(AlgebraError):
    """Fractional ideals over different rings (or of different
    differential degree) were combined."""


class NotContained(AlgebraError):
    """Expected containment of modules fails."""


class NotARing(AlgebraError):
    """A fractional ideal that was required to be a ring is not one."""


class FieldTooSmall(AlgebraError):
    """No sufficiently general element exists (or was found) over this
    finite field; extend the field and retry."""


class NotDualizing(AlgebraError):
    """Module offered as a dualizing module fails the socle criterion."""


class TooLarge(AlgebraError):
    """Exhaustive search or enumeration would exceed the configured bound."""


class NotKilled(AlgebraError):
    """Module is not annihilated by the stated element."""


class NoWitness(AlgebraError):
    """Exhaustive search finished without producing the promised witness."""


class NotSaturated(AlgebraError):
    """Plane semigroup operation that needs a saturated input got an
    unsaturated one."""


class InvariantViolation(AlgebraError):
    """An internal mathematical invariant failed; indicates a bug or an
    input outside the supported domain."""
