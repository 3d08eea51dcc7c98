"""Exception types shared across the toolkit.

Everything derives from RepdualError so callers (and the CLI) can catch the
whole family at once.  CapExceeded and its subclasses signal that a guarded
exponential enumeration was refused, not that the input is wrong.
"""


class RepdualError(Exception):
    pass


class InvalidPermutation(RepdualError):
    """A generator is not a bijection on its point set."""


class NotAGroup(RepdualError):
    """A multiplication table violates a group axiom; message names the axiom
    and a witness triple."""


class CapExceeded(RepdualError):
    """A guarded enumeration exceeds its configured cap."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what} needs {needed} > cap {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


class ClosureCapExceeded(CapExceeded):
    """Generated closure grew past the configured cap."""


class LengthMismatch(RepdualError):
    """Words of different lengths were combined."""


class NotRational(RepdualError):
    """MacWilliams #2's rationality gate found a transformed coefficient
    with nonzero non-constant coefficients in Z[zeta_m].  A checked
    outcome, not a fault."""


class LiftVerificationFailed(RepdualError):
    """A computed character table failed its exact orthogonality
    certification; the table is never returned."""


class PolymatroidViolation(RepdualError):
    """Projection cardinalities violated normalization, monotonicity or
    submodularity (implementation bug, aborted)."""


class NonIntegerMultiplicity(RepdualError):
    """A dual multiplicity came out non-integral or negative
    (implementation bug, aborted)."""


class DomainError(RepdualError):
    """Argument outside the mathematical domain of the operation."""


class SpecFileError(RepdualError):
    """Group/code spec file is malformed; message carries field diagnostics."""
