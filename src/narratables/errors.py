"""Exception and warning types shared across the package."""


class NarratablesError(Exception):
    """Base class for all domain errors raised by this package."""


# -- geometry --------------------------------------------------------------

class SuperluminalVelocity(NarratablesError):
    """A velocity with |v| >= 1 (c = 1 units) was supplied."""


class CoincidentWorldlines(NarratablesError):
    """Two worldlines share the same trajectory for all times."""


class OverlappingSimultaneousPairs(NarratablesError):
    """A particle takes part in two collisions on the same leaf."""


class BeyondFloatRange(NarratablesError):
    """An exact value is too large in magnitude for the float it must become."""


# -- quantum ---------------------------------------------------------------

class InvalidPairing(NarratablesError):
    """A pairing does not cover the slots with disjoint pairs/singles."""


class SlotOutOfRange(NarratablesError):
    """A slot index is outside 0..n_slots-1."""


class EqualSlots(NarratablesError):
    """A two-slot operation was given the same slot twice."""


class OverlappingPairs(NarratablesError):
    """Simultaneous contact unitaries share a slot."""


class DimensionMismatch(NarratablesError):
    """Operands live in different-sized spaces."""


class NotNormalized(NarratablesError):
    """A state vector does not have unit norm."""


class NonUnitaryMatrix(NarratablesError):
    """A matrix supposed to be unitary is not."""


class TooManySlots(NarratablesError):
    """More spin slots requested than the dense simulator supports."""


# -- narrative -------------------------------------------------------------

class FoliationMismatch(NarratablesError):
    """Histories recorded under different foliations were compared."""


# -- clusterkit ------------------------------------------------------------

class NotConserving(NarratablesError):
    """Canonical form requested for a kernel that does not conserve momentum."""


# -- file input / CLI ------------------------------------------------------

class ParseError(NarratablesError):
    """An input file does not match the documented format."""


class UnknownRule(NarratablesError):
    """A scenario file does not define the requested interaction rule."""


class IndexOutOfRange(NarratablesError):
    """A foliation (or similar) index points outside the file's list."""


# -- warnings --------------------------------------------------------------

class ExactnessWarning(UserWarning):
    """Exact rational arithmetic was not possible; floats are used instead."""


class LittleGroupWarning(UserWarning):
    """Re-foliation shortcut applied to a state with nonzero total spin."""


class NonHermitianInput(UserWarning):
    """A matrix expected to be Hermitian was not, within tolerance."""
