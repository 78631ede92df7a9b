"""Exception hierarchy for rigidori.

All domain failures derive from RigidOriError so the CLI can map them to a
single exit code; input validation failures additionally derive from
ValueError so they behave normally in library use.
"""


class RigidOriError(Exception):
    """Base class for all rigidori domain errors."""


class InputError(RigidOriError, ValueError):
    """Malformed or out-of-domain input (bad angles, non-unit axis, ...)."""


class DegenerateVertexError(RigidOriError):
    """A vertex for which a requested quantity is singular."""


class NoRealFoldError(RigidOriError):
    """The opposite-angle relation has no real solution at this driver."""


class DegenerateConfigurationError(RigidOriError):
    """0/0 in the opposite-angle relation: the relation is indeterminate."""


class InfeasibleDriverError(RigidOriError):
    """Driver angle outside the feasible folding range of the branch."""


class BranchNotRealizableError(RigidOriError):
    """No sign assignment on the requested branch passes loop closure."""


class TraceAbortError(RigidOriError):
    """A trace sample has no certified branch state continuing its
    neighbours; the message names its driver."""


class NonClosingStateError(RigidOriError):
    """A fold state fails the loop-closure certificate."""


class MeshConsistencyError(RigidOriError):
    """Internal geometric consistency check failed during mesh assembly."""


class UnsupportedVariantError(RigidOriError):
    """Operation not defined for this combined-vertex variant."""


class RigidFoldabilityError(RigidOriError):
    """A sheet's closed-form crease coefficients conflict, miss a crease
    or cannot be driven (zero mode constant)."""


class GluingError(RigidOriError):
    """A glued crease row misses its partner in the next layer."""
