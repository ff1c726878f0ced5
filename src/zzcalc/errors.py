"""Exception types shared across the package.

Errors split into three families: user-input problems (bad files, bad
flags, bad model parameters), mathematical precondition failures, and
internal invariant violations.  The CLI maps the first two to exit
code 2 and the last to exit code 3.
"""


class ZZError(Exception):
    """Base class for all package errors."""


class InputError(ZZError):
    """Base class for user-input problems (CLI exit code 2)."""


class InvalidInput(InputError):
    """A model builder or parser rejected its arguments."""


class UnknownPreset(InputError):
    """Requested a cdga preset name that does not exist."""


class ShapeMismatch(InputError):
    """A differential matrix does not match the dimensions of its
    source or target bidegree."""

    def __init__(self, pq, detail=""):
        self.pq = pq
        msg = f"matrix shape mismatch at bidegree {pq}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotABicomplex(InputError):
    """One of the three differential identities fails."""

    def __init__(self, pq, which_identity):
        self.pq = pq
        self.which_identity = which_identity
        super().__init__(f"identity {which_identity} fails at bidegree {pq}")


class InvalidShape(InputError):
    """A ZigzagShape is not canonical or not realizable."""


class AmbientMismatch(InputError):
    """A vector or subspace whose ambient dimension does not match the
    operation's (a Subspace basis vector of the wrong length included)."""


class NoPoincareDuality(InputError):
    """The cdga's cohomology fails the Poincare duality precondition."""


class InfiniteDimensional(InputError):
    """A truncated graded piece of a cdga exceeded the configured cap."""


class InternalError(ZZError):
    """Base class for internal invariant violations (CLI exit code 3)."""


class Inconsistent(InternalError):
    """An internal audit failed: the multiplicity-table dimension count,
    a Hodge filtration cell count, the dimension chain or its equality
    cases, the ddc+3 witness search, or a cdga check (a tower map, a
    solved combination, d_j^k against r_j^k)."""


class CharacterizationMismatch(InternalError):
    """Two provably equivalent characterizations disagreed."""


class NotStabilized(ZZError):
    """A minimal-model tower hit its caps before stabilizing.

    Carries the partial model so callers can inspect how far it got.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
