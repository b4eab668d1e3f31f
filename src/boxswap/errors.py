"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input/validation problems exit with 2,
a coupler applied outside its valid region exits with 3, anything else is
an internal error (1).
"""

from __future__ import annotations


class BoxSwapError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(BoxSwapError, ValueError):
    """Wrong party count, party index, or word length for an operation."""


class PartyCapError(BoxSwapError, ValueError):
    """Table would exceed the soft cap on party count.

    Dense tables hold 4**n exact entries; beyond the cap that is no longer
    a table, it is a memory bill.  Marginalize first, or raise the cap
    consciously via the ``cap`` argument of the operation that refused.
    """


class ValidationError(BoxSwapError, ValueError):
    """A table failed normalization or nonnegativity checks."""


class SignalingError(ValidationError):
    """A marginal changed with a discarded party's input.

    ``party`` is the 1-based index of the offending party.
    """

    def __init__(self, party: int, message: str | None = None):
        self.party = party
        super().__init__(message or f"marginal depends on the input of party {party}")


class CouplerInvalidError(BoxSwapError):
    """Coupler output failed to be a distribution on this joint table.

    ``branch`` is the coupler outcome bit whose table went negative (or
    lost input-independence of its mass).
    """

    def __init__(self, branch: int, message: str | None = None):
        self.branch = branch
        super().__init__(message or f"coupler is invalid on this input (branch {branch})")


class SpecFileError(BoxSwapError, ValueError):
    """A JSON document (box or scenario) is malformed."""
