"""Exception types shared across the package, and the excerpt helper for their messages.

Each error's base class is its exit code: the CLI exits 2 on an
``InputError`` (the input is unusable) and 1 on a ``VerificationFailed`` (a
checked claim does not hold).  Every other ``OrdtopError`` derives from
exactly one of the two.
"""

import reprlib

_EXCERPT = reprlib.Repr()
_EXCERPT.maxlevel = 2  # six items a level: at most 36 leaves from any nesting


def excerpt(value: object) -> str:
    """A repr of an offending input value, cut short so that messages stay small."""
    return _EXCERPT.repr(value)


class OrdtopError(Exception):
    """Base class for every error this package raises on purpose."""


class InputError(OrdtopError):
    """The input cannot be used as given; the CLI exits 2."""


class VerificationFailed(OrdtopError):
    """A machine-checked claim does not hold; the message names the claim.  The CLI exits 1."""


class FormatError(InputError):
    """A file or JSON payload does not match the documented shape."""


class DuplicateLabel(InputError):
    """An element label occurs more than once."""


class UnknownLabel(InputError):
    """A label does not name an element of the structure at hand."""


class CycleDetected(InputError):
    """The reflexive-transitive closure of the input violates antisymmetry."""


class ForeignSet(InputError):
    """A subset or point argument mentions labels outside the owning poset or space."""


class EmptySet(InputError):
    """An operation that needs a nonempty subset received an empty one."""


class TooLarge(InputError):
    """An input exceeds a size bound.

    The CLI holds each finite verb's input poset, and the truncation it is
    asked to build, to ``--max-elements``, and exits 2; no library function
    bounds its work.
    """


class InvalidModel(InputError):
    """A product model violates one of its structural preconditions."""


class NotAProductTopology(VerificationFailed):
    """No pair of factor topologies reproduces the given topology."""


class NotAnIdeal(VerificationFailed):
    """A set expected to be a directed lower set is not one."""


class NotCoveringMax(VerificationFailed):
    """A member of an open family fails to cover the maximal points."""
