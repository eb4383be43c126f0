"""Exception types shared across the package, and the excerpt helper for their messages."""

import reprlib

_EXCERPT = reprlib.Repr()
_EXCERPT.maxlevel = 2  # six items a level: at most 36 leaves from any nesting


def excerpt(value: object) -> str:
    """A repr of an offending input value, cut short so that messages stay small."""
    return _EXCERPT.repr(value)


class OrdtopError(Exception):
    """Base class for every error this package raises on purpose."""


class FormatError(OrdtopError):
    """A file or JSON payload does not match the documented shape."""


class DuplicateLabel(OrdtopError):
    """An element label occurs more than once."""


class UnknownLabel(OrdtopError):
    """A label does not name an element of the structure at hand."""


class CycleDetected(OrdtopError):
    """The reflexive-transitive closure of the input violates antisymmetry."""


class ForeignSet(OrdtopError):
    """A subset argument mentions labels outside the owning poset."""


class EmptySet(OrdtopError):
    """An operation that needs a nonempty subset received an empty one."""


class TooLarge(OrdtopError):
    """An input exceeds a size bound.

    The CLI holds each finite verb's input poset, and the truncation it is
    asked to build, to ``--max-elements``; no library function bounds its
    work.
    """


class InvalidModel(OrdtopError):
    """A product model violates one of its structural preconditions."""


class NotAProductTopology(OrdtopError):
    """No pair of factor topologies reproduces the given topology."""


class NotAnIdeal(OrdtopError):
    """A set expected to be a directed lower set is not one."""


class NotCoveringMax(OrdtopError):
    """A member of an open family fails to cover the maximal points."""


class VerificationFailed(OrdtopError):
    """A machine-checked claim does not hold; the message names the claim."""
