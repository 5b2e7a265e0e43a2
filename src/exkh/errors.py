"""Exception types shared across the package."""

from __future__ import annotations


class ExkhError(Exception):
    """Base class for every error raised by this package."""


class DiagramError(ExkhError, ValueError):
    """Invalid planar diagram input."""


class MalformedTuple(DiagramError):
    """A crossing token is not of the form X(a,b,c,d) with positive labels."""


class ArcLabelNotPairedTwice(DiagramError):
    """Some arc label does not occur at exactly two crossing slots."""


class InconsistentOrientation(DiagramError):
    """The under-strand entry slots cannot be oriented coherently."""


class EmptyDiagram(DiagramError):
    """The input contains no crossings and no loop markers."""


class NonPlanarDiagram(DiagramError):
    """The crossings' rotations do not embed the projection in the plane."""


class CapExceeded(ExkhError, RuntimeError):
    """An enumeration grew past its configured bound.

    Raised instead of silently truncating; callers can retry with a larger
    cap.  Mapped to exit code 2 by the command line interface.
    """

    def __init__(self, what: str, cap: int):
        self.what = what
        self.cap = cap
        super().__init__(f"{what} exceeded cap {cap}")


class NotAComplex(ExkhError, ValueError):
    """A face set is not closed under taking subsets."""


class NotBipartition(ExkhError, ValueError):
    """The given vertex part is not one side of a bipartition of the graph."""


class EmptyPartW(ExkhError, ValueError):
    """The complementary part of the bipartition is empty."""


class SameComponent(ExkhError, ValueError):
    """Both arcs handed to a clasp move lie on one link component."""


class ClaspFailed(ExkhError, RuntimeError):
    """A clasp move failed to keep the new all-A chords inadmissible."""
