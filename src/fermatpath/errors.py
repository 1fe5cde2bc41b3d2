"""Exception hierarchy shared by all solver and geometry modules."""


class FermatPathError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateBasis(FermatPathError):
    """Surface basis columns are near-zero or near-parallel."""


class ShapeMismatch(FermatPathError):
    """Array shapes are inconsistent with the owning path specification."""


class DegenerateSegment(FermatPathError):
    """Two consecutive path points (nearly) coincide; unit directions undefined."""


class ZeroDirection(FermatPathError):
    """Line-search direction moves no interaction point."""


class NonUniformBatch(FermatPathError):
    """Batch members do not share the same number of interactions."""


class NotAllPlanes(FermatPathError):
    """Image method requires every surface to be a plane."""


class NoIntersection(FermatPathError):
    """A mirrored sight line is parallel to the plane it must cross."""


class SingularHessian(FermatPathError):
    """Damped Newton system could not be solved."""


class NoConvergence(FermatPathError):
    """Reference solver failed to reach its gradient-norm tolerance."""


class NotStationary(FermatPathError):
    """Implicit differentiation requested at a non-stationary point."""


class SingularSystem(FermatPathError):
    """Stationarity system unsolvable even with Tikhonov fallback."""


class SceneFileError(FermatPathError):
    """A scene file is not YAML, or one of its documents is not a valid scene."""
