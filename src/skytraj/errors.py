"""Exception types shared across the package."""


class SkytrajError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeometry(SkytrajError):
    """A geometric value violates its invariants (NaN/Inf, negative size, ...)."""


class SingularTransform(InvalidGeometry):
    """A projective or affine map fails the invertibility floor."""


class SingularResult(SingularTransform):
    """A composition produced a matrix below the invertibility floor."""


class DegenerateProjection(SkytrajError):
    """A point maps to projective infinity (homogeneous scale ~ 0)."""


class NonConvexInput(SkytrajError):
    """Polygon clipping received a non-convex quadrilateral."""


class MissingDistances(SkytrajError):
    """A correspondence lacks the descriptor distances required by the ratio test."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row  # index of the match in the set that was tested
        super().__init__(message)


class InsufficientPoints(SkytrajError):
    """Fewer correspondences than the minimal sample size."""


class DegenerateConfiguration(SkytrajError):
    """Correspondence geometry is collinear/coincident; no homography exists."""


class NoModelFound(SkytrajError):
    """Robust estimation exhausted its iteration budget without a consensus."""


class MissingHomography(SkytrajError):
    """No homography supplied for a frame that needs one."""

    def __init__(self, frame: int):
        self.frame = frame
        super().__init__(f"no homography for frame {frame}")


class UnknownVideo(SkytrajError):
    """Video id not present in the georeference registry."""


class UnknownIntersection(SkytrajError):
    """Intersection label not present in the georeference registry."""


class EmptyVisibilitySet(SkytrajError):
    """No fully visible bounding boxes; dimension steps cannot start."""


class EmptySampleSet(SkytrajError):
    """All dimension samples were filtered out; no quartile exists."""


class TooShort(SkytrajError):
    """Trajectory has too few points for the requested computation."""


class DegenerateSegment(SkytrajError):
    """Candidate trajectory points coincide; comparison metrics undefined."""


class ParseError(SkytrajError):
    """An input file is malformed."""

    def __init__(self, message: str, line: int | None = None, path=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class InvariantViolation(ParseError):
    """A parsed value violates a domain invariant."""


class ConfigError(SkytrajError):
    """A config key is unknown, or a parameter value is invalid."""


class IoFailure(SkytrajError):
    """Reading or writing a data file failed."""
