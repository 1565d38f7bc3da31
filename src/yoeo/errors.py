"""Error types shared across the package.

Every error carries a small integer code so the CLI can emit
machine-parsable ``YOEO-E<code>:`` prefixes on stderr.
"""


class YoeoError(Exception):
    """Base class for all package errors."""

    code = 1


class ConfigError(YoeoError):
    code = 2


class DegenerateInput(YoeoError):
    """Too few points, or centered source points are (near-)collinear."""

    code = 10


class NoConsensus(YoeoError):
    """RANSAC found no model meeting the minimum inlier fraction."""

    code = 11


class DegenerateExtents(YoeoError):
    code = 12


class TooFewPoints(YoeoError):
    code = 14


class NonFiniteLoss(YoeoError):
    code = 16


class DegenerateSpec(YoeoError):
    code = 17


class WeightFormatError(YoeoError):
    """Weights file has a bad magic, version, or layer layout."""

    code = 18


class SceneFormatError(YoeoError, ValueError):
    """Scene file with an unsupported version, a missing or malformed
    field, or arrays of the wrong shape."""

    code = 19
