"""Exception types raised across the package."""


class OfdmSarError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidParameterError(OfdmSarError, ValueError):
    """A numeric parameter is out of its valid domain."""


class GeometryError(OfdmSarError, ValueError):
    """A geometric precondition does not hold (heights, angles, ranges)."""


class ConfigurationError(OfdmSarError, ValueError):
    """A configuration is internally inconsistent or incomplete."""


class SceneError(OfdmSarError, ValueError):
    """A scene is empty, out of extent, or otherwise unusable."""


class PgmParseError(OfdmSarError, ValueError):
    """Malformed PGM input.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message, byte_offset):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class StageError(OfdmSarError, ValueError):
    """A grid names an unknown imaging-chain stage or stage code."""


class MeasurementError(OfdmSarError, RuntimeError):
    """A profile measurement could not be completed (no peak, no crossing)."""


class CapacityError(OfdmSarError, ValueError):
    """A problem size exceeds the implemented capacity limits."""
