"""Exception hierarchy for the motionblend package.

Everything raised on purpose derives from MotionBlendError so callers can
catch one base type. The CLI maps subfamilies onto distinct exit codes.
"""


class MotionBlendError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MotionBlendError, ValueError):
    """An argument is outside the documented domain (bad coefficient,
    empty projection set, invalid action index, ...)."""


class InvalidSignalError(MotionBlendError, ValueError):
    """Signal values are malformed: wrong shape, non-finite entries, or an
    effective length outside [1, t_max]."""


class ShapeMismatchError(MotionBlendError, ValueError):
    """Two signals cannot be combined because their sampling configs or
    lengths differ."""


class TrivialPartitionError(MotionBlendError, ValueError):
    """A dataset split left one side of the partition empty."""


class PrefixUniquenessError(MotionBlendError, ValueError):
    """Two dataset signals share a warm-up prefix, so streaming
    identification cannot tell them apart.

    Attributes
    ----------
    pairs : list of (str, str)
        Ids of the colliding samples.
    """

    def __init__(self, message, pairs=None):
        super().__init__(message)
        self.pairs = list(pairs or [])


class DatasetParseError(MotionBlendError, ValueError):
    """A data or artifact file does not parse; message names line and field."""


class ConfigError(MotionBlendError, ValueError):
    """A configuration value or combination is invalid."""


class FeatureError(MotionBlendError, ValueError):
    """A signal is too short (or otherwise unfit) to featurize."""


class TrainingError(MotionBlendError, RuntimeError):
    """Training diverged; carries the epoch (or episode) index."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class StaleArtifactError(MotionBlendError, RuntimeError):
    """An artifact was built against a different upstream artifact
    (fingerprint or dataset hash mismatch)."""


class ProtocolError(MotionBlendError, RuntimeError):
    """An operation was called out of order (push after finish, step after
    done, checking an incomplete trace, ...)."""
