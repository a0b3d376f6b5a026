"""Exception and warning types shared across the toolkit."""


class RcpumError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(RcpumError):
    """Malformed model, distribution, scheme, or scenario configuration."""


class EvaluationError(RcpumError):
    """A demand evaluation returned a non-finite value."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class RelevanceError(RcpumError):
    """No derivative entry above the relevance threshold for a good tuple."""


class AnchorError(RcpumError):
    """The inductive anchor moment vanished at some order."""


class WeightingError(RcpumError):
    """A welfare weighting scheme is undefined on the given support."""


class PreconditionError(RcpumError):
    """An operation's mathematical precondition does not hold."""


class ExtrapolationWarning(UserWarning):
    """A Taylor evaluation was requested outside the trust radius."""
