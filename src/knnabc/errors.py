"""Exception types shared across the package."""


class KnnAbcError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(KnnAbcError, ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(KnnAbcError, ValueError):
    """Bad run configuration: unknown model, malformed config file, ...

    Carries the full list of messages so callers can report every problem
    at once instead of failing on the first.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class UnsupportedModelError(KnnAbcError):
    """The model lacks a capability (posterior oracle, analytic joint
    density) that the requested operation needs."""


class EmptyAcceptedSetError(KnnAbcError):
    """An estimator was given an accepted set with zero rows."""


class InfeasibleRadiusError(KnnAbcError):
    """The restricted sampler's acceptance probability is numerically zero
    over the probe budget."""


class BoundHypothesisError(KnnAbcError):
    """(k+1)/(N+1) <= xi0 * L**m failed, so the distance-moment bound
    does not apply."""
