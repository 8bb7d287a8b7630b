"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent caller-supplied data (bad config, off-grid state, ...)."""


class DomainError(InputError):
    """A state or interval falls outside the sampled flux domain."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


class TrackerError(InputError):
    """Evolution hit its event cap, ``options.max_events`` or the default
    derived from the run's size; carries the partial timeline for diagnosis."""

    def __init__(self, message, partial_timeline=None):
        super().__init__(message)
        self.partial_timeline = partial_timeline

