"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is outside an operation's domain (bad polygon, bad cone, ...)."""


class ParseError(DomainError):
    """A file or text payload could not be parsed; message carries a line number."""


class SingularityCountError(DomainError):
    """The polygon does not have exactly one non-basic cone."""


class ConsistencyError(RuntimeError):
    """Two routes to the same quantity disagreed; signals a bug, not bad input.
    `check` names the failed check, `expected` and `got` its two values."""

    def __init__(self, message, *, check=None, expected=None, got=None):
        super().__init__(message)
        self.check, self.expected, self.got = check, expected, got
