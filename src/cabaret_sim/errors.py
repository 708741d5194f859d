"""Exception types shared across the simulator."""

from contextlib import contextmanager
from typing import Iterator


class SimulatorError(Exception):
    """Base class for all cabaret-sim errors."""


class ParameterError(SimulatorError, ValueError):
    """An argument is out of its documented domain."""


class UnknownContentError(SimulatorError, KeyError):
    """A content id was queried that is not part of the catalog."""

    def __init__(self, content_id: str):
        super().__init__(content_id)
        self.content_id = content_id

    def __str__(self) -> str:
        return f"unknown content id: {self.content_id!r}"


class DatasetFormatError(SimulatorError, ValueError):
    """A dataset file violates the documented format.

    ``line`` is 1-based when the error is attributable to a specific line;
    ``content_id`` names the content whose record is at fault, when known.
    """

    def __init__(self, message: str, line: int | None = None, content_id: str | None = None):
        self.line = line
        self.content_id = content_id
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateContentError(DatasetFormatError):
    """The same content id is defined more than once."""


class InstanceTooLargeError(SimulatorError):
    """Brute-force search was requested on an instance above the safety guard."""


class UndefinedMetricError(SimulatorError):
    """A metric was requested over an empty input."""


class ConfigError(SimulatorError, ValueError):
    """An experiment configuration is invalid."""


@contextmanager
def utf8_errors(path: str, error: type[SimulatorError]) -> Iterator[None]:
    """Turn a UTF-8 decode error inside the block into ``error`` naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason}") from None
