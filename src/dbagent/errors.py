"""Shared exception bases.

Split by how the CLI maps failures to exit codes: bad input files are
``DataError`` (exit 2), unreachable or misbehaving model/embedding services
are ``BackendError`` (exit 3).
"""

from __future__ import annotations

__all__ = ["DataError", "BackendError"]


class DataError(Exception):
    """A corpus, dataset, script, or emitted file failed validation."""


class BackendError(Exception):
    """A remote or scripted backend could not produce a usable response.

    ``attempts`` counts the tries made when the backend is remote.
    """

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts
