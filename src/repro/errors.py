"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate storage, indexing, planning and
configuration problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid configuration value or combination of values."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class UnknownTableError(StorageError):
    """A table name was not found in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown table: {name!r}")
        self.name = name


class UnknownColumnError(StorageError):
    """A column name was not found in a table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column: {table!r}.{column!r}")
        self.table = table
        self.column = column


class DuplicateObjectError(StorageError):
    """An object (table, column, index) with this name already exists."""


class SchemaError(StorageError):
    """A schema mismatch, e.g. loading data of the wrong width or dtype."""


class PersistError(StorageError):
    """A snapshot could not be written, validated or restored."""


class IndexError_(ReproError):
    """Base class for indexing failures (named to avoid the builtin)."""


class IndexingError(IndexError_):
    """An index operation could not be performed."""


class CrackerError(IndexingError):
    """A cracker-index invariant was violated or misused."""


class ConcurrencyError(IndexingError):
    """The tuning worker pool failed (:mod:`repro.holistic.workers`)."""


class InjectedFault(ReproError):
    """A failure deliberately raised by the fault-injection plane.

    Carries the registered fault-point name and the invocation index it
    fired at, so recovery paths can report exactly which scheduled
    fault they absorbed.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected fault at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class PlanError(ReproError):
    """Query planning failed (unknown operator, bad predicate, ...)."""


class QueryError(ReproError):
    """A malformed query (e.g. low > high on a range predicate)."""


class WorkloadError(ReproError):
    """Workload generation was asked for an impossible configuration."""


class BenchmarkError(ReproError):
    """The benchmark harness was invoked with invalid arguments."""
