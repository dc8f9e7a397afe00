"""Exception hierarchy shared across the package, its one rule for a whole
number given by a caller, and its one way to replace a file.

The CLI maps these onto process exit codes: usage problems exit 1,
:class:`DataError` (and subclasses) exit 2, :class:`NumericError` exits 3.
"""

from __future__ import annotations

import numbers
import os
from pathlib import Path
from typing import BinaryIO, Callable


class OpflowError(Exception):
    """Base class for all package-specific errors."""


class DataError(OpflowError):
    """Invalid input data: malformed documents, bad references, bad formats."""


class DocumentError(DataError):
    """A workflow document failed validation.

    Carries the JSONPath-ish location of the offending field so callers can
    point at the exact spot in the file.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class CycleError(DataError):
    """A graph that must be acyclic contains a cycle.

    ``witness`` is a node sequence ``[a, b, ..., a]`` tracing the cycle.
    """

    def __init__(self, witness: list[str], message: str = "graph contains a cycle"):
        self.witness = list(witness)
        super().__init__(f"{message}: {' -> '.join(self.witness)}")


class MergeError(DataError):
    """Workflows could not be merged into a single operation graph."""


class NumericError(OpflowError):
    """Numerical failure: non-finite values, failed convergence checks."""


def _check_int(name: str, value, minimum: int) -> None:
    """Raise :class:`DataError` unless ``value`` is an integer, and not a
    bool, of at least ``minimum``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum):
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer of at least {minimum}"
        )
        raise DataError(f"{name} must be {kind}, got {value!r}")


def _write_atomic(path: str | Path, write: Callable[[BinaryIO], None]) -> None:
    """Replace ``path`` with the bytes ``write(fh)`` writes, all or nothing.

    They go to ``.<name>.tmp`` in the same directory, which is flushed and
    synced, then moved over ``path`` by one ``os.replace``: a failed or
    interrupted write leaves ``path`` as it was and removes the staging file.
    """
    path = Path(path)
    staging = path.with_name(f".{path.name}.tmp")
    try:
        with open(staging, "wb") as fh:  # truncates one left by a killed write
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
