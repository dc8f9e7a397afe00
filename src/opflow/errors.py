"""Exception hierarchy shared across the package, its one rule for a whole
number given by a caller, and its one way to replace files.

The CLI maps these onto process exit codes: usage problems exit 1,
:class:`DataError` (and subclasses) exit 2, :class:`NumericError` exits 3.
"""

from __future__ import annotations

import numbers
import os
from pathlib import Path
from typing import BinaryIO, Callable, Mapping


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


def _write_atomic(files: Mapping[str | Path, Callable[[BinaryIO], None]]) -> None:
    """Replace each path in ``files`` with the bytes its ``write(fh)`` writes,
    all of them or none.

    Each file's bytes go to ``.<name>.tmp`` in its directory, which is flushed
    and synced.  Once every file is staged, each is moved over its path by one
    ``os.replace``, and each directory is then synced so the renames survive a
    crash.  A write that fails or is interrupted before the first replace
    leaves every path as it was and removes the staging files.
    """
    staged = {Path(path).with_name(f".{Path(path).name}.tmp"): Path(path) for path in files}
    try:
        for staging, write in zip(staged, files.values()):
            with open(staging, "wb") as fh:  # truncates one left by a killed write
                write(fh)
                fh.flush()
                os.fsync(fh.fileno())
        for staging, path in staged.items():
            os.replace(staging, path)
    except BaseException:
        for staging in staged:
            staging.unlink(missing_ok=True)
        raise
    for directory in dict.fromkeys(path.parent for path in staged.values()):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
