"""File access behind a small interface.

The driver never touches the file system directly; it goes through one
of these, which is what makes "no file was written" checkable in tests
and keeps the no-aux mode honest.  Access is per-name and sequential;
nothing here is safe for concurrent writers of the same name.  A real
file is replaced whole, never left half written.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Optional, Protocol

__all__ = ["FileAccess", "DirectoryFiles", "MemoryFiles"]


class FileAccess(Protocol):
    def exists(self, name: str) -> bool: ...

    def read_bytes(self, name: str) -> bytes: ...

    def write_bytes(self, name: str, data: bytes) -> None: ...


class DirectoryFiles:
    """Real files resolved against a fixed root directory."""

    __slots__ = ("root",)

    def __init__(self, root: Path) -> None:
        self.root = root

    def _path(self, name: str) -> Path:
        return Path(self.root) / name

    def exists(self, name: str) -> bool:
        return self._path(name).is_file()

    def read_bytes(self, name: str) -> bytes:
        return self._path(name).read_bytes()

    def write_bytes(self, name: str, data: bytes) -> None:
        """Replace the file with ``data`` in one step.

        The bytes go to a temporary file beside it, which then takes the
        file's place, so a failed or interrupted write leaves the old
        content and no temporary file.
        """
        path = self._path(name)
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(temporary, "wb") as handle:
                handle.write(data)
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
            raise


class MemoryFiles:
    """An in-memory store that also logs every write it sees."""

    __slots__ = ("files", "writes")

    def __init__(self, files: Optional[dict[str, bytes]] = None) -> None:
        self.files = {} if files is None else files
        self.writes: list[tuple[str, bytes]] = []

    def exists(self, name: str) -> bool:
        return name in self.files

    def read_bytes(self, name: str) -> bytes:
        return self.files[name]

    def write_bytes(self, name: str, data: bytes) -> None:
        self.files[name] = data
        self.writes.append((name, data))
