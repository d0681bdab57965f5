"""Exception types raised across the package.

Every error that can point at a place in some input carries enough
location data (source name, line, or byte offset) to build a usable
diagnostic, and bakes that location into the message so callers that
only ever print ``str(exc)`` still get it.
"""

from __future__ import annotations

__all__ = [
    "CiteforgeError",
    "ScanError",
    "UnbalancedGroupError",
    "AuxFormatError",
    "AuxCorruptError",
    "MacroError",
    "MacroRecursionError",
    "StructureError",
]


def _located(message: str, line: int | None, source: str) -> str:
    if line is None and not source:
        return message
    if not source:
        return f"{line}: {message}"
    if line is None:
        return f"{source}: {message}"
    return f"{source}:{line}: {message}"


class CiteforgeError(Exception):
    """Base class for all errors raised by this package.

    ``line`` and ``source`` locate the error in an input, when known.
    """

    def __init__(self, message: str, line: int | None = None, source: str = "") -> None:
        super().__init__(_located(message, line, source))
        self.line = line
        self.source = source

    def locate(self, line: int, source: str) -> None:
        """Bake ``source:line`` into the message, unless it has a line already."""
        if self.line is None:
            self.line, self.source = line, source
            self.args = (_located(str(self), line, source),)


class ScanError(CiteforgeError):
    """Argument or command scanning could not complete."""


class UnbalancedGroupError(ScanError):
    """A brace group opened but never closed, or a stray closer appeared."""


class AuxFormatError(CiteforgeError):
    """A record cannot be serialized into the aux file format."""


class AuxCorruptError(CiteforgeError):
    """An aux file contains bytes that do not parse as records.

    ``offset`` is the byte position in the original file content (before
    newline stripping) where the unparseable residue begins; ``source``
    names the file, and ``line`` stays None.
    """

    def __init__(self, message: str, offset: int, source: str = "") -> None:
        super().__init__(f"{message} (byte {offset})", source=source)
        self.offset = offset


class MacroError(CiteforgeError):
    """A macro definition or expansion is invalid.

    The macro engine knows no location; whoever handles the command
    that raised it calls :meth:`locate` before letting it propagate.
    """


class MacroRecursionError(MacroError):
    """Macro expansion nested deeper than ``macros.MAX_EXPANSION_DEPTH``."""

    def __init__(self, name: str, depth: int) -> None:
        super().__init__(f"expansion of \\{name} exceeded depth {depth}")
        self.name = name
        self.depth = depth


class StructureError(CiteforgeError):
    """A bibliography file violates the expected item structure."""
