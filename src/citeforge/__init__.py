"""citeforge: a two-pass citation resolver speaking the aux-file protocol.

Scan a document for citation commands, exchange state with the next
pass through an auxiliary file, fold in the bibliography file when it
appears, and iterate until the aux file reproduces itself.

The package exports what README's "Library" section documents.  The
layers underneath (the scanner, the aux records and reader, the cite
commands, the macro engine) are importable from their own modules.
"""

from .bbl import Alignment, BibItem, Bibliography, LayoutParams, process_bbl
from .citations import CiteWarning
from .dimensions import Dimension
from .driver import (
    FixpointResult,
    JobConfig,
    PassResult,
    build_report,
    report_json,
    run_pass,
    run_to_fixpoint,
)
from .errors import (
    AuxCorruptError,
    AuxFormatError,
    CiteforgeError,
    MacroError,
    MacroRecursionError,
    ScanError,
    StructureError,
    UnbalancedGroupError,
)
from .files import DirectoryFiles, FileAccess, MemoryFiles
from .rendering import RenderedFragment, Span, Style, render_annotated, render_plain

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "AuxCorruptError",
    "AuxFormatError",
    "BibItem",
    "Bibliography",
    "CiteWarning",
    "CiteforgeError",
    "Dimension",
    "DirectoryFiles",
    "FileAccess",
    "FixpointResult",
    "JobConfig",
    "LayoutParams",
    "MacroError",
    "MacroRecursionError",
    "MemoryFiles",
    "PassResult",
    "RenderedFragment",
    "ScanError",
    "Span",
    "StructureError",
    "Style",
    "UnbalancedGroupError",
    "build_report",
    "process_bbl",
    "render_annotated",
    "render_plain",
    "report_json",
    "run_pass",
    "run_to_fixpoint",
]
