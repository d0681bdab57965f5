"""citeforge: a two-pass citation resolver speaking the aux-file protocol.

Scan a document for citation commands, exchange state with the next
pass through an auxiliary file, fold in the bibliography file when it
appears, and iterate until the aux file reproduces itself.
"""

from .auxfile import (
    AuxKind,
    AuxRecord,
    AuxSession,
    MISSING_AUX_MESSAGE,
    format_record,
    handle_missing_aux,
    read_aux,
)
from .bbl import (
    Alignment,
    BibItem,
    Bibliography,
    LayoutParams,
    measure_label,
    process_bbl,
)
from .citations import (
    Defined,
    Fallback,
    LabelTable,
    Undefined,
    cite,
    nocite,
)
from .dimensions import Dimension, as_fraction, format_number
from .driver import (
    CiteWarning,
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
from .macros import MacroDef, define_newcommand, expand_macros, substitute_params
from .rendering import RenderedFragment, Span, Style, render_annotated, render_plain
from .scanner import (
    DOCUMENT_COMMANDS,
    CharStream,
    CommandInvocation,
    CommandSpec,
    EMPTY_OPTIONAL,
    OptionalArg,
    next_command,
    scan_group_arg,
    scan_optional_arg,
    split_comma_list,
)

__version__ = "0.1.0"

__all__ = [
    "AuxCorruptError",
    "AuxFormatError",
    "AuxKind",
    "AuxRecord",
    "AuxSession",
    "Alignment",
    "BibItem",
    "Bibliography",
    "CharStream",
    "CiteWarning",
    "CiteforgeError",
    "CommandInvocation",
    "CommandSpec",
    "Defined",
    "DirectoryFiles",
    "DOCUMENT_COMMANDS",
    "Dimension",
    "EMPTY_OPTIONAL",
    "Fallback",
    "FileAccess",
    "FixpointResult",
    "JobConfig",
    "LabelTable",
    "LayoutParams",
    "MISSING_AUX_MESSAGE",
    "MacroDef",
    "MacroError",
    "MacroRecursionError",
    "MemoryFiles",
    "OptionalArg",
    "PassResult",
    "RenderedFragment",
    "ScanError",
    "Span",
    "StructureError",
    "Style",
    "UnbalancedGroupError",
    "Undefined",
    "as_fraction",
    "build_report",
    "cite",
    "define_newcommand",
    "expand_macros",
    "format_number",
    "format_record",
    "handle_missing_aux",
    "measure_label",
    "next_command",
    "nocite",
    "process_bbl",
    "read_aux",
    "render_annotated",
    "render_plain",
    "report_json",
    "run_pass",
    "run_to_fixpoint",
    "scan_group_arg",
    "scan_optional_arg",
    "split_comma_list",
    "substitute_params",
]
