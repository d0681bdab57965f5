"""Pass orchestration: scan a document, keep the aux file honest, repeat.

One pass scans the document left to right, one scanner call per
command: each call returns the text run before a command and the
command.  When the scanner first returns a citation-shaped command, the
pass reads the previous aux file (or notes that there is none) before
acting on that command.  It renders text and citations into one
fragment; the text runs are not copied, but kept in the rendering as
positions in the document, which the rendering then holds (see
:mod:`.rendering`), and each cite appends its spans to it.  At the
``\\bibliography`` site it defines each bbl item's label, queues the
items' ``@citedef`` lines and adds the bbl's rendering and lint notes.
Each record is queued as its aux line, checked and formatted when it
is written, and finally the pass rewrites the aux file from scratch
with the lines it queued.  The label map (key to label, or to None for
a key that fell back) starts each pass empty; its only inputs are the
aux file just read and the bbl items installed in this very pass.  A
record that cannot be written is reported at the command (or
``\\bibitem``) it came from.

The bbl file is read and processed once per run, at the first
``\\bibliography`` site that finds it; it cannot change between passes
and its processing reads nothing a pass changes, so every pass (the
first included) installs the same items in the same order, and adds
the same rendering, which the bbl walk wrote as it read the file.  The
items' ``@citedef`` records are checked and formatted there too, once,
so a key or label the aux file cannot hold fails the first pass at its
``\\bibitem``; each site queues their one string of aux lines whole.  A
no-aux run writes no records, so it builds and checks none.  A pass
that reads the aux file once the bbl is processed (every pass of a
cold run but the first) reads the items' records into the items' own
key and label strings, so it holds each of them once; a pass that read
it before (a warm run's first) gives the keys read up for the items'
at the first site that installs them.

``run_to_fixpoint`` repeats passes until the aux bytes stop changing,
which is the protocol's notion of convergence: once the aux file
reproduces itself, another pass cannot learn anything new.  A pass is a
function of the document, the bbl and the aux bytes it reads, so a pass
that writes exactly the aux bytes it read is not recomputed: the next
pass is known to reproduce it.  That pass still counts as run: the aux
file is rewritten and the pass is in ``passes_used`` and the aux
history.  Files must therefore not change while a run is in progress.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .auxfile import AuxSession, format_record, handle_missing_aux, read_aux
from .bbl import Bibliography, LayoutParams, process_bbl
from .citations import CiteWarning, cite, nocite
from .dimensions import Dimension, Numberish, as_fraction
from .errors import AuxFormatError, ScanError
from .files import FileAccess
from .rendering import _PLAIN, RenderedFragment, render_annotated, render_plain
from .scanner import CharStream, next_command

__all__ = [
    "JobConfig",
    "check_em_size",
    "check_max_passes",
    "PassResult",
    "FixpointResult",
    "CiteWarning",
    "run_pass",
    "run_to_fixpoint",
    "build_report",
    "report_json",
]


#: TeX's largest dimension, 16383.99998pt (2**30 - 1 scaled points).
_MAX_DIMEN_PT = Fraction(2**30 - 1, 2**16)


def check_em_size(value: Numberish) -> Fraction:
    """``value`` as a Fraction; ValueError unless it is in (0, \\maxdimen]."""
    size = as_fraction(value)
    if not 0 < size <= _MAX_DIMEN_PT:
        raise ValueError("em size must be positive and at most 16383.99998pt")
    return size


def check_max_passes(value: int) -> int:
    """``value``; ValueError unless it is at least 1."""
    if value < 1:
        raise ValueError("max passes must be at least 1")
    return value


class JobConfig:
    """Everything a run needs to know besides the document itself."""

    __slots__ = (
        "jobname",
        "bbl_basename",
        "no_aux",
        "max_passes",
        "em_size_pt",
        "document_name",
    )

    def __init__(
        self,
        jobname: str,
        bbl_basename: Optional[str] = None,
        no_aux: bool = False,
        max_passes: int = 4,
        em_size_pt: Numberish = Fraction(10),
        document_name: str = "",
    ) -> None:
        self.jobname = jobname
        self.bbl_basename = jobname if bbl_basename is None else bbl_basename
        self.no_aux = no_aux
        self.em_size_pt = check_em_size(em_size_pt)
        self.max_passes = check_max_passes(max_passes)
        self.document_name = document_name or f"{jobname}.tex"


class PassResult(NamedTuple):
    """What one pass produced.

    ``labels`` maps each key the pass touched, in first-touched order,
    to its label, or to None when it fell back to the raw key.
    ``aux_read`` holds the aux bytes the pass read, or None when it read
    none: no file, no-aux mode, or no citation-shaped command.
    ``rendered`` keeps the document's text as positions in it, so it
    holds the document string it was scanned from.
    """

    rendered: RenderedFragment
    aux_bytes: bytes
    warnings: list[CiteWarning]
    bibliography: Optional[Bibliography]
    messages: list[str]
    lint: list[str]
    labels: dict[str, Optional[str]]
    aux_read: Optional[bytes] = None

    @property
    def undefined_keys(self) -> list[str]:
        """The keys that fell back to the raw key, in first-touched order."""
        return [key for key, label in self.labels.items() if label is None]

    def warning_texts(self) -> list[str]:
        return [w.text for w in self.warnings]


class FixpointResult(NamedTuple):
    final: PassResult
    passes_used: int
    converged: bool
    aux_history: list[bytes]


class _ProcessedBbl(NamedTuple):
    """What a bbl file contributes to each pass, worked out once per run.

    ``citedefs`` holds the items' ``@citedef`` records in item order,
    each checked once and formatted as its aux line; a no-aux run, which
    writes no records, has none.
    """

    bibliography: Bibliography
    lint: list[str]
    citedefs: str


def _process_bbl_file(fs: FileAccess, bbl_name: str, no_aux: bool) -> _ProcessedBbl:
    try:
        content = fs.read_bytes(bbl_name).decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text (byte {exc.start})"
        raise ScanError(message, source=bbl_name) from None
    lint: list[str] = []
    bibliography = process_bbl(content, lint=lint.append, source=bbl_name)
    del content  # else it stays alive while the records are formatted
    lines: list[str] = []
    try:
        for entry in [] if no_aux else bibliography.items:
            lines.append(format_record("@citedef", entry.key, entry.label))
    except AuxFormatError as exc:
        exc.locate(entry.line, bbl_name)
        raise
    return _ProcessedBbl(bibliography, lint, "".join(lines))


def run_pass(
    config: JobConfig,
    document: str,
    fs: FileAccess,
    processed_bbls: Optional[dict[str, _ProcessedBbl]] = None,
) -> PassResult:
    """One full pass over ``document``; rewrites the aux file at the end.

    Deterministic: the same config, document, and file contents always
    produce the same result, bit for bit.  ``processed_bbls`` keeps the
    processed bbl files by name; ``run_to_fixpoint`` shares one across
    its passes so that each bbl is processed once per run.
    """
    if processed_bbls is None:
        processed_bbls = {}
    labels: dict[str, Optional[str]] = {}
    messages: list[str] = []
    lint: list[str] = []
    warnings: list[CiteWarning] = []
    aux_read: Optional[bytes] = None
    session = AuxSession(no_aux=config.no_aux)
    rendered = RenderedFragment()
    bibliography: Optional[Bibliography] = None
    read_done = config.no_aux
    rekey = False  # whether the aux file's keys are to give way to the items' own
    bbl_name = f"{config.bbl_basename}.bbl"

    stream = CharStream(document, source=config.document_name)
    while stream.position < len(document):
        pieces, item = next_command(stream, lint=lint.append)
        if pieces:  # the text run before the command, kept as positions
            rendered.append_slices(_PLAIN, document, pieces)
        if item is None:  # the end of the document
            break
        # The scanner returns only the four citation-shaped commands.
        if not read_done:
            read_done = True
            aux_name = f"{config.jobname}.aux"
            if fs.exists(aux_name):
                aux_read = fs.read_bytes(aux_name)
                processed = processed_bbls.get(bbl_name)
                rekey = processed is None
                items = processed.bibliography.items if processed else ()
                read_aux(labels, aux_read, aux_name, items)
            else:
                messages.append(handle_missing_aux())
        try:
            if item.name == "cite":
                cite(
                    session,
                    labels,
                    item.arg,
                    item.optional,
                    item.source_line,
                    rendered,
                    # Undefined citations warn only when an aux file was read.
                    warnings=warnings if aux_read is not None else None,
                )
            elif item.name == "nocite":
                nocite(session, item.arg)
            elif item.name == "bibliographystyle":
                session.write("bibstyle", item.arg)
            elif item.name == "bibliography":
                session.write("bibdata", item.arg)
                processed = processed_bbls.get(bbl_name)
                if processed is None and fs.exists(bbl_name):
                    processed = _process_bbl_file(fs, bbl_name, config.no_aux)
                    processed_bbls[bbl_name] = processed
                if processed is None:
                    messages.append(f"No file {bbl_name}.")
                else:
                    if rekey:
                        # The aux file's keys give way to the items' own
                        # strings, in the same order, so none is kept twice.
                        rekey = False
                        own = {entry.key: entry.key for entry in processed.bibliography.items}
                        labels = {own.get(key, key): label for key, label in labels.items()}
                        del own  # else it stays alive through the pass's serialize
                    bibliography = processed.bibliography
                    for entry in bibliography.items:
                        labels[entry.key] = entry.label
                    session.write_checked(processed.citedefs)
                    lint.extend(processed.lint)
                    rendered.extend(bibliography.rendered)
        except AuxFormatError as exc:
            exc.locate(item.source_line, config.document_name)
            raise

    aux_bytes = b"" if config.no_aux else session.serialize()
    if not config.no_aux:
        fs.write_bytes(f"{config.jobname}.aux", aux_bytes)

    return PassResult(
        rendered=rendered,
        aux_bytes=aux_bytes,
        warnings=warnings,
        bibliography=bibliography,
        messages=messages,
        lint=lint,
        labels=labels,
        aux_read=aux_read,
    )


def run_to_fixpoint(config: JobConfig, document: str, fs: FileAccess) -> FixpointResult:
    """Run passes until the aux file reproduces itself.

    Convergence is declared when pass ``k`` writes byte-identical aux
    content to pass ``k - 1``.  A run that ends without an error
    converges in exactly two passes when ``max_passes`` is 2 or more,
    and its first aux history entry is its last: the aux a pass writes
    comes from the document and the bbl, never from the labels it read,
    so pass 1 writes what every later pass writes.  When pass ``k``
    wrote exactly the aux bytes it read, pass ``k + 1`` would see the
    same inputs, so it is not recomputed: its result is pass ``k``'s.
    It still counts in ``passes_used`` and the aux history, and it still
    rewrites the aux file, so the outcome is the same as running it.  If
    the limit is hit first, the result says so and keeps the aux history
    for diffing.  Only the aux history outlives a pass: no earlier
    result is held while the next pass runs.
    """
    history: list[bytes] = []
    processed_bbls: dict[str, _ProcessedBbl] = {}
    pass_number = 0
    while True:
        pass_number += 1
        result = run_pass(config, document, fs, processed_bbls)
        converged = bool(history) and history[-1] == result.aux_bytes
        history.append(result.aux_bytes)
        if converged or pass_number == config.max_passes:
            return FixpointResult(result, pass_number, converged, history)
        if result.aux_read == result.aux_bytes:
            fs.write_bytes(f"{config.jobname}.aux", result.aux_bytes)
            history.append(result.aux_bytes)
            return FixpointResult(result, pass_number + 1, True, history)
        del result  # so the next run_pass call does not keep this one alive


def _dimension_json(dim: Dimension, em_size_pt: Fraction) -> dict:
    data: dict = {"pt": float(dim.to_pt(em_size_pt)), "source": str(dim)}
    for name, part in (("stretch_pt", dim.stretch), ("shrink_pt", dim.shrink)):
        if part is not None:
            data[name] = float(part.to_pt(em_size_pt))
    return data


def _layout_json(layout: LayoutParams, em_size_pt: Fraction) -> dict:
    data: dict = {}
    for name, value in layout._asdict().items():
        if isinstance(value, Dimension):
            value = _dimension_json(value, em_size_pt)
        data[name] = value
        if name == "biblabelextraspace":  # the derived hangindent follows its parts
            data["hangindent"] = _dimension_json(layout.hangindent(em_size_pt), em_size_pt)
    return data


def build_report(config: JobConfig, outcome: FixpointResult) -> dict:
    """A machine-readable account of the final pass."""
    final = outcome.final
    citations = {
        key: {"status": "fallback", "label": key}
        if label is None
        else {"status": "defined", "label": label}
        for key, label in final.labels.items()
    }
    report: dict = {
        "jobname": config.jobname,
        "passes_used": outcome.passes_used,
        "converged": outcome.converged,
        "warnings": [
            {"line": w.line, "key": w.key, "text": w.text} for w in final.warnings
        ],
        "messages": list(final.messages),
        "lint": list(final.lint),
        "citations": citations,
        "undefined": list(final.undefined_keys),
        "rendered": render_plain(final.rendered),
        "rendered_annotated": render_annotated(final.rendered),
        "bibliography": None,
    }
    if final.bibliography is not None:
        bibliography = final.bibliography
        report["bibliography"] = {
            "nobreak_before": True,
            "alignment": (
                bibliography.alignment.value if bibliography.alignment else None
            ),
            "items": [
                {"key": item.key, "label": item.label, "alpha": item.alpha}
                for item in bibliography.items
            ],
            "layout": _layout_json(bibliography.layout, config.em_size_pt),
        }
    return report


def report_json(config: JobConfig, outcome: FixpointResult) -> str:
    import json  # only --report json needs it, so the CLI starts without it

    return json.dumps(build_report(config, outcome), indent=2)
