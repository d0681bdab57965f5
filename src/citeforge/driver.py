"""Pass orchestration: scan a document, keep the aux file honest, repeat.

One pass scans the document left to right.  When the scanner first
returns a citation-shaped command, the pass reads the previous aux
file (or notes that there is none) before acting on that command.  It
renders text and citations, and at the ``\\bibliography`` site it
defines each bbl item's label, queues its ``@citedef`` record and adds
the bbl's lint notes.  Finally it rewrites the aux file from scratch
with everything recorded this pass.  The label map (key to label, or
to None for a key that fell back) starts each pass empty; its only
inputs are the aux file just read and the bbl items installed in this
very pass.  A record that cannot be written is reported at the command
(or ``\\bibitem``) it came from.

The bbl file is read and processed once per run, at the first
``\\bibliography`` site that finds it; it cannot change between passes
and its processing reads nothing a pass changes, so every pass (the
first included) installs the same items in the same order.

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

from .auxfile import AuxRecord, AuxSession, handle_missing_aux, read_aux
from .bbl import Bibliography, LayoutParams, process_bbl
from .citations import cite, nocite
from .dimensions import Dimension, Numberish, as_fraction
from .errors import AuxFormatError, ScanError
from .files import FileAccess
from .rendering import RenderedFragment, Style, render_annotated, render_plain
from .scanner import CharStream, next_command

__all__ = [
    "JobConfig",
    "check_em_size",
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
        self.max_passes = max_passes
        self.em_size_pt = check_em_size(em_size_pt)
        self.document_name = document_name or f"{jobname}.tex"
        if max_passes < 1:
            raise ValueError("max_passes must be at least 1")


class CiteWarning(NamedTuple):
    """One undefined-citation warning, with its location data."""

    line: int
    key: str
    text: str


class PassResult(NamedTuple):
    """What one pass produced.

    ``labels`` maps each key the pass touched, in first-touched order,
    to its label, or to None when it fell back to the raw key.
    ``aux_read`` holds the aux bytes the pass read, or None when it read
    none: no file, no-aux mode, or no citation-shaped command.
    """

    rendered: RenderedFragment
    aux_bytes: bytes
    warnings: list[CiteWarning]
    bibliography: Optional[Bibliography]
    messages: list[str]
    lint: list[str]
    undefined_keys: list[str]
    labels: dict[str, Optional[str]]
    nobreak_before_bibliography: bool
    aux_read: Optional[bytes] = None

    def warning_texts(self) -> list[str]:
        return [w.text for w in self.warnings]


class FixpointResult(NamedTuple):
    final: PassResult
    passes_used: int
    converged: bool
    aux_history: list[bytes]


def _render_bibliography(bibliography: Bibliography) -> RenderedFragment:
    fragment = RenderedFragment()
    for item in bibliography.items:
        fragment.append(Style.PLAIN, f"[{item.label}] ")
        for index, block in enumerate(item.body):
            if index:
                fragment.append(Style.PLAIN, " ")
            fragment.extend(block)
        fragment.append(Style.PLAIN, "\n")
    return fragment


class _ProcessedBbl(NamedTuple):
    """What a bbl file contributes to each pass, worked out once per run."""

    bibliography: Bibliography
    rendered: RenderedFragment
    lint: list[str]


def _process_bbl_file(fs: FileAccess, bbl_name: str) -> _ProcessedBbl:
    try:
        content = fs.read_bytes(bbl_name).decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text (byte {exc.start})"
        raise ScanError(message, source=bbl_name) from None
    lint: list[str] = []
    bibliography = process_bbl(content, lint=lint.append, source=bbl_name)
    return _ProcessedBbl(bibliography, _render_bibliography(bibliography), lint)


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
    nobreak = False
    read_done = config.no_aux

    def warn(line: int, key: str, text: str) -> None:
        warnings.append(CiteWarning(line, key, text))

    stream = CharStream(document, source=config.document_name)
    while not stream.at_end():
        item = next_command(stream, lint=lint.append)
        if isinstance(item, str):
            rendered.append(Style.PLAIN, item)
            continue
        # The scanner returns only the four citation-shaped commands.
        if not read_done:
            read_done = True
            aux_name = f"{config.jobname}.aux"
            if fs.exists(aux_name):
                aux_read = fs.read_bytes(aux_name)
                read_aux(labels, aux_read, aux_name)
            else:
                messages.append(handle_missing_aux())
        try:
            if item.name == "cite":
                fragment = cite(
                    session,
                    labels,
                    item.args[0],
                    item.optional,
                    item.source_line,
                    # Undefined citations warn only when an aux file was read.
                    warn=warn if aux_read is not None else None,
                    lint=lint.append,
                )
                rendered.extend(fragment)
            elif item.name == "nocite":
                nocite(session, item.args[0])
            elif item.name == "bibliographystyle":
                session.write(AuxRecord.bibstyle(item.args[0]))
            elif item.name == "bibliography":
                session.write(AuxRecord.bibdata(item.args[0]))
                bbl_name = f"{config.bbl_basename}.bbl"
                processed = processed_bbls.get(bbl_name)
                if processed is None and fs.exists(bbl_name):
                    processed = _process_bbl_file(fs, bbl_name)
                    processed_bbls[bbl_name] = processed
                if processed is None:
                    messages.append(f"No file {bbl_name}.")
                else:
                    nobreak = True
                    bibliography = processed.bibliography
                    try:
                        for entry in bibliography.items:
                            labels[entry.key] = entry.label
                            session.write(AuxRecord.citedef(entry.key, entry.label))
                    except AuxFormatError as exc:
                        exc.locate(entry.line, bbl_name)
                        raise
                    lint.extend(processed.lint)
                    rendered.extend(processed.rendered)
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
        undefined_keys=[key for key, label in labels.items() if label is None],
        labels=labels,
        nobreak_before_bibliography=nobreak,
        aux_read=aux_read,
    )


def run_to_fixpoint(config: JobConfig, document: str, fs: FileAccess) -> FixpointResult:
    """Run passes until the aux file reproduces itself.

    Convergence is declared when pass ``k`` writes byte-identical aux
    content to pass ``k - 1``; with a fixed bbl this takes two passes
    for well-formed documents.  When pass ``k`` wrote exactly the aux
    bytes it read, pass ``k + 1`` would see the same inputs, so it is
    not recomputed: its result is pass ``k``'s.  It still counts in
    ``passes_used`` and the aux history, and it still rewrites the aux
    file, so the outcome is the same as running it.  If the limit is
    hit first, the result says so and keeps the aux history for diffing.
    Only the aux history outlives a pass: no earlier result is held
    while the next pass runs.
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
    stretch = dim.stretch_pt(em_size_pt)
    if stretch is not None:
        data["stretch_pt"] = float(stretch)
    shrink = dim.shrink_pt(em_size_pt)
    if shrink is not None:
        data["shrink_pt"] = float(shrink)
    return data


def _layout_json(layout: LayoutParams, em_size_pt: Fraction) -> dict:
    return {
        "biblabelwidth": _dimension_json(layout.biblabelwidth, em_size_pt),
        "biblabelextraspace": _dimension_json(layout.biblabelextraspace, em_size_pt),
        "hangindent": _dimension_json(layout.hangindent(em_size_pt), em_size_pt),
        "parskip": _dimension_json(layout.parskip, em_size_pt),
        "newblock_glue": _dimension_json(layout.newblock_glue, em_size_pt),
        "clubpenalty": layout.clubpenalty,
        "widowpenalty": layout.widowpenalty,
        "tolerance": layout.tolerance,
        "hfuzz": _dimension_json(layout.hfuzz, em_size_pt),
        "frenchspacing": layout.frenchspacing,
    }


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
    }
    if final.bibliography is not None:
        bibliography = final.bibliography
        report["bibliography"] = {
            "nobreak_before": final.nobreak_before_bibliography,
            "alignment": (
                bibliography.alignment.value if bibliography.alignment else None
            ),
            "items": [
                {"key": item.key, "label": item.label, "alpha": item.alpha}
                for item in bibliography.items
            ],
            "layout": _layout_json(bibliography.layout, config.em_size_pt),
        }
    else:
        report["bibliography"] = None
    return report


def report_json(config: JobConfig, outcome: FixpointResult) -> str:
    import json  # only --report json needs it, so the CLI starts without it

    return json.dumps(build_report(config, outcome), indent=2)
