"""Pass orchestration: scan a document, keep the aux file honest, repeat.

One pass reads the previous aux file (lazily, at the first
citation-shaped command), scans the document left to right, renders
text and citations, installs the bbl file's label definitions, aux
records and lint notes at the ``\\bibliography`` site, and finally
rewrites the aux file from scratch with everything recorded this pass.
The label table starts each pass empty; its only inputs are the aux
file just read and the bbl definitions installed in this very pass.

The bbl file is read and processed once per run, at the first
``\\bibliography`` site that finds it; it cannot change between passes
and its processing reads nothing a pass changes, so every pass (the
first included) installs the same result in the same order.

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
from .bbl import Bibliography, BblState, LayoutParams, process_bbl
from .citations import Defined, Fallback, LabelTable, cite, nocite
from .dimensions import Dimension, Numberish, as_fraction
from .errors import ScanError
from .files import FileAccess
from .rendering import RenderedFragment, Style, render_annotated, render_plain
from .scanner import CharStream, next_command

__all__ = [
    "JobConfig",
    "PassResult",
    "FixpointResult",
    "CiteWarning",
    "run_pass",
    "run_to_fixpoint",
    "build_report",
    "report_json",
]


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
        self.em_size_pt = as_fraction(em_size_pt)
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
    table: LabelTable
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
    """What a bbl file contributes to each pass, worked out once per run.

    ``labels`` holds its definitions in first-defined order, and
    ``records`` the ``@citedef`` records it queued (none in no-aux mode).
    """

    bibliography: Bibliography
    rendered: RenderedFragment
    labels: LabelTable
    records: list[AuxRecord]
    lint: list[str]

    def install(self, session: AuxSession, table: LabelTable, lint: list[str]) -> None:
        for key, state in self.labels.entries.items():
            table.define(key, state.label)
        for record in self.records:
            session.write(record)
        lint.extend(self.lint)


def _process_bbl_file(config: JobConfig, fs: FileAccess, bbl_name: str) -> _ProcessedBbl:
    try:
        content = fs.read_bytes(bbl_name).decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text (byte {exc.start})"
        raise ScanError(message, source=bbl_name) from None
    state = BblState()
    # This session checks each record as it is queued, or drops it in
    # no-aux mode, exactly as the pass's own session would.
    session = AuxSession(no_aux=config.no_aux)
    labels = LabelTable()
    lint: list[str] = []
    bibliography = process_bbl(
        content, state, session, labels, lint=lint.append, source=bbl_name
    )
    rendered = _render_bibliography(bibliography)
    return _ProcessedBbl(bibliography, rendered, labels, session.pending_writes, lint)


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
    table = LabelTable()
    messages: list[str] = []
    lint: list[str] = []
    warnings: list[CiteWarning] = []
    aux_read: Optional[bytes] = None

    def loader(session: AuxSession) -> None:
        nonlocal aux_read
        aux_name = f"{config.jobname}.aux"
        if fs.exists(aux_name):
            aux_read = fs.read_bytes(aux_name)
            read_aux(session, aux_read, table)
        else:
            messages.append(handle_missing_aux(session))

    session = AuxSession(no_aux=config.no_aux, loader=loader)
    rendered = RenderedFragment()
    bibliography: Optional[Bibliography] = None
    nobreak = False

    def warn(line: int, key: str, text: str) -> None:
        warnings.append(CiteWarning(line, key, text))

    stream = CharStream(document, source=config.document_name)
    while not stream.at_end():
        item = next_command(stream, lint=lint.append)
        if isinstance(item, str):
            rendered.append(Style.PLAIN, item)
            continue
        if item.name == "cite":
            fragment = cite(
                session,
                table,
                item.args[0],
                item.optional,
                item.source_line,
                warn=warn,
                lint=lint.append,
            )
            rendered.extend(fragment)
        elif item.name == "nocite":
            nocite(session, item.args[0])
        elif item.name == "bibliographystyle":
            session.ensure_read()
            session.write(AuxRecord.bibstyle(item.args[0]))
        elif item.name == "bibliography":
            session.ensure_read()
            session.write(AuxRecord.bibdata(item.args[0]))
            bbl_name = f"{config.bbl_basename}.bbl"
            processed = processed_bbls.get(bbl_name)
            if processed is None and fs.exists(bbl_name):
                processed = _process_bbl_file(config, fs, bbl_name)
                processed_bbls[bbl_name] = processed
            if processed is None:
                messages.append(f"No file {bbl_name}.")
            else:
                nobreak = True
                processed.install(session, table, lint)
                bibliography = processed.bibliography
                rendered.extend(processed.rendered)

    aux_bytes = b"" if config.no_aux else session.serialize()
    if not config.no_aux:
        fs.write_bytes(f"{config.jobname}.aux", aux_bytes)

    undefined = [
        key for key, state in table.entries.items() if isinstance(state, Fallback)
    ]
    return PassResult(
        rendered=rendered,
        aux_bytes=aux_bytes,
        warnings=warnings,
        bibliography=bibliography,
        messages=messages,
        lint=lint,
        undefined_keys=undefined,
        table=table,
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
    """
    previous: Optional[PassResult] = None
    history: list[bytes] = []
    processed_bbls: dict[str, _ProcessedBbl] = {}
    for pass_number in range(1, config.max_passes + 1):
        result = run_pass(config, document, fs, processed_bbls)
        history.append(result.aux_bytes)
        if previous is not None and result.aux_bytes == previous.aux_bytes:
            return FixpointResult(result, pass_number, True, history)
        if result.aux_read == result.aux_bytes and pass_number < config.max_passes:
            fs.write_bytes(f"{config.jobname}.aux", result.aux_bytes)
            history.append(result.aux_bytes)
            return FixpointResult(result, pass_number + 1, True, history)
        previous = result
    assert previous is not None
    return FixpointResult(previous, config.max_passes, False, history)


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
    citations = {}
    for key, state in final.table.entries.items():
        if isinstance(state, Defined):
            citations[key] = {"status": "defined", "label": state.label}
        elif isinstance(state, Fallback):
            citations[key] = {"status": "fallback", "label": state.key}
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
