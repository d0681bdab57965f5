"""Command line interface.

    citeforge resolve document.tex [options]

Runs passes to the fixpoint, prints the rendered document to stdout
(or the JSON report with ``--report json``), and sends warnings and
notices to stderr.

Exit codes: 0 converged; 1 converged but some citations stayed
undefined; 2 no convergence within the pass limit; 3 a parse or
structure error aborted a pass, or a file or the output could not be
read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .driver import JobConfig, check_em_size, check_max_passes, report_json, run_to_fixpoint
from .errors import CiteforgeError
from .files import DirectoryFiles
from .rendering import render_annotated, render_plain

__all__ = ["main", "build_parser"]

def _checked(parse, check, what: str):
    """An argparse type: ``parse`` the text, then apply the library's ``check``."""

    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"invalid {what}: {text!r}") from None
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citeforge",
        description="Resolve citations through the aux-file protocol.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    resolve = commands.add_parser(
        "resolve", help="run passes over a document until its aux file is stable"
    )
    resolve.add_argument("file", help="document to process")
    resolve.add_argument("--jobname", help="basename for the aux file (default: document stem)")
    resolve.add_argument("--bbl-basename", help="basename of the .bbl file (default: jobname)")
    resolve.add_argument(
        "--no-aux-file",
        action="store_true",
        help="never read or write an aux file; disables undefined-citation warnings",
    )
    resolve.add_argument(
        "--max-passes", type=_checked(int, check_max_passes, "int value"), default=4, metavar="K"
    )
    resolve.add_argument(
        "--em-size", type=_checked(Fraction, check_em_size, "length in points"), metavar="PT",
        default=Fraction(10), help="em size in points used for layout arithmetic (default 10)",
    )
    resolve.add_argument("--report", choices=("json", "none"), default="none")
    resolve.add_argument("--render", choices=("plain", "annotated"), default="plain")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    path = Path(args.file)
    config = JobConfig(
        jobname=args.jobname or path.stem,
        bbl_basename=args.bbl_basename,
        no_aux=args.no_aux_file,
        max_passes=args.max_passes,
        em_size_pt=args.em_size,
        document_name=path.name,
    )

    try:
        # Decoded as bytes, as the bbl is: read_text would turn "\r\n" and "\r" into "\n".
        document = path.read_bytes().decode("utf-8")
    except OSError as exc:
        print(f"citeforge: error: cannot read {path}: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"citeforge: error: {path.name}: not UTF-8 text (byte {exc.start})", file=sys.stderr)
        return 3

    fs = DirectoryFiles(path.parent)
    try:
        outcome = run_to_fixpoint(config, document, fs)
    except (CiteforgeError, OSError) as exc:
        print(f"citeforge: error: {exc}", file=sys.stderr)
        return 3

    final = outcome.final
    for message in final.messages:
        print(message, file=sys.stderr)
    for warning in final.warnings:
        print(warning.text, file=sys.stderr)
    for note in final.lint:
        print(f"lint: {note}", file=sys.stderr)

    if args.report == "json":
        output = report_json(config, outcome) + "\n"
    else:
        renderer = render_annotated if args.render == "annotated" else render_plain
        output = renderer(final.rendered)
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    # PYTHONIOENCODING or the locale can leave stdout unable to encode the output.
    except (OSError, UnicodeEncodeError) as exc:
        print(f"citeforge: error: cannot write output: {exc}", file=sys.stderr)
        # Point stdout at the null device, so the flush at exit drops what
        # is still buffered instead of failing again (and exiting 120).
        with contextlib.suppress(AttributeError, OSError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 3

    if not outcome.converged:
        return 2
    if final.undefined_keys:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
