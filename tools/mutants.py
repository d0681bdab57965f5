"""The mutant gate: each entry breaks the package on purpose, and the
tests it names must notice.

    python tools/mutants.py [NAME ...]

Each entry of :data:`MUTANTS` is a name, an exact snippet of the
package, the snippet's replacement and the tests that must fail once it
is replaced.  The snippet occurs exactly once in ``src/citeforge``, so
it finds its own module.  For each entry (all of them, or the ones
named on the command line) the tool runs the checkout's own named tests
with ``--hypothesis-seed`` 1, 2 and 3, ``-x``, ``-p no:cacheprovider``
and the hypothesis profile ``gate`` of ``tests/conftest.py``, which
neither shrinks nor explains a failure.
Each run copies ``src/`` into a fresh empty directory, applies the
mutant to the copy, and starts there (so with an empty ``.hypothesis``
database) with ``PYTHONPATH`` at the copy's ``src/``.  The tests read
``README.md``, ``perfbench/`` and the pinned outputs where they live in
the checkout, so a test that reads the README may be named too.  A
seed's run is ``killed`` when a named test fails, ``survived`` when they
all pass, and ``timeout``, which counts as killed, when it runs past the
time limit that every run shares: at least 20 s, and ten times the
slowest baseline run, which runs all the named tests the same way on an
unmutated copy.

These are errors, not kills, and are reported before any mutant runs:
a snippet that does not occur exactly once in the package, a mutated
module that does not compile, and named tests that fail (or are not
found) in any seed of the baseline.  A refactor that moves a snippet
or renames a killer updates its entry; it never drops it.

Exit status: 0 when every entry is killed in all three seeds, 1 when
one survives a seed, 2 on an error.  ``tests/test_mutants.py`` checks
the table itself at tier-1 without running any mutant.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "citeforge"
SEEDS = (1, 2, 3)
# tests/conftest.py's hypothesis profile without the shrink and explain phases.
PROFILE = "gate"
MIN_LIMIT_S = 20.0
LIMIT_FACTOR = 10
# By pytest's exit code: None when the run was stopped at the limit, 1
# when a test failed and 2 when collection did.
VERDICTS = {None: "timeout", 1: "killed", 2: "killed", 0: "survived"}


class Mutant(NamedTuple):
    name: str
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, one of which must fail


WALKER = "tests/test_bbl_walker.py::test_walker_matches_the_reference"
ENGINE = "tests/test_macro_engine.py::test_engine_matches_the_reference_wherever_it_succeeds"
ARGUMENTS = "tests/test_macro_engine.py::test_arguments_read_like_the_general_path"
AUX_OFFSETS = "tests/test_auxfile.py::test_error_offsets_match_the_origin_list"
AUX_RECORDS = "tests/test_whole_run.py::test_aux_records_survive_serialize_and_read"
SCAN = "tests/test_scanner.py::TestNextCommandFastPath::test_scans_like_the_former_loop"
NEXT_COMMAND = "tests/test_scanner.py::TestNextCommand::"
OPTIONAL_ARG = "tests/test_scanner.py::TestOptionalArg::"
WHOLE_RUN = "tests/test_whole_run.py::test_runs_end_read_back_and_rerun"
REUSE = "tests/test_pass_reuse.py::test_outcome_equals_the_reference_loop"
CITATIONS = "tests/test_citations.py::"
BBL = "tests/test_bbl.py::TestProcessBbl::"
READ_AUX = "tests/test_auxfile.py::TestReadAux::"
SESSION = "tests/test_auxfile.py::TestSession::"
DRIVER_SITES = "tests/test_driver.py::TestBibliographySites::"

MUTANTS = (
    # The bbl walk and its writer.
    Mutant(
        "join-drops-a-chunk",
        'self._chunks[start:] = ["".join(self._chunks[start:])]',
        'self._chunks[start:] = ["".join(self._chunks[start + 1 :])]',
        (
            "tests/test_bbl_walker.py::test_a_walk_past_the_writers_chunk_joins_matches_the_reference",
            WALKER,
        ),
    ),
    Mutant(
        "blank-run-counts-no-line",
        'stream.line += token.group().count("\\n")\n',
        "\n",
        ("tests/test_bbl.py::TestBibitem::test_item_line_is_that_of_its_bibitem", WALKER),
    ),
    Mutant(
        "blank-run-is-kept-verbatim",
        '.count("\\n")\n                writer.space(style_stack[-1])',
        '.count("\\n")\n                writer.word(token.group(), style_stack[-1])',
        (BBL + "test_whitespace_normalized_inside_blocks", WALKER),
    ),
    Mutant(
        "every-tag-decides-the-alignment",
        "alignment = alignment or Alignment.LABELS_LEFT",
        "alignment = Alignment.LABELS_LEFT",
        ("tests/test_bbl.py::TestBibitem::test_numbered_first_keeps_labels_right", WALKER),
    ),
    Mutant(
        "newblock-leaves-no-blank",
        "            self._pending_space = _PLAIN\n",
        "            self._pending_space = None\n",
        (BBL + "test_numbered_items_with_blocks", WALKER),
    ),
    Mutant(
        "word-drops-a-blank-of-its-style",
        'text = " " + text',
        "text = text",
        (BBL + "test_nested_styles_restore", WALKER),
    ),
    Mutant(
        "block-keeps-leading-blanks",
        "        if self._pending_space is None:\n",
        "        if not self._pending_space:\n",
        ("tests/test_bbl_lean_paths.py::test_render_keeps_styled_edges_and_empty_items", WALKER),
    ),
    Mutant(
        "open-item-drops-the-blank",
        'self.append(_PLAIN, f"[{label}] ")',
        'self.append(_PLAIN, f"[{label}]")',
        (BBL + "test_numbered_items_with_blocks", WALKER),
    ),
    Mutant(
        "styled-group-crosses-a-line-break",
        r'rf"[ \t\r\f\v]*(?P<styled>{_WORD_RUN})\}}"',
        r'rf"[ \t\r\n\f\v]*(?P<styled>{_WORD_RUN})\}}"',
        (WALKER,),
    ),
    Mutant(
        "styled-group-takes-a-longer-name",
        "(?P<switch>{'|'.join(STYLE_SWITCHES)})(?![A-Za-z])\"",
        "(?P<switch>{'|'.join(STYLE_SWITCHES)})\"",
        (WALKER,),
    ),
    Mutant(
        "walk-command-can-be-defined",
        "if macro_name in WALK_COMMANDS:",
        "if macro_name in ():",
        (
            "tests/test_bbl.py::TestMacrosInsideBbl::test_a_name_the_walk_acts_on_cannot_be_defined",
            WALKER,
        ),
    ),
    Mutant(
        "label-width-drops-a-bracket",
        "Fraction(len(label) + 2, 2)",
        "Fraction(len(label) + 1, 2)",
        ("tests/test_bbl.py::TestMeasureLabel::test_label_counts_brackets", WALKER),
    ),
    Mutant(
        "label-width-counts-bytes",
        "Fraction(len(label) + 2, 2)",
        'Fraction(len(label.encode()) + 2, 2)',
        ("tests/test_bbl.py::TestMeasureLabel::test_label_counts_brackets", WALKER),
    ),
    Mutant(
        "token-words-take-percent",
        r'TOKEN = re.compile(_TOKEN % {"stops": r"\\{}%"',
        r'TOKEN = re.compile(_TOKEN % {"stops": r"\\{}"',
        (BBL + "test_comment_joins_words", WALKER),
    ),
    Mutant(
        "control-word-filler-keeps-comments",
        r'"stops": r"\\{}%", "filler": _FILLER.pattern}',
        r'"stops": r"\\{}%", "filler": _BLANKS.pattern}',
        (BBL + "test_switch_eats_following_space", WALKER),
    ),
    # Citations and aux record lines.
    Mutant(
        "fallback-key-warns-again",
        "if key not in labels:",
        "if True:",
        (CITATIONS + "TestCiteOne::test_undefined_warns_once_and_falls_back", WHOLE_RUN),
    ),
    Mutant(
        "note-loses-its-blank",
        'plain.append(", " + note)',
        'plain.append("," + note)',
        (CITATIONS + "TestCite::test_optional_note_appended", WHOLE_RUN),
    ),
    Mutant(
        "typewriter-key-drops-the-plain-run-before-it",
        '            rendered.append(_PLAIN, "".join(plain))\n'
        "            rendered.append(Style.TYPEWRITER, key)\n",
        "            rendered.append(Style.TYPEWRITER, key)\n",
        (CITATIONS + "TestCite::test_mixed_defined_and_fallback", WHOLE_RUN),
    ),
    Mutant(
        "record-line-ends-in-crlf",
        'return f"\\\\{kind}{{{payload}}}\\n"',
        'return f"\\\\{kind}{{{payload}}}\\r\\n"',
        (CITATIONS + "TestNocite::test_records_verbatim", WHOLE_RUN),
    ),
    Mutant(
        "first-blank-key-is-not-linted",
        "for key in filter(_BLANK.search, split_comma_list(arg)):",
        "for key in filter(_BLANK.search, split_comma_list(arg)[1:]):",
        (NEXT_COMMAND + "test_cite_keys_with_blanks_are_linted_in_key_order", WHOLE_RUN),
    ),
    # The macro engine.
    Mutant(
        "plain-argument-allows-percent",
        r'_PLAIN_ARGUMENT = re.compile(r"[ \t\r\n\f\v]*\{([^\\{}%\n]*)\}")',
        r'_PLAIN_ARGUMENT = re.compile(r"[ \t\r\n\f\v]*\{([^\\{}\n]*)\}")',
        (ARGUMENTS,),
    ),
    Mutant(
        "plain-argument-nests-braces",
        r'_PLAIN_ARGUMENT = re.compile(r"[ \t\r\n\f\v]*\{([^\\{}%\n]*)\}")',
        r'_PLAIN_ARGUMENT = re.compile(r"[ \t\r\n\f\v]*\{([^\\}%\n]*)\}")',
        (ARGUMENTS,),
    ),
    Mutant(
        "plain-argument-keeps-its-braces",
        "args.append(plain.group(1))",
        "args.append(plain.group(0))",
        (
            "tests/test_macros.py::TestExpand::test_spaces_between_arguments_skipped",
            ENGINE,
            ARGUMENTS,
        ),
    ),
    Mutant(
        "parameter-argument-is-one-character",
        "return stream.take_to(stream.position + 2)",
        "return stream.take()",
        (
            "tests/test_macro_engine.py::test_parameter_argument_in_a_body_takes_the_general_path",
            ARGUMENTS,
            ENGINE,
        ),
    ),
    Mutant(
        "plain-arguments-count-no-lines",
        "        stream.take_to(position)\n",
        "        stream.position = position\n",
        (ARGUMENTS,),
    ),
    Mutant(
        "depth-cap-one-call-early",
        "if len(streams) > MAX_EXPANSION_DEPTH:",
        "if len(streams) >= MAX_EXPANSION_DEPTH:",
        ("tests/test_bbl_lean_paths.py::test_depth_cap_on_an_escape_free_leaf", ENGINE),
    ),
    Mutant(
        "marker-counts-from-the-end",
        "pieces[i] = args[index - 1]",
        "pieces[i] = args[-index]",
        (
            "tests/test_macros.py::TestSubstitute::test_basic",
            ENGINE,
        ),
    ),
    Mutant(
        "zero-marker-is-text",
        '_PARAMETER = re.compile("#([0-9])")',
        '_PARAMETER = re.compile("#([1-9])")',
        ("tests/test_macros.py::TestSubstitute::test_out_of_range_marker", ENGINE),
    ),
    # The aux reader.
    Mutant(
        "aux-is-not-decoded",
        'return text.encode("latin-1").decode("utf-8")',
        "return text",
        ("tests/test_auxfile.py::test_plain_record_not_utf8_is_located", AUX_OFFSETS, AUX_RECORDS),
    ),
    Mutant(
        "scanned-record-is-not-decoded",
        "enter(_utf8(payload), _utf8(label))",
        "enter(payload, label)",
        (READ_AUX + "test_scanned_record_not_utf8_is_located",),
    ),
    Mutant(
        "plain-record-label-nests-braces",
        r'r"\\@citedef\{([^\\{}]*)\}\{([^\\{}]*)\}|',
        r'r"\\@citedef\{([^\\{}]*)\}\{([^\\}]*)\}|',
        (AUX_OFFSETS, AUX_RECORDS),
    ),
    Mutant(
        "plain-record-allows-escapes",
        r'|\\(?:citation|bibdata|bibstyle)\{[^\\{}]*\}"',
        r'|\\(?:citation|bibdata|bibstyle)\{[^{}]*\}"',
        (AUX_OFFSETS, AUX_RECORDS),
    ),
    Mutant(
        "error-offset-one-byte-late",
        "return run.start() + position",
        "return run.start() + position + 1",
        (READ_AUX + "test_junk_at_start", AUX_OFFSETS, AUX_RECORDS),
    ),
    Mutant(
        "aux-reader-strips-comments",
        "stream = CharStream(stripped, comments=False)",
        "stream = CharStream(stripped, comments=True)",
        (AUX_OFFSETS, AUX_RECORDS),
    ),
    Mutant(
        "citedef-label-is-missing-only-at-the-end",
        'if stream.peek() != "{":',
        "if stream.at_end():",
        (AUX_OFFSETS, AUX_RECORDS),
    ),
    Mutant(
        "plain-record-label-is-its-key",
        "enter(_utf8(key), _utf8(label))",
        "enter(_utf8(key), _utf8(key))",
        (READ_AUX + "test_later_definition_wins", AUX_RECORDS, AUX_OFFSETS),
    ),
    Mutant(
        "line-feeds-are-kept",
        '_LINE_BREAKS = b"\\r\\n"',
        '_LINE_BREAKS = b"\\r"',
        (READ_AUX + "test_split_anywhere_parses_identically", AUX_RECORDS, AUX_OFFSETS),
    ),
    Mutant(
        "carriage-returns-are-kept",
        '_LINE_BREAKS = b"\\r\\n"',
        '_LINE_BREAKS = b"\\n"',
        (READ_AUX + "test_split_anywhere_parses_identically", AUX_OFFSETS),
    ),
    # The document scanner and its argument readers.
    Mutant(
        "plain-optional-allows-percent",
        r'_PLAIN_OPTIONAL = re.compile(r"\[[^\\{}\]%]*',
        r'_PLAIN_OPTIONAL = re.compile(r"\[[^\\{}\]]*',
        (OPTIONAL_ARG + "test_comment_inside_is_stripped", SCAN),
    ),
    Mutant(
        "plain-optional-allows-a-stray-close",
        r'_PLAIN_OPTIONAL = re.compile(r"\[[^\\{}\]%]*',
        r'_PLAIN_OPTIONAL = re.compile(r"\[[^\\{\]%]*',
        (
            OPTIONAL_ARG + "test_stray_close_brace_raises",
            OPTIONAL_ARG + "test_agrees_with_reference_walker",
            SCAN,
        ),
    ),
    Mutant(
        "plain-group-allows-percent",
        r'_PLAIN_GROUP = re.compile(r"\{[^\\{}%\n]*\}")',
        r'_PLAIN_GROUP = re.compile(r"\{[^\\{}\n]*\}")',
        (SCAN, ARGUMENTS),
    ),
    Mutant(
        "plain-group-allows-escapes",
        r'_PLAIN_GROUP = re.compile(r"\{[^\\{}%\n]*\}")',
        r'_PLAIN_GROUP = re.compile(r"\{[^{}%\n]*\}")',
        (
            "tests/test_scanner.py::TestGroupArg::test_escaped_brace_does_not_nest",
            SCAN,
            AUX_OFFSETS,
        ),
    ),
    Mutant(
        "command-tail-takes-an-empty-note",
        r'r"(?:\[(?P<note>[^\\{}\]%\n]+)\]',
        r'r"(?:\[(?P<note>[^\\{}\]%\n]*)\]',
        (NEXT_COMMAND + "test_cite_keys_with_blanks_are_linted_in_key_order", SCAN),
    ),
    Mutant(
        "filler-check-misses-comments",
        '_FILLER_START = " \\t\\r\\n\\f\\v%"',
        '_FILLER_START = " \\t\\r\\n\\f\\v"',
        ("tests/test_macro_engine.py::test_comment_between_arguments", SCAN),
    ),
    Mutant(
        "key-lint-sees-only-a-leading-blank",
        "and _BLANK.search(arg):",
        "and _BLANK.match(arg):",
        (NEXT_COMMAND + "test_key_lint_is_at_the_command_line", SCAN),
    ),
    Mutant(
        "text-run-counts-lines-from-its-last-piece",
        'stream.line += content.count("\\n", begin, at)',
        'stream.line += content.count("\\n", start, at)',
        (NEXT_COMMAND + "test_a_run_across_comments_is_the_positions_of_its_pieces", SCAN),
    ),
    Mutant(
        "escape-parity-flipped",
        "return (at - run) % 2 == 1",
        "return (at - run) % 2 == 0",
        (NEXT_COMMAND + "test_escapes_pair_off_before_a_name_or_a_comment", SCAN),
    ),
    Mutant(
        "escape-count-runs-past-the-start",
        "while run > begin and",
        "while run > 0 and",
        (NEXT_COMMAND + "test_escapes_before_the_stream_position_pair_with_nothing",),
    ),
    Mutant(
        "comment-search-is-unbounded",
        'if comments and (sign := content.find("%", position, at)) >= 0:',
        'if comments and 0 <= (sign := content.find("%", position)) < at:',
        (
            NEXT_COMMAND + "test_the_comment_search_reads_the_document_about_once",
            "tests/test_scaling.py::test_next_command_with_one_comment_after_many_cites_is_linear",
        ),
    ),
    Mutant(
        "swallowed-candidate-is-kept",
        "if position > at:  # the comment swallowed the candidate",
        "if False:  # the comment swallowed the candidate",
        (NEXT_COMMAND + "test_a_comment_hides_the_commands_in_it", SCAN),
    ),
    Mutant(
        "ending-name-parity-unchecked",
        "if command is not None and _escaped(content, begin, at):",
        "if False and command is not None and _escaped(content, begin, at):",
        (NEXT_COMMAND + "test_escapes_pair_off_before_a_name_or_a_comment", SCAN),
    ),
    Mutant(
        "run-before-a-command-is-dropped",
        "return pieces, _new_invocation(",
        "return [], _new_invocation(",
        (NEXT_COMMAND + "test_source_line_is_where_the_command_started", SCAN, WHOLE_RUN),
    ),
    # What a run holds once: a byte per span style, the items' own strings
    # for the labels read after the bbl is processed, and aux lines in batches.
    Mutant(
        "span-styles-are-a-list",
        "self._styles = bytearray()",
        "self._styles = []",
        ("tests/test_scaling.py::test_a_bibliography_rendering_retains_few_bytes_per_character",),
    ),
    Mutant(
        "aux-read-after-the-bbl-takes-no-items",
        "processed.bibliography.items if processed else ()",
        "()",
        (DRIVER_SITES + "test_a_cold_runs_defined_keys_and_labels_are_the_items_own_strings",),
    ),
    Mutant(
        "expected-record-keeps-the-key-read",
        "            key = item.key\n",
        "            key = key\n",
        (
            READ_AUX + "test_records_of_the_expected_items_are_entered_under_their_strings",
            DRIVER_SITES + "test_a_cold_runs_defined_keys_and_labels_are_the_items_own_strings",
        ),
    ),
    Mutant(
        "checked-run-is-joined-into-a-batch",
        "            self._join_at = len(self.pending_writes) + _BATCH\n",
        "",
        (SESSION + "test_lines_are_joined_in_batches_and_a_checked_run_stays_whole",),
    ),
    # The two-pass bound: what a pass writes does not depend on the labels it read.
    Mutant(
        "citation-record-is-the-label-read",
        "    nocite(session, keys)\n",
        "    nocite(session, labels.get(keys) or keys)\n",
        ("tests/test_whole_run.py::test_a_run_that_ends_converges_in_two_passes", WHOLE_RUN),
    ),
    # The fixpoint loop's reuse of a pass that reproduced its aux file.
    Mutant(
        "reused-pass-does-not-rewrite-the-aux",
        '            fs.write_bytes(f"{config.jobname}.aux", result.aux_bytes)\n'
        "            history.append(result.aux_bytes)\n",
        "            history.append(result.aux_bytes)\n",
        (REUSE, WHOLE_RUN),
    ),
    Mutant(
        "reused-pass-is-not-counted",
        "return FixpointResult(result, pass_number + 1, True, history)",
        "return FixpointResult(result, pass_number, True, history)",
        (REUSE, WHOLE_RUN),
    ),
    Mutant(
        "every-pass-that-read-an-aux-is-reused",
        "if result.aux_read == result.aux_bytes:",
        "if result.aux_read is not None:",
        (REUSE, WHOLE_RUN),
    ),
    Mutant(
        "reuse-is-never-taken",
        "if result.aux_read == result.aux_bytes:",
        "if False:",
        (REUSE, WHOLE_RUN),
    ),
)


class Outcome(NamedTuple):
    verdict: str  # killed, survived or timeout
    seconds: float


def holders(mutant: Mutant) -> dict[Path, str]:
    """Each module of the package whose source holds ``mutant``'s snippet, with that source."""
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))}
    return {path: source for path, source in sources.items() if mutant.old in source}


def problems(mutant: Mutant) -> list[str]:
    """What makes ``mutant`` unusable: a snippet not found exactly once, or a compile error."""
    found = holders(mutant)
    count = sum(source.count(mutant.old) for source in found.values())
    if count != 1:
        return [f"{mutant.name}: snippet occurs {count} times in src/citeforge"]
    [(path, source)] = found.items()
    try:
        compile(source.replace(mutant.old, mutant.new), path, "exec")
    except SyntaxError as exc:
        return [f"{mutant.name}: mutated {path.name} does not compile: {exc}"]
    return []


def copy_of_src(where: str, mutant: Mutant | None) -> Path:
    """A copy of ``src/`` in ``where``, with ``mutant`` applied to its module if given."""
    src = Path(where) / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        [(path, source)] = holders(mutant).items()
        mutated = source.replace(mutant.old, mutant.new)
        (src / path.relative_to(SRC)).write_text(mutated, encoding="utf-8")
    return src


def pytest_run(mutant: Mutant | None, seed: int, tests, limit: float | None, *options: str):
    """Run the checkout's ``tests`` against a copy of the package: (exit code, seconds, output).

    The copy has ``mutant`` applied, or none for the baseline, so every
    run sees the same layout.  Each run copies the package into an empty
    directory of its own and starts there.  The exit code is None when
    the run was stopped at ``limit``.
    """
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options]
    command += [f"--hypothesis-seed={seed}", f"--hypothesis-profile={PROFILE}"]
    command += [f"{ROOT}/{node}" for node in tests]
    with tempfile.TemporaryDirectory() as where:
        src = copy_of_src(where, mutant)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        with subprocess.Popen(
            command,
            cwd=where,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        ) as process:
            try:
                output, _ = process.communicate(timeout=limit)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                output, _ = process.communicate()
                return None, time.perf_counter() - started, output
    return process.returncode, time.perf_counter() - started, output


def baseline(mutants) -> tuple[float, list[str]]:
    """The time limit of every run, from the named tests on an unmutated copy, and errors."""
    nodes = sorted({node for mutant in mutants for node in mutant.tests})
    slowest, errors = 0.0, []
    for seed in SEEDS:
        code, seconds, output = pytest_run(None, seed, nodes, None)
        slowest = max(slowest, seconds)
        if code != 0:
            errors.append(f"the named tests exit {code} unmutated, seed {seed}")
            errors += [line for line in output.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return max(MIN_LIMIT_S, LIMIT_FACTOR * slowest), list(dict.fromkeys(errors))


def run_mutant(mutant: Mutant, limit: float) -> list[Outcome]:
    outcomes = []
    for seed in SEEDS:
        code, seconds, _ = pytest_run(mutant, seed, mutant.tests, limit, "-x")
        if code not in VERDICTS:
            print(f"{mutant.name}: pytest exited {code} (seed {seed})")
            raise SystemExit(2)
        outcomes.append(Outcome(VERDICTS[code], seconds))
    return outcomes


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"no such entries: {', '.join(sorted(unknown))}")
        return 2
    mutants = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    errors = [error for mutant in mutants for error in problems(mutant)]
    started = time.perf_counter()
    if not errors:
        limit, errors = baseline(mutants)
    if errors:
        print("\n".join(errors))
        return 2
    print(f"baseline: {time.perf_counter() - started:.1f} s; limit {limit:.0f} s a run")
    survivors = 0
    for mutant in mutants:
        outcomes = run_mutant(mutant, limit)
        if any(outcome.verdict == "survived" for outcome in outcomes):
            survivors += 1
        shown = "  ".join(f"{o.verdict} {o.seconds:5.1f}s" for o in outcomes)
        print(f"{mutant.name:46} {shown}", flush=True)
    total = time.perf_counter() - started
    print(f"{len(mutants) - survivors} of {len(mutants)} killed in every seed; {total:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
