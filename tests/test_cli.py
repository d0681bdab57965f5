"""Command line behavior: exit codes, streams, and the file side effects."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citeforge
from citeforge import JobConfig, MemoryFiles, render_plain, run_to_fixpoint
from citeforge.cli import main
from citeforge.macros import MAX_EXPANSION_CHARS

BBL = (
    "\\begin{thebibliography}{9}\n"
    "\\bibitem{a}\nAuthorA.\n\\newblock TitleA.\n"
    "\\bibitem{b}\nAuthorB.\n\\newblock TitleB.\n"
    "\\end{thebibliography}\n"
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "paper.tex").write_text(
        "Cites: \\cite{a,b}.\n\\bibliography{refs}\n", encoding="utf-8"
    )
    (tmp_path / "paper.bbl").write_text(BBL, encoding="utf-8")
    return tmp_path


def test_resolves_and_exits_zero(workspace, capsys):
    code = main(["resolve", str(workspace / "paper.tex")])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == (
        "Cites: [1, 2].\n"
        "[1] AuthorA. TitleA.\n"
        "[2] AuthorB. TitleB.\n"
        "\n"
    )
    assert (workspace / "paper.aux").exists()
    # only final-pass diagnostics are shown, and pass 2 found its aux file
    assert err == ""


def test_undefined_citation_exits_one(workspace, capsys):
    (workspace / "paper.tex").write_text(
        "\\cite{ghost}\n\\bibliography{refs}\n", encoding="utf-8"
    )
    code = main(["resolve", str(workspace / "paper.tex")])
    _, err = capsys.readouterr()
    assert code == 1
    assert "1: Undefined citation `ghost'." in err


def test_pass_limit_exits_two(workspace, capsys):
    code = main(["resolve", str(workspace / "paper.tex"), "--max-passes", "1"])
    capsys.readouterr()
    assert code == 2


def test_unreadable_file_exits_three(tmp_path, capsys):
    code = main(["resolve", str(tmp_path / "absent.tex")])
    _, err = capsys.readouterr()
    assert code == 3
    assert err.startswith(f"citeforge: error: cannot read {tmp_path / 'absent.tex'}: ")
    assert err.count("\n") == 1


def test_directory_as_document_exits_three(tmp_path, capsys):
    code = main(["resolve", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 3
    assert err.startswith(f"citeforge: error: cannot read {tmp_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("passes", ["0", "-3"])
def test_max_passes_below_one_is_a_usage_error(workspace, capsys, passes):
    with pytest.raises(SystemExit) as info:
        main(["resolve", str(workspace / "paper.tex"), "--max-passes", passes])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: citeforge resolve ")
    assert err.endswith(
        "citeforge resolve: error: argument --max-passes: max passes must be at least 1\n"
    )
    assert not (workspace / "paper.aux").exists()


def test_scan_error_exits_three(workspace, capsys):
    (workspace / "paper.tex").write_text("\\cite{never closed", encoding="utf-8")
    code = main(["resolve", str(workspace / "paper.tex")])
    _, err = capsys.readouterr()
    assert code == 3
    assert "citeforge: error:" in err


def test_a_parameter_count_of_thousands_of_digits_exits_three(workspace, capsys):
    count = "9" * 5000  # more digits than Python's int() reads
    (workspace / "paper.bbl").write_text(f"\\newcommand{{\\x}}[{count}]{{y}}\n" + BBL)
    code = main(["resolve", str(workspace / "paper.tex")])
    assert code == 3
    expected = f"citeforge: error: paper.bbl:1: {count} is too many parameters\n"
    assert capsys.readouterr().err == expected


def test_no_aux_file_writes_nothing(workspace, capsys):
    code = main(["resolve", str(workspace / "paper.tex"), "--no-aux-file"])
    out, err = capsys.readouterr()
    assert code == 0
    assert not (workspace / "paper.aux").exists()
    assert "No .aux file" not in err
    assert "[1] AuthorA. TitleA." in out


def test_annotated_rendering(workspace, capsys):
    (workspace / "paper.tex").write_text("\\cite{ghost}\n", encoding="utf-8")
    code = main(
        ["resolve", str(workspace / "paper.tex"), "--render", "annotated"]
    )
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[\u27e8tt:ghost\u27e9]" in out


def test_json_report_replaces_rendered_output(workspace, capsys):
    code = main(["resolve", str(workspace / "paper.tex"), "--report", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["jobname"] == "paper"
    assert report["converged"] is True
    assert report["citations"]["a"] == {"status": "defined", "label": "1"}
    assert report["bibliography"]["layout"]["hangindent"]["pt"] == 20.0
    assert report["rendered"].startswith("Cites: [1, 2].")


def test_jobname_option_moves_the_aux_file(workspace, capsys):
    (workspace / "other.bbl").write_text(BBL, encoding="utf-8")
    code = main(
        ["resolve", str(workspace / "paper.tex"), "--jobname", "other"]
    )
    capsys.readouterr()
    assert code == 0
    assert (workspace / "other.aux").exists()
    assert not (workspace / "paper.aux").exists()


def test_bbl_basename_option(workspace, capsys):
    (workspace / "paper.bbl").unlink()
    (workspace / "shared.bbl").write_text(BBL, encoding="utf-8")
    code = main(
        ["resolve", str(workspace / "paper.tex"), "--bbl-basename", "shared"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert "[1] AuthorA. TitleA." in out


def test_em_size_flag_scales_layout(workspace, capsys):
    code = main(
        [
            "resolve",
            str(workspace / "paper.tex"),
            "--em-size",
            "20",
            "--report",
            "json",
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["bibliography"]["layout"]["biblabelwidth"]["pt"] == 30.0


def test_invalid_em_size_is_a_usage_error(workspace, capsys):
    with pytest.raises(SystemExit):
        main(["resolve", str(workspace / "paper.tex"), "--em-size", "zero"])


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--max-passes", "x", "invalid int value: 'x'"),
        ("--max-passes", "2.5", "invalid int value: '2.5'"),
        ("--em-size", "x", "invalid length in points: 'x'"),
        ("--em-size", "1/0", "invalid length in points: '1/0'"),
    ],
)
def test_unparsable_flag_value_is_a_usage_error(workspace, capsys, flag, text, message):
    with pytest.raises(SystemExit) as info:
        main(["resolve", str(workspace / "paper.tex"), flag, text])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: citeforge resolve ")
    assert err.endswith(f"citeforge resolve: error: argument {flag}: {message}\n")


@pytest.mark.parametrize("size", ["1e400", "16384", "16383.99999"])
def test_em_size_above_maxdimen_is_a_usage_error(workspace, capsys, size):
    with pytest.raises(SystemExit) as info:
        main(["resolve", str(workspace / "paper.tex"), "--em-size", size, "--report", "json"])
    assert info.value.code == 2
    assert "em size must be positive and at most 16383.99998pt" in capsys.readouterr().err


def test_em_size_of_maxdimen_is_accepted(workspace, capsys):
    maxdimen = "1073741823/65536"
    code = main(["resolve", str(workspace / "paper.tex"), "--em-size", maxdimen, "--report", "json"])
    assert code == 0
    layout = json.loads(capsys.readouterr().out)["bibliography"]["layout"]
    assert layout["biblabelwidth"]["pt"] == 1.5 * 1073741823 / 65536


class FullStream:
    """A stdout whose device is full."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


@pytest.mark.parametrize("report", ["none", "json"])
def test_unwritable_stdout_exits_three(workspace, capsys, monkeypatch, report):
    monkeypatch.setattr(sys, "stdout", FullStream())
    code = main(["resolve", str(workspace / "paper.tex"), "--report", report])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "citeforge: error: cannot write output: [Errno 28] No space left on device\n"


def test_lint_goes_to_stderr(workspace, capsys):
    (workspace / "paper.tex").write_text(
        "\\cite{a, b}\n\\bibliography{refs}\n", encoding="utf-8"
    )
    code = main(["resolve", str(workspace / "paper.tex")])
    _, err = capsys.readouterr()
    # the spaced key ` b' is a different key from `b', so it stays undefined
    assert code == 1
    assert "lint:" in err and "contains a space" in err


def run_cli_process(*args, **variables):
    """Run the CLI in a child process, with these environment ``variables``; (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(citeforge.__file__).parents[1]), **variables)
    proc = subprocess.run(
        [sys.executable, "-m", "citeforge.cli", *args],
        capture_output=True, text=True, env=env, check=False,
    )
    return proc.returncode, proc.stderr


def test_non_utf8_document_exits_three(workspace):
    (workspace / "paper.tex").write_bytes(b"Caf\xe9 \\cite{a}\n")
    code, err = run_cli_process("resolve", str(workspace / "paper.tex"))
    assert code == 3
    assert "Traceback" not in err
    assert "citeforge: error: paper.tex: not UTF-8 text (byte 3)" in err


@pytest.mark.parametrize(
    "document",
    [
        "See \\cite{a}.\r\nThen \\cite{x},\r\n\\cite{y}.\r\n\\bibliography{refs}\r\n",
        "a\rb \\cite{x}\r\\cite{y}\n",
    ],
    ids=["crlf", "bare-cr"],
)
def test_the_document_is_read_as_the_library_reads_it(workspace, capsys, document):
    # Line breaks pass through byte for byte, and only "\n" ends a line.
    outcome = run_to_fixpoint(
        JobConfig(jobname="paper"), document, MemoryFiles({"paper.bbl": BBL.encode()})
    )
    final = outcome.final
    (workspace / "paper.tex").write_bytes(document.encode())
    code = main(["resolve", str(workspace / "paper.tex")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == render_plain(final.rendered)
    assert "\r" in out
    assert err.splitlines() == final.messages + final.warning_texts()
    assert [warning.line for warning in final.warnings] == [
        1 + document[: document.index("\\cite{x}")].count("\n"),
        1 + document[: document.index("\\cite{y}")].count("\n"),
    ]


def test_non_utf8_bbl_exits_three(workspace):
    (workspace / "paper.bbl").write_bytes(BBL.encode() + b"\xff\n")
    code, err = run_cli_process("resolve", str(workspace / "paper.tex"))
    assert code == 3
    assert "Traceback" not in err
    assert f"citeforge: error: paper.bbl: not UTF-8 text (byte {len(BBL)})" in err


def test_non_utf8_aux_payload_exits_three(workspace):
    (workspace / "paper.aux").write_bytes(b"\\citation{a}\n\\@citedef{a}{\xff}\n")
    code, err = run_cli_process("resolve", str(workspace / "paper.tex"))
    assert code == 3
    assert "Traceback" not in err
    assert "citeforge: error: paper.aux: @citedef record is not UTF-8 text (byte 13)" in err


def test_aux_write_failure_exits_three(workspace):
    (workspace / "paper.aux").mkdir()
    code, err = run_cli_process("resolve", str(workspace / "paper.tex"))
    assert code == 3
    assert "Traceback" not in err
    assert "citeforge: error:" in err and "paper.aux" in err
    # the temporary file the aux was written to is gone again
    assert sorted(p.name for p in workspace.iterdir()) == ["paper.aux", "paper.bbl", "paper.tex"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_output_to_a_full_device_exits_three(workspace, unbuffered):
    # Buffered stdout keeps the short output after the failed flush, and
    # the interpreter tries to flush it again at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(citeforge.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "citeforge.cli", "resolve", str(workspace / "paper.tex")],
            stdout=full, stderr=subprocess.PIPE, text=True, check=False, env=env,
        )
    assert proc.returncode == 3
    assert proc.stderr == "citeforge: error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "document, render",
    [("See \\cite{k}.\n", "annotated"), ("Caf\u00e9 \\cite{a}.\n\\bibliography{refs}\n", "plain")],
    ids=["annotated-marker", "plain-text"],
)
def test_output_that_stdout_cannot_encode_exits_three(workspace, document, render):
    (workspace / "paper.tex").write_text(document, encoding="utf-8")
    code, err = run_cli_process(
        "resolve", str(workspace / "paper.tex"), "--render", render, PYTHONIOENCODING="ascii"
    )
    assert code == 3
    assert "Traceback" not in err
    [error] = [line for line in err.splitlines() if line.startswith("citeforge: error:")]
    assert error.startswith("citeforge: error: cannot write output: 'ascii' codec can't encode")


def test_unwritable_citation_key_exits_three_at_its_line(tmp_path, capsys):
    (tmp_path / "bad.tex").write_text("\\cite{a\nb}\n", encoding="utf-8")
    code = main(["resolve", str(tmp_path / "bad.tex")])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "citeforge: error: bad.tex:1: citation payload may not contain a newline: 'a\\nb'\n"


def test_corrupt_aux_exits_three_naming_the_file(workspace, capsys):
    (workspace / "paper.aux").write_bytes(b"\\citation{a}\ngarbage")
    code = main(["resolve", str(workspace / "paper.tex")])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "citeforge: error: paper.aux: unrecognized aux content (byte 13)\n"


def test_runaway_expansion_exits_three(workspace, capsys):
    # Each definition doubles the last, and line k queues 2**k characters:
    # one budget for the whole file runs out at line 22, in its first \u.
    names = [chr(ord("a") + i) for i in range(23)]
    lines = ["\\newcommand\\a{xx}\n"]
    lines += [f"\\newcommand\\{name}{{\\{last}\\{last}}}\n" for last, name in zip(names, names[1:])]
    (workspace / "paper.bbl").write_text("".join(lines) + BBL, encoding="utf-8")
    code = main(["resolve", str(workspace / "paper.tex")])
    _, err = capsys.readouterr()
    assert code == 3
    assert f"citeforge: error: paper.bbl:22: expansion of \\u exceeded {MAX_EXPANSION_CHARS}" in err


def test_cli_import_loads_no_heavy_modules():
    """Importing the CLI adds none of these to what a bare interpreter loads."""
    env = dict(os.environ, PYTHONPATH=str(Path(citeforge.__file__).parents[1]))

    def loaded(code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        )
        return set(proc.stdout.split())

    added = loaded("import citeforge.cli") - loaded("pass")
    assert added & {"dataclasses", "inspect", "json"} == set()
