"""The README's `$ narratables ...` transcripts are what the commands print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from narratables import cli
from narratables.cli import main
from narratables.errors import IndexOutOfRange, NarratablesError, ParseError, UnknownRule

README = Path(__file__).resolve().parent.parent / "README.md"
EXIT_ROW = re.compile(r"^\| (\d+) +\| (.*?) *\|$", re.MULTILINE)
FENCE = re.compile(r"^( *)```[^\n]*\n(.*?)^\1```", re.MULTILINE | re.DOTALL)


def transcripts():
    """(argv, expected stdout) for each fenced block that opens with `$ narratables`."""
    found = []
    for indent, body in FENCE.findall(README.read_text()):
        lines = [line[len(indent):] for line in body.splitlines()]
        if lines and lines[0].startswith("$ narratables "):
            argv = shlex.split(lines[0])[2:]
            found.append(pytest.param(argv, "\n".join(lines[1:]) + "\n", id=" ".join(argv)))
    return found


def test_readme_has_the_two_transcripts():
    assert [p.id for p in transcripts()] == ["demo-paper", "cluster-check --builtin spin-swap"]


@pytest.mark.parametrize("argv, expected", transcripts())
def test_readme_transcript_matches_stdout(monkeypatch, argv, expected):
    monkeypatch.setenv("NARRATABLES_COLOR", "never")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    assert out.getvalue() == expected


# words each exit code's README row must hold, by cli constant and by error class
CONSTANT_WORDS = {
    "EXIT_OK": "success",
    "EXIT_VIOLATION": "cluster violation",
    "EXIT_NONCONSERVING": "does not conserve",
    "EXIT_PARSE": "parse error",
    "EXIT_UNKNOWN_RULE": "unknown rule",
    "EXIT_INDEX": "out of range",
    "EXIT_DOMAIN": "other domain errors",
    "EXIT_USAGE": "usage error",
}
ERROR_WORDS = {
    ParseError: "parse error",
    UnknownRule: "unknown rule",
    IndexOutOfRange: "out of range",
    NarratablesError: "other domain errors",
    ValueError: "other domain errors",
}


def test_readme_exit_codes_match_cli():
    section = README.read_text().split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = [(int(code), meaning) for code, meaning in EXIT_ROW.findall(section)]
    table = dict(rows)
    assert len(table) == len(rows)
    constants = {name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    assert set(constants) == set(CONSTANT_WORDS)
    assert set(table) == set(constants.values())
    for name, words in CONSTANT_WORDS.items():
        assert words in table[constants[name]], name
    assert set(cli.ERROR_EXIT_CODES) == set(ERROR_WORDS)
    for cls, code in cli.ERROR_EXIT_CODES.items():
        assert ERROR_WORDS[cls] in table[code], cls
    # the module docstring, which is also the --help text, lists the same codes
    listed = cli.__doc__.split("Exit codes:", 1)[1].split(".", 1)[0]
    assert {int(c) for c in re.findall(r"\b(\d+) [a-z]", listed)} == set(table)
