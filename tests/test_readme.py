"""The README's `$ narratables ...` transcripts are what the commands print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from narratables.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
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
