"""Every case of `corpus.CASES` prints what `tests/expected/` holds.

Text must match exactly, numbers within rel 1e-9 / abs 1e-12: the `.17g` CSV
columns and `.12g` amplitudes carry numpy's summation order, which may differ
between numpy versions and CPUs.  CI compares exact bytes against the base commit.
"""

import math
import re

import pytest

import corpus

NAMES = [name for name, _ in corpus.CASES]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
RERECORD = "re-record with python tests/corpus.py"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus.build(root / "inputs")
    corpus.record(root / "inputs", root / "recorded")
    return root / "recorded"


def close(want, got):
    """The same text between numbers, and the same numbers within tolerance."""
    return NUMBER.split(want) == NUMBER.split(got) and all(
        math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
        for a, b in zip(NUMBER.findall(want), NUMBER.findall(got)))


def test_every_expected_file_belongs_to_one_case():
    assert len(set(NAMES)) == len(NAMES)
    strays = [path.name for path in corpus.EXPECTED.iterdir() if path.stem not in NAMES]
    assert strays == [], f"expected files of no case; {RERECORD}"


@pytest.mark.parametrize("name", NAMES)
def test_case_prints_what_is_expected(recorded, name):
    want = sorted(path.name for path in corpus.EXPECTED.glob(f"{name}.*"))
    assert want, f"{name} has no expected files; {RERECORD}"
    assert sorted(path.name for path in recorded.glob(f"{name}.*")) == want
    for file in want:
        expected = (corpus.EXPECTED / file).read_text(encoding="utf-8")
        got = (recorded / file).read_text(encoding="utf-8")
        if not close(expected, got):
            assert got == expected, file
