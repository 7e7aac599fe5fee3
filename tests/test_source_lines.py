"""Every line of ``heol``'s source fits in 120 characters, so joined lines cannot shrink its line count."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heol"
LIMIT = 120


def long_lines(source: str) -> list[int]:
    """Numbers (from 1) of the lines of ``source`` longer than ``LIMIT`` characters."""
    return [i for i, line in enumerate(source.splitlines(), 1) if len(line) > LIMIT]


def test_the_guard_finds_a_long_line():
    assert long_lines("x = 1\n" + "y = " + "1" * (LIMIT - 4) + "\n" + "z = " + "1" * (LIMIT - 3) + "\n") == [3]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_lines_fit_in_120_characters(module):
    assert long_lines((SRC / module).read_text()) == []
