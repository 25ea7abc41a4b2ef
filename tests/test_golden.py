"""Golden snapshots of the ``count`` and ``analyze`` reports.

Each file under ``tests/data/golden/`` is the exact stdout of one command on
one star, in text or JSON. A change that moves a single byte of these
reports, a trace step, a residual or the rendering of a fraction, fails here,
which a comparison of two runs of the same code cannot show.

After an intended change of the report format, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from flatfold.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

STARS = {
    "fractions": "1/3 45/2 179/3 45/2 120 135",
    "decimals": "22.5, 45.25, 67.5, 44.75, 90, 90",
    "pooled": "20 40 20 20 60 40 20 20 40 20 20 40",
    "cone": "50,70,70,50",
    "nonclosing": "100 80 90 90",
}
COMMANDS = ("count", "analyze")
FORMATS = {"text": "txt", "json": "json"}

CASES = [
    (star, command, fmt) for star in STARS for command in COMMANDS for fmt in FORMATS
]


def golden_path(star: str, command: str, fmt: str) -> Path:
    return GOLDEN / ("%s-%s.%s" % (star, command, FORMATS[fmt]))


def render(star: str, command: str, fmt: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, STARS[star], "--format", fmt])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("star, command, fmt", CASES, ids=["-".join(c) for c in CASES])
def test_report_matches_snapshot(star, command, fmt):
    expected = golden_path(star, command, fmt).read_text(encoding="utf-8")
    assert render(star, command, fmt) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        golden_path(*case).write_text(render(*case), encoding="utf-8")
