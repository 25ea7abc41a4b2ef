"""Random command lines through `main`: every input is a result or a refusal.

Angle tokens are drawn from integers, decimals, ``p/q`` fractions, malformed
strings and huge numbers; labels from strings of M, V and stray characters.
Half of the stars close (a token list followed by itself when its length is
odd, else by its reverse, has alternating sum zero), so counting, crimping
and the oracle run too, not only the parser.
Pattern documents for ``pattern check`` and ``pattern svg`` are written as
JSON text, so a coordinate can be any token: an integer, a decimal, a ``p/q``
string, an exponent, a huge or malformed number, a boolean or null. Half of
them are valid lattice grids, which must give a result.
Whatever comes in, `main` must exit 0 (a result) or 1 (bad input or a
budget), print no traceback and report no internal error, within a deadline.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatfold.cli import main

positive = st.one_of(
    st.integers(1, 400).map(str),
    st.decimals(min_value="0.001", max_value=400, places=3).map(str),
    st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)).map("%d/%d".__mod__),
    st.integers(10**80, 10**99).map(str),
    st.integers(1, 10**60).map("1/{}".format),
)
tokens = st.one_of(
    positive,
    st.integers(-5, 0).map(str),
    st.tuples(st.integers(-3, 9), st.integers(-2, 9)).map("%d/%d".__mod__),
    st.text(alphabet="0123456789./-+eE_xa", min_size=1, max_size=8),
    st.integers(10**100, 10**120).map(str),
)
labels = st.text(alphabet="MVmvX ", max_size=14)


def stars(max_sectors: int):
    closing = st.lists(positive, min_size=1, max_size=max_sectors // 2).map(
        lambda half: half + (half if len(half) % 2 else half[::-1])
    )
    return st.one_of(closing, st.lists(tokens, max_size=max_sectors))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(
        ["count", "analyze", "check", "check --oracle", "enumerate", "enumerate --fast"]
    ))
    # the crimp filter runs all 2^m labelings, and a forced oracle search
    # grows exponentially: keep those two to 12 sectors
    star = draw(stars(12 if command in ("enumerate --fast", "check --oracle") else 40))
    argv = command.split()
    argv.insert(1, draw(st.sampled_from([" ", ",", ", "])).join(star))
    if command.startswith("check"):
        exact = st.text(alphabet="MV", min_size=len(star), max_size=len(star))
        argv[2:2] = ["--mv", draw(st.one_of(exact, labels))]
    return argv + ["--format", draw(st.sampled_from(["text", "json"]))]


def run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    return code


@given(command_lines())
@settings(max_examples=300, deadline=3000, suppress_health_check=[HealthCheck.too_slow])
def test_main_exits_zero_or_one_without_a_traceback(argv):
    run(argv)


# --------------------------------------------------------------------------
# pattern documents

coordinates = st.one_of(
    st.integers(-50, 50).map(str),
    st.decimals(min_value=-50, max_value=50, places=3).map(str),
    st.tuples(st.integers(-99, 99), st.integers(-3, 9)).map('"%d/%d"'.__mod__),
    st.tuples(st.integers(-9, 9), st.integers(-400, 400)).map("%de%d".__mod__),
    st.sampled_from(["1e-3000000", "1e10000000", "1" * 5000, "1." + "1" * 4998,
                     '"%s"' % ("1" * 400), "9" * 100, '"1/%s"' % ("9" * 98)]),
    st.text(alphabet="0123456789./-+eE_xa ", max_size=8).map(json.dumps),
    st.sampled_from(["true", "false", "null", "[]", '"NaN"', "Infinity"]),
)


def _document(points: list[list[str]], creases, boundary, assignment) -> str:
    text = '{"vertices": [%s], "creases": %s, "boundary": %s' % (
        ", ".join("[%s, %s]" % tuple(pt) for pt in points), json.dumps(creases),
        json.dumps(boundary))
    return text + (', "assignment": %s}' % json.dumps(assignment) if assignment else "}")


@st.composite
def random_documents(draw):
    """Any coordinates, crease and border indices, some out of range."""
    n = draw(st.integers(0, 8))
    points = [[draw(coordinates), draw(coordinates)] for _ in range(n)]
    index = st.integers(-1, n + 1)
    creases = draw(st.lists(st.lists(index, min_size=2, max_size=2), max_size=8))
    boundary = draw(st.lists(index, max_size=6))
    assignment = draw(st.one_of(st.none(), st.lists(st.sampled_from("MVmvX"), max_size=8)))
    return _document(points, creases, boundary, assignment), False


def _render(draw, value: Fraction) -> str:
    """One of the ways a pattern file can write an exact coordinate."""
    forms = ['"%s"' % value]
    if value.denominator == 1:
        forms += [str(value.numerator), "%d.0" % value.numerator]
    elif 10**6 % value.denominator == 0:
        forms.append(str(Decimal(value.numerator) / value.denominator))
    return draw(st.sampled_from(forms))


@st.composite
def lattice_documents(draw):
    """A k x k grid, scaled, with each grid edge off the border present or
    not and at most one diagonal per cell: valid, and never refused."""
    k = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 7)]))
    segs = []
    for x in range(k):
        for y in range(k):
            if y > 0 and draw(st.booleans()):
                segs.append(((x, y), (x + 1, y)))
            if x > 0 and draw(st.booleans()):
                segs.append(((x, y), (x, y + 1)))
            style = draw(st.integers(0, 2))
            if style:
                segs.append(((x, y), (x + 1, y + 1)) if style == 1 else ((x + 1, y), (x, y + 1)))
    corners = [(0, 0), (k, 0), (k, k), (0, k)]
    others = sorted({q for seg in segs for q in seg} - set(corners))
    order = draw(st.permutations(corners + others))
    index = {q: i for i, q in enumerate(order)}
    points = [[_render(draw, c * scale) for c in q] for q in order]
    creases = [[index[a], index[b]] for a, b in segs]
    boundary = [index[q] for q in corners]
    assignment = draw(st.one_of(
        st.none(), st.lists(st.sampled_from("MV"), min_size=len(segs), max_size=len(segs))))
    return _document(points, creases, boundary, assignment), True


@given(st.one_of(lattice_documents(), random_documents()), st.sampled_from(["text", "json"]))
@settings(max_examples=200, deadline=3000, suppress_health_check=[HealthCheck.too_slow])
def test_pattern_commands_exit_zero_or_one_without_a_traceback(case, fmt):
    text, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pattern.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["pattern", "check", str(path), "--format", fmt],
                     ["pattern", "svg", str(path), "-o", str(Path(tmp) / "out.svg")]):
            code = run(argv)
            assert code == 0 or not valid
