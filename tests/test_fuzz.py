"""Random command lines through `main`: every input is a result or a refusal.

Angle tokens are drawn from integers, decimals, ``p/q`` fractions, malformed
strings and huge numbers; labels from strings of M, V and stray characters.
Half of the stars close (a token list followed by itself when its length is
odd, else by its reverse, has alternating sum zero), so counting, crimping
and the oracle run too, not only the parser.
Whatever comes in, `main` must exit 0 (a result) or 1 (bad input or a
budget), print no traceback and report no internal error, within a deadline.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

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


@given(command_lines())
@settings(max_examples=300, deadline=3000, suppress_health_check=[HealthCheck.too_slow])
def test_main_exits_zero_or_one_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
