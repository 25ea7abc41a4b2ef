import enum
import gc
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatfold import cli, core, oracle, vertex
from flatfold.cli import _json, emit_svg, main, parse_angles, parse_argv, parse_pattern
from flatfold.core import AngleSequence, CreasePattern, MVLabel, normalize_pattern
from flatfold.errors import ParseError, PlanarityError, SchemaError
from flatfold.pattern import curve_around_vertex
from reference_parser import build_parser


# The 29 characters that `str.split` and the regex class ``\s`` both split on
_WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
_SEPARATORS = st.lists(st.sampled_from(_WHITESPACE + [","]), min_size=1, max_size=3).map("".join)
_ANGLE_TOKENS = st.one_of(
    st.from_regex(r"0{0,3}[0-9]{1,4}", fullmatch=True),  # leading zeros
    st.from_regex(r"[0-9]{1,4}/[0-9]{1,4}", fullmatch=True),  # unreduced p/q
    st.from_regex(r"[0-9]{1,3}\.[0-9]{0,2}0{0,3}", fullmatch=True),  # trailing zeros
    st.sampled_from(["+90", "5.", ".5", "1_0", "\u0663", "\u00b2", "1e5", "2.5E-3", "0",
                     "5/0", "0/5", "1//2", "1/2/3", "1.2.3", "1" * 100, "1" * 101,
                     "0." + "0" * 97 + "1", "-90"]),
)


def reference_parse_angles(text):
    """The angle list as `parse_angles` read it when every token went through
    ``Fraction(tok)``: the same rules, in the same order, token by token."""
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise ParseError("no angles given")
    values = []
    for i, tok in enumerate(tokens):
        if len(tok) > 100:
            raise ParseError("angle at position %d is longer than 100 characters" % (i + 1))
        if "e" in tok.lower():
            raise ParseError("exponent notation is not accepted: %r at position %d" % (tok, i + 1))
        try:
            value = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError("malformed angle %r at position %d" % (tok, i + 1)) from None
        if value <= 0:
            raise ParseError("non-positive angle %r at position %d" % (tok, i + 1))
        values.append(value)
    v = AngleSequence(values)
    bits = max(len(v) + 1, v.den.bit_length(), sum(v.ints).bit_length())
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and bits * 30103 // 100000 + 1 > limit:
        raise ParseError(
            "exact results for this star could exceed %d decimal digits, the "
            "interpreter's limit for printing an integer" % limit
        )
    return v


class TestParseAngles:
    def test_commas(self):
        assert parse_angles("90,90,90,90") == AngleSequence((90, 90, 90, 90))

    def test_spaces(self):
        assert parse_angles("20 10 40 50 60 60 60 60") == AngleSequence(
            (20, 10, 40, 50, 60, 60, 60, 60)
        )

    def test_decimals_exact(self):
        assert parse_angles("22.5, 337.5")[0] == Fraction(45, 2)

    def test_fractions(self):
        assert parse_angles("1/3, 719/2, 1/6")[2] == Fraction(1, 6)

    def test_nonpositive_rejected_with_position(self):
        with pytest.raises(ParseError, match="position 1"):
            parse_angles("0,180,180")

    def test_malformed_token(self):
        with pytest.raises(ParseError, match="position 2"):
            parse_angles("90, ninety, 90")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_angles("   ")

    @pytest.mark.parametrize("token", ["1e5", "1E5", "2.5e-3", "1e5000"])
    def test_exponent_notation_rejected(self, token):
        with pytest.raises(ParseError, match="exponent notation.*position 2"):
            parse_angles("90 %s 90" % token)

    @pytest.mark.parametrize("token, message", [
        ("5/0", "malformed"), ("0/0", "malformed"), ("0/5", "non-positive"),
        ("0.00", "non-positive"), ("000", "non-positive"),
    ])
    def test_zero_tokens(self, token, message):
        # a zero denominator is refused before the pair is reduced:
        # gcd(5, 0) is 5, which would make 5/0 the pair (1, 0)
        with pytest.raises(ParseError, match="^%s angle %r at position 2$" % (message, token)):
            parse_angles("90 %s 90" % token)

    @pytest.mark.parametrize("text", ["2/4 180/2 0.50 90 179.50 90",
                                      "1/2, 90, 1/2, 90, 359/2, 90"])
    def test_reads_each_token_in_lowest_terms(self, text):
        v = parse_angles(text)
        assert v == AngleSequence(("1/2", 90, "1/2", 90, "359/2", 90))
        assert (v.ints, v.den) == ((1, 180, 1, 180, 359, 180), 2)

    def test_overlong_token_rejected(self):
        with pytest.raises(ParseError, match="position 1 is longer than"):
            parse_angles("1" * 5000 + " 1")

    @given(st.one_of(
        st.from_regex(r"[+-]?[0-9_]{0,4}[./]?[0-9_]{0,4}", fullmatch=True),
        st.text(alphabet="0123456789./+-_ \u00a0\u0663\u00b2", max_size=12),
        st.text(max_size=12),
        st.lists(st.tuples(_ANGLE_TOKENS, _SEPARATORS), min_size=1, max_size=6).map(
            lambda pairs: "".join(tok + sep for tok, sep in pairs)),
    ))
    @example("22.5 1/3 0.125 007")
    @example("+5")
    @example(" 5")
    @example("1_000")
    @example(".5")
    @example("5.")
    @example("5/0")
    @example("0/5")
    @example("\u0663")  # ARABIC-INDIC DIGIT THREE
    @example("\u00b2")  # SUPERSCRIPT TWO
    @example("90 1e5 0 270")  # the first bad token is named, whichever comes next
    @example("0 1e5")
    @example("1" * 100 + " 0/1")
    @example("90 " + "1" * 101)
    @example("1/" + "0" * 98 + "1 0")
    @example("5/0 " + "1" * 101)
    @example("1//2 90")
    @example("90 1/2/3")
    @example("1.2.3, 5")
    @example("+90 .5 1_0 259.5")
    @example("0, 5/0")
    @example("2/4 180/2 0.50 90 179.50 90")
    @example("90,\u3000,90\x1c90\x85,90")
    def test_parses_every_token_as_fraction_does(self, text):
        # the plain lists skip Fraction: the same (ints, den), or the same
        # message, as parsing every token with Fraction(tok)
        def outcome(parse):
            try:
                v = parse(text)
            except ParseError as exc:
                return str(exc)
            return v.ints, v.den

        assert outcome(parse_angles) == outcome(reference_parse_angles)

    def test_every_whitespace_separates(self):
        text = "".join("%s90,%s" % (c, c) for c in _WHITESPACE) + "1/2 0.5"
        v = parse_angles(text)
        assert (v.ints, v.den) == ((180,) * len(_WHITESPACE) + (1, 1), 2)
        assert v == reference_parse_angles(text)


def write_pattern(tmp_path, doc, name="pattern.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


VALID_DOC = {
    "vertices": [[0, 0], [4, 0], [4, 4], [0, 4], [2, 2], [4, 2], [2, 4], [0, 2], [2, 0]],
    "creases": [[4, 5], [4, 6], [4, 7], [4, 8]],
    "boundary": [0, 1, 2, 3],
    "assignment": ["M", "M", "M", "V"],
}


BORDER_CREASE_DOC = {
    "vertices": [[0, 0], [4, 0], [4, 4], [0, 4], [0, 2], [4, 2]],
    "creases": [[4, 5]],
    "boundary": [0, 1, 2, 3],
}

# A crease joining the two edges of the notch of an L-shaped sheet runs
# outside the paper, though both its endpoints are on the border.
NOTCH_DOC = {
    "vertices": [[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4], [3, 2], [2, 3]],
    "creases": [[6, 7]],
    "boundary": [0, 1, 2, 3, 4, 5],
}


# Two features 10^-48 apart: no float tells them apart, exact validation
# does. The rational string is 99 characters, within the token limit.
NEAR = "%d/%d" % (2 * 10**48 + 1, 10**48)
NEAR_DOC = {
    "vertices": [[0, 0], [4, 0], [4, 4], [0, 4], [2, 2], [2, 0], [1, NEAR], [3, NEAR]],
    "creases": [[4, 5], [6, 7]],
    "boundary": [0, 1, 2, 3],
}

# Sectors 90, 90, 90 + e, 90 - e: closure fails by 2e, far below any float
# tolerance.
NEAR_MISS_DOC = {
    "vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2], [0, 0], [1, 0], [0, 1], [-1, 0],
                 ["1/1000000000000000", -1]],
    "creases": [[4, 5], [4, 6], [4, 7], [4, 8]],
    "boundary": [0, 1, 2, 3],
}

# Two creases about 10^-20 radians apart: a sector no float angle resolves.
TINY_SECTOR_DOC = {
    "vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2], [0, 0], [1, 0], [1, "-1/%d" % 10**20]],
    "creases": [[4, 5], [4, 6]],
    "boundary": [0, 1, 2, 3],
}

# Directions (1,0), (3,4), (-1,0), (3,-4): sectors a, b, b, a with irrational
# degree measures, and closure holds.
PYTHAGOREAN_DOC = {
    "vertices": [[-5, -5], [5, -5], [5, 5], [-5, 5], [0, 0], [1, 0], [3, 4], [-1, 0], [3, -4]],
    "creases": [[4, 5], [4, 6], [4, 7], [4, 8]],
    "boundary": [0, 1, 2, 3],
}


class TestParsePattern:
    def test_valid_document(self, tmp_path):
        p = parse_pattern(write_pattern(tmp_path, VALID_DOC))
        assert len(p.creases) == 4
        assert p.degree(4) == 4
        assert str(p.assignment) == "MMMV"

    def test_rational_strings_and_decimals(self, tmp_path):
        doc = {
            "vertices": [[0, 0], ["4", 0], [4, 4], [0, "4"], ["1/2", 0.25], [2, 2]],
            "creases": [[4, 5]],
            "boundary": [0, 1, 2, 3],
        }
        p = parse_pattern(write_pattern(tmp_path, doc))
        assert p.point(4) == (Fraction(1, 2), Fraction(1, 4))

    def test_normalizes_border_creases(self, tmp_path):
        p = parse_pattern(write_pattern(tmp_path, BORDER_CREASE_DOC))
        assert len(p.creases) == 2
        assert len(p.split_vertices) == 1

    @pytest.mark.parametrize(
        "doc", [VALID_DOC, BORDER_CREASE_DOC], ids=["no-split", "split"]
    )
    def test_validates_once(self, tmp_path, monkeypatch, doc):
        calls = []
        validate = core._validate_pattern

        def counting(p):
            calls.append(p)
            validate(p)

        monkeypatch.setattr(core, "_validate_pattern", counting)
        parse_pattern(write_pattern(tmp_path, doc))
        assert len(calls) == 1

    def test_makes_the_integer_geometry_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = core._integer_geometry
        monkeypatch.setattr(core, "_integer_geometry",
                            lambda pts, boundary: calls.append(pts) or real(pts, boundary))
        path = write_pattern(tmp_path, dict(BORDER_CREASE_DOC, assignment=["M"]))
        assert len(parse_pattern(path).split_vertices) == 1
        assert len(calls) == 1
        assert main(["pattern", "check", path]) == 0
        assert len(calls) == 2  # one per request

    @pytest.mark.parametrize("text, message", [
        ('{"vertices": [', "invalid JSON in PATH: "),
        ("[1, 2]", "the pattern document must be a JSON object"),
        ('{"vertices": [], "creases": {}, "boundary": []}', "'creases' must be a list"),
        ('{"vertices": [[1]], "creases": [], "boundary": []}',
         "each vertex must be an [x, y] pair"),
        (json.dumps(dict(VALID_DOC, assignment="M")), "the assignment must be a list of labels"),
        (json.dumps(dict(VALID_DOC, assignment=["M", "M", "M", "X"])),
         "assignment labels must be 'M' or 'V'"),
    ], ids=["truncated", "array", "creases-object", "short-vertex", "assignment-string",
            "unknown-label"])
    def test_document_refusals(self, tmp_path, capsys, text, message):
        path = tmp_path / "pattern.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as info:
            parse_pattern(str(path))
        got = str(info.value)
        if "PATH" in message:  # the json module words the rest
            assert got.startswith(message.replace("PATH", str(path)))
        else:
            assert got == message
        assert run_cli(capsys, "pattern", "check", str(path)) == (1, "", "error: %s\n" % got)

    def test_lower_case_labels(self, tmp_path, capsys):
        path = write_pattern(tmp_path, dict(VALID_DOC, assignment=["m", "m", "m", "v"]))
        assert str(parse_pattern(path).assignment) == "MMMV"
        assert run_cli(capsys, "pattern", "check", path)[0] == 0

    def test_wrong_assignment_length(self, tmp_path):
        doc = dict(VALID_DOC, assignment=["M", "V"])
        with pytest.raises(SchemaError):
            parse_pattern(write_pattern(tmp_path, doc))

    def test_crossing_creases(self, tmp_path):
        doc = {
            "vertices": [[0, 0], [4, 0], [4, 4], [0, 4], [1, 1], [3, 3], [1, 3], [3, 1]],
            "creases": [[4, 5], [6, 7]],
            "boundary": [0, 1, 2, 3],
        }
        with pytest.raises(PlanarityError):
            parse_pattern(write_pattern(tmp_path, doc))

    def test_missing_key(self, tmp_path):
        with pytest.raises(SchemaError):
            parse_pattern(write_pattern(tmp_path, {"vertices": [], "creases": []}))

    def test_unreadable_file(self):
        with pytest.raises(SchemaError):
            parse_pattern("/nonexistent/nowhere.json")

    def test_bad_index_type(self, tmp_path):
        doc = dict(VALID_DOC, creases=[[4, "5"]])
        with pytest.raises(SchemaError):
            parse_pattern(write_pattern(tmp_path, doc))

    def test_deeply_nested_json_is_a_schema_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        depth = 100000
        path.write_text('{"vertices": %s%s, "creases": [], "boundary": []}' % ("[" * depth, "]" * depth))
        with pytest.raises(SchemaError, match="nested too deeply"):
            parse_pattern(str(path))
        code, out, err = run_cli(capsys, "pattern", "check", str(path))
        assert (code, out) == (1, "")
        assert err == "error: invalid JSON in %s: nested too deeply\n" % path


class TestEmitSvg:
    def pattern(self, assignment):
        return normalize_pattern(
            CreasePattern.build(
                [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (4, 2), (2, 4), (0, 2), (2, 0)],
                [(4, 5), (4, 6), (4, 7), (4, 8)],
                boundary=(0, 1, 2, 3),
                assignment=assignment,
            )
        )

    def test_styles_match_labels(self, tmp_path):
        out = tmp_path / "pattern.svg"
        emit_svg(self.pattern("MMMV"), str(out))
        text = out.read_text()
        assert text.count('class="crease mountain"') == 3
        assert text.count('class="crease valley"') == 1
        assert text.count('class="boundary"') == 1

    def test_unassigned_creases_are_plain(self, tmp_path):
        out = tmp_path / "plain.svg"
        emit_svg(self.pattern(None), str(out))
        assert out.read_text().count('class="crease plain"') == 4

    def test_boundary_only(self, tmp_path):
        p = CreasePattern.build(
            [(0, 0), (4, 0), (4, 4), (0, 4)], [], boundary=(0, 1, 2, 3)
        )
        out = tmp_path / "empty.svg"
        emit_svg(p, str(out))
        text = out.read_text()
        assert '<polygon class="boundary"' in text
        assert "<line" not in text

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(self.pattern("MMMV"), str(a))
        emit_svg(self.pattern("MMMV"), str(b))
        assert a.read_text() == b.read_text()


_STRINGS = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t", "é", "\u2028", "😀", "1079/3"])
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False, allow_infinity=False) | _STRINGS
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.lists(_STRINGS)
    | st.dictionaries(_STRINGS, inner),
    max_leaves=40,
)


@given(st.integers(1, 10**30), st.integers(1, 10**12))
@example(360, 1)
@example(1001, 1001)
@example(2, 6)
def test_sector_names_are_fraction_strings(n, den):
    assert core._sector_name(n, den) == str(Fraction(n, den))
    assert AngleSequence((n, n + 1, n), den).as_strings() == [
        str(Fraction(n, den)), str(Fraction(n + 1, den)), str(Fraction(n, den))]


def test_text_lines_read_tuples_as_lists():
    value = {"a": ("1", "2"), "b": [("3",), {"c": ()}, ()], "d": (), "e": [("4", ("5",))]}
    assert cli._text_lines(value) == cli._text_lines(json.loads(json.dumps(value)))


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class TestJsonRenderer:
    """`_json` is ``json.dumps(indent=2, sort_keys=True)``, byte for byte."""

    @given(_JSON_VALUES)
    @example([True, 1, False, 0, "1", None, 1.5, -(2**100), [], {}])
    @example({"b": ["1/3", "1/3", "é"], "a": [["x", 2], "x"], "": {"z": [], "y": {}}})
    # a list of plain strings is joined whole only when the encoder would
    # escape none of them: printable ASCII without '"' or '\\'
    @example(["1/3", 'a"b'])
    @example(["\\", "2"])
    @example(["x\x1f", "y"])
    @example(["\x7f"])
    @example(["~", " ", "", "~"])
    @example(["", ""])
    @example([""])
    @example({"residual": ["é", "1"], "angles": ["1", "é"]})
    @example(["1", "\ud800"])
    @example([MVLabel.MOUNTAIN, "M", "V"])
    @example(["M", MVLabel.VALLEY])
    @example(("1/3", "45/2", "90"))
    # the strings of an empty list join to "", which is not one empty string
    @example([])
    @example(())
    @example({"residual": (), "angles": ("90",), "trace": [()]})
    @example([("x", "y"), ["z"], ("w", 1)])
    # a str or int value of a dict is rendered in place, and a list of ints
    # only is joined whole; a bool, an IntEnum or a str beside them is not
    @example({"a": 1, "b": "x", "c": True, "d": None, "e": 1.5})
    @example([1, -(2**100), 0])
    @example([1, True])
    @example([True])
    @example([1, "1"])
    @example([_Level.LOW, _Level.HIGH])
    @example({"k": _Level.HIGH})
    def test_matches_the_indenting_encoder(self, value):
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_joins_whole_exactly_the_lists_the_encoder_copies(self):
        for c in map(chr, range(0x80)):
            value = ["1/3", c + "x", c]
            assert _json(value) == json.dumps(value, indent=2, sort_keys=True), repr(c)

    def test_rerenders_every_golden_report(self):
        paths = sorted((Path(__file__).parent / "data" / "golden").glob("*.json"))
        assert len(paths) >= 10
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert _json(json.loads(text)) + "\n" == text, path.name


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_count_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "90,90,90,90", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["count"]["value"] == 8

    def test_analyze_and_count_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "20,10,40,50,60,60,60,60", "--format", "json"
        )
        assert code == 0
        analyze = json.loads(out)
        code, out, _ = run_cli(
            capsys, "count", "20,10,40,50,60,60,60,60", "--format", "json"
        )
        assert code == 0
        count = json.loads(out)
        assert analyze["count"]["value"] == count["count"]["value"] == 48
        assert analyze["bounds"] == {"lower": 16, "upper": 112}

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (("count", "90,90,90,90"), ["command", "input", "count", "reason"]),
            (
                ("analyze", "90,90,90"),
                [
                    "command", "input", "degree_even", "kawasaki",
                    "bounds", "count", "reason",
                ],
            ),
        ],
    )
    def test_text_report_key_order(self, capsys, argv, keys):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        top = [ln.split(":")[0] for ln in out.splitlines() if not ln.startswith(" ")]
        assert top == keys

    def test_json_round_trip_is_byte_identical(self, capsys):
        for argv in (
            ("analyze", "20,10,40,50,60,60,60,60", "--format", "json"),
            ("check", "90,90,90,90", "--mv", "MMMV", "--format", "json"),
            ("enumerate", "90,90,90,90", "--format", "json"),
        ):
            _, out, _ = run_cli(capsys, *argv)
            parsed = json.loads(out)
            assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out

    def test_negative_verdict_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "100,80,90,90", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["kawasaki"] is False
        assert report["count"] is None

    def test_odd_degree_reported(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "120,120,120", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["degree_even"] is False
        assert report["bounds"] is None

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "count", "90,bogus")
        assert code == 1
        assert "error" in err

    def test_usage_error_exits_one(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 1
        assert run_cli(capsys, "check", "90,90,90,90")[0] == 1  # --mv required

    def test_check_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "100,80,80,100", "--mv", "mvmm", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["maekawa"] is True
        assert report["crimp_valid"] is True
        assert report["oracle"] == {"ran": True, "valid": True, "skipped": None}

    def test_check_mv_length_mismatch(self, capsys):
        assert run_cli(capsys, "check", "90,90,90,90", "--mv", "MMM")[0] == 1

    def test_check_oracle_flag_agrees_with_default(self, capsys, corpus_small):
        import random

        rng = random.Random(1)
        for seq in corpus_small[::3]:
            angles = ",".join(seq.as_strings())
            mv = "".join(rng.choice("MV") for _ in range(len(seq)))
            code, out, _ = run_cli(capsys, "check", angles, "--mv", mv, "--format", "json")
            assert code == 0
            default = json.loads(out)
            code, out, _ = run_cli(
                capsys, "check", angles, "--mv", mv, "--oracle", "--format", "json"
            )
            assert code == 0
            forced = json.loads(out)
            assert default["crimp_valid"] == forced["crimp_valid"]
            assert default["oracle"]["valid"] == forced["oracle"]["valid"]

    def test_check_beyond_capacity_skips_oracle(self, capsys):
        angles = ",".join(["30"] * 12)
        code, out, _ = run_cli(capsys, "check", angles, "--mv", "M" * 7 + "V" * 5,
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["oracle"]["ran"] is False
        code, out, _ = run_cli(capsys, "check", angles, "--mv", "M" * 7 + "V" * 5,
                               "--oracle", "--format", "json")
        assert code == 0
        assert json.loads(out)["oracle"] == {"ran": True, "valid": True, "skipped": None}

    def test_enumerate_fast_matches_oracle(self, capsys):
        for angles in ("90,90,90,90", "100,80,80,100", "40,60,140,120"):
            _, out, _ = run_cli(capsys, "enumerate", angles, "--format", "json")
            slow = json.loads(out)
            _, out, _ = run_cli(capsys, "enumerate", angles, "--fast", "--format", "json")
            fast = json.loads(out)
            assert slow["valid_assignments"] == fast["valid_assignments"]
            assert slow["count"] == fast["count"]

    def test_enumerate_fast_lists_sixteen_equal_sectors(self, capsys):
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, "enumerate", "--fast", " ".join(["22.5"] * 16),
                               "--format", "json")
        assert time.perf_counter() - started < 0.5
        report = json.loads(out)
        found = report["valid_assignments"]
        assert (code, report["method"], report["count"]) == (0, "crimp-filter", 22880)
        assert found == sorted(set(found)) and len(found) == 22880
        assert all(abs(2 * mv.count("M") - 16) == 2 for mv in found)

    def test_enumerate_fast_nonclosing_lists_nothing(self, capsys):
        for angles in ("100,80,90,90", "90,90,180", "30,20,50,60,70,40"):
            code, out, _ = run_cli(capsys, "enumerate", "--fast", angles, "--format", "json")
            assert code == 0
            assert (json.loads(out)["valid_assignments"], json.loads(out)["count"]) == ([], 0)

    def test_enumerate_fast_tries_no_labeling(self, capsys, monkeypatch):
        # a guard on work, not on time: --fast lists the assignments from
        # the recursion and never tries one through crimping
        calls = []

        def record(name):
            return lambda *args, **kwargs: calls.append(name)

        monkeypatch.setattr(vertex, "crimp_validity", record("crimp_validity"))
        monkeypatch.setattr(oracle, "all_assignments", record("all_assignments"), raising=False)
        for angles in ("22.5 " * 16, "20,10,40,50,60,60,60,60", "36 " * 10):
            code, out, _ = run_cli(capsys, "enumerate", "--fast", angles, "--format", "json")
            assert calls == []
            assert code == 0 and json.loads(out)["count"] > 0

    def test_pattern_check_report(self, capsys, tmp_path):
        path = write_pattern(tmp_path, VALID_DOC)
        code, out, _ = run_cli(capsys, "pattern", "check", path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["local_kawasaki"]["4"]["passes"] is True
        assert report["reflection_traces"]["4"]["is_identity"] is True
        assert report["generalized_maekawa"]["holds"] is True
        assert "necessary only" in report["scope"]

    def test_pattern_check_reports_parity_violation(self, capsys, tmp_path):
        doc = dict(VALID_DOC, assignment=["M", "M", "V", "V"])
        path = write_pattern(tmp_path, doc)
        code, out, _ = run_cli(capsys, "pattern", "check", path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["generalized_maekawa"]["evaluated"] is False
        assert report["generalized_maekawa"]["violating_vertices"] == [4]

    def test_pattern_check_rejects_crease_outside_paper(self, capsys, tmp_path):
        path = write_pattern(tmp_path, NOTCH_DOC)
        code, out, err = run_cli(capsys, "pattern", "check", path)
        assert code == 1
        assert out == ""
        assert "crease 0 lies outside the paper" in err

    @pytest.mark.parametrize(
        "key, index, value, message",
        [
            ("vertices", 4, [2, True], "bad coordinate True"),
            ("creases", 0, [4, True], "each crease must be an [i, j] index pair"),
            ("boundary", 0, False, "the boundary must list vertex indices"),
        ],
        ids=["coordinate", "crease-index", "boundary-index"],
    )
    def test_pattern_check_rejects_json_booleans(
        self, capsys, tmp_path, key, index, value, message
    ):
        doc = dict(VALID_DOC, **{key: list(VALID_DOC[key])})
        doc[key][index] = value  # read as the number 1 or 0, the rest stays valid
        code, out, err = run_cli(capsys, "pattern", "check", write_pattern(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize(
        "token, message",
        [
            ("1" * 5000, "a number is longer than 100 characters"),
            ("1." + "1" * 4998, "a number is longer than 100 characters"),
            ('"%s"' % ("1" * 400), "a coordinate is longer than 100 characters"),
            ("1e-3000000", "exponent notation is not accepted in a number: '1e-3000000'"),
            ("1e10000000", "exponent notation is not accepted in a number: '1e10000000'"),
            ("1e400", "exponent notation is not accepted in a number: '1e400'"),
            ('"1E-3"', "exponent notation is not accepted in a coordinate: '1E-3'"),
        ],
        ids=["5000-digit", "5000-char-decimal", "400-digit-string", "1e-3000000",
             "1e10000000", "1e400", "exponent-string"],
    )
    @pytest.mark.parametrize("command", ["check", "svg"])
    def test_pattern_file_numbers_follow_the_angle_token_rules(
        self, capsys, tmp_path, command, token, message
    ):
        """A unit square with one crease from its centre to (0.5, token)."""
        path = tmp_path / "pattern.json"
        path.write_text('{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], '
                        '[0.5, %s]], "creases": [[4, 5]], "boundary": [0, 1, 2, 3]}' % token)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "pattern", command, str(path),
                                 *(["-o", str(tmp_path / "out.svg")] if command == "svg" else []))
        assert (code, out, err) == (1, "", "error: %s\n" % message)
        assert time.perf_counter() - start < 1

    def test_pattern_svg_renders_the_largest_and_smallest_numbers(self, capsys, tmp_path):
        # every number of at most 100 characters fits a float
        big, tiny = "9" * 99, '"1/%s"' % ("9" * 98)
        path = tmp_path / "pattern.json"
        path.write_text('{"vertices": [[-%s, -%s], [%s, -%s], [%s, %s], [-%s, %s], [0, %s], '
                        '[%s, %s]], "creases": [[4, 5]], "boundary": [0, 1, 2, 3]}'
                        % ((big,) * 9 + (tiny, tiny)))
        out_svg = tmp_path / "out.svg"
        assert run_cli(capsys, "pattern", "svg", str(path), "-o", str(out_svg))[0] == 0
        assert 'viewBox="-1.1e+99 -1.1e+99 2.2e+99 2.2e+99"' in out_svg.read_text()
        assert run_cli(capsys, "pattern", "check", str(path))[0] == 0

    def test_pattern_check_within_float_resolution(self, capsys, tmp_path):
        path = write_pattern(tmp_path, NEAR_DOC)
        assert curve_around_vertex(parse_pattern(path), 4) == (0,)
        code, out, _ = run_cli(capsys, "pattern", "check", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["reflection_traces"]["4"]["creases_crossed"] == [0]

    @pytest.mark.parametrize(
        "doc, passes",
        [(NEAR_MISS_DOC, False), (TINY_SECTOR_DOC, False), (PYTHAGOREAN_DOC, True)],
        ids=["near-miss", "tiny-sector", "pythagorean"],
    )
    def test_pattern_check_decides_non_45_degree_vertices_exactly(
        self, capsys, tmp_path, doc, passes
    ):
        path = write_pattern(tmp_path, doc)
        code, out, err = run_cli(capsys, "pattern", "check", path, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["local_kawasaki"]["4"] == {"passes": passes, "exact": False, "angles": None}
        assert report["reflection_traces"]["4"]["is_identity"] is passes

    def test_report_schema(self, capsys, tmp_path):
        path = write_pattern(tmp_path, VALID_DOC)
        _, out, _ = run_cli(capsys, "pattern", "check", path, "--format", "json")
        report = json.loads(out)
        assert report["local_kawasaki"]["4"] == {
            "passes": True, "exact": True, "angles": ["90", "90", "90", "90"]
        }
        assert set(report["reflection_traces"]["4"]) == {"creases_crossed", "is_identity", "reason"}
        _, out, _ = run_cli(capsys, "count", "90 90 90 90", "--format", "json")
        assert set(json.loads(out)["input"]) == {"angles", "creases", "total", "kind"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "20,10,40,50,60,60,60,60"),
            ("analyze", "20,10,40,50,60,60,60,60"),
            ("check", "90,90,90,90", "--mv", "MMMV"),
            ("enumerate", "100,80,80,100"),
            ("pattern", "check", "PATTERN"),
            ("selftest", "--per-size", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_same_input_same_bytes(self, capsys, tmp_path, argv, fmt):
        path = write_pattern(tmp_path, VALID_DOC)
        argv = [path if a == "PATTERN" else a for a in argv] + ["--format", fmt]
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, *argv) == first

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "20,10,40,50,60,60,60,60"),
            ("analyze", "20,10,40,50,60,60,60,60"),
            ("check", "90,90,90,90", "--mv", "MMMV"),
            ("enumerate", "100,80,80,100"),
            ("enumerate", "--fast", "100,80,80,100"),
            ("pattern", "check", "PATTERN"),
            ("selftest", "--per-size", "1"),
        ],
        ids=["count", "analyze", "check", "enumerate", "enumerate-fast", "pattern-check",
             "selftest"],
    )
    def test_commands_return_reports_that_main_renders(self, capsys, tmp_path, argv):
        path = write_pattern(tmp_path, VALID_DOC)
        argv = [path if a == "PATTERN" else a for a in argv]
        args = parse_argv(argv)
        report, violation = args.func(args)
        assert violation is None
        assert capsys.readouterr() == ("", "")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out) == json.loads(json.dumps(report))

    def test_pattern_svg(self, capsys, tmp_path):
        path = write_pattern(tmp_path, VALID_DOC)
        out_svg = tmp_path / "out.svg"
        code, out, _ = run_cli(capsys, "pattern", "svg", path, "-o", str(out_svg))
        assert (code, out) == (0, "wrote %s\n" % out_svg)
        assert out_svg.read_text().startswith("<?xml")

    def test_pattern_svg_unwritable(self, capsys, tmp_path):
        path = write_pattern(tmp_path, VALID_DOC)
        code, _, err = run_cli(capsys, "pattern", "svg", path, "-o", "/nonexistent/x.svg")
        assert code == 1
        assert "error" in err

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--per-size", "2")
        assert code == 0
        assert "0 failures" in out

    @pytest.mark.parametrize(
        "token", ["1e5000", "1" * 5000], ids=["exponent", "5000-digit"]
    )
    def test_huge_token_exits_one(self, capsys, token):
        code, out, err = run_cli(capsys, "count", "%s %s" % (token, token))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
        reason="the budget follows the interpreter's digit limit, 4300 by default",
    )
    @pytest.mark.parametrize(
        "text, code",
        [
            (" ".join(["1/40"] * 14400), 1),  # a count of more than 4300 digits
            (" ".join("1/%d" % (10**97 + k) for k in range(60)), 1),  # such a total
            (" ".join(["180/7141"] * 14282), 0),  # the most equal sectors counted
        ],
        ids=["14400-sectors", "60-huge-denominators", "14282-sectors"],
    )
    def test_digit_budget(self, capsys, text, code):
        got, out, err = run_cli(capsys, "count", text, "--format", "json")
        assert got == code
        assert "Traceback" not in err
        if code == 0:
            assert json.loads(out)["count"]["value"] > 2**14000
        else:
            assert out == ""
            assert err.startswith("error: exact results for this star could exceed")

    def test_enumerate_fast_budget(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", "--fast", " ".join(["15"] * 24))
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == "error: 4992288 valid assignments exceed the listing limit of 100000\n"
        # the oracle's refusal suggests --fast only where --fast would run
        for m, hint in ((12, " (rerun with --fast)"), (24, "")):
            code, _, err = run_cli(capsys, "enumerate", " ".join(["15"] * m))
            limit = "%d sectors exceed the exhaustive-search limit of 10" % m
            assert (code, err) == (1, "error: %s%s\n" % (limit, hint))
        # a cone wider than one turn is refused by the oracle under the same
        # rule: --fast lists the 2 assignments of "200 200", and would refuse
        # the 4992288 of 24 x 20 (480 degrees)
        code, _, err = run_cli(capsys, "enumerate", "200 200")
        assert (code, err) == (
            1, "error: layer analysis supports sector totals up to one full turn"
               " (rerun with --fast)\n")
        code, out, _ = run_cli(capsys, "enumerate", "--fast", "200 200", "--format", "json")
        assert (code, json.loads(out)["count"]) == (0, 2)
        code, _, err = run_cli(capsys, "enumerate", " ".join(["20"] * 24))
        assert (code, err) == (1, "error: 24 sectors exceed the exhaustive-search limit of 10\n")

    def test_enumerate_fast_refuses_from_the_size(self, capsys, monkeypatch):
        # a closing star of 34 creases has at least 2^17 valid assignments:
        # neither --fast nor the oracle's hint rule replays the recursion
        monkeypatch.setattr(vertex, "_reductions", None)
        star = " ".join(["10"] * 34)
        code, out, err = run_cli(capsys, "enumerate", "--fast", star)
        assert (code, out) == (1, "")
        assert err == (
            "error: at least 131072 valid assignments exceed the listing limit of 100000\n")
        code, _, err = run_cli(capsys, "enumerate", star)
        assert (code, err) == (1, "error: 34 sectors exceed the exhaustive-search limit of 10\n")

    @pytest.mark.parametrize(
        "per_size, message",
        [
            ("-1", "error: --per-size must be at least 0, got -1\n"),
            ("201", "error: --per-size 201 exceeds the limit of 200\n"),
        ],
        ids=["negative", "above-limit"],
    )
    def test_selftest_per_size_budget(self, capsys, per_size, message):
        started = time.perf_counter()
        assert run_cli(capsys, "selftest", "--per-size", per_size) == (1, "", message)
        assert time.perf_counter() - started < 1.0

    def test_check_oracle_budget(self, capsys):
        angles = " ".join(["30"] * 13)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "check", angles, "--mv", "M" * 7 + "V" * 6, "--oracle")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == "error: 13 creases exceed the limit of 12 for --oracle\n"
        # without --oracle the search is skipped, and --oracle is not suggested
        angles = " ".join(["30"] * 14)
        code, out, _ = run_cli(capsys, "check", angles, "--mv", "M" * 8 + "V" * 6,
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["oracle"]["skipped"] == "beyond the exhaustive-search limit"

    def test_unexpected_exception_exits_two(self, capsys, monkeypatch):
        import flatfold.cli as climod

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(climod.vxmod, "count_mv", broken)
        code, out, err = run_cli(capsys, "count", "90,90,90,90")
        assert code == 2
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("broken", ["write", "flush"])
    def test_closed_stdout_exits_one_quietly(self, capsys, monkeypatch, tmp_path, broken):
        class ClosedPipe:
            # a reader that went away: the error shows on write, or only on
            # the flush when the report fits the buffer
            def __init__(self, sink):
                self.sink = sink

            def write(self, text):
                if broken == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.sink.fileno()

        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(sink))
            code = main(["count", "90,90,90,90"])
            monkeypatch.undo()
            # stdout's descriptor now points at devnull, so the flush at
            # exit has nowhere to fail
            assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_check_flags_disagreement(self, capsys, monkeypatch):
        import flatfold.cli as climod

        real = climod.oracle.oracle_is_valid
        monkeypatch.setattr(
            climod.oracle, "oracle_is_valid", lambda *args, **kw: not real(*args, **kw)
        )
        code, out, err = run_cli(capsys, "check", "90,90,90,90", "--mv", "MMMV",
                                 "--format", "json")
        assert code == 2
        report = json.loads(out)
        assert set(report) == {
            "command", "input", "assignment", "maekawa", "crimp_valid", "reason", "oracle"
        }
        assert report["crimp_valid"] is True
        assert report["oracle"] == {"ran": True, "valid": False, "skipped": None}
        assert err == "internal invariant violation: crimp reduction and the oracle disagree\n"

    def test_selftest_flags_disagreement(self, capsys, monkeypatch):
        import flatfold.cli as climod

        monkeypatch.setattr(climod.oracle, "oracle_count", lambda seq, **kw: -1)
        code, out, err = run_cli(capsys, "selftest", "--per-size", "1")
        assert code == 2
        assert "FAIL" in out
        assert "invariant" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("count", "40,40,60,40,40,60,40,40"), 0),
            (("analyze", "40,40,60,40,40,60,40,40"), 0),
            (("check", "40,40,60,40,40,60,40,40", "--mv", "MMMVMVMV"), 0),
            (("check", "40,40,60,40,40,60,40,40", "--mv", "MMMVMVMV", "--oracle"), 0),
            (("enumerate", "40,40,60,40,40,60,40,40"), 0),
            (("enumerate", "--fast", "40,40,60,40,40,60,40,40"), 0),
            (("pattern", "check", "PATTERN"), 0),
            (("selftest", "--per-size", "1"), 0),
            (("count", "90 ninety 90 90"), 1),
            (("count", "90 90 90"), 0),
            (("enumerate", "90 90 90"), 0),
            (("check", "90,90,90,90", "--mv", "MMV"), 1),
            (("pattern", "check", "MISSING"), 1),
        ],
        ids=["count", "analyze", "check", "check-oracle", "enumerate", "enumerate-fast",
             "pattern-check", "selftest", "parse-error", "odd-count", "odd-enumerate",
             "label-count", "missing-file"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_leaves_no_cyclic_garbage(self, capsys, tmp_path, argv, code, fmt):
        # every request's objects are freed by reference counting: none is
        # left in a cycle for the collector
        paths = {"PATTERN": write_pattern(tmp_path, VALID_DOC), "MISSING": str(tmp_path / "no.json")}
        argv = [paths.get(a, a) for a in argv] + ["--format", fmt]
        run_cli(capsys, *argv)  # first use fills caches and imports
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == code
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()


# tokens of the command lines that parse_argv and the reference parser must
# read alike: command names, every option, unique and ambiguous prefixes, `=`
# forms, `--`, unknown options, and values of every kind, `-<digit>` ones
# among them
_COMMAND_TOKENS = ["analyze", "count", "check", "enumerate", "pattern", "selftest",
                   "svg", "bogus", "--"]
_ARGV_TOKENS = _COMMAND_TOKENS + [
    "--format", "--fo", "--f", "--format=json", "--form=text", "--format=xml", "--format=",
    "--mv", "--m", "--mv=MMMV", "--mv=", "--oracle", "--or", "--o", "--oracle=x",
    "--fast", "--fa", "--fast=", "--output", "--out", "--output=o.svg", "-o", "-o=o.svg",
    "-oo.svg", "--seed", "--s", "--seed=3", "--per-size", "--per", "--p", "--per-size=2",
    "--bogus", "--bogus=1", "-x", "--", "--", "--mv MM", "--fo=a b", "-o=", "--seed=-5",
    "90,90,90,90", "90 90 90 90", "MMMV", "json", "text", "xml", "5", "1e3", "-5", "-.5",
    "-90,90", "-9x", "-", "", "a=b", "-x y", "f.json",
]
# the negative numbers that argparse reads as values
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_FIELDS = ("command", "pattern_command", "angles", "file", "format", "mv", "oracle", "fast",
           "output", "seed", "per_size", "func", "text")


def _parsed(parse, argv):
    try:
        return parse(argv)
    except ParseError:
        return None


class TestParseArgv:
    @settings(max_examples=1500, deadline=None)
    @given(
        st.lists(st.sampled_from(_COMMAND_TOKENS), max_size=2),
        st.lists(st.sampled_from(_ARGV_TOKENS), max_size=7),
    )
    @example(["check"], ["90,90,90,90", "--mv", "--", "MMMV"])
    @example(["count"], ["x", "--format", "json", "--"])
    @example(["count"], ["--format=json", "--", "x"])
    @example(["analyze"], ["--", "x", "--"])
    @example(["count"], ["-90,90"])
    @example(["pattern", "svg"], ["f.json", "-o", "-9x"])
    @example(["pattern", "svg"], ["-oo.svg", "-o", "-90,90", "--o", "5", "check"])
    def test_accepts_what_the_reference_parser_accepts(self, head, tail):
        # the one difference: a token of `-` and a digit or `.` is a value,
        # where argparse takes it for an unknown option unless it reads as a
        # number. The reference sees each such token as a plain value.
        argv = head + tail
        plain = {t: "value%d" % i for i, t in enumerate(argv)
                 if t[:1] == "-" and t[1:2] in ".0123456789" and not _NUMBER.match(t)}
        want = _parsed(build_parser().parse_args, [plain.get(t, t) for t in argv])
        got = _parsed(parse_argv, argv)
        assert (got is None) == (want is None)
        if got is None:
            return
        back = {v: t for t, v in plain.items()}
        assert set(vars(got)) == set(vars(want)) <= set(_FIELDS)
        for field in set(vars(got)) - {"text"}:
            assert getattr(got, field) == back.get(getattr(want, field), getattr(want, field))
        report = {"wrote": "out.svg", "cases": [], "sequences": 0, "failures": 0}
        assert got.text(report) == want.text(report)

    @pytest.mark.parametrize("argv, message", [
        (["check", "90,90,90,90"], "the following arguments are required: --mv"),
        (["count", "90,90,90,90", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'analyze', "
                    "'count', 'check', 'enumerate', 'pattern', 'selftest')"),
        (["count", "90,90,90,90", "extra"], "unrecognized arguments: extra"),
        (["selftest", "--per-size", "1e3"], "argument --per-size: invalid int value: '1e3'"),
        (["count"], "the following arguments are required: angles"),
        (["pattern", "svg", "f.json", "-o"], "argument -o/--output: expected one argument"),
        (["enumerate", "--f", "90,90,90,90"],
         "ambiguous option: --f could match --format, --fast"),
        (["enumerate", "--fast=x", "90,90,90,90"],
         "argument --fast: ignored explicit argument 'x'"),
    ], ids=["missing-mv", "bad-format", "unknown-command", "extra-positional",
            "per-size-exponent", "missing-angles", "missing-value", "ambiguous-prefix",
            "flag-with-value"])
    def test_usage_error_messages(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize("argv, names", [
        (["-h"], ["analyze", "count", "check", "enumerate", "pattern", "selftest"]),
        (["--he"], ["analyze", "count", "check", "enumerate", "pattern", "selftest"]),
        (["check", "--help"], ["--mv", "--oracle", "--format", "angles"]),
        (["check", "90,90,90,90", "-h", "--mv"], ["--mv", "--oracle"]),
        (["pattern", "-h"], ["check", "svg"]),
        (["pattern", "svg", "--help"], ["-o, --output", "file"]),
        (["selftest", "--h"], ["--seed", "--per-size"]),
    ])
    def test_help_prints_and_returns_zero(self, capsys, argv, names):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: flatfold")
        for name in names:
            assert name in out

    @pytest.mark.parametrize("argv", [["count", "-90,90"], ["check", "-90,270", "--mv", "MM"]])
    def test_negative_angle_reaches_the_angle_parser(self, capsys, argv):
        assert run_cli(capsys, *argv) == (
            1, "", "error: non-positive angle '-90' at position 1\n"
        )
