"""Command-line front end: parse inputs, run analyses, emit reports.

`parse_argv` reads a command line against `COMMANDS`, one table of every
command's positional, options, defaults and help. The command (``pattern``
and its subcommand) comes first; options may follow anywhere, as ``--opt
VALUE``, ``--opt=VALUE`` or a unique prefix of the option, and the last of a
repeated option wins. ``-o`` stands for ``--output``, also as ``-oVALUE``.
``--`` ends the options just before or after the positional. A token of
``-`` followed by a digit or ``.`` is a value, so ``-90,90`` reaches the
angle parser. ``-h`` or ``--help``, first or after any command, prints that
level's help from the table.

Each ``cmd_*`` returns ``(report, violation)`` and prints nothing; a violation
is the message of a disagreement between two deciders. `main` renders the
report once, as JSON or as the text lines of the renderer stored beside
``--format``; help is rendered the same way. Exit codes: 0 when the analysis
ran (negative mathematical verdicts are results, not failures) or help was
printed, 1 for usage/parse errors and for a closed stdout, 2 for internal
invariant violations such as the oracle and the recursion disagreeing in
``selftest``, and for any unexpected exception, which is reported without a
traceback.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Optional

from . import corpus, oracle, pattern as patmod, vertex as vxmod
from .core import (
    AngleSequence,
    CreasePattern,
    MVAssignment,
    MVLabel,
    _sector_name,
    normalize_pattern,
)
from .errors import (
    CapacityError,
    FlatFoldError,
    LocalMaekawaError,
    NotFlatFoldableError,
    ParseError,
    SchemaError,
    UnsupportedError,
)

_NECESSARY_ONLY = (
    "necessary only: these checks can prove a pattern unfoldable, never "
    "foldable; no flat-foldability claim is made"
)


# --------------------------------------------------------------------------
# parsing

# Longest accepted number token, of an angle list or a pattern file.
# Exponent notation is refused outright: a short token such as 1e5000 stands
# for a number too long to report, and 1e-3000000 for one too long to compute
# with. Every number of at most 100 characters also fits a float.
_MAX_TOKEN_CHARS = 100


# An angle list whose every token is plain: ASCII digits, with at most one
# "/" or "." between two of them. `parse_angles` tests a whole list at C
# speed and reads a plain one without `Fraction`.
_PLAIN_ANGLES = re.compile(r"\s*[0-9]+(?:[./][0-9]+)?(?:\s+[0-9]+(?:[./][0-9]+)?)*\s*")


def parse_angles(text: str) -> AngleSequence:
    """Comma/space-separated angles: integers, finite decimals, or p/q.

    A list of plain tokens (`_PLAIN_ANGLES`), none longer than
    `_MAX_TOKEN_CHARS`, is read with `partition` and `int`, and with no gcd
    per token: `AngleSequence` reduces the star once. Any other list goes token
    by token through `Fraction`, which also reads ``+90``, ``.5``, ``1_0`` and
    non-ASCII digits, and is refused at its first bad token.
    """
    spaced = text.replace(",", " ")
    tokens = spaced.split()
    if not tokens:
        raise ParseError("no angles given")
    nums, dens = [], []
    if max(map(len, tokens)) <= _MAX_TOKEN_CHARS and _PLAIN_ANGLES.fullmatch(spaced):
        for tok in tokens:
            a, slash, b = tok.partition("/")
            if slash:
                nums.append(int(a))
                dens.append(int(b))
            elif "." in a:
                a, _, b = a.partition(".")
                nums.append(int(a + b))
                dens.append(10 ** len(b))
            else:
                nums.append(int(a))
                dens.append(1)
        if 0 in nums or 0 in dens:  # 0/0 and 5/0 are malformed, 0/5 and 0.0 non-positive
            i = next(i for i, pair in enumerate(zip(nums, dens)) if 0 in pair)
            raise ParseError("%s angle %r at position %d"
                             % ("non-positive" if dens[i] else "malformed", tokens[i], i + 1))
    else:
        for i, tok in enumerate(tokens):
            if len(tok) > _MAX_TOKEN_CHARS:
                raise ParseError(
                    "angle at position %d is longer than %d characters"
                    % (i + 1, _MAX_TOKEN_CHARS)
                )
            if "e" in tok.lower():
                raise ParseError(
                    "exponent notation is not accepted: %r at position %d" % (tok, i + 1)
                )
            try:
                value = Fraction(tok)
            except (ValueError, ZeroDivisionError):
                raise ParseError("malformed angle %r at position %d" % (tok, i + 1)) from None
            if value <= 0:
                raise ParseError("non-positive angle %r at position %d" % (tok, i + 1))
            nums.append(value.numerator)
            dens.append(value.denominator)
    den = math.lcm(*dens)
    v = AngleSequence(map(operator.mul, nums, map(den.__floordiv__, dens)), den)
    # Refuse a star whose exact results may not print. A count is below
    # 2^(m+1); a total or residual has a denominator dividing the LCM of the
    # denominators and a numerator at most the total scaled by that LCM. A
    # number of b bits has at most b * 0.30103 + 1 digits, as log10(2) < 0.30103.
    bits = max(len(v) + 1, v.den.bit_length(), sum(v.ints).bit_length())
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # read, never set
    if limit and bits * 30103 // 100000 + 1 > limit:
        raise ParseError(
            "exact results for this star could exceed %d decimal digits, the "
            "interpreter's limit for printing an integer" % limit
        )
    return v


def parse_assignment(text: str) -> MVAssignment:
    try:
        return MVAssignment.from_string(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _pattern_number(token: str, what: str) -> str:
    """A number token of a pattern file, under the rules of angle tokens."""
    if len(token) > _MAX_TOKEN_CHARS:
        raise SchemaError("a %s is longer than %d characters" % (what, _MAX_TOKEN_CHARS))
    if "e" in token.lower():
        raise SchemaError("exponent notation is not accepted in a %s: %r" % (what, token))
    return token


def _pattern_int(token: str) -> int:
    """A JSON int token, which cannot hold an exponent: only its length is checked."""
    if len(token) > _MAX_TOKEN_CHARS:
        raise SchemaError("a number is longer than %d characters" % _MAX_TOKEN_CHARS)
    return int(token)


def _coerce_coordinate(value: Any) -> int | Fraction:
    """An int stays an int and a `Fraction` a `Fraction`: both are exact."""
    # `type`, not `isinstance`, here and for indices: JSON true is an int
    if type(value) in (int, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(_pattern_number(value, "coordinate"))
        except (ValueError, ZeroDivisionError):
            raise SchemaError("bad coordinate %r" % (value,)) from None
    raise SchemaError("bad coordinate %r" % (value,))


def parse_pattern(path: str) -> CreasePattern:
    """Load, validate, and normalize a crease-pattern JSON document.

    Schema: {"vertices": [[x, y], ...], "creases": [[i, j], ...],
    "boundary": [i, ...], "assignment": ["M"|"V", ...] (optional)} with
    coordinates as numbers or rational strings; decimals parse exactly, and
    an integer stays an `int`.
    Numbers follow the rules of angle tokens: at most `_MAX_TOKEN_CHARS`
    characters and no exponent.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(
                fh,
                parse_int=_pattern_int,
                parse_float=lambda t: Fraction(_pattern_number(t, "number")),
            )
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise SchemaError("invalid JSON in %s: %s" % (path, exc)) from None
    except RecursionError:
        raise SchemaError("invalid JSON in %s: nested too deeply" % path) from None
    if not isinstance(data, dict):
        raise SchemaError("the pattern document must be a JSON object")
    for key in ("vertices", "creases", "boundary"):
        if key not in data:
            raise SchemaError("missing %r" % key)
        if not isinstance(data[key], list):
            raise SchemaError("%r must be a list" % key)
    points = []
    for entry in data["vertices"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError("each vertex must be an [x, y] pair")
        points.append((_coerce_coordinate(entry[0]), _coerce_coordinate(entry[1])))
    creases = []
    for entry in data["creases"]:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(type(i) is int for i in entry)
        ):
            raise SchemaError("each crease must be an [i, j] index pair")
        creases.append((entry[0], entry[1]))
    if not all(type(i) is int for i in data["boundary"]):
        raise SchemaError("the boundary must list vertex indices")
    assignment = None
    if data.get("assignment") is not None:
        if not isinstance(data["assignment"], list):
            raise SchemaError("the assignment must be a list of labels")
        if len(data["assignment"]) != len(creases):
            raise SchemaError(
                "assignment has %d labels for %d creases"
                % (len(data["assignment"]), len(creases))
            )
        try:
            assignment = MVAssignment(tuple(str(l).upper() for l in data["assignment"]))
        except ValueError:
            raise SchemaError("assignment labels must be 'M' or 'V'") from None
    try:
        built = CreasePattern.build(points, creases, data["boundary"], assignment)
        return normalize_pattern(built)
    except (IndexError, TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


# --------------------------------------------------------------------------
# SVG output


_SVG_STYLE = (
    ".boundary{fill:none;stroke:#000;stroke-width:1.2}"
    ".crease{fill:none;stroke-width:0.8}"
    ".mountain{stroke:#b22;stroke-dasharray:9 3 1.5 3}"
    ".valley{stroke:#24e;stroke-dasharray:6 4}"
    ".plain{stroke:#555;stroke-width:0.4}"
)


def _fmt(value) -> str:
    return "%.6g" % float(value)


def emit_svg(p: CreasePattern, out_path: str) -> None:
    """Deterministic SVG: solid boundary, dash-dot mountains, dashed valleys,
    thin solid unassigned creases, viewBox fitted with a 5% margin."""
    xs = [float(p.point(i)[0]) for i in p.boundary]
    ys = [float(p.point(i)[1]) for i in p.boundary]
    margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    vb = (
        min(xs) - margin,
        min(ys) - margin,
        (max(xs) - min(xs)) + 2 * margin,
        (max(ys) - min(ys)) + 2 * margin,
    )
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="%s %s %s %s">' % tuple(_fmt(c) for c in vb),
        "<style>%s</style>" % _SVG_STYLE,
        '<polygon class="boundary" points="%s"/>'
        % " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in zip(xs, ys)),
    ]
    for ci in range(len(p.creases)):
        (x1, y1), (x2, y2) = p.crease_points(ci)
        if p.assignment is None:
            cls = "crease plain"
        elif p.assignment[ci] is MVLabel.MOUNTAIN:
            cls = "crease mountain"
        else:
            cls = "crease valley"
        lines.append(
            '<line class="%s" x1="%s" y1="%s" x2="%s" y2="%s"/>'
            % (cls, _fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2))
        )
    lines.append("</svg>")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise SchemaError("cannot write %s: %s" % (out_path, exc)) from None


# --------------------------------------------------------------------------
# reports


def _text_lines(value: Any, prefix: str = "") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list, tuple)) and sub:
                lines.append("%s%s:" % (prefix, key))
                lines.extend(_text_lines(sub, prefix + "  "))
            else:
                lines.append("%s%s: %s" % (prefix, key, _scalar(sub)))
    else:
        for item in value:
            if isinstance(item, (dict, list, tuple)):
                lines.append("%s-" % prefix)
                lines.extend(_text_lines(item, prefix + "  "))
            else:
                lines.append("%s- %s" % (prefix, _scalar(item)))
    return lines


# The characters that `json.encoder.encode_basestring_ascii` copies as they
# are: printable ASCII but '"' and '\\'. It escapes every other one.
_UNESCAPED = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def _json(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    The indenting encoder of `json` is pure Python, and a count report is
    mostly residuals: lists of sector strings, each repeating most of the one
    before. Here each dict or list level is one join, and each string is
    escaped by the encoder's own `encode_basestring_ascii`, except in a list
    of plain strings that it leaves as they are (`_UNESCAPED`), such as a
    residual: that list is joined whole with its quotes in the separator
    (`json` encodes a subclass of str there by its data). A list of ints
    only, not bools, is joined whole too, and a dict value that is a str or
    an int is rendered in the dict's own loop. Floats, and other subclasses
    of str and int, go to `json.dumps`.
    """
    return _render(value, "\n")


_escape = json.encoder.encode_basestring_ascii


def _render(value: Any, indent: str) -> str:
    """`_json` of ``value`` at the nesting of ``indent``: a module function
    rather than a closure, so that rendering leaves no reference cycle."""
    if type(value) is str:
        return _escape(value)
    if type(value) is int:  # not bool
        return int.__repr__(value)
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    inner = indent + "  "
    parts = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            parts += (",", inner, _escape(key), ": ", _escape(item) if kind is str
                      else int.__repr__(item) if kind is int else _render(item, inner))
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        try:  # a list of strings, or TypeError at its first other item
            whole = "".join(value)
        except TypeError:
            if set(map(type, value)) == {int}:  # a bool is not an int here
                return "".join(("[", inner, ("," + inner).join(map(int.__repr__, value)), indent, "]"))
            items = (_render(item, inner) for item in value)
        else:
            if value and whole.isascii() and not whole.encode().translate(None, _UNESCAPED):
                quoted = ('",' + inner + '"').join(value)
                return "".join(("[", inner, '"', quoted, '"', indent, "]"))
            items = map(_escape, value)
        for item in items:
            parts += (",", inner, item)
        brackets = "[]"
    else:
        return json.dumps(value)
    if not parts:
        return brackets
    parts[0] = brackets[0]
    parts += (indent, brackets[1])
    return "".join(parts)


def _scalar(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return "[]" if value == () else str(value)  # an empty tuple reads as a list


_NO_FOLDINGS = "no flat foldings: the closure condition fails"

Result = tuple[dict, Optional[str]]


def _input_block(v: AngleSequence) -> dict:
    """The star as reported: ``angles`` is the tuple of its sectors' names."""
    return {
        "angles": tuple(v.as_strings()),
        "creases": len(v),
        "total": _sector_name(sum(v.ints), v.den),
        "kind": v.kind,
    }


def _count_block(v: AngleSequence, sectors: tuple) -> Result:
    """The count of ``v``, whose sectors are named ``sectors``; each residual's
    names are spliced as its sectors were, so only its new head is named."""
    try:
        result = vxmod.count_mv(v)
    except NotFlatFoldableError:
        return None, _NO_FOLDINGS
    steps = []
    for start, length, factor, residual, _ in result.trace:
        sectors = vxmod._splice(sectors, start, length - 1, _sector_name(residual[0], v.den))
        steps.append({"start": start, "length": length, "factor": factor, "residual": sectors})
    return (
        {
            "value": result.count,
            "base": result.base,
            "factors": result.factors,
            "trace": steps,
        },
        None,
    )


def cmd_count(args) -> Result:
    """``count``, and ``analyze``, which adds degree parity, closure and bounds."""
    v = parse_angles(args.angles)
    even = len(v) % 2 == 0
    report: dict[str, Any] = {"command": args.command, "input": _input_block(v)}
    if args.command == "analyze":
        report["degree_even"] = even
        report["kawasaki"] = vxmod.kawasaki(v)
        report["bounds"] = None
        if even:
            lo, hi = vxmod.bounds(v)
            report["bounds"] = {"lower": lo, "upper": hi}
    if even:
        report["count"], report["reason"] = _count_block(v, report["input"]["angles"])
    else:
        report["count"] = None
        report["reason"] = "odd degree: flat-foldable vertices have even degree"
    return report, None


# `check --oracle` searches layer orders for one assignment, at a cost that
# grows exponentially with the creases: on random stars (2-vCPU VM, Python
# 3.11) a search took up to 0.4 s at 12 and 14 creases, up to 12 s at 16 and 20
FORCED_ORACLE_LIMIT = 12


def cmd_check(args) -> Result:
    v = parse_angles(args.angles)
    mv = parse_assignment(args.mv)
    if len(mv) != len(v):
        raise ParseError(
            "assignment labels %d creases but the vertex has %d" % (len(mv), len(v))
        )
    if args.oracle and len(v) > FORCED_ORACLE_LIMIT:
        raise CapacityError(
            "%d creases exceed the limit of %d for --oracle"
            % (len(v), FORCED_ORACLE_LIMIT)
        )
    report: dict[str, Any] = {
        "command": "check",
        "input": _input_block(v),
        "assignment": str(mv),
        "maekawa": vxmod.maekawa_check(mv),
    }
    try:
        report["crimp_valid"] = vxmod.crimp_validity(v, mv)
        report["reason"] = None
    except NotFlatFoldableError:
        report["crimp_valid"] = False
        report["reason"] = _NO_FOLDINGS
    oracle_block: dict[str, Any] = {"ran": False, "valid": None, "skipped": None}
    limit = len(v) if args.oracle else oracle.DEFAULT_LIMIT
    try:
        oracle_block["valid"] = oracle.oracle_is_valid(v, mv, limit=limit)
        oracle_block["ran"] = True
    except CapacityError:
        hint = " (use --oracle)" if len(v) <= FORCED_ORACLE_LIMIT else ""
        oracle_block["skipped"] = "beyond the exhaustive-search limit" + hint
    except UnsupportedError as exc:
        oracle_block["skipped"] = str(exc)
    report["oracle"] = oracle_block
    disagree = oracle_block["ran"] and oracle_block["valid"] != report["crimp_valid"]
    return report, "crimp reduction and the oracle disagree" if disagree else None


def cmd_enumerate(args) -> Result:
    v = parse_angles(args.angles)
    report: dict[str, Any] = {"command": "enumerate", "input": _input_block(v)}
    if args.fast:
        # the name of the crimp filter that --fast ran before: the list is
        # the same, and scripts match on the name
        report["method"] = "crimp-filter"
        try:
            valid = vxmod.enumerate_words(v)
        except NotFlatFoldableError:
            valid = []
    else:
        report["method"] = "oracle"
        try:
            valid = [str(mv) for mv in oracle.enumerate_valid(v)]
        except (CapacityError, UnsupportedError) as exc:
            # --fast lists nothing for a star that does not close, and at
            # least the lower bound for one that does: a large star is
            # refused without counting it. A cone wider than one turn is
            # beyond the oracle but not beyond the recursion
            if vxmod.kawasaki(v) and (
                vxmod.bounds(v)[0] > vxmod.ENUMERATE_LIMIT
                or vxmod.count_mv(v).count > vxmod.ENUMERATE_LIMIT
            ):
                raise
            raise ParseError("%s (rerun with --fast)" % exc) from None
    report["valid_assignments"] = valid
    report["count"] = len(valid)
    return report, None


def cmd_pattern_check(args) -> Result:
    p = parse_pattern(args.file)
    local, traces = {}, {}
    for vid, chk in patmod.local_kawasaki_all(p).items():
        passes = chk.passes  # the verdict, read once
        angles = None if chk.angles is None else list(chk.angles)
        key = str(vid)
        local[key] = {"passes": passes, "exact": angles is not None, "angles": angles}
        traces[key] = {"creases_crossed": list(chk.curve), "is_identity": passes,
                       "reason": None if passes else chk.trace.failure_reason}
    report: dict[str, Any] = {
        "command": "pattern-check",
        "vertices": len(p.vertices),
        "creases": len(p.creases),
        "interior_vertices": p.interior_vertex_ids(),
        "split_vertices": sorted(p.split_vertices),
        "local_kawasaki": local,
        "reflection_traces": traces,
        "scope": _NECESSARY_ONLY,
    }
    if p.assignment is None:
        report["generalized_maekawa"] = {
            "evaluated": False,
            "reason": "no assignment present",
        }
    else:
        try:
            tally, holds = patmod.generalized_maekawa(p)
            report["generalized_maekawa"] = {
                "evaluated": True,
                "holds": holds,
                "tally": dataclasses.asdict(tally),
                "convention": (
                    "split border-to-border pairs count as one bookkeeping "
                    "crease: excluded from the tallies and from up/down"
                ),
            }
        except LocalMaekawaError as exc:
            report["generalized_maekawa"] = {
                "evaluated": False,
                "reason": "local M-V parity fails",
                "violating_vertices": list(exc.vertex_ids),
            }
    return report, None


def cmd_pattern_svg(args) -> Result:
    p = parse_pattern(args.file)
    emit_svg(p, args.output)
    return {"command": "pattern-svg", "wrote": args.output}, None


# `selftest` compares the recursion with the oracle on 4 x per_size corpus
# stars of up to 8 sectors, about 25 ms each (2-vCPU VM, Python 3.11)
SELFTEST_PER_SIZE_LIMIT = 200


def cmd_selftest(args) -> Result:
    if args.per_size < 0:
        raise ParseError("--per-size must be at least 0, got %d" % args.per_size)
    if args.per_size > SELFTEST_PER_SIZE_LIMIT:
        raise CapacityError(
            "--per-size %d exceeds the limit of %d"
            % (args.per_size, SELFTEST_PER_SIZE_LIMIT)
        )
    named = [
        AngleSequence((90, 90, 90, 90)),
        AngleSequence((20, 10, 40, 50, 60, 60, 60, 60)),
        AngleSequence((100, 80, 80, 100)),
        AngleSequence((40, 60, 140, 120)),
    ]
    sequences = named + corpus.corpus_sequences(
        seed=args.seed, per_size=args.per_size, sizes=(2, 4, 6, 8)
    )
    cases = []
    for seq in sequences:
        fast = vxmod.count_mv(seq).count
        slow = oracle.oracle_count(seq)
        cases.append(
            {"angles": seq.as_strings(), "recursion": fast, "oracle": slow, "ok": fast == slow}
        )
    failures = sum(not case["ok"] for case in cases)
    report = {
        "command": "selftest",
        "cases": cases,
        "sequences": len(sequences),
        "failures": failures,
    }
    return report, "recursion and oracle disagree" if failures else None


def _selftest_lines(report: dict) -> list[str]:
    """One line per case, then the summary."""
    return [
        "%s 2n=%d [%s] recursion=%d oracle=%d"
        % ("ok  " if c["ok"] else "FAIL", len(c["angles"]), ",".join(c["angles"]),
           c["recursion"], c["oracle"])
        for c in report["cases"]
    ] + ["selftest: %d sequences, %d failures" % (report["sequences"], report["failures"])]


# --------------------------------------------------------------------------
# argument parsing: `parse_argv` reads a command line against one table

# kind: None for a flag; int or str converts the value; a tuple holds the choices
_Opt = namedtuple("_Opt", "names field kind help default required", defaults=(None, False))
# options: each option string, -h and --help among them, to its _Opt; fields:
# the defaults, func and text that a command line starts from
_Command = namedtuple("_Command", "help positional options fields")
_Group = namedtuple("_Group", "help commands")
_HELP = _Opt(("-h", "--help"), "help", None, "show this help")
_FORMAT = _Opt(("--format",), "format", ("text", "json"), "report format", "text")
_ANGLES = ("angles", 'sector angles, e.g. "90,90,90,90"')
_FILE = ("file", "crease-pattern JSON document")


def _command(help_text, func, positional, *options, text=_text_lines) -> _Command:
    fields = {positional[0]: None} if positional else {}
    fields.update(format="text", func=func, text=text)
    fields.update((o.field, o.default) for o in options)
    table = {name: o for o in (*options, _HELP) for name in o.names}
    return _Command(help_text, positional, table, fields)


COMMANDS = _Group("Flat-foldability analysis for origami crease patterns.", {
    "analyze": _command("closure, parity, bounds, and count", cmd_count, _ANGLES, _FORMAT),
    "count": _command("count valid assignments", cmd_count, _ANGLES, _FORMAT),
    "check": _command(
        "check one mountain-valley assignment", cmd_check, _ANGLES, _FORMAT,
        _Opt(("--mv",), "mv", str, "labels such as MMVM", required=True),
        _Opt(("--oracle",), "oracle", None, "force the exhaustive oracle beyond its default "
             "size limit, up to %d creases" % FORCED_ORACLE_LIMIT, False)),
    "enumerate": _command(
        "list all valid assignments", cmd_enumerate, _ANGLES, _FORMAT,
        _Opt(("--fast",), "fast", None, "list from the counting recursion instead of the "
             "exhaustive oracle, up to %d assignments" % vxmod.ENUMERATE_LIMIT, False)),
    "pattern": _Group("multi-vertex pattern tools", {
        "check": _command("necessary-condition report", cmd_pattern_check, _FILE, _FORMAT),
        "svg": _command("render the pattern as SVG", cmd_pattern_svg, _FILE,
                        _Opt(("-o", "--output"), "output", str, "SVG file to write", required=True),
                        text=lambda report: ["wrote %s" % report["wrote"]])}),
    "selftest": _command(
        "recursion-vs-oracle corpus check", cmd_selftest, None, _FORMAT,
        _Opt(("--seed",), "seed", int, "corpus seed", 20250810),
        _Opt(("--per-size",), "per_size", int,
             "corpus stars per size, 0 to %d" % SELFTEST_PER_SIZE_LIMIT, 6), text=_selftest_lines),
})


def _option(tok: str, options: dict) -> Optional[tuple]:
    """``(option, attached value or None)``, ``(None, None)`` for an unknown
    option, or None for a value (see the module docstring)."""
    if tok in options:
        return options[tok], None
    c = tok[1:2]
    if tok[:1] != "-" or c in ("", ".") or c.isdecimal() or tok == "--":
        return None
    if c != "-":  # -oVALUE, -o=VALUE
        if tok[:2] in options:
            return options[tok[:2]], tok[3:] if tok[2] == "=" else tok[2:]
    else:  # --option=VALUE, or a unique prefix of an option
        name, eq, value = tok.partition("=")
        hits = [name] if name in options else [o for o in options if o.startswith(name)]
        if len(hits) > 1:
            raise ParseError("ambiguous option: %s could match %s" % (tok, ", ".join(hits)))
        if hits:
            return options[hits[0]], value if eq else None
    return None if " " in tok else (None, None)  # "-a b" is a value


def _help(prog: str, spec) -> SimpleNamespace:
    """A command line that reports the help of ``spec``, read off the table."""
    if isinstance(spec, _Group):
        usage = " COMMAND ..."
        rows = [(n, sub.help) for n, sub in spec.commands.items()] + [("-h, --help", _HELP.help)]
    else:
        usage = " [options]" + (" " + spec.positional[0].upper() if spec.positional else "")
        rows = [spec.positional] if spec.positional else []
        for o in dict.fromkeys(spec.options.values()):
            arg = "" if o.kind is None else " " + (
                "{%s}" % ",".join(o.kind) if isinstance(o.kind, tuple) else o.field.upper())
            rows.append((", ".join(o.names) + arg, o.help + " (required)" * o.required))
    width = max(len(name) for name, _ in rows)
    text = "\n".join(["usage: " + prog + usage, "", spec.help, ""]
                     + ["  %-*s  %s" % (width, name, what) for name, what in rows])
    return SimpleNamespace(func=lambda args: (text, None), format="text", text=lambda t: [t])


def parse_argv(argv: list[str]) -> SimpleNamespace:
    """The fields of one command line, read against `COMMANDS` by the grammar
    in the module docstring; ``-h`` gives one whose report is the help."""
    spec, dest, prog, fields, i, n = COMMANDS, "command", "flatfold", {}, 0, len(argv)
    while isinstance(spec, _Group):
        name = argv[i] if i < n else ""
        if _option(name, {"-h": _HELP, "--help": _HELP}) == (_HELP, None):
            return _help(prog, spec)
        if name not in spec.commands:
            raise ParseError("argument %s: invalid choice: %r (choose from %s)" % (
                dest, name, ", ".join(map(repr, spec.commands))) if i < n
                else "the following arguments are required: %s" % dest)
        fields[dest], spec, dest = name, spec.commands[name], "pattern_command"
        prog, i = prog + " " + name, i + 1
    fields.update(spec.fields)
    options, positional, ended, filled = spec.options, spec.positional, False, -1
    while i < n:
        tok, i = argv[i], i + 1
        dash = tok == "--" and not ended  # it ends the options next to the positional
        found = None if ended or dash else _option(tok, options)
        if found is None and (not positional or filled >= 0 and not (dash and filled == i - 2)):
            raise ParseError("unrecognized arguments: %s" % tok)  # a value too many
        if dash:
            ended = True
        elif found is None:
            fields[positional[0]], filled = tok, i - 1
        elif found[0] is None:
            raise ParseError("unrecognized arguments: %s" % tok)
        else:
            opt, value = found
            name = "/".join(opt.names)
            if opt is _HELP and value is None:
                return _help(prog, spec)
            if opt.kind is None:
                if value is not None:
                    raise ParseError("argument %s: ignored explicit argument %r" % (name, value))
                value = True
            elif value is None:
                if i == n or argv[i] == "--" or _option(argv[i], options) is not None:
                    raise ParseError("argument %s: expected one argument" % name)
                value, i = argv[i], i + 1
            if opt.kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise ParseError("argument %s: invalid int value: %r" % (name, value)) from None
            elif isinstance(opt.kind, tuple) and value not in opt.kind:
                raise ParseError("argument %s: invalid choice: %r (choose from %s)"
                                 % (name, value, ", ".join(map(repr, opt.kind))))
            fields[opt.field] = value
    missing = [k for k, v in fields.items() if v is None]
    if missing:
        names = {o.field: "/".join(o.names) for o in options.values()}
        raise ParseError("the following arguments are required: %s"
                         % ", ".join(names.get(k, k) for k in missing))
    return SimpleNamespace(**fields)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        report, violation = args.func(args)
        print(_json(report) if args.format == "json" else "\n".join(args.text(report)))
        sys.stdout.flush()
    except FlatFoldError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not a bug. Point stdout at
        # devnull so that the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except Exception as exc:  # a bug, but never a traceback: exit code 2
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    if violation is None:
        return 0
    print("internal invariant violation: %s" % violation, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
