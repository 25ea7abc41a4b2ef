"""The argparse command-line parser that `flatfold.cli.parse_argv` replaced.

Kept as the reference that `test_cli.TestParseArgv` compares the command
table against: both must accept the same command lines and give the same
fields.
"""

import argparse
import functools

from flatfold import vertex as vxmod
from flatfold.cli import (
    FORCED_ORACLE_LIMIT,
    SELFTEST_PER_SIZE_LIMIT,
    _selftest_lines,
    _text_lines,
    cmd_check,
    cmd_count,
    cmd_enumerate,
    cmd_pattern_check,
    cmd_pattern_svg,
    cmd_selftest,
)
from flatfold.errors import ParseError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise ParseError(message)


def _add_format(sub, text=_text_lines) -> None:
    """``--format``, and beside it the renderer of the text format."""
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    sub.set_defaults(text=text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = _Parser(
        prog="flatfold",
        description="Flat-foldability analysis for origami crease patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    angle_commands = {}
    for name, help_text, func in (
        ("analyze", "closure, parity, bounds, and count", cmd_count),
        ("count", "count valid assignments", cmd_count),
        ("check", "check one mountain-valley assignment", cmd_check),
        ("enumerate", "list all valid assignments", cmd_enumerate),
    ):
        cmd = angle_commands[name] = sub.add_parser(name, help=help_text)
        cmd.add_argument("angles", help='sector angles, e.g. "90,90,90,90"')
        _add_format(cmd)
        cmd.set_defaults(func=func)
    angle_commands["check"].add_argument("--mv", required=True, help="labels such as MMVM")
    angle_commands["check"].add_argument(
        "--oracle",
        action="store_true",
        help="force the exhaustive oracle beyond its default size limit, up to %d creases"
        % FORCED_ORACLE_LIMIT,
    )
    angle_commands["enumerate"].add_argument(
        "--fast",
        action="store_true",
        help="list from the counting recursion instead of the exhaustive oracle, "
        "up to %d assignments" % vxmod.ENUMERATE_LIMIT,
    )

    p_pattern = sub.add_parser("pattern", help="multi-vertex pattern tools")
    psub = p_pattern.add_subparsers(dest="pattern_command", required=True)
    p_pcheck = psub.add_parser("check", help="necessary-condition report")
    p_pcheck.add_argument("file", help="crease-pattern JSON document")
    _add_format(p_pcheck)
    p_pcheck.set_defaults(func=cmd_pattern_check)
    p_psvg = psub.add_parser("svg", help="render the pattern as SVG")
    p_psvg.add_argument("file")
    p_psvg.add_argument("-o", "--output", required=True)
    p_psvg.set_defaults(func=cmd_pattern_svg, format="text",
                        text=lambda report: ["wrote %s" % report["wrote"]])

    p_self = sub.add_parser("selftest", help="recursion-vs-oracle corpus check")
    p_self.add_argument("--seed", type=int, default=20250810)
    p_self.add_argument(
        "--per-size", type=int, default=6,
        help="corpus stars per size, 0 to %d" % SELFTEST_PER_SIZE_LIMIT,
    )
    _add_format(p_self, text=_selftest_lines)
    p_self.set_defaults(func=cmd_selftest)

    return parser

