"""Seeded request lists for the flatfold benchmark, and the check of every response.

Every input is made here from ``random.Random(seed)``; nothing is taken from
``flatfold.corpus``, so a change to the package's own generators cannot
change what the benchmark runs. The program only ever sees argv strings and
pattern files.

A workload is a list of `Request` objects, run in order as one *pass*. The
requests about one input (one star, one pattern file) share a ``state`` dict,
so a later request can be built from, and checked against, an earlier
response; `Workload.reset` clears those dicts before every pass.

Sizes and input families are a fixed schedule per workload; the seed only
chooses the angle values, the labels, the orientation and vertex and crease
order of lattice patterns, and the order of the inputs. That keeps the cost
of a pass nearly the same from seed to seed while the inputs themselves
differ.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# Why each workload exists, and which layers it is meant to load.
WHY = {
    "count-large": (
        "count/analyze on 24-400 sector stars: quadratic count_mv and the "
        "O(m^2) trace report dominate; oracle and pattern never run"
    ),
    "desk-crosscheck": (
        "4-12 sector stars through count, oracle enumerate, crimp enumerate "
        "and check: oracle search and thousands of tiny crimp calls dominate"
    ),
    "pattern-check": (
        "pattern check on 45-degree lattice files of 12-150 creases: "
        "CreasePattern.build validation dominates; count_mv and oracle unused"
    ),
}


@dataclass
class Request:
    """One CLI invocation and what its response must look like.

    ``argv(state)`` builds the arguments, ``check(state, rc, stdout)``
    returns None when the response is right and a short reason otherwise.
    ``exit_codes`` lists the exit codes that are not failures. Any other exit
    code, and any exception escaping ``main``, is a wrong answer, except an
    exception of a type in ``known_crash``: a defect the program is known to
    have, counted as a failure but not as a wrong answer.
    """

    kind: str
    argv: Callable[[dict], list[str]]
    check: Callable[[dict, int, str], Optional[str]]
    state: dict = field(default_factory=dict)
    exit_codes: tuple[int, ...] = (0,)
    known_crash: tuple[type, ...] = ()


@dataclass
class Workload:
    requests: list[Request]

    def reset(self) -> None:
        for req in self.requests:
            req.state.clear()


# --------------------------------------------------------------------------
# vertex stars


def _join(rng: random.Random, angles: list[Fraction]) -> str:
    sep = rng.choice((" ", ",", ", "))
    return sep.join(_token(rng, a) for a in angles)


def _token(rng: random.Random, a: Fraction) -> str:
    """An exact token for ``a``: integer, finite decimal, or p/q."""
    if a.denominator == 1:
        return str(a.numerator)
    d = a.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1 and rng.random() < 0.5:
        digits = max(twos, fives)
        scaled = a * 10**digits
        whole, frac = divmod(scaled.numerator, 10**digits)
        return "%d.%0*d" % (whole, digits, frac)
    return "%d/%d" % (a.numerator, a.denominator)


def _interleave(odd: list[Fraction], even: list[Fraction]) -> list[Fraction]:
    out = []
    for a, b in zip(odd, even):
        out.extend((a, b))
    return out


def generic_star(rng: random.Random, m: int, total: int) -> list[Fraction]:
    """Even-length star of (almost surely) distinct rational angles whose two
    parity classes each sum to ``total / 2``, so closure holds."""
    n = m // 2
    half = Fraction(total, 2)
    classes = []
    for _ in range(2):
        raw = [rng.randint(1, 9973) for _ in range(n)]
        s = sum(raw)
        classes.append([half * r / s for r in raw])
    return _interleave(*classes)


def pooled_star(rng: random.Random, m: int, total: int) -> list[Fraction]:
    """Even-length star drawn from three angle values, giving many short
    equal-angle runs; both parity classes sum to ``total / 2``."""
    n = m // 2
    odd = [rng.randint(1, 3) for _ in range(n)]
    units = sum(odd)
    even = [1] * n
    for _ in range(units - n):
        i = rng.choice([j for j in range(n) if even[j] < 3])
        even[i] += 1
    unit = Fraction(total, 2 * units)
    return _interleave([unit * u for u in odd], [unit * u for u in even])


def _bounds(m: int) -> tuple[int, int]:
    n = m // 2
    return 2**n, 2 * math.comb(m, n - 1)


def _check_input_block(report: dict, angles: list[Fraction], exact: bool = True) -> Optional[str]:
    """``exact=False`` skips the total, which for exponent tokens has more
    digits than this interpreter converts to a string."""
    block = report.get("input", {})
    total = sum(angles, Fraction(0))
    if block.get("creases") != len(angles):
        return "input block reports %r creases" % block.get("creases")
    if exact and block.get("total") != str(total):
        return "input block reports total %r" % block.get("total")
    if block.get("kind") != ("flat" if total == 360 else "cone"):
        return "input block reports kind %r" % block.get("kind")
    return None


def _check_count_block(count: Optional[dict], m: int) -> Optional[str]:
    """Internal consistency of a count block: bounds, base x factors, trace."""
    if count is None:
        return "no count for a foldable star"
    value, base, factors = count["value"], count["base"], count["factors"]
    lo, hi = _bounds(m)
    if not lo <= value <= hi:
        return "count %d outside [%d, %d]" % (value, lo, hi)
    if value != base * math.prod(factors):
        return "count is not base x product of factors"
    trace = count["trace"]
    if [step["factor"] for step in trace] != factors:
        return "trace factors differ from the factor list"
    size = m
    for step in trace:
        # an odd run merges its two neighbours into one sector, an even run
        # leaves them
        left = len(step["residual"])
        if left != size - step["length"] - step["length"] % 2:
            return "reduction step leaves %d of %d sectors" % (left, size)
        size = left
    if base != 2 * math.comb(size, size // 2 - 1):
        return "base %d does not fit the %d-sector remainder" % (base, size)
    return None


def _closes(angles: list[Fraction]) -> bool:
    return len(angles) % 2 == 0 and sum(angles[0::2]) == sum(angles[1::2])


def reference_count(angles: list[Fraction]) -> int:
    """Valid mountain-valley assignments of a closing star, by the run
    reduction recursion written apart from flatfold: integer sectors, and the
    first run in index order is reduced rather than the smallest. A run of L
    equal sectors whose neighbours are both larger contributes C(L+1, L//2)
    (L even: the run is removed) or C(L+1, (L+1)//2) (L odd: the run and its
    neighbours a, b become one sector a - run + b); all-equal is 2C(m, m/2-1).
    """
    scale = math.lcm(*(a.denominator for a in angles))
    s = [int(a * scale) for a in angles]
    count = 1
    while len(set(s)) > 1:
        m = len(s)
        start = next(i for i in range(m) if s[i] != s[i - 1])
        s = s[start:] + s[:start]  # now no run wraps around
        i = 0
        while True:
            end = i + 1
            while end < m and s[end] == s[i]:
                end += 1
            if s[i - 1] > s[i] < s[end % m]:
                break
            i = end
        length = end - i
        s = s[i - 1:] + s[:i - 1] if i else s[-1:] + s[:-1]  # run now starts at 1
        if length % 2:
            count *= math.comb(length + 1, (length + 1) // 2)
            s = [s[0] - s[1] + s[length + 1]] + s[length + 2:]
        else:
            count *= math.comb(length + 1, length // 2)
            s = [s[0]] + s[length + 1:]
    m = len(s)
    return count * 2 * math.comb(m, m // 2 - 1)


# --------------------------------------------------------------------------
# count-large


def _count_request(
    cmd: str, text: str, angles: list[Fraction], state: dict, exact: bool = True
) -> Request:
    """``count``/``analyze --format json`` on a star the benchmark can judge."""
    m = len(angles)
    expected = reference_count(angles) if _closes(angles) else None

    def check(state: dict, rc: int, out: str) -> Optional[str]:
        report = json.loads(out)
        problem = _check_input_block(report, angles, exact)
        if problem:
            return problem
        if m % 2:
            if report["count"] is not None or "odd degree" not in report["reason"]:
                return "odd degree not reported"
            if cmd == "analyze" and (report["degree_even"] or report["kawasaki"]):
                return "odd degree star reported as closing"
            return None
        if not _closes(angles):
            if report["count"] is not None or "closure" not in report["reason"]:
                return "closure failure not reported"
            return None
        if cmd == "analyze":
            lo, hi = _bounds(m)
            if report["bounds"] != {"lower": lo, "upper": hi}:
                return "wrong bounds %r" % report["bounds"]
            if not report["kawasaki"]:
                return "closing star reported as not closing"
        problem = _check_count_block(report["count"], m)
        if problem:
            return problem
        if report["count"]["value"] != expected:
            return "count %d, the reference recursion gives %d" % (
                report["count"]["value"], expected)
        seen = state.setdefault("count", report["count"]["value"])
        if seen != report["count"]["value"]:
            return "count and analyze disagree"
        return None

    return Request(
        kind=cmd,
        argv=lambda _s: [cmd, text, "--format", "json"],
        check=check,
        state=state,
    )


_MALFORMED = ("12x", "3/0", "-45", "0", "1//2", "nan", "inf", "4e", "0x10", "½")


def _hostile(rng: random.Random, kind: str, m: int) -> Request:
    """A negative or malicious request. ``exponent`` stars are well formed
    and closing, so a count or a clean refusal (exit 1) are both right. At
    the seed their tokens make a ``ValueError`` escape ``main`` (ROADMAP
    item 4); that crash is a counted failure, not a wrong answer."""
    cmd = rng.choice(("count", "analyze"))
    if kind == "odd":
        angles = generic_star(rng, m, 360)[:-1]
        return _count_request(cmd, _join(rng, angles), angles, {})
    if kind == "closure":
        angles = generic_star(rng, m, 360)
        angles[0] += Fraction(rng.randint(1, 89), rng.randint(1, 7))
        return _count_request(cmd, _join(rng, angles), angles, {})
    if kind == "malformed":
        angles = generic_star(rng, m, 360)
        tokens = [_token(rng, a) for a in angles]
        tokens[rng.randrange(m)] = rng.choice(_MALFORMED)
        text = " ".join(tokens)
        return Request(
            kind=cmd + "-malformed",
            argv=lambda _s: [cmd, text, "--format", "json"],
            check=lambda _s, rc, out: None if out == "" else "output on a parse error",
            exit_codes=(1,),
        )
    # kind == "exponent": two equal huge sectors side by side keep closure
    angles = generic_star(rng, m, 360)
    at = 2 * rng.randrange(m // 2)
    huge = "1e%d" % rng.randint(4400, 6000)
    tokens = [_token(rng, a) for a in angles]
    tokens[at:at] = [huge, huge]
    text = " ".join(tokens)
    full = angles[:at] + [Fraction(huge)] * 2 + angles[at:]
    inner = _count_request(cmd, text, full, {}, exact=False)

    def check(state: dict, rc: int, out: str) -> Optional[str]:
        return None if rc == 1 else inner.check(state, rc, out)

    return Request(
        kind=cmd + "-exponent", argv=inner.argv, check=check, exit_codes=(0, 1),
        known_crash=(ValueError,),
    )


# Star sizes form a ladder: two stars at every even size from 24 to 96, where
# the median request falls, then one star on each of 12 geometric rungs up to
# 400 sectors. Neighbouring rungs cost nearly the same, so the median does not
# jump between size classes from seed to seed. Families cycle along the
# ladder (generic flat, pooled flat, cone); the six largest stars, which set
# the tail and peak memory, are generic, whose reduction takes m/2 - 1 steps
# whatever the seed, alternating flat and cone from 400 flat down.
HOSTILE_KINDS = ("odd", "closure", "malformed", "exponent")
LOW = [m for m in range(24, 97, 2) for _ in range(2)]
HIGH = [2 * round(54 * (400 / 108) ** (i / 11)) for i in range(12)]
CONES = (330, 390)


def count_large(seed: int) -> Workload:
    rng = random.Random("count-large/%d" % seed)
    stars = []
    for i, m in enumerate(LOW + HIGH[:6]):
        if i % 3 == 0:
            stars.append(generic_star(rng, m, 360))
        elif i % 3 == 1:
            stars.append(pooled_star(rng, m, 360))
        else:
            make = generic_star if i % 2 else pooled_star
            stars.append(make(rng, m, CONES[i // 3 % 2]))
    for i, m in enumerate(reversed(HIGH[6:])):
        stars.append(generic_star(rng, m, CONES[i // 2 % 2] if i % 2 else 360))
    groups: list[list[Request]] = []
    for angles in stars:
        text, state = _join(rng, angles), {}
        groups.append(
            [
                _count_request("count", text, angles, state),
                _count_request("analyze", text, angles, state),
            ]
        )
    for i, kind in enumerate(HOSTILE_KINDS * 2):
        groups.append([_hostile(rng, kind, LOW[8 * i])])
    rng.shuffle(groups)
    return Workload([r for g in groups for r in g])


# --------------------------------------------------------------------------
# desk-crosscheck


def _desk_group(rng: random.Random, angles: list[Fraction]) -> list[Request]:
    """count, oracle enumerate (up to 10 sectors), crimp enumerate and three
    checks on one star; all three counts must agree."""
    m = len(angles)
    text = _join(rng, angles)
    state: dict = {}
    picks = (rng.random(), rng.randrange(m), rng.sample(range(m), m // 2 + rng.choice((1, -1))))

    def check_count(state: dict, rc: int, out: str) -> Optional[str]:
        report = json.loads(out)
        problem = _check_input_block(report, angles) or _check_count_block(report["count"], m)
        if problem:
            return problem
        state["count"] = report["count"]["value"]
        return None

    def check_enum(method: str) -> Callable[[dict, int, str], Optional[str]]:
        def check(state: dict, rc: int, out: str) -> Optional[str]:
            report = json.loads(out)
            found = report["valid_assignments"]
            if report["method"] != method or report["count"] != len(found):
                return "enumerate report is inconsistent"
            for mv in found:
                if len(mv) != m or set(mv) - {"M", "V"} or abs(2 * mv.count("M") - m) != 2:
                    return "enumerated %r fails Maekawa" % mv
            if len(set(found)) != len(found):
                return "enumerate lists an assignment twice"
            if len(found) != state.get("count"):
                return "%s enumerates %d, the recursion counts %r" % (
                    method, len(found), state.get("count"))
            if "valid" in state and set(found) != state["valid"]:
                return "oracle and crimp enumerations differ"
            state["valid"] = set(found)
            return None

        return check

    def pick_valid(state: dict) -> str:
        valid = sorted(state["valid"])
        return valid[int(picks[0] * len(valid))]

    def pick_flipped(state: dict) -> str:
        mv = list(pick_valid(state))
        i = picks[1]
        mv[i] = "V" if mv[i] == "M" else "M"
        return "".join(mv)

    def pick_random(state: dict) -> str:
        return "".join("M" if i in picks[2] else "V" for i in range(m))

    def check_mv(pick: Callable[[dict], str]) -> Callable[[dict, int, str], Optional[str]]:
        def check(state: dict, rc: int, out: str) -> Optional[str]:
            report = json.loads(out)
            mv = pick(state)
            expected = mv in state["valid"]
            if report["assignment"] != mv:
                return "check echoes %r for %r" % (report["assignment"], mv)
            if report["crimp_valid"] != expected:
                return "crimp says %r for %s" % (report["crimp_valid"], mv)
            if report["maekawa"] != (abs(2 * mv.count("M") - m) == 2):
                return "wrong Maekawa verdict"
            oracle = report["oracle"]
            if oracle["ran"] != (m <= 10) or (oracle["ran"] and oracle["valid"] != expected):
                return "oracle block %r for %s" % (oracle, mv)
            return None

        return check

    def argv_mv(pick: Callable[[dict], str]) -> Callable[[dict], list[str]]:
        return lambda state: ["check", text, "--mv", pick(state), "--format", "json"]

    group = [
        Request("count", lambda _s: ["count", text, "--format", "json"], check_count, state)
    ]
    if m <= 10:
        group.append(
            Request("enumerate", lambda _s: ["enumerate", text, "--format", "json"],
                    check_enum("oracle"), state)
        )
    group.append(
        Request("enumerate-fast", lambda _s: ["enumerate", "--fast", text, "--format", "json"],
                check_enum("crimp-filter"), state)
    )
    for pick in (pick_valid, pick_flipped, pick_random):
        group.append(Request("check", argv_mv(pick), check_mv(pick), state))
    return group


# Per family: four stars each of 4 and 6 sectors and twelve of 8; plus one
# generic flat 10-sector star and one generic 12-sector cone (crimp
# enumeration only: the oracle stops at 10). The oracle's cost varies several
# fold between stars of one size, so the load rests on many 8-sector stars,
# whose sum varies little from seed to seed, and the ten heaviest requests of
# a pass, which set the tail, end inside the 8-sector oracle class.
DESK_SIZES = (4,) * 4 + (6,) * 4 + (8,) * 12
DESK_CONES = (240, 270, 300, 330)


def desk_crosscheck(seed: int) -> Workload:
    rng = random.Random("desk-crosscheck/%d" % seed)
    groups = []
    for i, m in enumerate(DESK_SIZES):
        cone = DESK_CONES[i % len(DESK_CONES)]
        for make, total in (
            (generic_star, 360),
            (pooled_star, 360),
            (generic_star, cone),
            (pooled_star, cone),
        ):
            groups.append(_desk_group(rng, make(rng, m, total)))
    groups.append(_desk_group(rng, generic_star(rng, 10, 360)))
    groups.append(_desk_group(rng, generic_star(rng, 12, 300)))
    rng.shuffle(groups)
    return Workload([r for g in groups for r in g])


# --------------------------------------------------------------------------
# pattern-check


def lattice_pattern(
    rng: random.Random, nx: int, ny: int, extra: int, corner: bool, labels: str
) -> tuple[dict, dict]:
    """An nx x ny unit-square grid on a 45-degree lattice, as a pattern file.

    Every horizontal and vertical grid line is present; whole diagonal lines
    of one parity class (so diagonals cross only at lattice points) are added,
    longest first, while they add at most ``extra`` creases. ``corner`` puts
    a one-segment diagonal across a corner first: a border-to-border crease
    that normalization splits. Each grid line is cut into unit creases at
    every lattice point, so all interior stars are central-symmetric
    45/90-degree stars and satisfy closure. The geometry, and so the cost of
    validating it, is fixed by the arguments; ``rng`` picks the labels and
    the order of vertices and creases.

    ``labels`` is ``none``, ``random`` or ``parity``. Parity labels give one
    family of lines a single label per line and every other line labels that
    alternate along it, so each interior vertex has tally +-2.

    Returns the document and the report facts the check expects.
    """
    uniform_h = rng.random() < 0.5
    lines: list[tuple[str, list]] = []
    for j in range(1, ny):
        lines.append(("H", [((i, j), (i + 1, j)) for i in range(nx)]))
    for i in range(1, nx):
        lines.append(("V", [((i, j), (i, j + 1)) for j in range(ny)]))
    parity = (nx - 1) % 2  # the class of the (nx - 1, 0) - (nx, 1) corner diagonal
    diagonals = []
    for c in range(-(ny - 1), nx):
        if c % 2 == parity:
            diagonals.append(
                [((x, x - c), (x + 1, x - c + 1)) for x in range(max(0, c), min(nx, ny + c))]
            )
    for d in range(1, nx + ny):
        if d % 2 == parity:
            diagonals.append(
                [((x, d - x), (x + 1, d - x - 1)) for x in range(max(0, d - ny), min(nx, d))]
            )
    diagonals.sort(key=len, reverse=True)
    splits = 0
    budget = extra
    if corner:
        first = next(d for d in diagonals if d[0] == (((nx - 1), 0), (nx, 1)))
        diagonals.remove(first)
        diagonals.insert(0, first)
    for diag in diagonals:
        if len(diag) <= budget:
            lines.append(("D", diag))
            budget -= len(diag)
            splits += len(diag) == 1

    creases, marks = [], []
    uniform = "H" if uniform_h else "V"
    for family, segs in lines:
        base, phase = rng.choice("MV"), rng.randrange(2)
        for k, seg in enumerate(segs):
            creases.append(seg)
            if labels == "random":
                marks.append(rng.choice("MV"))
            elif family == uniform:
                marks.append(base)
            else:
                marks.append("MV"[(k + phase) % 2])

    points = [(x, y) for x in range(nx + 1) for y in range(ny + 1)]
    rng.shuffle(points)
    index = {p: i for i, p in enumerate(points)}
    order = list(range(len(creases)))
    rng.shuffle(order)
    doc = {
        "vertices": [list(p) for p in points],
        "creases": [[index[creases[k][0]], index[creases[k][1]]] for k in order],
        "boundary": [index[p] for p in ((0, 0), (nx, 0), (nx, ny), (0, ny))],
    }
    if labels != "none":
        doc["assignment"] = [marks[k] for k in order]
    facts = {
        "creases": len(creases) + splits,
        "vertices": len(points) + splits,
        "interior": (nx - 1) * (ny - 1) + splits,
        "splits": splits,
        "labels": labels,
    }
    return doc, facts


def _pattern_check(path: str, facts: dict) -> Request:
    def check(_state: dict, rc: int, out: str) -> Optional[str]:
        report = json.loads(out)
        for key, want in (
            ("creases", facts["creases"]),
            ("vertices", facts["vertices"]),
        ):
            if report[key] != want:
                return "%s: %r, expected %r" % (key, report[key], want)
        if len(report["interior_vertices"]) != facts["interior"]:
            return "wrong interior vertex count"
        if len(report["split_vertices"]) != facts["splits"]:
            return "wrong split count"
        stars = report["local_kawasaki"]
        if len(stars) != facts["interior"] or not all(
            s["passes"] and s["exact"] for s in stars.values()
        ):
            return "a lattice star fails exact closure"
        if not all(t["is_identity"] for t in report["reflection_traces"].values()):
            return "a reflection trace around a closing star is not the identity"
        gm = report["generalized_maekawa"]
        if facts["labels"] == "none":
            return None if not gm["evaluated"] else "evaluated without labels"
        if facts["labels"] == "parity" and not gm["evaluated"]:
            return "local parity labels rejected"
        if gm["evaluated"] and not gm["holds"]:
            return "the parity identity fails under local parity"
        if not gm["evaluated"] and not gm.get("violating_vertices"):
            return "local parity failure without a vertex"
        return None

    return Request(
        kind="pattern-check",
        argv=lambda _s: ["pattern", "check", path, "--format", "json"],
        check=check,
    )


# Crease-count ladder: every target from 12 to 49 twice, where the median and
# the tail fall, so that several requests of nearly equal cost surround them,
# then three large patterns up to 150. Each target takes the largest plain
# grid that fits and fills the rest with diagonals; targets equal to a plain
# grid (12, 17, 24, 31, 40, 49, 60) have none. Labels cycle through none,
# parity and random; the 19 dense targets shift the cycle between the copies.
DENSE = (12, 14, 16, 17, 19, 21, 24, 26, 28, 31, 33, 35, 37, 40, 42, 44, 46, 47, 49)
PATTERN_TARGETS = DENSE * 2 + (60, 92, 150)
GRIDS = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8),
         (8, 8), (8, 9), (9, 9))
LABELS = ("none", "parity", "random")


def _plain(grid: tuple[int, int]) -> int:
    nx, ny = grid
    return nx * (ny - 1) + ny * (nx - 1)


def pattern_check(seed: int, workdir: Path) -> Workload:
    rng = random.Random("pattern-check/%d" % seed)
    requests = []
    for i, target in enumerate(PATTERN_TARGETS):
        nx, ny = max((g for g in GRIDS if _plain(g) <= target), key=_plain)
        extra = target - _plain((nx, ny))
        corner = extra > 0 and i % 2 == 0
        if rng.random() < 0.5:
            nx, ny = ny, nx
        doc, facts = lattice_pattern(rng, nx, ny, extra, corner, LABELS[i % 3])
        path = workdir / ("pattern-%02d.json" % i)
        path.write_text(json.dumps(doc), encoding="utf-8")
        requests.append(_pattern_check(str(path), facts))
    rng.shuffle(requests)
    return Workload(requests)
