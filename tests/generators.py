"""Random patterns and labels for the tests.

Single-vertex star patterns with prescribed angles, stars that fail
closure, multi-vertex chain patterns on a 45-degree grid whose stars stay
exactly representable, and random labels that pass the local parity check
at every interior vertex. The package's own cross-validation corpus, which
`selftest` runs, stays in `flatfold.corpus`.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from typing import Optional

from flatfold.core import (
    AngleSequence,
    CreasePattern,
    MVAssignment,
    MVLabel,
    normalize_pattern,
)
from flatfold.vertex import alternating_sum, kawasaki


def random_nonclosing_sequence(rng: random.Random, creases: int) -> AngleSequence:
    """An even-length flat-total sequence that fails closure by a clear margin."""
    while True:
        n = creases // 2
        raw = [Fraction(rng.randint(1, 60), rng.choice((1, 2, 3))) for _ in range(creases)]
        total = sum(raw)
        angles = [Fraction(360) * r / total for r in raw]
        seq = AngleSequence(tuple(angles))
        defect = alternating_sum(seq)
        if abs(defect) > Fraction(1, 1000):
            return seq


# --------------------------------------------------------------------------
# single-vertex star patterns with prescribed angles

# largest denominator of the rational half-angle tangents
_STAR_DENOMINATOR = 10 ** 8


def _unit_direction(theta: Fraction) -> tuple[Fraction, Fraction]:
    """A rational point on the unit circle near ``theta`` degrees: exact at
    multiples of 90, else from a rational tangent t of the half angle, as
    ((1 - t^2) / (1 + t^2), 2t / (1 + t^2))."""
    quarters, rest = divmod(theta, 90)
    t = Fraction(math.tan(math.radians(rest) / 2)).limit_denominator(_STAR_DENOMINATOR)
    x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return [(x, y), (-y, x), (-x, -y), (y, -x)][int(quarters)]


def star_pattern(v: AngleSequence) -> CreasePattern:
    """A one-vertex pattern whose star approximates the given flat sequence,
    and closes exactly when the sequence does.

    Prescribed angles are generally not realizable over rational coordinates
    (only 45-degree multiples are), so creases end on rational points of the
    unit circle near the prescribed directions. For a closing sequence the
    last direction is instead the exact product -z0 conj(z1) z2 ... z(m-2) of
    the others, read as unit complex numbers: that makes z0 conj(z1) ...
    conj(z(m-1)) = -1, which is closure, with no tolerance.
    """
    if not v.is_flat:
        raise ValueError("star patterns are built on flat paper")
    theta = Fraction(0)
    directions = []
    for a in v.angles:
        directions.append(_unit_direction(theta))
        theta += a
    if kawasaki(v):
        x, y = -1, 0
        for i, (dx, dy) in enumerate(directions[:-1]):
            dy = dy if i % 2 == 0 else -dy
            x, y = x * dx - y * dy, x * dy + y * dx
        directions[-1] = (x, y)
    corners = [(-2, -2), (2, -2), (2, 2), (-2, 2)]
    points = [(Fraction(x), Fraction(y)) for x, y in corners + [(0, 0)] + directions]
    creases = [(4, 5 + i) for i in range(len(directions))]
    return CreasePattern.build(points, creases, boundary=(0, 1, 2, 3))


# --------------------------------------------------------------------------
# multi-vertex chain patterns on a 45-degree grid

_PLAIN = "plain"
_DIAG_NE = "ne_sw"
_DIAG_NW = "nw_se"
_DIAG_BOTH = "both"
_STYLES = (_PLAIN, _DIAG_NE, _DIAG_NW, _DIAG_BOTH)
_NE = (_DIAG_NE, _DIAG_BOTH)
_NW = (_DIAG_NW, _DIAG_BOTH)


def chain_pattern(
    rng: random.Random, n_vertices: int, with_split: bool = False
) -> CreasePattern:
    """A normalized pattern with ``n_vertices`` collinear interior vertices.

    Each vertex carries north/south/east/west creases (west/east run to the
    neighbour or the border) plus optionally one or two straight diagonal
    pairs, keeping every star an exact 45-degree-multiple sequence that
    satisfies closure. ``with_split`` adds one border-to-border crease in an
    empty corner, which normalization then splits. Each style is drawn from
    those whose diagonals miss the left neighbour's, so every draw is planar.
    """
    if n_vertices < 1:
        raise ValueError("need at least one interior vertex")
    k = n_vertices
    xmax = 2 * k
    corners = [(-2, -2), (xmax, -2), (xmax, 2), (-2, 2)]
    points: list[tuple[Fraction, Fraction]] = [
        (Fraction(x), Fraction(y)) for x, y in corners
    ]
    index: dict[tuple[Fraction, Fraction], int] = {p: i for i, p in enumerate(points)}

    def pid(x, y) -> int:
        p = (Fraction(x), Fraction(y))
        if p not in index:
            index[p] = len(points)
            points.append(p)
        return index[p]

    creases: list[tuple[int, int]] = []

    def add(i: int, j: int) -> None:
        creases.append((i, j))

    # the split crease crosses a north-west diagonal at vertex 0, as a
    # north-east one at its left would
    left = _DIAG_NE if with_split else _PLAIN
    centers = [pid(2 * i, 0) for i in range(k)]
    for i, c in enumerate(centers):
        x = 2 * i
        add(c, pid(x, 2))
        add(c, pid(x, -2))
        if i == 0:
            add(c, pid(-2, 0))
        if i == k - 1:
            add(c, pid(xmax, 0))
        else:
            add(c, centers[i + 1])
        # a north-east diagonal crosses the right neighbour's north-west one
        style = rng.choice([
            s for s in _STYLES
            if not (left in _NE and s in _NW) and not (left in _NW and s in _NE)
        ])
        if style in _NE:
            add(c, pid(x + 2, 2))
            add(c, pid(x - 2, -2))
        if style in _NW:
            add(c, pid(x - 2, 2))
            add(c, pid(x + 2, -2))
        left = style
    if with_split:
        add(pid(-2, 1), pid(-1, 2))
    pattern = CreasePattern.build(points, creases, boundary=(0, 1, 2, 3))
    return normalize_pattern(pattern)


def random_local_parity_assignment(
    rng: random.Random, p: CreasePattern, attempts: int = 400
) -> Optional[MVAssignment]:
    """Random labels giving every interior vertex a local tally of +-2.

    Backtracks over the creases in breadth-first order of their first-reached
    interior endpoint, from a random start in each component (creases with
    none come last), so that a dead end is found and undone near where it
    arose. Returns None if none turns up within ``attempts`` steps per crease.
    """
    n = len(p.creases)
    interior = p.interior_vertex_ids()
    vertex_of_crease = [[v for v in c if not p.vertices[v].on_boundary] for c in p.creases]

    ranked: dict[int, None] = {}  # an ordered set of creases
    reached: set[int] = set()
    for start in rng.sample(interior, len(interior)):
        if start in reached:
            continue
        reached.add(start)
        queue = deque([start])
        while queue:
            for ci in p.incident_creases(queue.popleft()):
                ranked.setdefault(ci)
                for w in vertex_of_crease[ci]:
                    if w not in reached:
                        reached.add(w)
                        queue.append(w)
    order = list(ranked) + [ci for ci in range(n) if ci not in ranked]
    labels: list[Optional[MVLabel]] = [None] * n
    tally = {v: 0 for v in interior}
    remaining = {v: p.degree(v) for v in interior}

    def feasible(v: int) -> bool:
        if remaining[v] == 0:
            return abs(tally[v]) == 2
        return abs(tally[v]) <= remaining[v] + 2

    def put(ci: int, sign: int) -> None:
        """Count (sign 1) or uncount (sign -1) the label of crease ci."""
        delta = sign if labels[ci] is MVLabel.MOUNTAIN else -sign
        for v in vertex_of_crease[ci]:
            tally[v] += delta
            remaining[v] -= sign

    # Depth-first with an explicit stack, as a pattern may have more creases
    # than the recursion limit allows levels. Each descent costs one step.
    untried: list[list[MVLabel]] = []  # labels left to try at each level
    steps = 0
    while True:
        steps += 1
        if steps > attempts * n:
            return None
        if len(untried) == n:
            return MVAssignment(tuple(labels))  # type: ignore[arg-type]
        choices = [MVLabel.MOUNTAIN, MVLabel.VALLEY]
        rng.shuffle(choices)
        untried.append(choices)
        while True:  # next label at this level, backing up from spent levels
            ci = order[len(untried) - 1]
            if labels[ci] is not None:
                put(ci, -1)
                labels[ci] = None
            if untried[-1]:
                labels[ci] = untried[-1].pop(0)
                put(ci, 1)
                if all(feasible(v) for v in vertex_of_crease[ci]):
                    break
            else:
                untried.pop()
                if not untried:
                    return None
