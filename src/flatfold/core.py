"""Exact domain types shared by every other module.

A coordinate is an `int` when it is integral as given and a `Fraction`
otherwise, a star's sectors integers over one denominator; nothing here
touches floating point. Angle equality therefore means exact equality, which
the counting recursion depends on: it is discontinuous in whether two
sectors are equal, so a tolerance would silently change counts.

Each value is checked once, where it is made: sectors by `AngleSequence`,
labels by `MVAssignment`, and patterns by `CreasePattern.build`. A pattern
keeps what its checks derive from it, such as each crease's reflection:
each is built once per pattern.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import ExactnessError, PlanarityError, StructuralError

Rational = Union[int, float, str, Fraction]
Exact = Union[int, Fraction]
Point = tuple[Exact, Exact]  # an integral coordinate stays an int


@dataclass(frozen=True, init=False)
class AngleSequence:
    """Consecutive sector angles around one interior vertex, in cyclic order.

    Index ``i`` is the sector between crease ``i`` and crease ``i + 1``; the
    sector after the last crease wraps around to crease 0. Each sector is a
    positive angle in degrees, kept as ``ints[i] / den`` in lowest terms, so
    equal stars are equal and hash alike. ``AngleSequence(values)`` reads
    values as `_rational` does (``30.1`` is 301/10), ``AngleSequence(ints,
    den)`` ints over a positive int ``den``: either way, this is the one
    place a sector is checked. The `Fraction`s, ``angles``, are built on read.
    """

    ints: tuple[int, ...]
    den: int

    def __init__(self, angles: Iterable[Rational], den: Optional[int] = None):
        if den is None:
            fracs = tuple(a if type(a) is Fraction else _rational(a) for a in angles)
            den = math.lcm(*(a.denominator for a in fracs))
            ints = tuple(a.numerator * (den // a.denominator) for a in fracs)
            object.__setattr__(self, "angles", fracs)  # as reading them would build
        else:
            ints = tuple(angles)
            if {*map(type, ints), type(den)} != {int} or den <= 0:
                raise TypeError("integer sectors are ints over a positive int denominator")
        if not ints:
            raise ValueError("an angle sequence needs at least one sector")
        if min(ints) <= 0:
            n = next(n for n in ints if n <= 0)
            raise ValueError("sector angles must be positive, got %s" % _sector_name(n, den))
        g = math.gcd(den, *ints)
        object.__setattr__(self, "ints", tuple(map(g.__rfloordiv__, ints)) if g > 1 else ints)
        object.__setattr__(self, "den", den // g)

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self):
        return iter(self.angles)

    def __getitem__(self, i: int) -> Fraction:
        return self.angles[i]

    def cyclic(self, i: int) -> Fraction:
        return self.angles[i % len(self.ints)]

    @functools.cached_property
    def angles(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.ints)

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.ints), self.den)

    @property
    def is_flat(self) -> bool:
        return sum(self.ints) == 360 * self.den

    @property
    def kind(self) -> str:
        return "flat" if self.is_flat else "cone"

    def rotated(self, start: int) -> "AngleSequence":
        start %= len(self.ints)
        return AngleSequence(self.ints[start:] + self.ints[:start], self.den)

    def mirrored(self) -> "AngleSequence":
        """The same vertex star read clockwise instead of counterclockwise."""
        return AngleSequence(self.ints[::-1], self.den)

    def as_strings(self) -> list[str]:
        """Each sector's ``str(Fraction(n, den))``, formatted once per value."""
        names = {n: _sector_name(n, self.den) for n in set(self.ints)}
        return list(map(names.__getitem__, self.ints))


def _sector_name(n: int, den: int) -> str:
    """``str(Fraction(n, den))`` for a positive ``den``, without the `Fraction`."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else "%d/%d" % (n // g, den // g)


class MVLabel(str, Enum):
    MOUNTAIN = "M"
    VALLEY = "V"

    def flipped(self) -> "MVLabel":
        return MVLabel.VALLEY if self is MVLabel.MOUNTAIN else MVLabel.MOUNTAIN


M = MVLabel.MOUNTAIN
V = MVLabel.VALLEY
_LABELS = {"M": M, "V": V}


@dataclass(frozen=True)
class MVAssignment:
    """Mountain/valley labels, one per crease, in crease order. The one
    label check: anything but ``"M"`` or ``"V"`` raises `ValueError`."""

    labels: tuple[MVLabel, ...]

    def __post_init__(self):
        try:
            labels = tuple(map(_LABELS.__getitem__, self.labels))
        except (KeyError, TypeError):  # not "M" or "V": let MVLabel raise
            labels = tuple(MVLabel(l) for l in self.labels)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_string(cls, text: str) -> "MVAssignment":
        try:
            return cls(text.strip().upper())
        except ValueError:
            raise ValueError("assignment strings may only contain M and V: %r" % text) from None

    def __str__(self) -> str:
        return "".join(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, i: int) -> MVLabel:
        return self.labels[i]

    @property
    def mountains(self) -> int:
        return sum(1 for l in self.labels if l is MVLabel.MOUNTAIN)

    @property
    def valleys(self) -> int:
        return len(self.labels) - self.mountains

    @property
    def tally(self) -> int:
        """Mountain count minus valley count."""
        return self.mountains - self.valleys

    def flipped(self) -> "MVAssignment":
        return MVAssignment(tuple(l.flipped() for l in self.labels))


Labels = Union[MVAssignment, str, Sequence[str]]


def _as_assignment(labels: Labels, creases: Optional[int] = None) -> MVAssignment:
    """Labels in any form as an `MVAssignment`: one is kept as it is, a string
    goes through `MVAssignment.from_string`, and any other sequence through
    `MVAssignment`. Every function that takes labels reads them here, and one
    that needs a label per crease passes the number of ``creases``."""
    if not isinstance(labels, MVAssignment):
        labels = (MVAssignment.from_string(labels) if isinstance(labels, str)
                  else MVAssignment(tuple(labels)))
    if creases is not None and len(labels) != creases:
        raise ValueError("assignment length must match the number of creases")
    return labels


@dataclass(frozen=True)
class Vertex:
    x: Exact
    y: Exact
    on_boundary: bool

    @property
    def point(self) -> Point:
        return (self.x, self.y)


class ReductionStep(NamedTuple):
    """One step of the counting recursion.

    ``start`` indexes the reduced run in the sequence the step was applied
    to, ``length`` is the number of equal sectors it removed, ``factor`` the
    multiplicative contribution, and ``residual`` what was left afterwards,
    kept as ``scaled_residual``: integers over the input star's ``den``
    (see `AngleSequence`).
    """

    start: int
    length: int
    factor: int
    scaled_residual: tuple[int, ...]
    den: int

    @property
    def residual(self) -> AngleSequence:
        """The residual star, built on demand."""
        return AngleSequence(self.scaled_residual, self.den)


@dataclass(frozen=True)
class CountResult:
    """Number of valid mountain-valley assignments plus how it was derived."""

    count: int
    base: int
    trace: tuple[ReductionStep, ...]
    bounds: tuple[int, int]

    @property
    def factors(self) -> list[int]:
        return [step.factor for step in self.trace]


@dataclass(frozen=True)
class PatternTally:
    """Crease and vertex counts feeding the multi-vertex parity identity.

    Bookkeeping crease pairs created by splitting a border-to-border crease
    (one logical crease, counted in ``split_pairs``) appear in none of the
    other fields; see `pattern.generalized_maekawa`.
    """

    mountains: int
    valleys: int
    interior_mountains: int
    interior_valleys: int
    up_vertices: int
    down_vertices: int
    split_pairs: int = 0


# --------------------------------------------------------------------------
# exact geometric predicates


def _orient(a: Point, b: Point, c: Point) -> int:
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (cross > 0) - (cross < 0)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """Closed containment of p in the segment ab (a != b assumed)."""
    if _orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_touch(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when the closed segments ab and cd share at least one point."""
    if _proper_cross(a, b, c, d):
        return True
    return (
        _on_segment(c, a, b)
        or _on_segment(d, a, b)
        or _on_segment(a, c, d)
        or _on_segment(b, c, d)
    )


def _proper_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    return (
        _orient(a, b, c) * _orient(a, b, d) < 0
        and _orient(c, d, a) * _orient(c, d, b) < 0
    )


def _collinear_overlap(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when ab and cd are collinear and overlap in more than a point."""
    if _orient(a, b, c) != 0 or _orient(a, b, d) != 0:
        return False
    axis = 0 if abs(b[0] - a[0]) >= abs(b[1] - a[1]) else 1
    lo1, hi1 = sorted((a[axis], b[axis]))
    lo2, hi2 = sorted((c[axis], d[axis]))
    return max(lo1, lo2) < min(hi1, hi2)


def _reflection_entries(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int, int, int, int]:
    """``(a, b, tx, ty, n)``: the reflection across the line through the
    integer points ``p`` and ``q`` is x -> ((a, b; b, -a) x + (tx, ty)) / n.

    For the line's primitive direction (dx, dy), n = dx^2 + dy^2,
    a = dx^2 - dy^2 and b = 2 dx dy, with no division; ``p`` is fixed.
    """
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx == dy == 0:
        raise StructuralError("cannot reflect across a zero-length crease")
    g = math.gcd(dx, dy)  # keeps n, and every product, small
    dx, dy = dx // g, dy // g
    n, a, b = dx * dx + dy * dy, dx * dx - dy * dy, 2 * dx * dy
    return a, b, n * p[0] - (a * p[0] + b * p[1]), n * p[1] - (b * p[0] - a * p[1]), n


def _point_in_polygon(p: Point, poly: Sequence[Point]) -> bool:
    """Strict interior test; the caller must rule out boundary points first."""
    inside = False
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        # ab crosses right of p iff p is left of ab directed upward: no division
        if (a[1] > p[1]) != (b[1] > p[1]) and _orient(a, b, p) == (1 if b[1] > a[1] else -1):
            inside = not inside
    return inside


# --------------------------------------------------------------------------
# crease patterns


@dataclass(frozen=True, init=False)
class CreasePattern:
    """A planar straight-line crease graph with a simple polygon border.

    ``split_vertices`` tags the degree-2 interior vertices introduced by
    `normalize_pattern` so parity rules can treat their two collinear
    creases as one logical crease. `build` is the one way in, and
    `normalize_pattern` and `with_assignment` derive from a built pattern;
    ``CreasePattern(...)`` and ``dataclasses.replace`` raise `TypeError`.
    """

    vertices: tuple[Vertex, ...]
    creases: tuple[tuple[int, int], ...]
    boundary: tuple[int, ...]
    assignment: Optional[MVAssignment] = None
    split_vertices: frozenset[int] = frozenset()

    @classmethod
    def build(
        cls,
        points: Iterable[tuple[Rational, Rational]],
        creases: Iterable[tuple[int, int]],
        boundary: Iterable[int],
        assignment: Optional[Labels] = None,
        split_vertices: Iterable[int] = (),
    ) -> "CreasePattern":
        """Construct from raw coordinates, deriving the border flags, and
        validate the result once."""
        pts = [(x if type(x) is int else _rational(x), y if type(y) is int else _rational(y))
               for x, y in points]
        creases = tuple((_index(i, "crease"), _index(j, "crease")) for i, j in creases)
        boundary = tuple(_index(i, "border") for i in boundary)
        split = frozenset(_index(i, "split tag") for i in split_vertices)
        geometry = _integer_geometry(pts, boundary)
        if assignment is not None:
            assignment = _as_assignment(assignment)
        vertices = tuple(Vertex(x, y, flag) for (x, y), flag in zip(pts, geometry[1]))
        p = _assemble(vertices=vertices, creases=creases, boundary=boundary,
                      assignment=assignment, split_vertices=split, _geometry=geometry)
        _validate_pattern(p)
        return p

    def with_assignment(self, assignment: Labels) -> "CreasePattern":
        """The same pattern relabelled; checks the labels and their count, not
        the geometry."""
        assignment = _as_assignment(assignment)
        _check_label_count(assignment, self.creases)
        return _assemble(**{**self.__dict__, "assignment": assignment})

    @functools.cached_property
    def _incidence(self) -> list[list[int]]:
        at: list[list[int]] = [[] for _ in self.vertices]
        for ci, crease in enumerate(self.creases):
            for v in crease:
                at[v].append(ci)
        return at

    # -- simple accessors ---------------------------------------------------

    def point(self, v: int) -> Point:
        return self.vertices[v].point

    def crease_points(self, ci: int) -> tuple[Point, Point]:
        i, j = self.creases[ci]
        return self.point(i), self.point(j)

    def incident_creases(self, v: int) -> list[int]:
        return list(self._incidence[v])

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def interior_vertex_ids(self) -> list[int]:
        return list(self._interior)

    @functools.cached_property
    def _interior(self) -> list[int]:
        return [i for i, vert in enumerate(self.vertices) if not vert.on_boundary]

    @functools.cached_property
    def _border_crease(self) -> Optional[int]:
        """The first crease from border to border, or None once normalized."""
        flags = self._geometry[1]
        return next((ci for ci, (i, j) in enumerate(self.creases) if flags[i] and flags[j]), None)

    @functools.cached_property
    def _reflections(self) -> list[tuple[int, int, int, int, int]]:
        """Each crease's `_reflection_entries` in the integer-scaled plane."""
        ipts = self._geometry[0]
        return [_reflection_entries(ipts[i], ipts[j]) for i, j in self.creases]


def _rational(c: Rational) -> Fraction:
    """A coordinate or a sector: a `Fraction` is kept as it is, a bool is
    refused by name (`Fraction` would read it as 1 or 0), a float is read as
    the shortest decimal that prints it (``0.1`` is 1/10, not its binary
    value; nan and inf raise `ValueError`), and anything else is coerced."""
    if type(c) is Fraction:
        return c
    if type(c) is bool:
        raise TypeError("a number was expected, got %r" % c)
    if isinstance(c, float):
        return Fraction(float.__repr__(c))
    return Fraction(c)


def _index(value, field: str) -> int:
    try:
        if type(value) is bool:  # operator.index(True) is 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise StructuralError("%s index must be an integer, got %r" % (field, value)) from None


def _border_edges(
    pts: Sequence[Point], boundary: Sequence[int]
) -> list[tuple[Point, Point]]:
    """The border's edges as point pairs, in cycle order. Empty when a border
    index is out of range, which `_validate_pattern` then reports."""
    if not all(0 <= i < len(pts) for i in boundary):
        return []
    m = len(boundary)
    return [(pts[boundary[i]], pts[boundary[(i + 1) % m]]) for i in range(m)]


def _boxed(edges: Sequence[tuple[Point, Point]]) -> list[tuple]:
    """Each edge ab as (x0, y0, x1, y1, a, b): its bounding box, then its ends."""
    return [(min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]), a, b)
            for a, b in edges]


def _integer_geometry(pts: Sequence[Point], boundary: Sequence[int]) -> tuple[list, list, int, list]:
    """The points scaled to integers, which of them lie on the border, the
    scale and the point ids sorted by point. The scale, twice the LCM of all
    denominators, is positive, so every predicate keeps its value, and even,
    so crease midpoints stay integral."""
    scale = 2 * math.lcm(*[x.denominator for x, _ in pts], *[y.denominator for _, y in pts])
    ipts = [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in pts]
    # with the points sorted, those in a border edge's box lie between its
    # lower and upper corners, as in `_validate_pattern`'s vertex sweep
    order = sorted(range(len(ipts)), key=ipts.__getitem__)
    ordered = [ipts[k] for k in order]
    flags = [False] * len(ipts)
    for x0, y0, x1, y1, a, b in _boxed(_border_edges(ipts, boundary)):
        for k in order[bisect_left(ordered, (x0, y0)):bisect_right(ordered, (x1, y1))]:
            if y0 <= ipts[k][1] <= y1 and _on_segment(ipts[k], a, b):
                flags[k] = True
    return ipts, flags, scale, order


def _check_label_count(assignment: Optional[MVAssignment], creases: Sequence) -> None:
    if assignment is not None and len(assignment) != len(creases):
        raise StructuralError("assignment has %d labels for %d creases"
                              % (len(assignment), len(creases)))


def _validate_pattern(p: CreasePattern) -> None:
    n = len(p.vertices)
    if len(p.boundary) < 3:
        raise StructuralError("the border needs at least three vertices")
    for i in p.boundary:
        if not 0 <= i < n:
            raise StructuralError("border vertex index %d out of range" % i)
    if len(set(p.boundary)) != len(p.boundary):
        raise StructuralError("border cycle repeats a vertex")

    pts, flags, _, order = p._geometry
    if len(set(pts)) != n:
        raise StructuralError("two vertices share the same coordinates")

    # border must be a simple polygon
    m = len(p.boundary)
    bpoly = [pts[i] for i in p.boundary]
    bedges = _border_edges(pts, p.boundary)
    for i in range(m):
        a, b = bedges[i]
        if a == b:
            raise StructuralError("zero-length border edge")
        for j in range(i + 1, m):
            c, d = bedges[j]
            adjacent = j == i + 1 or (i == 0 and j == m - 1)
            if adjacent:
                shared = b if j == i + 1 else a
                other_c = d if j == i + 1 else c
                if _on_segment(other_c, a, b) and other_c != shared:
                    raise PlanarityError("border folds back on itself")
                if _collinear_overlap(a, b, c, d):
                    raise PlanarityError("border edges overlap")
            elif _segments_touch(a, b, c, d):
                raise PlanarityError("border edges cross")

    # every vertex off the border lies strictly inside it
    for idx in range(n):
        if not flags[idx] and not _point_in_polygon(pts[idx], bpoly):
            raise StructuralError("vertex %d lies outside the paper" % idx)

    # creases: valid indices, positive length, no duplicates, tested at C
    # speed first: a self-loop's end pair is a one-element set
    used, pairs = set(chain.from_iterable(p.creases)), set(map(frozenset, p.creases))
    if not used <= set(range(n)) or len(pairs) < len(p.creases) or 1 in map(len, pairs):
        seen = set()
        for ci, (i, j) in enumerate(p.creases):
            if not (0 <= i < n and 0 <= j < n):
                raise StructuralError("crease %d has a dangling endpoint" % ci)
            if i == j:
                raise StructuralError("crease %d is a self-loop" % ci)
            key = frozenset((i, j))
            if key in seen:
                raise StructuralError("crease %d duplicates another crease" % ci)
            seen.add(key)

    # The pairwise checks below visit only pairs whose bounding boxes meet,
    # found by sorting and sweeping, and decide those with the exact
    # predicates. Each reports its first failure in id order: the lowest
    # crease, then the lowest vertex or crease with it.
    boxes = []
    for i, j in p.creases:
        (ax, ay), (bx, by) = pts[i], pts[j]
        x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
        y0, y1 = (ay, by) if ay <= by else (by, ay)
        boxes.append((x0, y0, x1, y1))

    # no vertex may sit inside a crease: with the vertices sorted by point,
    # those in a crease's box lie between its lower and upper corners, among
    # others whose y is outside it
    ordered = [pts[k] for k in order]
    for ci, (i, j) in enumerate(p.creases):
        x0, y0, x1, y1 = boxes[ci]
        a, b = pts[i], pts[j]
        inside = [k for k in order[bisect_left(ordered, (x0, y0)):bisect_right(ordered, (x1, y1))]
                  if k != i and k != j and y0 <= pts[k][1] <= y1 and _on_segment(pts[k], a, b)]
        if inside:
            raise PlanarityError(
                "vertex %d lies inside crease %d; split the crease there" % (min(inside), ci)
            )

    # creases meet each other only at shared vertices (overlaps were caught
    # above): with the creases sorted by x0, a crease's box can meet only
    # those after it whose x0 is at most its x1
    rows = sorted(box + crease + (ci,) for ci, (box, crease) in enumerate(zip(boxes, p.creases)))
    x0s = [row[0] for row in rows]
    candidates = []
    for k, (_, y0, x1, y1, i1, j1, ci) in enumerate(rows):
        for _, v0, _, v1, i2, j2, cj in rows[k + 1:bisect_right(x0s, x1, k + 1)]:
            if v0 <= y1 and v1 >= y0 and i2 != i1 and i2 != j1 and j2 != i1 and j2 != j1:
                candidates.append((ci, cj) if ci < cj else (cj, ci))
    candidates.sort()
    for ci, cj in candidates:
        (i1, j1), (i2, j2) = p.creases[ci], p.creases[cj]
        if _segments_touch(pts[i1], pts[j1], pts[i2], pts[j2]):
            raise PlanarityError("creases %d and %d cross" % (ci, cj))

    # creases stay inside the paper: they may touch the border only at endpoints
    bboxes = _boxed(bedges)
    for ci, (i, j) in enumerate(p.creases):
        a, b = pts[i], pts[j]
        x0, y0, x1, y1 = boxes[ci]
        for u0, v0, u1, v1, c, d in bboxes:
            if u0 > x1 or u1 < x0 or v0 > y1 or v1 < y0:
                continue
            if _proper_cross(a, b, c, d):
                raise PlanarityError("crease %d crosses the border" % ci)
            if _collinear_overlap(a, b, c, d):
                raise PlanarityError("crease %d runs along the border" % ci)
        # The checks above keep the open crease off the border, so a crease
        # with an interior endpoint is inside. One running border to border
        # may still cross a notch of non-convex paper; its midpoint decides.
        border_to_border = p.vertices[i].on_boundary and p.vertices[j].on_boundary
        mid = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
        if border_to_border and not _point_in_polygon(mid, bpoly):
            raise PlanarityError("crease %d lies outside the paper" % ci)

    # every interior vertex must carry at least one crease
    for idx, vert in enumerate(p.vertices):
        if not vert.on_boundary and idx not in used:
            raise StructuralError("isolated interior vertex %d" % idx)

    _check_label_count(p.assignment, p.creases)

    for idx in p.split_vertices:
        if not 0 <= idx < n or p.vertices[idx].on_boundary:
            raise StructuralError("split tag on a non-interior vertex %d" % idx)


def normalize_pattern(p: CreasePattern) -> CreasePattern:
    """Split every border-to-border crease at its midpoint.

    The new degree-2 interior vertex is tagged in ``split_vertices`` and both
    halves inherit the original crease's label. Idempotent: a pattern with no
    border-to-border crease is returned as it is. The split pattern keeps the
    integer geometry of ``p``, extended by the midpoints, which are integers
    because the scale is even, and merged into its order.
    """
    if p._border_crease is None:
        return p
    ipts, flags, scale, order = p._geometry
    ipts, flags, vertices = list(ipts), list(flags), list(p.vertices)
    creases: list[tuple[int, int]] = []
    labels: list[MVLabel] = []
    for ci, (i, j) in enumerate(p.creases):
        halves = [(i, j)]
        if flags[i] and flags[j]:
            mid_id = len(ipts)
            mx, my = (ipts[i][0] + ipts[j][0]) // 2, (ipts[i][1] + ipts[j][1]) // 2
            ipts.append((mx, my))
            flags.append(False)
            vertices.append(Vertex(Fraction(mx, scale), Fraction(my, scale), False))
            halves = [(i, mid_id), (mid_id, j)]
        creases.extend(halves)
        if p.assignment is not None:
            labels.extend([p.assignment[ci]] * len(halves))
    return _assemble(
        vertices=tuple(vertices),
        creases=tuple(creases),
        boundary=p.boundary,
        assignment=MVAssignment(tuple(labels)) if p.assignment is not None else None,
        split_vertices=p.split_vertices | set(range(len(p.vertices), len(vertices))),
        _geometry=(ipts, flags, scale, sorted([*order, *range(len(p.vertices), len(ipts))],
                                              key=ipts.__getitem__)),
        _border_crease=None,
    )


def _assemble(**fields) -> CreasePattern:
    """A `CreasePattern` from coerced fields and their ``_geometry``, skipping
    `_validate_pattern`, which `build` runs once. `normalize_pattern` needs no
    check: the halves of a validated crease keep every planarity property of
    the whole, and its midpoint is strictly inside the paper and on no other
    crease or vertex."""
    p = object.__new__(CreasePattern)
    p.__dict__.update(fields)
    return p


# --------------------------------------------------------------------------
# vertex stars


def _ccw_key(d: tuple[int, int]) -> tuple:
    """A sort key ordering directions counterclockwise from +x, exactly.

    The upper half-plane, +x included, comes first (``half`` 0), then the
    lower one, -x included; within a half the axis direction leads, then
    the cotangent falls, so -dx/dy rises. It is an int when dy divides dx,
    as on the axes and the diagonals, since ints compare at C speed, and a
    `Fraction` otherwise. Two creases leaving a vertex in one direction get
    equal keys rather than an error: validation has already ruled them out,
    since the shorter one would end inside the longer.
    """
    dx, dy = d
    half = 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1
    if dy == 0:
        return (half, 0, 0)
    q, r = divmod(-dx, dy)
    return (half, 1, q if r == 0 else Fraction(-dx, dy))


def _directions(p: CreasePattern, v: int) -> list[tuple[int, tuple[int, int]]]:
    """Each crease at v with its outgoing direction in the integer-scaled plane."""
    if not 0 <= v < len(p.vertices):
        raise StructuralError("vertex %d out of range" % v)
    ipts = p._geometry[0]
    (vx, vy), out = ipts[v], []
    for ci in p._incidence[v]:
        ox, oy = ipts[sum(p.creases[ci]) - v]  # the other end
        out.append((ci, (ox - vx, oy - vy)))
    return out


def _ccw_directions(p: CreasePattern, v: int) -> list[tuple[int, tuple[int, int]]]:
    """Each crease at the interior vertex v with its direction, sorted
    counterclockwise from +x: one read serves a vertex's curve and its star."""
    creases = _directions(p, v)
    if p.vertices[v].on_boundary:
        raise StructuralError(
            "vertex %d is on the border; border vertices follow different rules" % v
        )
    if not creases:
        raise StructuralError("vertex %d has no creases" % v)
    return sorted(creases, key=lambda cd: _ccw_key(cd[1]))


def _direction_degrees_exact(d: tuple[int, int]) -> Optional[int]:
    """Exact degree measure of a direction, or None if it is not a 45° multiple.

    Directions with a rational tangent have a rational degree measure only
    for tangents 0 and +-1 (and the vertical), so these are the only exactly
    representable cases over rational coordinates. The integer-scaled
    direction has the same signs and equalities as the rational one.
    """
    dx, dy = d
    if dy == 0:
        return 0 if dx > 0 else 180
    if dx == 0:
        return 90 if dy > 0 else 270
    if dx == dy:
        return 45 if dx > 0 else 225
    if dx == -dy:
        return 135 if dy > 0 else 315
    return None


def vertex_star(p: CreasePattern, v: int) -> AngleSequence:
    """Consecutive sector angles between the creases at an interior vertex.

    Exact, and defined only when every incident crease runs at a multiple of
    45 degrees (or the vertex has a single crease): no other direction with
    rational coordinates has a rational degree measure, so any other vertex
    raises `ExactnessError`, naming its first such crease counterclockwise
    from +x. Closure needs no star: `pattern.reflection_trace` decides it
    exactly at every vertex.
    """
    directions = _ccw_directions(p, v)
    sectors = _star_degrees(directions)
    if sectors is None:
        ci = next(ci for ci, d in directions if _direction_degrees_exact(d) is None)
        raise ExactnessError("crease %d at vertex %d is not at a multiple of 45 degrees" % (ci, v))
    return AngleSequence(sectors, 1)


def _star_degrees(directions: list[tuple[int, tuple[int, int]]]) -> Optional[list[int]]:
    """The sectors between the creases as `_ccw_directions` lists them, in
    whole degrees, or None when a crease runs at no multiple of 45 degrees."""
    if len(directions) == 1:
        return [360]
    # counterclockwise from +x is the order of the degree measures
    thetas = [_direction_degrees_exact(d) for _, d in directions]
    if None in thetas:
        return None
    sectors = [b - a for a, b in zip(thetas, thetas[1:])]
    sectors.append(360 - thetas[-1] + thetas[0])
    return sectors
