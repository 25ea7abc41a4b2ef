"""Multi-vertex necessary-condition checks.

Everything here is necessary only: a pattern can pass every per-vertex
closure test, every reflection-composition trace, and the global parity
identity and still not fold flat. Deciding global flat-foldability is
NP-hard and deliberately out of scope.

Every verdict is exact. A crease direction with rational coordinates has in
general no rational degree measure, but the reflection across its line is a
rational affine map, so reflection maps keep integer entries over one
denominator and the identity test is an equality. A closed curve is the
tuple of the crease ids it crosses, in order. Around a flat vertex the
composition of the reflections across its creases is the identity exactly
when the alternating sector sum is zero (Justin), so the composition
decides closure at every vertex, whether or not its sector angles can be
written down. Each crease's reflection is built once per pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    CreasePattern,
    MVLabel,
    PatternTally,
    vertex_star,  # noqa: F401 -- callers read it from this module
    _ccw_directions,
    _orient,
    _reflection_entries,
    _star_degrees,
)
from .errors import LocalMaekawaError, StructuralError


@dataclass(frozen=True)
class AffineMap:
    """Affine isometry of the plane, x -> (M x + t) / den, with integer
    entries and den > 0. Entries are not reduced, so two equal maps may be
    written differently; `is_identity` compares against ``den``."""

    a: int
    b: int
    c: int
    d: int
    tx: int
    ty: int
    den: int

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(1, 0, 0, 1, 0, 0, 1)

    @classmethod
    def reflection_across(cls, p: tuple[int, int], q: tuple[int, int]) -> "AffineMap":
        """Reflection across the line through the integer points ``p`` and ``q``."""
        a, b, tx, ty, n = _reflection_entries(p, q)
        return cls(a, b, b, -a, tx, ty, n)

    def apply(self, x, y) -> tuple[Fraction, Fraction]:
        return (Fraction(self.a * x + self.b * y + self.tx, self.den),
                Fraction(self.c * x + self.d * y + self.ty, self.den))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other (matrix product self . other)."""
        return AffineMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.a * other.tx + self.b * other.ty + other.den * self.tx,
            self.c * other.tx + self.d * other.ty + other.den * self.ty,
            self.den * other.den,
        )

    @property
    def det(self) -> Fraction:
        return Fraction(self.a * self.d - self.b * self.c, self.den * self.den)

    def is_identity(self) -> bool:
        return (self.a == self.d == self.den
                and self.b == self.c == self.tx == self.ty == 0)


def reflection(p: CreasePattern, crease: int) -> AffineMap:
    """Reflection across the full line containing a crease segment."""
    return reflection_trace(p, (crease,)).map


@dataclass(frozen=True)
class TraceResult:
    map: AffineMap

    @property
    def is_identity(self) -> bool:
        return self.map.is_identity()

    @property
    def failure_reason(self) -> Optional[str]:
        m = self.map  # k reflections have determinant (-1)^k, over den^2 > 0
        if m.a * m.d - m.b * m.c < 0:
            return "odd crossing count: the composition reverses orientation"
        return None if self.is_identity else "composition is not the identity"


def reflection_trace(p: CreasePattern, crease_ids: Sequence[int]) -> TraceResult:
    """Compose the reflections across the creases a closed curve crosses,
    given as their ids in order.

    If the pattern folds flat the composition must be the identity, so a
    non-identity composition certifies non-foldability; the identity does
    not certify anything. An odd crossing count makes the composition
    orientation-reversing, never the identity.
    """
    if not crease_ids:
        raise ValueError("the curve crosses no creases")
    # The product identity . R1 . R2 ... in the plane scaled by s to
    # integers, on plain ints, then unscaled once: X = s x turns
    # X -> (M X + t) / den into (s M x + t) / (s den).
    # Each crease's reflection is built once per pattern (`_reflections`).
    reflections = p._reflections
    ma, mb, mc, md, mtx, mty, den = 1, 0, 0, 1, 0, 0, 1
    for cid in crease_ids:
        if not 0 <= cid < len(reflections):
            raise StructuralError("crease %d out of range" % cid)
        a, b, tx, ty, n = reflections[cid]
        ma, mb, mc, md, mtx, mty, den = (
            ma * a + mb * b, ma * b - mb * a, mc * a + md * b, mc * b - md * a,
            ma * tx + mb * ty + n * mtx, mc * tx + md * ty + n * mty, den * n,
        )
    s = p._geometry[2]
    return TraceResult(AffineMap(s * ma, s * mb, s * mc, s * md, mtx, mty, s * den))


def curve_around_vertex(p: CreasePattern, v: int) -> tuple[int, ...]:
    """A small circle around an interior vertex: the ids of its creases in
    counterclockwise order.

    Validation has proved, exactly, that no other vertex, crease or border
    edge touches ``v`` and that no two of its creases share a direction, so
    a small enough circle crosses exactly ``v``'s creases, once each, in
    counterclockwise order.
    """
    return tuple(ci for ci, _d in _ccw_directions(p, v))


@dataclass(frozen=True)
class VertexCheck:
    """The reflection trace around a vertex, which gives its closure
    verdict. ``angles`` names its sectors, and is None when the vertex has a
    crease at no multiple of 45 degrees: those sectors have no exact degree
    measure."""

    angles: Optional[tuple[str, ...]]
    curve: tuple[int, ...]
    trace: TraceResult

    @property
    def passes(self) -> bool:
        return self.trace.is_identity


def local_kawasaki_all(p: CreasePattern) -> dict[int, VertexCheck]:
    """Exact per-interior-vertex closure report.

    Each vertex is traced once, along the tuple of its crease ids, and
    passes when the trace is the identity: on flat paper that is Kawasaki's
    condition. Necessary only: every vertex passing does not make the
    pattern foldable.
    """
    _require_normalized(p)
    report: dict[int, VertexCheck] = {}
    for v in p._interior:
        # one sorted read of the directions gives the curve and the names
        directions = _ccw_directions(p, v)
        curve = tuple(ci for ci, _d in directions)
        trace = reflection_trace(p, curve)
        sectors = _star_degrees(directions)
        angles = None if sectors is None else tuple(map(str, sectors))
        report[v] = VertexCheck(angles, curve, trace)
    return report


def _require_normalized(p: CreasePattern) -> None:
    if p._border_crease is not None:
        raise StructuralError(
            "crease %d joins border to border; normalize the pattern first" % p._border_crease
        )


def _is_split_style(p: CreasePattern, v: int) -> bool:
    """Degree-2 interior vertex with collinear creases, both running to the
    border: structurally the bookkeeping vertex that splitting a
    border-to-border crease creates, whether or not it carries the tag."""
    incident = p.incident_creases(v)
    if len(incident) != 2 or p.vertices[v].on_boundary:
        return False
    others = []
    for ci in incident:
        i, j = p.creases[ci]
        others.append(j if i == v else i)
    if not all(p.vertices[o].on_boundary for o in others):
        return False
    ipts = p._geometry[0]
    return _orient(ipts[others[0]], ipts[v], ipts[others[1]]) == 0


def generalized_maekawa(p: CreasePattern) -> tuple[PatternTally, bool]:
    """Evaluate the multi-vertex parity identity M - V = 2U - 2D - Mi + Vi.

    Every interior vertex must satisfy local parity (M - V = +-2 over its
    creases), which classifies it up or down. Convention for the degree-2
    collinear vertices that splitting border-to-border creases creates:
    their two half-creases must share one label, the vertex counts as
    neither up nor down, and the pair -- one logical border-to-border
    crease, pure bookkeeping -- stays out of every crease tally. Interior
    creases are those with both endpoints off the border.
    """
    _require_normalized(p)
    if p.assignment is None:
        raise ValueError("the pattern carries no mountain-valley assignment")

    violations = []
    interior = p._interior
    local_tally = {}
    for v in interior:
        t = sum(
            1 if p.assignment[ci] is MVLabel.MOUNTAIN else -1
            for ci in p.incident_creases(v)
        )
        local_tally[v] = t
        if abs(t) != 2:
            violations.append(v)
    if violations:
        raise LocalMaekawaError(violations)

    split_style = {v for v in interior if _is_split_style(p, v)}
    excluded_creases = {
        ci for v in split_style for ci in p.incident_creases(v)
    }

    ups = sum(1 for v in interior if v not in split_style and local_tally[v] == 2)
    downs = sum(1 for v in interior if v not in split_style and local_tally[v] == -2)
    mountains = valleys = interior_mountains = interior_valleys = 0
    for ci, (i, j) in enumerate(p.creases):
        if ci in excluded_creases:
            continue
        is_mountain = p.assignment[ci] is MVLabel.MOUNTAIN
        mountains += is_mountain
        valleys += not is_mountain
        if not p.vertices[i].on_boundary and not p.vertices[j].on_boundary:
            interior_mountains += is_mountain
            interior_valleys += not is_mountain

    tally = PatternTally(
        mountains=mountains,
        valleys=valleys,
        interior_mountains=interior_mountains,
        interior_valleys=interior_valleys,
        up_vertices=ups,
        down_vertices=downs,
        split_pairs=len(split_style),
    )
    holds = (mountains - valleys) == (
        2 * ups - 2 * downs - interior_mountains + interior_valleys
    )
    return tally, holds
