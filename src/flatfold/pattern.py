"""Multi-vertex necessary-condition checks.

Everything here is necessary only: a pattern can pass every per-vertex
closure test, every reflection-composition trace, and the global parity
identity and still not fold flat. Deciding global flat-foldability is
NP-hard and deliberately out of scope.

Reflection maps use floating point: crease directions are generally
irrational in any exact model. The identity tolerance of 1e-9 leaves about
six orders of magnitude of headroom over double-precision composition error
at the few-dozen-reflection depths used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    CreasePattern,
    MVLabel,
    PatternTally,
    incident_creases_ccw,
    vertex_star,
    _orient,
)
from .errors import LocalMaekawaError, StructuralError
from .vertex import alternating_sum, kawasaki

IDENTITY_TOL = 1e-9
# |alternating sum| below this counts as closure for float-derived stars
APPROX_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class AffineMap:
    """Affine isometry of the plane: x -> M x + t with M 2x2 orthogonal."""

    a: float
    b: float
    c: float
    d: float
    tx: float
    ty: float

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @classmethod
    def reflection_across(
        cls, p: tuple[float, float], q: tuple[float, float]
    ) -> "AffineMap":
        dx, dy = q[0] - p[0], q[1] - p[1]
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise StructuralError("cannot reflect across a zero-length crease")
        ux, uy = dx / norm, dy / norm
        a = ux * ux - uy * uy
        b = 2.0 * ux * uy
        # fixed point p:  t = p - M p
        tx = p[0] - (a * p[0] + b * p[1])
        ty = p[1] - (b * p[0] - a * p[1])
        return cls(a, b, b, -a, tx, ty)

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return (self.a * x + self.b * y + self.tx, self.c * x + self.d * y + self.ty)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other (matrix product self . other)."""
        return AffineMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.a * other.tx + self.b * other.ty + self.tx,
            self.c * other.tx + self.d * other.ty + self.ty,
        )

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def deviation_from_identity(self) -> float:
        return max(
            abs(self.a - 1.0),
            abs(self.b),
            abs(self.c),
            abs(self.d - 1.0),
            abs(self.tx),
            abs(self.ty),
        )

    def is_identity(self, tol: float = IDENTITY_TOL) -> bool:
        return self.deviation_from_identity() <= tol


def reflection(p: CreasePattern, crease: int) -> AffineMap:
    """Reflection across the full line containing a crease segment."""
    if not 0 <= crease < len(p.creases):
        raise StructuralError("crease %d out of range" % crease)
    i, j = p.creases[crease]
    return AffineMap.reflection_across(p.float_points[i], p.float_points[j])


@dataclass(frozen=True)
class ClosedCurve:
    """A closed, vertex-avoiding curve recorded by the creases it crosses,
    in order: the reflection composition depends on nothing else."""

    crease_ids: tuple[int, ...]


@dataclass(frozen=True)
class TraceResult:
    map: AffineMap
    is_identity: bool
    rotation_degrees: Optional[float] = None
    failure_reason: Optional[str] = None


def reflection_trace(p: CreasePattern, curve: ClosedCurve) -> TraceResult:
    """Compose the reflections across the creases the curve crosses, in order.

    If the pattern folds flat the composition must be the identity, so a
    non-identity composition certifies non-foldability; the identity does
    not certify anything. An odd crossing count makes the composition
    orientation-reversing and fails automatically.
    """
    if not curve.crease_ids:
        raise ValueError("the curve crosses no creases")
    composed = AffineMap.identity()
    for cid in curve.crease_ids:
        composed = composed.compose(reflection(p, cid))
    if len(curve.crease_ids) % 2 != 0:
        return TraceResult(
            map=composed,
            is_identity=False,
            failure_reason="odd crossing count: the composition reverses orientation",
        )
    rotation = math.degrees(math.atan2(composed.c, composed.a))
    identity = composed.is_identity()
    return TraceResult(
        map=composed,
        is_identity=identity,
        rotation_degrees=0.0 if identity else rotation,
        failure_reason=None if identity else "composition is not the identity",
    )


def curve_around_vertex(p: CreasePattern, v: int) -> ClosedCurve:
    """A small circle around an interior vertex, listing its creases in
    counterclockwise order.

    Validation has proved, exactly, that no other vertex, crease or border
    edge touches ``v`` and that no two of its creases share a direction, so
    a small enough circle crosses exactly ``v``'s creases, once each, in the
    order `incident_creases_ccw` sorts them.
    """
    if p.vertices[v].on_boundary:
        raise StructuralError("vertex %d is on the border" % v)
    incident = incident_creases_ccw(p, v)
    if not incident:
        raise StructuralError("vertex %d has no creases" % v)
    return ClosedCurve(tuple(ci for ci, _ in incident))


@dataclass(frozen=True)
class VertexCheck:
    passes: bool
    exact: bool
    angles: tuple[str, ...]


def local_kawasaki_all(p: CreasePattern) -> dict[int, VertexCheck]:
    """Per-interior-vertex closure report.

    Exact stars get the exact verdict; stars recovered through floats are
    flagged approximate and judged against a small tolerance instead of
    failing the whole report. Necessary only: every vertex passing does not
    make the pattern foldable.
    """
    _require_normalized(p)
    report: dict[int, VertexCheck] = {}
    for v in p.interior_vertex_ids():
        star = vertex_star(p, v)
        if star.exact:
            passes = kawasaki(star)
        else:
            passes = (
                len(star) % 2 == 0
                and abs(float(alternating_sum(star))) <= APPROX_CLOSURE_TOL
            )
        report[v] = VertexCheck(
            passes=passes, exact=star.exact, angles=tuple(star.as_strings())
        )
    return report


def _require_normalized(p: CreasePattern) -> None:
    for ci, (i, j) in enumerate(p.creases):
        if p.vertices[i].on_boundary and p.vertices[j].on_boundary:
            raise StructuralError(
                "crease %d joins border to border; normalize the pattern first" % ci
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
    return _orient(p.point(others[0]), p.point(v), p.point(others[1])) == 0


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
    interior = p.interior_vertex_ids()
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
