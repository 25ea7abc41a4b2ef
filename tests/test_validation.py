"""Pattern validation against the exact `Fraction` reference it replaced.

`reference_validate` is the pairwise checker `CreasePattern` used before
validation moved to scaled integer coordinates with bounding-box pruning: it
compares every crease with every vertex and every other crease, in
`Fraction` arithmetic. The new validator must accept and reject exactly the
same inputs, with the same exception class and the same message, so the
first failing vertex, crease or pair is unchanged too.
"""

import random
import re
from fractions import Fraction

import pytest

from flatfold import core
from flatfold.core import (
    CreasePattern,
    MVAssignment,
    Vertex,
    _border_edges,
    _collinear_overlap,
    _on_segment,
    _proper_cross,
    _segments_touch,
)
from flatfold.errors import PlanarityError, StructuralError
from generators import chain_pattern


def _reference_point_in_polygon(p, poly):
    inside = False
    px, py = p
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if xint > px:
                inside = not inside
    return inside


def reference_validate(p):
    n = len(p.vertices)
    if len(p.boundary) < 3:
        raise StructuralError("the border needs at least three vertices")
    for i in p.boundary:
        if not 0 <= i < n:
            raise StructuralError("border vertex index %d out of range" % i)
    if len(set(p.boundary)) != len(p.boundary):
        raise StructuralError("border cycle repeats a vertex")

    pts = [v.point for v in p.vertices]
    if len(set(pts)) != n:
        raise StructuralError("two vertices share the same coordinates")

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

    for idx, vert in enumerate(p.vertices):
        on_border = any(_on_segment(vert.point, a, b) for a, b in bedges)
        if on_border != vert.on_boundary:
            raise StructuralError("vertex %d has a wrong border flag" % idx)
        if not on_border and not _reference_point_in_polygon(vert.point, bpoly):
            raise StructuralError("vertex %d lies outside the paper" % idx)

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

    for ci, (i, j) in enumerate(p.creases):
        a, b = pts[i], pts[j]
        for idx in range(n):
            if idx in (i, j):
                continue
            if _on_segment(pts[idx], a, b):
                raise PlanarityError(
                    "vertex %d lies inside crease %d; split the crease there" % (idx, ci)
                )

    for ci in range(len(p.creases)):
        i1, j1 = p.creases[ci]
        a, b = pts[i1], pts[j1]
        for cj in range(ci + 1, len(p.creases)):
            i2, j2 = p.creases[cj]
            c, d = pts[i2], pts[j2]
            if {i1, j1} & {i2, j2}:
                continue
            if _segments_touch(a, b, c, d):
                raise PlanarityError("creases %d and %d cross" % (ci, cj))

    for ci, (i, j) in enumerate(p.creases):
        a, b = pts[i], pts[j]
        for c, d in bedges:
            if _proper_cross(a, b, c, d):
                raise PlanarityError("crease %d crosses the border" % ci)
            if _collinear_overlap(a, b, c, d):
                raise PlanarityError("crease %d runs along the border" % ci)
        border_to_border = p.vertices[i].on_boundary and p.vertices[j].on_boundary
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        if border_to_border and not _reference_point_in_polygon(mid, bpoly):
            raise PlanarityError("crease %d lies outside the paper" % ci)

    used = {i for crease in p.creases for i in crease}
    for idx, vert in enumerate(p.vertices):
        if not vert.on_boundary and idx not in used:
            raise StructuralError("isolated interior vertex %d" % idx)

    if p.assignment is not None and len(p.assignment) != len(p.creases):
        raise StructuralError(
            "assignment has %d labels for %d creases"
            % (len(p.assignment), len(p.creases))
        )

    for idx in p.split_vertices:
        if not 0 <= idx < n or p.vertices[idx].on_boundary:
            raise StructuralError("split tag on a non-interior vertex %d" % idx)


def unvalidated(vertices, creases, boundary):
    return core._assemble(
        vertices=tuple(vertices),
        creases=tuple((int(i), int(j)) for i, j in creases),
        boundary=tuple(int(i) for i in boundary),
        assignment=None,
        split_vertices=frozenset(),
    )


def reference_build(points, creases, boundary):
    """`CreasePattern.build` as it was: border flags from `Fraction` points."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    bedges = _border_edges(pts, boundary)
    flags = [any(_on_segment(q, a, b) for a, b in bedges) for q in pts]
    p = unvalidated(
        [Vertex(x, y, flag) for (x, y), flag in zip(pts, flags)], creases, boundary
    )
    reference_validate(p)
    return p


def outcome(make):
    try:
        return make()
    except StructuralError as exc:
        return type(exc), str(exc)


def same_verdict(points, creases, boundary):
    """Build with both validators; return the shared pattern or (class, message)."""
    new = outcome(lambda: CreasePattern.build(points, creases, boundary))
    ref = outcome(lambda: reference_build(points, creases, boundary))
    assert new == ref
    return ref


def lattice(nx, ny, diagonals=True):
    """Points, creases and border of an nx x ny unit grid on a 45-degree
    lattice.

    Every interior grid line is cut into unit creases at the lattice points;
    with ``diagonals`` the cells with x - y even also get their rising
    diagonal, so diagonals meet only at lattice points. Creases number
    nx (ny - 1) + ny (nx - 1), plus about half of nx ny diagonals.
    """
    grid = [(x, y) for y in range(ny + 1) for x in range(nx + 1)]
    index = {q: k for k, q in enumerate(grid)}
    segments = [((x, y), (x + 1, y)) for y in range(1, ny) for x in range(nx)]
    segments += [((x, y), (x, y + 1)) for x in range(1, nx) for y in range(ny)]
    if diagonals:
        segments += [
            ((x, y), (x + 1, y + 1))
            for x in range(nx)
            for y in range(ny)
            if (x - y) % 2 == 0
        ]
    creases = [(index[a], index[b]) for a, b in segments]
    border = [index[c] for c in ((0, 0), (nx, 0), (nx, ny), (0, ny))]
    return grid, creases, border


# x -> s x + (dx, dy): integer, negative and non-integer rational coordinates
TRANSFORMS = [
    (1, (0, 0)),
    (Fraction(1, 3), (Fraction(-5, 7), Fraction(1, 3))),
    (Fraction(5, 7), (0.25, Fraction(-5, 7))),
    (0.25, (Fraction(-1, 3), -2)),
]


def mapped(points, transform):
    s, (dx, dy) = (Fraction(transform[0]), map(Fraction, transform[1]))
    return [(s * Fraction(x) + dx, s * Fraction(y) + dy) for x, y in points]


def shuffled(rng, points, creases, border):
    """The same pattern with its vertices and creases listed in random order."""
    perm = list(range(len(points)))
    rng.shuffle(perm)
    new_id = {old: new for new, old in enumerate(perm)}
    creases = [(new_id[i], new_id[j]) for i, j in creases]
    rng.shuffle(creases)
    return [points[k] for k in perm], creases, [new_id[i] for i in border]


def add_point(points, q):
    points.append(q)
    return len(points) - 1


def along(a, b, t):
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def off(q, a, b, t):
    """q moved sideways by t times the length of ab."""
    return (q[0] - t * (b[1] - a[1]), q[1] + t * (b[0] - a[0]))


# Mutants of an nx x ny lattice, in lattice units; each aims at one check.


def vertex_onto_crease(rng, points, creases, nx, ny):
    ci = rng.randrange(len(creases))
    a, b = (points[k] for k in creases[ci])
    inner = [
        k for k, (x, y) in enumerate(points)
        if 0 < x < nx and 0 < y < ny and k not in creases[ci]
    ]
    points[rng.choice(inner)] = along(a, b, Fraction(rng.randint(1, 2), 3))


def crossing_crease(rng, points, creases, nx, ny):
    a, b = (points[k] for k in rng.choice(creases))
    q = along(a, b, Fraction(1, 3))
    creases.append(
        (add_point(points, off(q, a, b, Fraction(1, 5))),
         add_point(points, off(q, a, b, Fraction(-1, 5))))
    )


def touching_crease(rng, points, creases, nx, ny):
    a, b = (points[k] for k in rng.choice(creases))
    q = along(a, b, Fraction(1, 2))
    creases.append((add_point(points, q), add_point(points, off(q, a, b, Fraction(1, 5)))))


def crease_along_border(rng, points, creases, nx, ny):
    x = rng.randrange(nx)
    creases.append((points.index((x, 0)), points.index((x + 1, 0))))


def vertex_outside(rng, points, creases, nx, ny):
    add_point(points, (nx + Fraction(1, 3), Fraction(ny, 2)))


def random_crease(rng, points, creases, nx, ny):
    i, j = rng.sample(range(len(points)), 2)
    creases.append((i, j))


LATTICE_MUTANTS = [
    vertex_onto_crease,
    crossing_crease,
    touching_crease,
    crease_along_border,
    vertex_outside,
    random_crease,
]

# The L-shaped sheet (0,0)-(4,4) without the corner x > 2, y > 2: vertices
# 6 and 7 sit on the notch edges, 8 and 9 inside the two arms.
L_SHAPE = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4), (3, 2), (2, 3),
           (3, 1), (1, Fraction(7, 2))]
# A square with a notch cut to (3, 4) from the right; the crease from (6, 6)
# to (0, 3) passes above the notch, and its midpoint (3, 9/2) is not a
# lattice point, unlike the notch tip just below it.
DART = [(0, 0), (6, 0), (3, 4), (6, 6), (0, 6), (0, 3)]
NON_CONVEX_CASES = {
    "notch crease": (L_SHAPE, [(6, 7)], range(6)),
    "crease across the notch": (L_SHAPE, [(8, 9)], range(6)),
    "self-touching border": ([(0, 0), (4, 0), (4, 4), (0, 4), (4, 2)], [], range(5)),
    "crease past a notch tip": (DART, [(3, 5)], range(5)),
    # the border turns straight back along its first edge: to a point on it,
    # and past its start
    "border folding back": ([(0, 0), (2, 0), (1, 0), (0, 2)], [], range(4)),
    "border overlapping itself": ([(0, 0), (1, 0), (-1, 0), (0, 2)], [], range(4)),
}

# every check the mutants aim at, as the reference words it (digits as N)
AIMED_AT = {
    "vertex N lies inside crease N; split the crease there",
    "creases N and N cross",
    "crease N runs along the border",
    "vertex N lies outside the paper",
    "crease N crosses the border",
    "crease N lies outside the paper",
    "border edges cross",
    "border folds back on itself",
    "border edges overlap",
}


@pytest.mark.parametrize("seed", range(6))
def test_accepts_the_same_lattices(seed):
    rng = random.Random(seed)
    points, creases, border = lattice(rng.randint(2, 4), rng.randint(2, 4), rng.random() < 0.7)
    points = mapped(points, TRANSFORMS[seed % len(TRANSFORMS)])
    p = same_verdict(*shuffled(rng, points, creases, border))
    assert isinstance(p, CreasePattern)


@pytest.mark.parametrize("seed", range(6))
def test_accepts_the_same_chain_patterns(seed):
    rng = random.Random(100 + seed)
    q = chain_pattern(rng, rng.randint(1, 3), with_split=seed % 2 == 0)
    points = mapped([v.point for v in q.vertices], TRANSFORMS[seed % len(TRANSFORMS)])
    p = same_verdict(*shuffled(rng, points, q.creases, q.boundary))
    assert isinstance(p, CreasePattern)


def test_same_rejections_and_messages():
    seen = set()
    for seed in range(16):
        rng = random.Random(seed)
        transform = TRANSFORMS[seed % len(TRANSFORMS)]
        for mutate in LATTICE_MUTANTS:
            nx, ny = rng.randint(3, 4), 3
            points, creases, border = lattice(nx, ny, rng.random() < 0.7)
            mutate(rng, points, creases, nx, ny)
            parts = shuffled(rng, mapped(points, transform), creases, border)
            verdict = same_verdict(*parts)
            if isinstance(verdict, tuple):
                seen.add(re.sub(r"\d+", "N", verdict[1]))
        for points, creases, border in NON_CONVEX_CASES.values():
            verdict = same_verdict(mapped(points, transform), creases, list(border))
            if isinstance(verdict, tuple):
                seen.add(re.sub(r"\d+", "N", verdict[1]))
    assert AIMED_AT <= seen


def moved_last(points, creases, border, before):
    """The pattern with the vertices a mutant moved or added (those not in
    ``before``, the points it started from) listed last, and with them the
    creases that contain one of those vertices, so that the failure the
    mutant aims at comes last in both orders."""
    changed = [k for k, q in enumerate(points) if k >= len(before) or q != before[k]]
    perm = [k for k in range(len(points)) if k not in changed] + changed
    new_id = {old: new for new, old in enumerate(perm)}
    creases = [(new_id[i], new_id[j]) for i, j in creases]
    points = [points[k] for k in perm]
    moved = set(range(len(points) - len(changed), len(points)))
    touched = [
        c for c in creases
        if any(_on_segment(points[k], points[c[0]], points[c[1]]) for k in moved)
    ]
    creases = [c for c in creases if c not in touched] + touched
    return points, creases, [new_id[i] for i in border]


def test_same_rejections_with_the_mutant_last():
    """The sweeps visit vertices and creases in sorted order, not in the
    order of the file: on shuffled lattices of up to 8 x 8, with the
    mutant's vertices and creases listed last, they still report what the
    reference's all-pairs loops meet first."""
    seen = set()
    for seed in range(4):
        rng = random.Random(300 + seed)
        transform = TRANSFORMS[seed % len(TRANSFORMS)]
        for mutate in LATTICE_MUTANTS:
            nx, ny = (8, 8) if seed == 0 else (rng.randint(3, 6), rng.randint(3, 6))
            points, creases, border = shuffled(rng, *lattice(nx, ny, rng.random() < 0.7))
            before = list(points)
            mutate(rng, points, creases, nx, ny)
            points, creases, border = moved_last(points, creases, border, before)
            verdict = same_verdict(mapped(points, transform), creases, border)
            if isinstance(verdict, tuple):
                seen.add(re.sub(r"\d+", "N", verdict[1]))
    assert {
        "vertex N lies inside crease N; split the crease there",
        "creases N and N cross",
        "crease N runs along the border",
        "vertex N lies outside the paper",
    } <= seen


def counted(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def test_predicate_work_stays_near_linear(monkeypatch):
    """The sweeps keep the pairwise checks from calling the exact predicates
    on far-apart pairs: about C^2 / 2 calls each without them."""
    calls = {"_segments_touch": 0, "_on_segment": 0}
    for name in calls:
        monkeypatch.setattr(core, name, counted(calls, name, getattr(core, name)))
    for n, least in ((12, 300), (40, 3900)):
        calls.update(dict.fromkeys(calls, 0))
        p = CreasePattern.build(*lattice(n, n))
        c = len(p.creases)
        assert c >= least
        assert 0 < calls["_segments_touch"] <= c
        assert 0 < calls["_on_segment"] <= 10 * c


class TestWithAssignment:
    def test_relabels_without_validating(self, monkeypatch):
        p = CreasePattern.build(*lattice(3, 3))
        mv = MVAssignment(tuple("MV"[k % 2] for k in range(len(p.creases))))
        validations = []
        monkeypatch.setattr(core, "_validate_pattern", validations.append)
        q = p.with_assignment(mv)
        assert validations == []
        assert q.assignment == mv
        assert (q.vertices, q.creases, q.boundary, q.split_vertices) == (
            p.vertices, p.creases, p.boundary, p.split_vertices
        )

    def test_wrong_label_count(self, monkeypatch):
        p = CreasePattern.build(*lattice(2, 2))
        monkeypatch.setattr(core, "_validate_pattern", lambda q: pytest.fail("validated"))
        with pytest.raises(StructuralError, match="assignment has 1 labels for"):
            p.with_assignment(MVAssignment.from_string("M"))
