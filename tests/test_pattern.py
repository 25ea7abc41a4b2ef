import ast
import dataclasses
import functools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from flatfold.cli import main, parse_pattern
from flatfold import core
from flatfold.core import (
    AngleSequence,
    CreasePattern,
    normalize_pattern,
    vertex_star,
)
from flatfold.corpus import random_flat_sequence
from flatfold.errors import ExactnessError, LocalMaekawaError, StructuralError
from flatfold.pattern import (
    AffineMap,
    curve_around_vertex,
    generalized_maekawa,
    local_kawasaki_all,
    reflection,
    reflection_trace,
)
from flatfold.vertex import kawasaki
from generators import (
    chain_pattern,
    random_local_parity_assignment,
    random_nonclosing_sequence,
    star_pattern,
)


def square(side=4):
    return [(0, 0), (side, 0), (side, side), (0, side)]


def cross_pattern(assignment=None):
    """Degree-4 axis-aligned star: creases east, north, west, south."""
    pts = square() + [(2, 2), (4, 2), (2, 4), (0, 2), (2, 0)]
    return CreasePattern.build(
        pts, [(4, 5), (4, 6), (4, 7), (4, 8)], boundary=(0, 1, 2, 3), assignment=assignment
    )


def two_vertex_pattern(shared, a_rest, b_rest):
    """Two degree-4 vertices joined by one interior crease.

    ``a_rest``/``b_rest`` label each vertex's north, south, and outer creases.
    """
    pts = [(0, -2), (4, -2), (4, 2), (0, 2), (1, 0), (3, 0),
           (1, 2), (1, -2), (0, 0), (3, 2), (3, -2), (4, 0)]
    creases = [(4, 5),                      # the shared interior crease
               (4, 6), (4, 7), (4, 8),      # vertex A: north, south, west
               (5, 9), (5, 10), (5, 11)]    # vertex B: north, south, east
    return CreasePattern.build(
        pts, creases, boundary=(0, 1, 2, 3), assignment=shared + a_rest + b_rest
    )


class TestReflection:
    def test_x_axis(self):
        m = AffineMap.reflection_across((0, 0), (1, 0))
        assert m.apply(3, Fraction(5, 2)) == (3, Fraction(-5, 2))

    def test_vertical_line_through_x_equals_one(self):
        pts = square() + [(1, 0), (1, 4)]
        p = CreasePattern.build(pts, [(4, 5)], boundary=(0, 1, 2, 3))
        assert reflection(p, 0).apply(0, 1) == (2, 1)
        assert reflection(p, 0).apply(5, -3) == (-3, -3)

    def test_involution(self):
        a, b = (Fraction(3, 10), Fraction(17, 10)), (Fraction(29, 10), Fraction(-2, 5))
        p = CreasePattern.build([(-1, -1), (4, -1), (4, 3), (-1, 3), a, b], [(4, 5)],
                                boundary=(0, 1, 2, 3))
        m = reflection(p, 0)
        assert m.compose(m).is_identity()
        assert m.det == -1
        assert m.apply(*a) == a and m.apply(*b) == b

    def test_crease_out_of_range(self):
        p = cross_pattern()
        n = len(p.creases)
        for crease in (n, -1):
            with pytest.raises(StructuralError, match="^crease %d out of range$" % crease):
                reflection(p, crease)
        with pytest.raises(StructuralError, match="^crease %d out of range$" % n):
            reflection_trace(p, [n])

    def test_degenerate_crease(self):
        with pytest.raises(StructuralError):
            AffineMap.reflection_across((1, 1), (1, 1))


class TestReflectionTrace:
    def test_crossing_one_crease_twice_is_identity(self):
        p = cross_pattern()
        result = reflection_trace(p, (0, 0))
        assert result.is_identity

    def test_around_square_vertex_is_identity(self):
        p = cross_pattern()
        result = reflection_trace(p, curve_around_vertex(p, 4))
        assert result.is_identity
        assert result.failure_reason is None

    def test_around_closure_violation_rotates_by_twice_the_defect(self):
        p = star_pattern(AngleSequence((100, 80, 90, 90)))
        result = reflection_trace(p, curve_around_vertex(p, 4))
        assert not result.is_identity
        # alternate angles sum to 190, ten degrees past a half turn
        m = result.map
        rotation = math.degrees(math.atan2(m.c / m.den, m.a / m.den))
        assert abs(rotation) == pytest.approx(20.0, abs=1e-6)

    def test_odd_crossing_count_fails_distinctly(self):
        p = cross_pattern()
        result = reflection_trace(p, (0, 1, 2))
        assert not result.is_identity
        assert "odd" in result.failure_reason

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            reflection_trace(cross_pattern(), ())

    def test_cyclic_start_does_not_change_the_verdict(self):
        p = cross_pattern()
        ids = curve_around_vertex(p, 4)
        for shift in range(len(ids)):
            rotated = ids[shift:] + ids[:shift]
            assert reflection_trace(p, rotated).is_identity

    def test_curve_around_both_vertices_of_a_chain(self):
        p = two_vertex_pattern("M", "MMV", "MMV")
        # walk counterclockwise around both interior vertices, crossing
        # every crease except the shared one
        curve = (3, 2, 5, 6, 4, 1)
        assert reflection_trace(p, curve).is_identity


class TestCurveAroundVertex:
    def test_lists_creases_in_cyclic_order(self):
        assert curve_around_vertex(cross_pattern(), 4) == (0, 1, 2, 3)
        p = two_vertex_pattern("M", "MMV", "MMV")
        assert curve_around_vertex(p, 4) == (0, 1, 3, 2)

    def test_split_vertex_curve(self):
        p = normalize_pattern(
            CreasePattern.build(
                square() + [(0, 2), (4, 2)], [(4, 5)], boundary=(0, 1, 2, 3)
            )
        )
        (split,) = p.split_vertices
        assert len(curve_around_vertex(p, split)) == 2

    def test_only_the_target_vertex_creases(self):
        p = two_vertex_pattern("M", "MMV", "MMV")
        assert sorted(curve_around_vertex(p, 4)) == [0, 1, 2, 3]

    def test_boundary_vertex_rejected(self):
        # the curve and the star refuse a border vertex with one check
        for around in (curve_around_vertex, vertex_star):
            with pytest.raises(StructuralError, match="^vertex 0 is on the border; border"):
                around(cross_pattern(), 0)

    @pytest.mark.parametrize("v", [-1, -9, 9])
    def test_vertex_index_out_of_range(self, v):
        p = cross_pattern()
        assert len(p.vertices) == 9
        for around in (curve_around_vertex, vertex_star):
            with pytest.raises(StructuralError, match="^vertex %d out of range$" % v):
                around(p, v)


@pytest.mark.parametrize("with_split", [False, True])
@pytest.mark.parametrize("k", [6, 10, 40])
def test_chain_pattern_draws_are_planar(k, with_split):
    for seed in range(20):
        p = chain_pattern(random.Random(seed), k, with_split=with_split)
        assert len(p.interior_vertex_ids()) == k + with_split


class TestLocalKawasaki:
    def test_exact_pass_and_fail(self):
        good = cross_pattern()
        assert local_kawasaki_all(good)[4].passes

        bad = star_pattern(AngleSequence((100, 80, 90, 90)))
        report = local_kawasaki_all(bad)
        assert not report[4].passes
        assert report[4].angles is None  # 100/80 stars have no exact angles

    def test_non_45_degree_valid_star_passes_exactly(self):
        rng = random.Random(4)
        p = star_pattern(random_flat_sequence(rng, 6))
        report = local_kawasaki_all(p)
        assert report[4].passes and report[4].angles is None

    def test_split_vertex_passes_trivially(self):
        p = normalize_pattern(
            CreasePattern.build(
                square() + [(0, 2), (4, 2)], [(4, 5)], boundary=(0, 1, 2, 3)
            )
        )
        (split,) = p.split_vertices
        assert local_kawasaki_all(p)[split].passes

    def test_unnormalized_pattern_rejected(self):
        p = CreasePattern.build(
            square() + [(0, 2), (4, 2)], [(4, 5)], boundary=(0, 1, 2, 3)
        )
        with pytest.raises(StructuralError):
            local_kawasaki_all(p)


class TestGeneralizedMaekawa:
    def test_single_vertex_three_one(self):
        tally, holds = generalized_maekawa(cross_pattern("MMMV"))
        assert holds
        assert (tally.mountains, tally.valleys) == (3, 1)
        assert (tally.up_vertices, tally.down_vertices) == (1, 0)
        assert (tally.interior_mountains, tally.interior_valleys) == (0, 0)

    def test_two_up_vertices_with_interior_crease(self):
        tally, holds = generalized_maekawa(two_vertex_pattern("M", "MMV", "MMV"))
        assert holds
        assert (tally.mountains, tally.valleys) == (5, 2)
        assert (tally.up_vertices, tally.down_vertices) == (2, 0)
        assert (tally.interior_mountains, tally.interior_valleys) == (1, 0)

    def test_one_vertex_flipped_down(self):
        tally, holds = generalized_maekawa(two_vertex_pattern("M", "MMV", "VVV"))
        assert holds
        assert (tally.up_vertices, tally.down_vertices) == (1, 1)
        assert (tally.interior_mountains, tally.interior_valleys) == (1, 0)

    def test_split_pair_is_bookkeeping(self):
        p = normalize_pattern(
            CreasePattern.build(
                square() + [(0, 2), (4, 2)],
                [(4, 5)],
                boundary=(0, 1, 2, 3),
                assignment="M",
            )
        )
        tally, holds = generalized_maekawa(p)
        assert holds
        assert tally.split_pairs == 1
        assert (tally.mountains, tally.valleys) == (0, 0)
        assert (tally.up_vertices, tally.down_vertices) == (0, 0)

    def test_local_violation_reports_vertex(self):
        with pytest.raises(LocalMaekawaError) as err:
            generalized_maekawa(cross_pattern("MMVV"))
        assert err.value.vertex_ids == (4,)

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            generalized_maekawa(cross_pattern())

    @pytest.mark.parametrize("labels", ["MMMV", "mmmv", ["M", "M", "M", "V"]])
    def test_relabelled_pattern_reads_labels_as_build_does(self, labels):
        # not four valleys, which would fail the local parity check
        assert generalized_maekawa(cross_pattern().with_assignment(labels)) == (
            generalized_maekawa(cross_pattern("MMMV"))
        )

    def test_holds_on_random_patterns(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 30:
            p = chain_pattern(rng, rng.randint(1, 5), with_split=(checked % 3 == 0))
            mv = random_local_parity_assignment(rng, p)
            if mv is None:
                continue
            labelled = p.with_assignment(mv)
            tally, holds = generalized_maekawa(labelled)
            assert holds
            genuine = sum(
                1 for v in labelled.interior_vertex_ids() if labelled.degree(v) >= 4
            )
            assert tally.up_vertices + tally.down_vertices == genuine
            checked += 1

    def test_holds_on_a_strip_deeper_than_the_recursion_limit(self):
        # 260 X-shaped stars in a row on a 520 x 2 strip, each crease running
        # from its star to the border: (x, 0) is vertex 2x, (x, 2) is 2x + 1
        k = 260
        points = [(x, y) for x in range(2 * k + 1) for y in (0, 2)]
        points += [(2 * i + 1, 1) for i in range(k)]
        creases = [
            (len(points) - k + i, 4 * i + corner) for i in range(k) for corner in (0, 1, 4, 5)
        ]
        p = CreasePattern.build(points, creases, boundary=(0, 4 * k, 4 * k + 1, 1))
        assert len(p.creases) > max(1000, sys.getrecursionlimit())
        mv = random_local_parity_assignment(random.Random(5), p)
        assert mv is not None
        tally, holds = generalized_maekawa(p.with_assignment(mv))
        assert holds
        assert tally.up_vertices + tally.down_vertices == k

    @staticmethod
    def unit_grid(width, height, diagonals=False):
        """Every unit grid segment of a width x height sheet as a crease, plus,
        with ``diagonals``, the rising diagonal of every unit square; segments
        with both ends on the border (the border itself, two corner
        diagonals) are left out."""
        index = {}
        for x in range(width + 1):
            for y in range(height + 1):
                index[x, y] = len(index)

        def on_border(x, y):
            return x in (0, width) or y in (0, height)

        steps = ((1, 0), (0, 1), (1, 1)) if diagonals else ((1, 0), (0, 1))
        creases = [
            (index[x, y], index[x + dx, y + dy])
            for x, y in index
            for dx, dy in steps
            if (x + dx, y + dy) in index
            and not (on_border(x, y) and on_border(x + dx, y + dy))
        ]
        corners = (index[0, 0], index[width, 0], index[width, height], index[0, height])
        return CreasePattern.build(list(index), creases, boundary=corners)

    @pytest.mark.parametrize(
        "width, height, diagonals", [(120, 4, False), (350, 2, True)], ids=["120x4", "350x2-diag"]
    )
    def test_labels_long_grid_strips(self, width, height, diagonals):
        p = self.unit_grid(width, height, diagonals)
        for seed in range(5):
            mv = random_local_parity_assignment(random.Random(seed), p)
            assert mv is not None, seed
            _tally, holds = generalized_maekawa(p.with_assignment(mv))
            assert holds


class TestStarTraceEquivalence:
    def test_identity_iff_closure_over_random_stars(self):
        rng = random.Random(31)
        for i in range(40):
            m = rng.choice((4, 6, 8))
            seq = (
                random_flat_sequence(rng, m)
                if i % 2 == 0
                else random_nonclosing_sequence(rng, m)
            )
            p = star_pattern(seq)
            result = reflection_trace(p, curve_around_vertex(p, 4))
            assert result.is_identity == kawasaki(seq)


def grid_pattern(rng, k):
    """A normalized random pattern on the k x k unit grid: each grid edge off
    the border with probability 1/2, and in each cell one diagonal, the other
    or none. Every direction is a multiple of 45 degrees, and many vertices
    fail closure."""
    segs = []
    for x in range(k):
        for y in range(k):
            if y > 0 and rng.random() < 0.5:
                segs.append(((x, y), (x + 1, y)))
            if x > 0 and rng.random() < 0.5:
                segs.append(((x, y), (x, y + 1)))
            style = rng.randrange(3)
            if style == 1:
                segs.append(((x, y), (x + 1, y + 1)))
            elif style == 2:
                segs.append(((x + 1, y), (x, y + 1)))
    corners = [(0, 0), (k, 0), (k, k), (0, k)]
    points = corners + sorted({q for seg in segs for q in seg} - set(corners))
    index = {q: i for i, q in enumerate(points)}
    creases = [(index[a], index[b]) for a, b in segs]
    return normalize_pattern(CreasePattern.build(points, creases, boundary=(0, 1, 2, 3)))


def rotated(p):
    """``p`` turned by the rotation (3/5, 4/5): its coordinates stay rational,
    but no crease direction stays a multiple of 45 degrees."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    points = [(c * v.x - s * v.y, s * v.x + c * v.y) for v in p.vertices]
    return CreasePattern.build(points, p.creases, p.boundary, p.assignment, p.split_vertices)


def test_rotation_keeps_every_verdict():
    rng = random.Random(1729)
    seen = set()
    for i in range(60):
        if i % 2 == 0:
            p = chain_pattern(rng, rng.randint(1, 5), with_split=(i % 4 == 0))
        else:
            p = grid_pattern(rng, rng.randint(3, 5))
        q = rotated(p)
        before, after = local_kawasaki_all(p), local_kawasaki_all(q)
        assert before.keys() == after.keys()
        for v, chk in before.items():
            trace = reflection_trace(p, curve_around_vertex(p, v)).is_identity
            # on the 45-degree lattice the star's own closure test agrees
            assert trace == kawasaki(vertex_star(p, v)) and chk.angles is not None
            assert after[v].passes == chk.passes
            assert reflection_trace(q, curve_around_vertex(q, v)).is_identity == trace
            # the rotated star has no exact angles, so the trace decided it
            assert (after[v].angles is None) == (q.degree(v) >= 2)
            seen.add(chk.passes)
    assert seen == {True, False}


def test_pattern_check_traces_each_vertex_once(tmp_path, monkeypatch, capsys):
    import flatfold.pattern as patmod

    q = rotated(grid_pattern(random.Random(3), 8))  # 115 creases, 49 interior vertices
    doc = {
        "vertices": [[str(v.x), str(v.y)] for v in q.vertices],
        "creases": [list(c) for c in q.creases],
        "boundary": list(q.boundary),
    }
    path = tmp_path / "rotated-grid.json"
    path.write_text(json.dumps(doc))
    calls = []
    real = patmod.reflection_trace
    monkeypatch.setattr(
        patmod, "reflection_trace", lambda p, curve: calls.append(curve) or real(p, curve)
    )
    assert main(["pattern", "check", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == len(report["reflection_traces"]) == 49


def test_pattern_check_builds_each_reflection_once(tmp_path, monkeypatch, capsys):
    # an interior crease is crossed by the curves around both of its ends,
    # but its reflection is built once, when the pattern's table is
    q = rotated(grid_pattern(random.Random(3), 8))  # 115 creases, 49 interior vertices
    path = tmp_path / "rotated-grid.json"
    path.write_text(json.dumps(_pattern_doc(q, [[str(v.x), str(v.y)] for v in q.vertices])))
    built = []
    real = core._reflection_entries
    monkeypatch.setattr(core, "_reflection_entries", lambda a, b: built.append(a) or real(a, b))
    assert main(["pattern", "check", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    crossings = sum(len(t["creases_crossed"]) for t in report["reflection_traces"].values())
    assert crossings > len(q.creases) >= len(built) > 0


def _pattern_doc(p, vertices):
    doc = {"vertices": vertices, "creases": [list(c) for c in p.creases],
           "boundary": list(p.boundary)}
    if p.assignment is not None:
        doc["assignment"] = [label.value for label in p.assignment]
    return doc


def _integer_points(p):
    """The points of ``p`` scaled by the LCM of their denominators, as ints: a
    similarity, so every verdict of ``pattern check`` stays as it is."""
    s = math.lcm(*(Fraction(c).denominator for v in p.vertices for c in (v.x, v.y)))
    return [(int(v.x * s), int(v.y * s)) for v in p.vertices]


def test_coordinate_spellings_give_one_pattern_and_one_report(tmp_path, capsys):
    # an integral coordinate stays an int, a "p/q" string or a decimal
    # becomes a Fraction: the three spellings of one integer point give one
    # geometry, equal vertices and the same report, byte for byte
    rng = random.Random(27)
    patterns = []
    for i in range(4):
        lattice = (grid_pattern(rng, rng.randint(2, 5)),
                   chain_pattern(rng, rng.randint(1, 4), with_split=(i % 2 == 0)))
        patterns += lattice + tuple(rotated(p) for p in lattice) + (mixed_star(rng),)
    for n, p in enumerate(patterns):
        p = p.with_assignment(random_local_parity_assignment(rng, p) or "M" * len(p.creases))
        points = _integer_points(p)
        denominators = [rng.randint(1, 9) for _ in points]
        spellings = {
            "int": [[x, y] for x, y in points],
            "p/q": [["%d/%d" % (x * q, q), "%d/%d" % (y * q, q)]
                    for (x, y), q in zip(points, denominators)],
            "decimal": [[float(x), float(y)] for x, y in points],  # written as 3.0
        }
        parsed, reports = {}, {}
        for name, vertices in spellings.items():
            path = tmp_path / ("pattern-%d-%s.json" % (n, name.replace("/", "")))
            path.write_text(json.dumps(_pattern_doc(p, vertices)))
            parsed[name] = parse_pattern(str(path))
            for fmt in ("json", "text"):
                assert main(["pattern", "check", str(path), "--format", fmt]) == 0
                reports[name, fmt] = capsys.readouterr().out
        one, other, third = parsed.values()
        assert one._geometry == other._geometry == third._geometry
        assert one.vertices == other.vertices == third.vertices
        assert {type(v.x) for v in one.vertices[:len(points)]} == {int}
        assert {type(v.x) for v in other.vertices} == {Fraction}
        for fmt in ("json", "text"):
            assert reports["int", fmt] == reports["p/q", fmt] == reports["decimal", fmt]


def test_pattern_check_of_an_integer_file_makes_no_fraction(tmp_path, monkeypatch, capsys):
    # on a 45-degree lattice with no crease from border to border, every
    # coordinate, direction key, sector and reflection is an int
    p = TestGeneralizedMaekawa.unit_grid(6, 5, diagonals=True)
    p = p.with_assignment(random_local_parity_assignment(random.Random(11), p))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_pattern_doc(p, _integer_points(p))))
    made = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *a, **k: made.append(a) or real(cls, *a, **k)))
    assert Fraction(1, 2) and made == [(1, 2)]
    made.clear()
    for fmt in ("text", "json"):
        assert main(["pattern", "check", str(path), "--format", fmt]) == 0
        out = capsys.readouterr().out
    report = json.loads(out)
    assert report["split_vertices"] == [] and report["generalized_maekawa"]["holds"]
    assert made == []


# --------------------------------------------------------------------------
# crease order and stars on the integer geometry
#
# `reference_incident_creases_ccw` and `reference_vertex_star` are the crease
# order and the star as they ran before they moved to the integer-scaled
# geometry: on `Fraction` directions, sorted with a comparator, the star
# read off the sorted list. The integer code must give the same order and
# the same star, or the same `ExactnessError` message.


def _reference_compare(d1, d2):
    h1, h2 = ((0 if (dy > 0 or (dy == 0 and dx > 0)) else 1) for dx, dy in (d1, d2))
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    assert cross != 0, "two creases leave the vertex in the same direction"
    return -1 if cross > 0 else 1


def reference_incident_creases_ccw(p, v):
    vx, vy = p.point(v)
    items = []
    for ci in p.incident_creases(v):
        ox, oy = p.point(sum(p.creases[ci]) - v)
        items.append((ci, (ox - vx, oy - vy)))
    items.sort(key=functools.cmp_to_key(lambda a, b: _reference_compare(a[1], b[1])))
    return items


def _reference_degrees(d):
    dx, dy = d
    if dy == 0:
        return Fraction(0) if dx > 0 else Fraction(180)
    if dx == 0:
        return Fraction(90) if dy > 0 else Fraction(270)
    if dx == dy:
        return Fraction(45) if dx > 0 else Fraction(225)
    if dx == -dy:
        return Fraction(135) if dy > 0 else Fraction(315)
    return None


def reference_vertex_star(p, v):
    incident = reference_incident_creases_ccw(p, v)
    if len(incident) == 1:
        return AngleSequence((Fraction(360),))
    thetas = []
    for ci, d in incident:
        t = _reference_degrees(d)
        if t is None:
            raise ExactnessError(
                "crease %d at vertex %d is not at a multiple of 45 degrees" % (ci, v)
            )
        thetas.append(t)
    sectors = [thetas[i + 1] - thetas[i] for i in range(len(thetas) - 1)]
    sectors.append(360 - thetas[-1] + thetas[0])
    return AngleSequence(tuple(sectors))


def mixed_star(rng):
    """One interior vertex with up to eight creases to nearby points, in a
    shuffled crease order: some directions at multiples of 45 degrees, some
    not, so the first crease counterclockwise that is off the grid is rarely
    the first listed."""
    directions = {}
    for _ in range(rng.randint(1, 8)):
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        if d != (0, 0):
            g = math.gcd(*d)
            directions.setdefault((d[0] // g, d[1] // g), d)
    ends = list(directions.values())
    rng.shuffle(ends)
    points = [(-4, -4), (4, -4), (4, 4), (-4, 4), (0, 0)] + ends
    creases = [(4, 5 + i) for i in range(len(ends))]
    return CreasePattern.build(points, creases, boundary=(0, 1, 2, 3))


def _star_or_error(star, p, v):
    try:
        return star(p, v)
    except ExactnessError as exc:
        return "ExactnessError: %s" % exc


def test_integer_crease_order_and_stars_match_the_fraction_reference():
    rng = random.Random(20261018)
    outcomes = set()
    for i in range(40):
        for p in (chain_pattern(rng, rng.randint(1, 5), with_split=(i % 2 == 0)),
                  grid_pattern(rng, rng.randint(2, 5)), mixed_star(rng)):
            for q in (p, rotated(p)):
                for v in q.interior_vertex_ids():
                    want = tuple(ci for ci, _ in reference_incident_creases_ccw(q, v))
                    assert curve_around_vertex(q, v) == want
                    star = _star_or_error(vertex_star, q, v)
                    assert star == _star_or_error(reference_vertex_star, q, v)
                    outcomes.add(type(star))
    assert outcomes == {AngleSequence, str}


def test_local_kawasaki_all_sorts_each_vertex_once(monkeypatch):
    # one sorted read of each vertex's directions gives its curve and the
    # names of its sectors
    import flatfold.pattern as patmod

    reads, sorts = [], []
    real_read, real_sort = core._directions, core._ccw_directions

    def reading(p, v):
        reads.append(v)
        return real_read(p, v)

    def sorting(p, v):
        sorts.append(v)
        return real_sort(p, v)

    monkeypatch.setattr(core, "_directions", reading)
    monkeypatch.setattr(core, "_ccw_directions", sorting)
    monkeypatch.setattr(patmod, "_ccw_directions", sorting)
    named = set()
    for p in (grid_pattern(random.Random(5), 5), chain_pattern(random.Random(5), 4, True),
              cross_pattern()):
        for q in (p, rotated(p)):
            reads.clear()
            sorts.clear()
            report = local_kawasaki_all(q)
            assert sorted(reads) == sorted(sorts) == q.interior_vertex_ids()
            named |= {check.angles is not None for check in report.values()}
    assert named == {True, False}


def _random_direction(rng, size):
    """Anywhere, on an axis or on a diagonal, with coordinates up to ``size``."""
    t, sx, sy = rng.randint(1, size), rng.choice((-1, 1)), rng.choice((-1, 1))
    return rng.choice((
        (rng.randint(-size, size), rng.randint(-size, size)),
        (sx * t, 0),
        (0, sy * t),
        (sx * t, sy * t),
    ))


def test_direction_key_orders_like_the_comparator():
    """`core._ccw_key` sorts as the reference comparator does: directions in
    all eight octants, on both axes and on the diagonals, with coordinates
    from one digit to forty."""
    rng = random.Random(20261019)
    octants = set()
    for _ in range(200):
        size = 10 ** rng.choice((1, 3, 40))
        directions = {}
        for _ in range(rng.randint(1, 12)):
            d = _random_direction(rng, size)
            if d != (0, 0):
                g = math.gcd(*d)
                directions.setdefault((d[0] // g, d[1] // g), d)  # one per direction
        ds = list(directions.values())
        rng.shuffle(ds)
        want = sorted(ds, key=functools.cmp_to_key(_reference_compare))
        assert sorted(ds, key=core._ccw_key) == want
        for dx, dy in ds:
            if dx and dy and abs(dx) != abs(dy):
                octants.add((dx > 0, dy > 0, abs(dx) > abs(dy)))
    assert len(octants) == 8


def test_trace_composes_as_the_folded_maps():
    """`reflection_trace` composes on plain ints. Its map equals, entry by
    entry, the fold of `AffineMap.compose` over `AffineMap.reflection_across`
    each crease's endpoints in the pattern's integer plane, taken out of that
    plane by its scale: around every interior vertex, and along random
    crease sequences of either parity."""
    rng = random.Random(20261020)
    for i in range(12):
        p = grid_pattern(rng, rng.randint(2, 5)) if i % 2 else chain_pattern(rng, rng.randint(1, 4))
        for q in (p, rotated(p)):
            curves = [curve_around_vertex(q, v) for v in q.interior_vertex_ids()]
            curves += [tuple(rng.randrange(len(q.creases)) for _ in range(k))
                       for k in range(1, 8)]
            ipts, _flags, s = q._geometry[:3]
            for curve in curves:
                want = AffineMap.identity()
                for ci in curve:
                    i, j = q.creases[ci]
                    want = want.compose(AffineMap.reflection_across(ipts[i], ipts[j]))
                want = AffineMap(s * want.a, s * want.b, s * want.c, s * want.d,
                                 want.tx, want.ty, s * want.den)
                result = reflection_trace(q, curve)
                assert dataclasses.astuple(result.map) == dataclasses.astuple(want)
                # the map alone gives the reason: its determinant for the
                # crossing parity, its entries for the identity
                odd = "odd crossing count: the composition reverses orientation"
                assert (result.failure_reason == odd) == (len(curve) % 2 == 1)
                assert (result.failure_reason is None) == result.is_identity


class TestNonSufficiency:
    def test_witness_passes_every_local_check(self, witness_pattern):
        p = witness_pattern
        report = local_kawasaki_all(p)
        assert len(report) == 3
        assert all(chk.passes and chk.angles is not None for chk in report.values())
        for vid in p.interior_vertex_ids():
            assert reflection_trace(p, curve_around_vertex(p, vid)).is_identity

    def test_tooling_offers_no_global_verdict(self, witness_pattern):
        # the public pattern API exposes necessary conditions only: nothing
        # here claims (or can claim) that the pattern folds flat
        import flatfold.pattern as patmod

        assert not any("foldable" in name.lower() for name in dir(patmod))


def test_pattern_imports_nothing_from_the_vertex_module():
    """Every closure verdict comes from the reflection map: `pattern` stands
    on `core` alone, with no second closure rule from `vertex`."""
    import flatfold.pattern as patmod

    tree = ast.parse(open(patmod.__file__, encoding="utf-8").read())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            modules += [base] if node.module else [base + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert ".core" in modules  # `vertex_star` comes from core, not vertex
    assert [m for m in modules if m.rsplit(".", 1)[-1] == "vertex"] == []
