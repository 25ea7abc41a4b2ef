import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatfold import core
from flatfold.core import (
    AngleSequence,
    CreasePattern,
    MVAssignment,
    MVLabel,
    normalize_pattern,
    vertex_star,
)
from flatfold.errors import ExactnessError, PlanarityError, StructuralError
import generators


def square(side=4):
    return [(0, 0), (side, 0), (side, side), (0, side)]


# An L-shaped sheet: the square (0,0)-(4,4) with the corner x > 2, y > 2 cut
# away. Vertices 6 and 7 sit on the two edges of the notch.
L_SHAPE = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4), (3, 2), (2, 3)]


def split_by_rebuilding(p):
    """Reference split: build the split pattern from scratch, so the full
    `_validate_pattern` runs over every vertex and crease again."""
    points = [v.point for v in p.vertices]
    creases, labels, split = [], [], set(p.split_vertices)
    for ci, (i, j) in enumerate(p.creases):
        halves = [(i, j)]
        if p.vertices[i].on_boundary and p.vertices[j].on_boundary:
            (x1, y1), (x2, y2) = points[i], points[j]
            points.append(((x1 + x2) / 2, (y1 + y2) / 2))
            split.add(len(points) - 1)
            halves = [(i, len(points) - 1), (len(points) - 1, j)]
        creases.extend(halves)
        if p.assignment is not None:
            labels.extend([p.assignment[ci]] * len(halves))
    assignment = MVAssignment(tuple(labels)) if p.assignment is not None else None
    return CreasePattern.build(points, creases, p.boundary, assignment, split)


def unsplit_chain_pattern(rng, k, monkeypatch):
    """`generators.chain_pattern` with its border-to-border crease left whole."""
    with monkeypatch.context() as m:
        m.setattr(generators, "normalize_pattern", lambda p: p)
        return generators.chain_pattern(rng, k, with_split=True)


def test_angle_sequence_accepts_rationals():
    seq = AngleSequence((90, "45/2", Fraction(1, 3), "0.25"))
    assert seq.angles == (90, Fraction(45, 2), Fraction(1, 3), Fraction(1, 4))
    assert all(type(a) is Fraction for a in seq)


@pytest.mark.parametrize("angles", [(True, 1), (90, 90, 90, False)])
def test_angle_sequence_refuses_booleans(angles):
    # not the sectors (1, 1), nor a zero sector
    with pytest.raises(TypeError, match="^a number was expected, got (True|False)$"):
        AngleSequence(angles)


@given(st.fractions(max_value=0, min_value=-1000, max_denominator=50))
def test_angle_sequence_rejects_nonpositive(value):
    with pytest.raises(ValueError, match="sector angles must be positive, got %s$" % value):
        AngleSequence((90, value, 90))


@given(st.fractions(min_value=Fraction(1, 50), max_value=1000, max_denominator=50))
def test_angle_sequence_accepts_positive(value):
    assert AngleSequence((value,))[0] == value


@given(st.lists(st.fractions(min_value=Fraction(1, 50), max_value=1000), min_size=1))
def test_angle_sequence_keeps_exact_fractions(fracs):
    seq = AngleSequence(tuple(fracs))
    assert all(a is f for a, f in zip(seq.angles, fracs))
    assert seq.total == sum(fracs)


class TestAngleSequence:
    def test_coerces_and_totals(self):
        seq = AngleSequence((90, "90", Fraction(90), 90.0))
        assert len(seq) == 4
        assert seq.total == 360
        assert seq.is_flat
        assert seq.kind == "flat"

    def test_cone_kind(self):
        assert AngleSequence((140, 140)).kind == "cone"
        assert AngleSequence((300, 300, 100, 100)).kind == "cone"  # total > 360

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AngleSequence(())

    def test_cyclic_indexing(self):
        seq = AngleSequence((10, 20, 30))
        assert seq.cyclic(3) == 10
        assert seq.cyclic(-1) == 30

    def test_rotated_and_mirrored(self):
        seq = AngleSequence((10, 20, 130, 200))
        assert AngleSequence((130, 200, 10, 20)) == seq.rotated(2)
        assert AngleSequence((200, 130, 20, 10)) == seq.mirrored()
        assert seq.rotated(4) == seq


class TestMVAssignment:
    def test_from_string_case_insensitive(self):
        mv = MVAssignment.from_string("mMvM")
        assert str(mv) == "MMVM"
        assert mv.mountains == 3
        assert mv.valleys == 1
        assert mv.tally == 2

    def test_bad_character(self):
        with pytest.raises(ValueError):
            MVAssignment.from_string("MXVM")

    def test_flipped(self):
        assert str(MVAssignment.from_string("MMV").flipped()) == "VVM"

    @pytest.mark.parametrize("labels", ["MVVM", ("M", MVLabel.VALLEY, "V", MVLabel.MOUNTAIN)])
    def test_labels_become_members(self, labels):
        mv = MVAssignment(labels)
        assert mv.labels == (MVLabel.MOUNTAIN, MVLabel.VALLEY, MVLabel.VALLEY, MVLabel.MOUNTAIN)
        assert all(type(label) is MVLabel for label in mv)
        assert str(mv) == "MVVM"

    @pytest.mark.parametrize("labels", ["MvM", ("M", None), (["M"],), ("MV",)])
    def test_bad_label_is_a_value_error(self, labels):
        with pytest.raises(ValueError):
            MVAssignment(labels)


class TestNormalizePattern:
    def test_single_border_crease_is_split(self):
        p = CreasePattern.build(
            square() + [(0, 2), (4, 2)],
            [(4, 5)],
            boundary=(0, 1, 2, 3),
            assignment="M",
        )
        q = normalize_pattern(p)
        assert len(q.creases) == 2
        assert len(q.vertices) == len(p.vertices) + 1
        mid = len(p.vertices)
        assert q.vertices[mid].point == (Fraction(2), Fraction(2))
        assert not q.vertices[mid].on_boundary
        assert q.split_vertices == {mid}
        assert str(q.assignment) == "MM"

    def test_pattern_with_interior_vertex_unchanged(self):
        p = CreasePattern.build(
            square() + [(2, 2), (2, 0), (2, 4)],
            [(4, 5), (4, 6)],
            boundary=(0, 1, 2, 3),
        )
        assert normalize_pattern(p) == p

    def test_two_border_creases_split_twice(self):
        p = CreasePattern.build(
            square() + [(0, 1), (4, 1), (0, 3), (4, 3)],
            [(4, 5), (6, 7)],
            boundary=(0, 1, 2, 3),
        )
        q = normalize_pattern(p)
        assert len(q.creases) == 4
        assert len(q.split_vertices) == 2

    def test_idempotent(self):
        p = CreasePattern.build(
            square() + [(0, 2), (4, 2)], [(4, 5)], boundary=(0, 1, 2, 3)
        )
        once = normalize_pattern(p)
        assert normalize_pattern(once) == once

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_rebuild_on_chain_patterns(self, seed, monkeypatch):
        rng = random.Random(seed)
        raw = unsplit_chain_pattern(rng, rng.randint(1, 5), monkeypatch)
        labelled = raw.with_assignment(
            MVAssignment(tuple(rng.choice("MV") for _ in raw.creases))
        )
        for p in (raw, labelled):
            q = normalize_pattern(p)
            assert len(q.split_vertices) == 1
            assert q == split_by_rebuilding(p)

    @pytest.mark.parametrize("seed", range(6))
    def test_extends_the_integer_geometry(self, seed, monkeypatch):
        # the split pattern's geometry is its own, at the unsplit pattern's scale
        rng = random.Random(seed)
        p = unsplit_chain_pattern(rng, rng.randint(1, 5), monkeypatch)
        q = normalize_pattern(p)
        ipts, flags, scale = q._geometry
        fresh, fresh_flags, fresh_scale = core._integer_geometry(
            [v.point for v in q.vertices], q.boundary)
        assert scale == p._geometry[2]
        assert flags == fresh_flags == [v.on_boundary for v in q.vertices]
        assert [(x * fresh_scale, y * fresh_scale) for x, y in ipts] == [
            (x * scale, y * scale) for x, y in fresh]

    def test_never_validates(self, monkeypatch):
        p = CreasePattern.build(
            square() + [(0, 2), (4, 2)], [(4, 5)], boundary=(0, 1, 2, 3)
        )
        calls = []
        monkeypatch.setattr(core, "_validate_pattern", calls.append)
        assert len(normalize_pattern(p).split_vertices) == 1
        assert calls == []


class TestPatternValidation:
    def test_dangling_endpoint(self):
        with pytest.raises(StructuralError):
            CreasePattern.build(square(), [(0, 9)], boundary=(0, 1, 2, 3))

    def test_self_loop(self):
        with pytest.raises(StructuralError):
            CreasePattern.build(square(), [(1, 1)], boundary=(0, 1, 2, 3))

    def test_duplicate_crease(self):
        pts = square() + [(2, 2), (2, 0)]
        with pytest.raises(StructuralError):
            CreasePattern.build(pts, [(4, 5), (5, 4)], boundary=(0, 1, 2, 3))

    def test_crossing_creases(self):
        pts = square() + [(1, 1), (3, 3), (1, 3), (3, 1)]
        with pytest.raises(PlanarityError):
            CreasePattern.build(pts, [(4, 5), (6, 7)], boundary=(0, 1, 2, 3))

    def test_vertex_inside_crease(self):
        pts = square() + [(1, 2), (3, 2), (2, 2)]
        with pytest.raises(PlanarityError):
            CreasePattern.build(pts, [(4, 5), (6, 1)], boundary=(0, 1, 2, 3))

    def test_vertex_outside_paper(self):
        pts = square() + [(5, 5), (2, 2)]
        with pytest.raises(StructuralError):
            CreasePattern.build(pts, [(4, 5)], boundary=(0, 1, 2, 3))

    def test_assignment_length_mismatch(self):
        pts = square() + [(2, 2), (2, 0)]
        with pytest.raises(StructuralError):
            CreasePattern.build(pts, [(4, 5)], boundary=(0, 1, 2, 3), assignment="MM")

    def test_isolated_interior_vertex(self):
        with pytest.raises(StructuralError):
            CreasePattern.build(square() + [(2, 2)], [], boundary=(0, 1, 2, 3))

    def test_boundary_only_pattern_is_fine(self):
        p = CreasePattern.build(square(), [], boundary=(0, 1, 2, 3))
        assert len(p.creases) == 0

    def test_border_crease_outside_nonconvex_paper(self):
        with pytest.raises(PlanarityError, match="crease 0 lies outside the paper"):
            CreasePattern.build(L_SHAPE, [(6, 7)], boundary=range(6))

    def test_border_crease_inside_nonconvex_paper(self):
        p = CreasePattern.build(L_SHAPE + [(3, 0)], [(6, 8)], boundary=range(6))
        assert normalize_pattern(p).point(9) == (Fraction(3), Fraction(1))

    @pytest.mark.parametrize(
        "boundary",
        [(0, 1), (0, 1, 9), (0, 1, -1), (0, 1, 1, 2)],
        ids=["too-short", "index-too-high", "index-negative", "repeated"],
    )
    def test_malformed_border(self, boundary):
        with pytest.raises(StructuralError):
            CreasePattern.build(square(), [], boundary=boundary)

    def test_zero_length_border_edge(self):
        with pytest.raises(StructuralError):
            CreasePattern.build(square() + [(4, 4)], [], boundary=(0, 1, 2, 4, 3))

    @pytest.mark.parametrize(
        "creases, boundary, split, field",
        [
            ([(4.9, 1)], (0, 1, 2, 3), (), "crease"),
            ([(4, 1)], (0, 1.7, 2, 3), (), "border"),
            ([(4, 1)], (0, 1, 2, 3), (4.2,), "split tag"),
            ([(4, True)], (0, 1, 2, 3), (), "crease"),
            ([(4, 1)], (0, True, 2, 3), (), "border"),
            ([(4, 1)], (0, 1, 2, 3), (False,), "split tag"),
        ],
        ids=["crease", "border", "split-tag", "crease-bool", "border-bool", "split-tag-bool"],
    )
    def test_non_integer_index_is_refused(self, creases, boundary, split, field):
        # refused by name: not truncated (4.9 to 4) nor read as a number
        # (True as 1), and not a bare TypeError
        with pytest.raises(StructuralError, match="^%s index must be an integer" % field):
            CreasePattern.build(square() + [(2, 2)], creases, boundary, split_vertices=split)

    def test_boolean_coordinate_is_refused(self):
        # read as the number 0 it would build a square
        with pytest.raises(TypeError, match="^a number was expected, got False$"):
            CreasePattern.build([(0, 0), (4, 0), (4, 4), (False, 4)], [], boundary=(0, 1, 2, 3))

    def test_with_assignment_reads_labels_as_build_does(self):
        pts = square() + [(2, 2), (2, 0)]
        p = CreasePattern.build(pts, [(4, 5)], boundary=(0, 1, 2, 3))
        built = CreasePattern.build(pts, [(4, 5)], boundary=(0, 1, 2, 3), assignment="V")
        for labels in ("V", "v", ["V"], (MVLabel.VALLEY,), built.assignment):
            assert p.with_assignment(labels).assignment == built.assignment
        with pytest.raises(ValueError, match="^assignment strings may only contain M and V"):
            p.with_assignment("x")

    def test_build_is_the_only_constructor(self):
        p = CreasePattern.build(square() + [(2, 2)], [(4, 1)], boundary=(0, 1, 2, 3))
        with pytest.raises(TypeError):
            CreasePattern(p.vertices, p.creases, p.boundary)
        with pytest.raises(TypeError):
            dataclasses.replace(p, assignment=MVAssignment.from_string("M"))
        assert p.with_assignment(MVAssignment.from_string("M")).assignment == (
            MVAssignment.from_string("M")
        )


class TestVertexStar:
    def test_axis_aligned_cross(self):
        pts = square() + [(2, 2), (4, 2), (2, 4), (0, 2), (2, 0)]
        p = CreasePattern.build(
            pts, [(4, 5), (4, 6), (4, 7), (4, 8)], boundary=(0, 1, 2, 3)
        )
        assert vertex_star(p, 4) == AngleSequence((90, 90, 90, 90))

    def test_degree_one_vertex(self):
        pts = square() + [(2, 2), (3, 2)]
        p = CreasePattern.build(pts, [(4, 5)], boundary=(0, 1, 2, 3))
        assert vertex_star(p, 4) == AngleSequence((360,))
        assert vertex_star(p, 5) == AngleSequence((360,))

    def test_boundary_vertex_unsupported(self):
        pts = square() + [(2, 2), (2, 0)]
        p = CreasePattern.build(pts, [(4, 5)], boundary=(0, 1, 2, 3))
        with pytest.raises(StructuralError):
            vertex_star(p, 5)

    def test_diagonals_are_exact(self):
        pts = square() + [(2, 2)]  # creases run to the four corners
        p = CreasePattern.build(
            pts, [(4, 0), (4, 1), (4, 2), (4, 3)], boundary=(0, 1, 2, 3)
        )
        assert vertex_star(p, 4) == AngleSequence((90, 90, 90, 90))

    def test_irrational_directions_flagged_approximate(self):
        pts = square() + [(2, 2), (4, 3), (1, 4), (0, 1), (3, 0)]
        p = CreasePattern.build(
            pts, [(4, 5), (4, 6), (4, 7), (4, 8)], boundary=(0, 1, 2, 3)
        )
        # (2, 1) has no rational degree measure: no star, and no float one
        with pytest.raises(ExactnessError, match="crease 0 at vertex 4"):
            vertex_star(p, 4)

    def test_split_vertex_star_is_straight(self):
        p = CreasePattern.build(
            square() + [(0, 2), (4, 2)], [(4, 5)], boundary=(0, 1, 2, 3)
        )
        q = normalize_pattern(p)
        (split,) = q.split_vertices
        assert vertex_star(q, split) == AngleSequence((180, 180))

    def test_stars_sum_to_full_turn_across_random_patterns(self):
        import random

        from generators import chain_pattern

        rng = random.Random(6)
        for _ in range(5):
            p = chain_pattern(rng, rng.randint(1, 4), with_split=True)
            for vid in p.interior_vertex_ids():
                assert vertex_star(p, vid).total == 360
