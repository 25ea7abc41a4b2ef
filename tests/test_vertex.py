import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatfold import vertex
from flatfold.core import AngleSequence, MVAssignment, MVLabel
from flatfold.errors import NotFlatFoldableError, ParityError
from flatfold.oracle import run_restricted_valid
from flatfold.vertex import (
    RunCondition,
    alternating_sum,
    bounds,
    count_mv,
    crimp_validity,
    find_runs,
    kawasaki,
    maekawa_check,
    run_validity,
)

WORKED = AngleSequence((20, 10, 40, 50, 60, 60, 60, 60))


@st.composite
def flat_sequences(draw, max_n=4):
    """Exact sequences with alternating sum zero and total 360."""
    n = draw(st.integers(1, max_n))
    halves = []
    for _ in range(2):
        vals = draw(
            st.lists(
                st.fractions(min_value=Fraction(1, 4), max_value=60, max_denominator=8),
                min_size=n,
                max_size=n,
            )
        )
        total = sum(vals)
        halves.append([Fraction(180) * v / total for v in vals])
    angles = []
    for a, b in zip(*halves):
        angles.extend((a, b))
    return AngleSequence(tuple(angles))


class TestAlternatingSum:
    def test_equal_angles_cancel(self):
        assert alternating_sum(AngleSequence((90, 90, 90, 90))) == 0

    def test_worked_example_closes(self):
        assert alternating_sum(WORKED) == 0

    def test_nonzero(self):
        assert alternating_sum(AngleSequence((100, 80, 90, 90))) == 20

    def test_odd_length_raises(self):
        with pytest.raises(ParityError):
            alternating_sum(AngleSequence((120, 120, 120)))


class TestKawasaki:
    def test_flat_square_vertex(self):
        assert kawasaki(AngleSequence((90, 90, 90, 90)))

    def test_failing_vertex(self):
        assert not kawasaki(AngleSequence((100, 80, 90, 90)))

    def test_cone(self):
        assert kawasaki(AngleSequence((140, 140)))

    def test_odd_degree_is_false_not_error(self):
        assert not kawasaki(AngleSequence((120, 120, 120)))

    @given(flat_sequences())
    def test_repaired_sequences_pass(self, seq):
        assert kawasaki(seq)

    @given(flat_sequences())
    def test_rotation_and_mirror_preserve(self, seq):
        assert kawasaki(seq.rotated(1))
        assert kawasaki(seq.mirrored())


class TestMaekawa:
    @pytest.mark.parametrize(
        "labels,expected",
        [("MMMV", True), ("MMVV", False), ("MMMMMV", False), ("VV", True)],
    )
    def test_tally(self, labels, expected):
        assert maekawa_check(MVAssignment.from_string(labels)) is expected


def brute_force_runs(seq):
    """Independent reference: scan every cyclic window for equal blocks with
    strictly larger neighbours (larger neighbours also force maximality)."""
    m = len(seq)
    found = []
    for start in range(m):
        for length in range(1, m - 1):
            vals = [seq.cyclic(start + j) for j in range(length)]
            if len(set(vals)) != 1:
                continue
            if seq.cyclic(start - 1) > vals[0] and seq.cyclic(start + length) > vals[0]:
                found.append((start, length - 1))
    return sorted(found)


class TestFindRuns:
    def test_worked_example_lone_minimum(self):
        runs = find_runs(WORKED)
        assert len(runs) == 1
        assert (runs[0].start, runs[0].k) == (1, 0)
        assert runs[0].creases == (1, 2)
        assert runs[0].allowed_tallies == {0}

    def test_all_equal_has_no_runs(self):
        assert find_runs(AngleSequence((60, 60, 60, 60))) == []

    def test_symmetric_pair(self):
        runs = find_runs(AngleSequence((100, 80, 80, 100)))
        assert [(r.start, r.k) for r in runs] == [(1, 1)]
        assert runs[0].creases == (1, 2, 3)
        assert runs[0].allowed_tallies == {-1, 1}

    def test_wraparound_run(self):
        runs = find_runs(AngleSequence((30, 90, 90, 30)))
        assert [(r.start, r.k) for r in runs] == [(3, 1)]
        assert runs[0].creases == (3, 0, 1)

    @given(flat_sequences())
    def test_matches_exhaustive_window_scan(self, seq):
        assert sorted((r.start, r.k) for r in find_runs(seq)) == brute_force_runs(seq)


class TestRunValidity:
    def test_even_run_needs_balance(self):
        v = AngleSequence((40, 60, 140, 120))
        (run,) = find_runs(v)
        assert (run.start, run.k) == (0, 0)
        assert run_validity(v, run, MVAssignment.from_string("MV"))
        assert not run_validity(v, run, MVAssignment.from_string("MM"))

    def test_odd_run_needs_one_off(self):
        v = AngleSequence((100, 80, 80, 100))
        (run,) = find_runs(v)
        assert run_validity(v, run, MVAssignment.from_string("MVM"))
        assert not run_validity(v, run, MVAssignment.from_string("MMM"))

    def test_full_assignment_selects_covered_creases(self):
        v = AngleSequence((100, 80, 80, 100))
        (run,) = find_runs(v)
        # creases 1..3 carry M,V,M; crease 0's label is irrelevant
        assert run_validity(v, run, MVAssignment.from_string("VMVM"))

    def test_inconsistent_run_raises(self):
        v = AngleSequence((100, 80, 80, 100))
        bogus = RunCondition(start=0, k=1, m=4)
        with pytest.raises(ValueError):
            run_validity(v, bogus, MVAssignment.from_string("MVM"))

    def test_run_of_another_star_raises(self):
        (run,) = find_runs(AngleSequence((100, 80, 80, 100)))
        v = AngleSequence((100, 80, 80, 100, 50, 50))  # the same sectors 0..3
        with pytest.raises(ValueError, match=r"run \(1, 1, 4\) does not fit a star of 6 creases"):
            run_validity(v, run, MVAssignment.from_string("MVM"))

    def test_run_needs_strictly_larger_flanks(self):
        # sector 1 alone: its right neighbour is equal, so the run rule does
        # not cover it, and neither decider gives a verdict
        v = AngleSequence((100, 80, 80, 100))
        lone = RunCondition(start=1, k=0, m=4)
        message = "restricted folding needs strictly larger flanking sectors"
        with pytest.raises(ValueError, match=message):
            run_validity(v, lone, MVAssignment.from_string("VMVM"))
        with pytest.raises(ValueError, match=message):
            run_restricted_valid(v, lone, MVAssignment.from_string("MV"))

    def test_wrong_label_count_raises(self):
        v = AngleSequence((100, 80, 80, 100))
        (run,) = find_runs(v)
        with pytest.raises(ValueError):
            run_validity(v, run, MVAssignment.from_string("MV"))


class TestLabelForms:
    """The deciders here read labels as `MVAssignment` does, so a word, its
    lower case, a list of "M"/"V" and the assignment get one answer."""

    def test_one_answer_for_every_form(self):
        v = AngleSequence((100, 80, 80, 100))
        (run,) = find_runs(v)
        for word in map("".join, itertools.product("MV", repeat=4)):
            mv = MVAssignment.from_string(word)
            for labels in (word, word.lower(), list(word)):
                assert maekawa_check(labels) == maekawa_check(mv)
                assert crimp_validity(v, labels) == crimp_validity(v, mv)
                assert run_validity(v, run, labels) == run_validity(v, run, mv)
                # a word of the run's length: creases 1..3
                assert run_validity(v, run, labels[1:]) == run_validity(v, run, mv)

    def test_a_bad_word_is_refused(self):
        v = AngleSequence((100, 80, 80, 100))
        (run,) = find_runs(v)
        for decide in (
            lambda: maekawa_check("MMXV"),
            lambda: crimp_validity(v, "MMXV"),
            lambda: run_validity(v, run, "MXV"),
        ):
            with pytest.raises(ValueError, match="^assignment strings may only contain M and V"):
                decide()


class TestCrimpValidity:
    def test_square_vertex_any_odd_one_out(self):
        v = AngleSequence((90, 90, 90, 90))
        for s in ("MMMV", "MMVM", "MVMM", "VMMM", "VVVM", "VVMV", "VMVV", "MVVV"):
            assert crimp_validity(v, MVAssignment.from_string(s))

    def test_all_mountains_rejected(self):
        assert not crimp_validity(
            AngleSequence((100, 80, 80, 100)), MVAssignment.from_string("MMMM")
        )

    def test_generic_vertex(self):
        assert crimp_validity(
            AngleSequence((40, 60, 140, 120)), MVAssignment.from_string("MVMM")
        )

    def test_closure_failure_raises(self):
        with pytest.raises(NotFlatFoldableError):
            crimp_validity(
                AngleSequence((100, 80, 90, 90)), MVAssignment.from_string("MMMV")
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crimp_validity(
                AngleSequence((90, 90, 90, 90)), MVAssignment.from_string("MMV")
            )

    @pytest.mark.parametrize("total", [360, 300])
    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_all_equal_sectors_accept_tally_two(self, m, total):
        v = AngleSequence((Fraction(total, m),) * m)
        accepted = 0
        for combo in itertools.product(tuple(MVLabel), repeat=m):
            mv = MVAssignment(combo)
            valid = crimp_validity(v, mv)
            assert valid == (abs(2 * mv.mountains - m) == 2), str(mv)
            accepted += valid
        assert accepted == count_mv(v).count

    @given(flat_sequences(max_n=3))
    @settings(max_examples=40)
    def test_accepted_assignments_satisfy_parity(self, seq):
        for combo in itertools.product(tuple(MVLabel), repeat=len(seq)):
            mv = MVAssignment(combo)
            if crimp_validity(seq, mv):
                assert maekawa_check(mv)


class TestBounds:
    @pytest.mark.parametrize(
        "m,expected", [(8, (16, 112)), (4, (4, 8)), (2, (2, 2)), (12, (64, 1584))]
    )
    def test_values(self, m, expected):
        assert bounds(AngleSequence((Fraction(360, m),) * m)) == expected

    def test_odd_raises(self):
        with pytest.raises(ParityError):
            bounds(AngleSequence((120, 120, 120)))


def pick_largest_last(seq):
    return max(vertex._runs(seq), key=lambda r: (seq[r.start], r.start))


class TestCountMV:
    def test_square_vertex(self):
        assert count_mv(AngleSequence((90, 90, 90, 90))).count == 8

    def test_worked_example_with_trace(self):
        result = count_mv(WORKED)
        assert result.count == 48
        assert result.factors == [2, 3]
        assert result.base == 8
        assert result.bounds == (16, 112)
        assert result.trace[0].residual == AngleSequence((50, 50, 60, 60, 60, 60))
        assert result.trace[1].residual == AngleSequence((60, 60, 60, 60))

    def test_mirror_symmetric_vertex(self):
        assert count_mv(AngleSequence((100, 80, 80, 100))).count == 6

    def test_generic_vertex(self):
        assert count_mv(AngleSequence((40, 60, 140, 120))).count == 4

    def test_cone_base_case(self):
        assert count_mv(AngleSequence((140, 140))).count == 2

    def test_wide_cone(self):
        assert count_mv(AngleSequence((300, 300, 100, 100))).count == 6

    def test_closure_failure_raises(self):
        with pytest.raises(NotFlatFoldableError):
            count_mv(AngleSequence((100, 80, 90, 90)))

    @given(flat_sequences())
    @settings(max_examples=60)
    def test_count_is_product_of_trace(self, seq):
        result = count_mv(seq)
        product = result.base
        for factor in result.factors:
            product *= factor
        assert product == result.count

    @given(flat_sequences())
    @settings(max_examples=60)
    def test_bounds_sandwich(self, seq):
        result = count_mv(seq)
        assert result.bounds[0] <= result.count <= result.bounds[1]

    @given(flat_sequences(), st.integers(0, 7), st.booleans())
    @settings(max_examples=60)
    def test_rotation_and_mirror_invariance(self, seq, rot, mirror):
        other = seq.rotated(rot)
        if mirror:
            other = other.mirrored()
        assert count_mv(other).count == count_mv(seq).count

    def test_reduction_order_invariance(self, corpus200):
        checked = 0
        for seq in corpus200:
            if len(find_runs(seq)) < 2:
                continue
            default = count_mv(seq)
            forced = count_mv(seq, _pick=pick_largest_last)
            assert default.count == forced.count
            assert default.trace != forced.trace  # genuinely different orders
            checked += 1
        assert checked >= 10
