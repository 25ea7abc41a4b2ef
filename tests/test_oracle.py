import itertools

import pytest

from flatfold.core import AngleSequence, MVAssignment, MVLabel
from flatfold.errors import CapacityError, NotFlatFoldableError, UnsupportedError
from flatfold.oracle import (
    enumerate_valid,
    find_stacking,
    fold_directions,
    oracle_count,
    oracle_is_valid,
    run_restricted_valid,
    stacking_valid,
)
from flatfold.vertex import count_mv, crimp_validity, find_runs, kawasaki, run_validity

SQUARE = AngleSequence((90, 90, 90, 90))
MIRROR = AngleSequence((100, 80, 80, 100))


def all_assignments(m):
    return [MVAssignment(c) for c in itertools.product(tuple(MVLabel), repeat=m)]


def brute_force_valid(seq):
    """Reference enumeration: a layer search on every one of the 2^m
    labelings, in lexicographic order, with no Maekawa filter and no flip."""
    if not kawasaki(seq):
        return []
    return [mv for mv in all_assignments(len(seq)) if find_stacking(seq, mv) is not None]


class TestFoldDirections:
    def test_square_vertex(self):
        model = fold_directions(SQUARE)
        assert model.directions == (0, 90, 0, 90)
        assert model.intervals == ((0, 90),) * 4
        assert model.orientations == (1, -1, 1, -1)

    def test_mirror_vertex_partial_sums(self):
        model = fold_directions(MIRROR)
        assert model.directions == (0, 100, 20, 100)
        assert model.intervals == ((0, 100), (20, 100), (20, 100), (0, 100))

    def test_closure_failure(self):
        with pytest.raises(NotFlatFoldableError):
            fold_directions(AngleSequence((100, 80, 90, 90)))

    def test_wide_cone_unsupported(self):
        with pytest.raises(UnsupportedError):
            fold_directions(AngleSequence((300, 300, 100, 100)))


class TestStackingValid:
    def test_some_stacking_works_for_valid_labels(self):
        model = fold_directions(SQUARE)
        mv = MVAssignment.from_string("MMMV")
        assert any(
            stacking_valid(model, mv, perm)
            for perm in itertools.permutations(range(4))
        )

    def test_no_stacking_for_parity_violation(self):
        model = fold_directions(SQUARE)
        mv = MVAssignment.from_string("MMVV")
        assert not any(
            stacking_valid(model, mv, perm)
            for perm in itertools.permutations(range(4))
        )

    def test_straight_line_orientation_convention(self):
        # one logical crease across the paper, both halves mountain: the
        # second sector must fold underneath the first
        model = fold_directions(AngleSequence((180, 180)))
        mv = MVAssignment.from_string("MM")
        results = {perm: stacking_valid(model, mv, perm) for perm in ((0, 1), (1, 0))}
        assert results == {(1, 0): True, (0, 1): False}

    def test_bad_permutation_rejected(self):
        model = fold_directions(SQUARE)
        with pytest.raises(ValueError):
            stacking_valid(model, MVAssignment.from_string("MMMV"), (0, 1, 2, 2))


class TestOracleIsValid:
    def test_known_good(self):
        assert oracle_is_valid(SQUARE, MVAssignment.from_string("MMMV"))

    def test_closure_failure_is_false(self):
        for mv in all_assignments(4):
            assert not oracle_is_valid(AngleSequence((100, 80, 90, 90)), mv)

    def test_capacity(self):
        twelve = AngleSequence((30,) * 12)
        with pytest.raises(CapacityError):
            oracle_is_valid(twelve, MVAssignment(("M",) * 12))
        # raising the limit admits the input; 7-5 splits fold an equal star
        assert oracle_is_valid(twelve, MVAssignment.from_string("MMMMMMMVVVVV"), limit=12)

    def test_search_agrees_with_exhaustive_permutations(self):
        for seq in (SQUARE, MIRROR, AngleSequence((40, 60, 140, 120))):
            model = fold_directions(seq)
            for mv in all_assignments(4):
                exhaustive = any(
                    stacking_valid(model, mv, perm)
                    for perm in itertools.permutations(range(4))
                )
                assert oracle_is_valid(seq, mv) == exhaustive
                witness = find_stacking(seq, mv)
                assert (witness is not None) == exhaustive
                if witness is not None:
                    assert stacking_valid(model, mv, witness)


class TestOracleCount:
    @pytest.mark.parametrize(
        "angles,expected",
        [
            ((90, 90, 90, 90), 8),
            ((20, 10, 40, 50, 60, 60, 60, 60), 48),
            ((100, 80, 80, 100), 6),
            ((40, 60, 140, 120), 4),
            ((140, 140), 2),
        ],
    )
    def test_reference_counts(self, angles, expected):
        assert oracle_count(AngleSequence(angles)) == expected

    def test_closure_failure_counts_zero(self):
        assert oracle_count(AngleSequence((100, 80, 90, 90))) == 0

    def test_prefilter_and_flip_do_not_change_the_count(self, corpus_small):
        equal_stars = [AngleSequence((a,) * m) for a, m in ((45, 8), (36, 10), (50, 6), (40, 8))]
        for seq in list(corpus_small) + equal_stars:
            reference = brute_force_valid(seq)
            assert enumerate_valid(seq) == reference, seq.as_strings()
            assert oracle_count(seq) == len(reference)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            oracle_count(AngleSequence((30,) * 12))


class TestEnumerate:
    def test_square_vertex_lists_all_eight(self):
        found = [str(mv) for mv in enumerate_valid(SQUARE)]
        assert found == [
            "MMMV", "MMVM", "MVMM", "MVVV", "VMMM", "VMVV", "VVMV", "VVVM",
        ]

    def test_every_valid_assignment_obeys_parity(self, corpus_small):
        for seq in corpus_small:
            for mv in brute_force_valid(seq):
                assert abs(mv.tally) == 2

    def test_folds_the_vertex_once(self, monkeypatch):
        import flatfold.oracle as oracle_module

        calls = []
        real = oracle_module.fold_directions
        monkeypatch.setattr(
            oracle_module, "fold_directions", lambda v: calls.append(v) or real(v)
        )
        for seq in (SQUARE, AngleSequence((20, 10, 40, 50, 60, 60, 60, 60))):
            calls.clear()
            assert enumerate_valid(seq)
            assert calls == [seq]

    def test_flip_closure(self, corpus_small):
        for seq in corpus_small:
            found = {str(mv) for mv in enumerate_valid(seq)}
            assert found == {str(mv.flipped()) for mv in enumerate_valid(seq)}


class TestCrimpAgreement:
    def test_full_enumeration_matches_crimp(self, corpus_small):
        for seq in corpus_small:
            for mv in all_assignments(len(seq)):
                assert crimp_validity(seq, mv) == oracle_is_valid(seq, mv), (
                    seq.as_strings(),
                    str(mv),
                )

    def test_counts_match_fast_recursion(self, corpus_small):
        for seq in corpus_small:
            assert oracle_count(seq) == count_mv(seq).count


class TestRunRestricted:
    def test_matches_tally_condition_on_mirror_vertex(self):
        (run,) = find_runs(MIRROR)
        for combo in itertools.product(tuple(MVLabel), repeat=3):
            mv = MVAssignment(combo)
            assert run_restricted_valid(MIRROR, run, combo) == run_validity(
                MIRROR, run, mv
            )

    def test_matches_tally_condition_on_corpus(self, corpus_small):
        checked = 0
        for seq in corpus_small:
            for run in find_runs(seq):
                for combo in itertools.product(tuple(MVLabel), repeat=run.k + 2):
                    assert run_restricted_valid(seq, run, combo) == run_validity(
                        seq, run, MVAssignment(combo)
                    )
                    checked += 1
        assert checked > 50

    def test_label_count_checked(self):
        (run,) = find_runs(MIRROR)
        with pytest.raises(ValueError):
            run_restricted_valid(MIRROR, run, (MVLabel.MOUNTAIN,))
