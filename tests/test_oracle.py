import ast
import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import flatfold.oracle as oracle_module
from flatfold.core import AngleSequence, MVAssignment, MVLabel
from flatfold.corpus import random_flat_sequence
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
from flatfold.vertex import (
    RunCondition,
    count_mv,
    crimp_validity,
    find_runs,
    kawasaki,
    maekawa_check,
    run_validity,
)
from generators import random_nonclosing_sequence
from reference_tables import reference_constraint_tables, reference_shifted

SQUARE = AngleSequence((90, 90, 90, 90))
MIRROR = AngleSequence((100, 80, 80, 100))
# a closing 300-degree cone over denominators 7, 11, 13, 91 and 77
CONE_7_11_13 = AngleSequence(
    tuple(map(Fraction, "100/7 250/11 400/13 150/7 9550/91 8150/77".split()))
)


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
        assert model.sheets == ((0, 90, 1), (0, 90, -1), (0, 90, 1), (0, 90, -1))
        assert model.folds == ((3, 0, 0, 1), (0, 1, 90, -1), (1, 2, 0, 1), (2, 3, 90, -1))

    def test_mirror_vertex_partial_sums(self):
        model = fold_directions(MIRROR)
        assert model.sheets == ((0, 100, 1), (20, 100, -1), (20, 100, 1), (0, 100, -1))
        assert model.folds == (
            (3, 0, 0, 1), (0, 1, 100, -1), (1, 2, 20, 1), (2, 3, 100, -1))

    def test_same_nets_as_the_reference_walks(self, corpus200):
        # the reference walks in degrees, times the star's LCM, exactly, and
        # every position an int
        stars = list(corpus200) + [v for seed in (10, 11, 12) for v in seeded_stars(seed)]
        stars.append(CONE_7_11_13)
        assert any(not v.is_flat for v in stars)
        assert any(_lcm_of(v) > 1 for v in stars)
        runs = 0
        for v in stars:
            model = fold_directions(v)
            assert _net(model) == _scaled(v, _reference_vertex_net(v)), v.as_strings()
            assert _all_ints(model), v.as_strings()
            # the sheets span the star's integers, however the star was given
            assert tuple(hi - lo for lo, hi, _o in model.sheets) == v.ints
            assert fold_directions(AngleSequence([3 * n for n in v.ints], 3 * v.den)) == model
            for run in find_runs(v):
                model = oracle_module._restricted_net(v, run)
                assert _net(model) == _scaled(v, _reference_run_net(v, run)), (
                    v.as_strings(), run)
                assert _all_ints(model), (v.as_strings(), run)
                runs += 1
        assert runs > 250

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

    @pytest.mark.parametrize("labels", ["MMV", "MMVMV", "MMMVMMMV"])
    def test_label_count_checked(self, labels):
        # every decider of a whole vertex reads the labels through one check
        mv = MVAssignment.from_string(labels)
        model = fold_directions(SQUARE)
        for decide in (find_stacking, oracle_is_valid, crimp_validity,
                       lambda v, mv: stacking_valid(model, mv, (0, 1, 2, 3))):
            for form in (mv, labels):
                with pytest.raises(
                    ValueError, match="^assignment length must match the number of creases$"
                ):
                    decide(SQUARE, form)

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
        for seq in list(corpus_small) + [CONE_7_11_13]:
            for mv in brute_force_valid(seq) + enumerate_valid(seq):
                assert abs(mv.tally) == 2

    def test_folds_the_vertex_once(self, monkeypatch):
        closed_walks = []
        real = oracle_module._walk

        def walk(start, sectors, closed):
            if closed:
                closed_walks.append(list(sectors))
            return real(start, sectors, closed=closed)

        monkeypatch.setattr(oracle_module, "_walk", walk)
        for seq in (SQUARE, AngleSequence((20, 10, 40, 50, 60, 60, 60, 60))):
            closed_walks.clear()
            assert enumerate_valid(seq)
            # whole degrees fold on a scale of 1
            assert closed_walks == [list(map(int, seq.angles))]

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

    @pytest.mark.parametrize("v", [
        AngleSequence((90, 60, 60, 90, 30, 30)),
        AngleSequence((80, 50, 50, 80, 20, 20)),  # a 300-degree cone
    ], ids=["flat", "cone"])
    @pytest.mark.parametrize("run, message", [
        ((1, 1, 4), r"^run \(1, 1, 4\) does not fit a star of 6 creases$"),
        ((0, 1, 6), "^run sectors are not all equal in this sequence$"),
        ((1, 0, 6), "^restricted folding needs strictly larger flanking sectors$"),
    ], ids=["fit", "equal", "flanks"])
    def test_both_deciders_give_one_message_per_run_fault(self, v, run, message):
        # `RunCondition.flanks` checks a run for both: it does not fit, its
        # sectors differ, or a flank is not strictly larger
        run = RunCondition(*run)
        labels = "M" * (run.k + 2)
        for decide in (run_validity, run_restricted_valid):
            with pytest.raises(ValueError, match=message):
                decide(v, run, labels)

    @pytest.mark.parametrize("run", [(1, 1, 4), (7, 1, 6), (0, 5, 6)])
    def test_both_deciders_refuse_a_run_that_does_not_fit(self, run):
        # the 4-crease star's run, a start past the end, more sectors than fit
        v = AngleSequence((90, 60, 60, 90, 30, 30))
        run = RunCondition(*run)
        message = "run %s does not fit a star of 6 creases" % re.escape(repr(tuple(run)))
        labels = MVAssignment.from_string("M" * (run.k + 2))
        with pytest.raises(ValueError, match=message):
            run_validity(v, run, labels)
        with pytest.raises(ValueError, match=message):
            run_restricted_valid(v, run, labels)

    @pytest.mark.parametrize("v", [
        AngleSequence((90, 60, 60, 90, 30, 30)),
        AngleSequence((80, 50, 50, 80, 20, 20)),  # a 300-degree cone
    ], ids=["flat", "cone"])
    def test_both_deciders_read_both_label_shapes(self, v):
        # `RunCondition.run_labels` reads the labels for both: the whole star's
        # or the run's k + 2, and anything else gets one message
        runs = find_runs(v)
        assert len(runs) == 2
        for run in runs:
            for word in map("".join, itertools.product("MV", repeat=len(v))):
                part = "".join(word[c] for c in run.creases)
                answers = {decide(v, run, labels)
                           for decide in (run_validity, run_restricted_valid)
                           for labels in (word, part)}
                assert len(answers) == 1, (run, word)
            message = "^assignment must label all 6 creases or the run's 3$"
            for decide in (run_validity, run_restricted_valid):
                for labels in ("MM", "MVMV", "MVMVMVM"):
                    with pytest.raises(ValueError, match=message):
                        decide(v, run, labels)

    def test_a_whole_star_labeling_gets_one_answer(self):
        # the labels of all four creases, of which the run holds the last three
        v = AngleSequence((100, 80, 80, 100))
        (run,) = find_runs(v)
        assert run_validity(v, run, "MMVM") is run_restricted_valid(v, run, "MMVM") is True
        assert run_validity(v, run, "MMMM") is run_restricted_valid(v, run, "MMMM") is False

    def test_long_run_exceeds_the_search_limit(self):
        # the run's 11 creases are too many to search; the tally rule decides
        v = AngleSequence((100,) + (10,) * 10 + (100, 60))
        run, labels = RunCondition(1, 9, 13), "MV" * 5 + "M"
        with pytest.raises(CapacityError,
                           match="^11 creases exceed the exhaustive-search limit of 10$"):
            run_restricted_valid(v, run, labels)
        assert run_validity(v, run, labels) is True

    def test_net_on_mirror_vertex(self):
        # flap 100 from -100, the two 80s back and forth, then flap 100
        (run,) = find_runs(MIRROR)
        model = oracle_module._restricted_net(MIRROR, run)
        assert model.sheets == ((-100, 0, 1), (-80, 0, -1), (-80, 0, 1), (-100, 0, -1))
        assert model.folds == ((0, 1, 0, -1), (1, 2, -80, 1), (2, 3, 0, -1))

    def test_search_agrees_with_exhaustive_permutations(self):
        # stacking_valid takes a run's net too: one label per fold, and a
        # permutation of the run's sectors and its two flaps
        (run,) = find_runs(MIRROR)
        model = oracle_module._restricted_net(MIRROR, run)
        for combo in itertools.product(tuple(MVLabel), repeat=3):
            exhaustive = any(
                stacking_valid(model, combo, perm) for perm in itertools.permutations(range(4))
            )
            assert run_restricted_valid(MIRROR, run, combo) == exhaustive
        with pytest.raises(ValueError):
            stacking_valid(model, MVAssignment.from_string("MVMV"), (0, 1, 2, 3))

    def test_witnesses_are_checked(self, monkeypatch):
        calls = []
        real = oracle_module.stacking_valid
        monkeypatch.setattr(
            oracle_module,
            "stacking_valid",
            lambda model, mv, stacking: calls.append(list(mv)) or real(model, mv, stacking),
        )
        (run,) = find_runs(MIRROR)
        M, V = MVLabel.MOUNTAIN, MVLabel.VALLEY
        assert run_restricted_valid(MIRROR, run, (M, V, M))
        assert calls == [[M, V, M]]
        calls.clear()
        assert not run_restricted_valid(MIRROR, run, (M, M, M))
        assert calls == []


# The nets as they were built before the one walk. A whole vertex: partial
# sums of the sectors, alternating in sign, and one fold per crease, fold j in
# front of sector j. A run: the left flap from minus its width to 0, then the
# run's sectors and the right flap, walked by hand.


def _reference_vertex_net(v):
    m = len(v)
    pos = [Fraction(0)]
    for j, a in enumerate(v.angles):
        pos.append(pos[-1] + a if j % 2 == 0 else pos[-1] - a)
    sheets = [
        (min(pos[j], pos[j + 1]), max(pos[j], pos[j + 1]), 1 if j % 2 == 0 else -1)
        for j in range(m)
    ]
    folds = [((j - 1) % m, j, pos[j], 1 if j % 2 == 0 else -1) for j in range(m)]
    return sheets, folds


def _reference_run_net(v, run):
    val = Fraction(v.cyclic(run.start))
    left_a = Fraction(v.cyclic(run.start - 1))
    right_a = Fraction(v.cyclic(run.start + run.k + 1))
    k = run.k
    sheets = [(-left_a, Fraction(0), 1)]
    positions = [Fraction(0)]
    pos = Fraction(0)
    direction = -1
    for j in range(k + 1):
        nxt = pos + direction * val
        sheets.append((min(pos, nxt), max(pos, nxt), 1 if j % 2 == 1 else -1))
        pos = nxt
        positions.append(pos)
        direction = -direction
    end = pos + direction * right_a
    sheets.append((min(pos, end), max(pos, end), 1 if k % 2 == 0 else -1))
    folds = [(jj, jj + 1, positions[jj], -1 if jj % 2 == 0 else 1) for jj in range(k + 2)]
    return sheets, folds


def _lcm_of(v):
    return math.lcm(*(a.denominator for a in v.angles))


def _scaled(v, net):
    """A reference net in units of 1/L degree, L the LCM of the star's
    denominators: the scale the oracle folds on."""
    scale = _lcm_of(v)
    sheets, folds = net
    return (
        [(lo * scale, hi * scale, o) for lo, hi, o in sheets],
        [(p, q, pos * scale, side) for p, q, pos, side in folds],
    )


def _net(model):
    return list(model.sheets), list(model.folds)


def _all_ints(model):
    positions = [x for lo, hi, _o in model.sheets for x in (lo, hi)]
    return all(type(x) is int for x in positions + [fold[2] for fold in model.folds])


# The layer search as it ran before the (b)/(c) tables: every node rebuilds a
# level dict and rescans the completed folds and the placed sheets, comparing
# `Fraction` positions. A fold here is (left, right, position, side, label).


def _reference_cyclic_net(v, mv):
    sheets, folds = _reference_vertex_net(v)
    return sheets, [fold + (mv[j],) for j, fold in enumerate(folds)]


def _reference_wants_right_above(sheets, fold):
    left, _right, _pos, _side, label = fold
    return (label is MVLabel.VALLEY) == (sheets[left][2] == 1)


def _reference_interleaved(a1, a2, b1, b2):
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def reference_search(sheets, folds):
    n = len(sheets)
    by_step = [[] for _ in range(n)]
    for fi, fold in enumerate(folds):
        by_step[max(fold[0], fold[1])].append(fi)
    order = [0]
    complete = []

    def partial_ok(j, newly):
        level = {s: t for t, s in enumerate(order)}
        for me, fi in enumerate(newly):
            left, right, pos, side, _label = folds[fi]
            lo, hi = sorted((level[left], level[right]))
            for fj in itertools.chain(complete, newly[:me]):
                other = folds[fj]
                if other[2] == pos and other[3] == side:
                    b1, b2 = sorted((level[other[0]], level[other[1]]))
                    if _reference_interleaved(lo, hi, b1, b2):
                        return False
            for s in order:
                if s in (left, right):
                    continue
                slo, shi, _o = sheets[s]
                if slo < pos < shi and lo < level[s] < hi:
                    return False
        slo, shi, _o = sheets[j]
        lj = level[j]
        for fj in complete:
            left, right, pos, _side, _label = folds[fj]
            if slo < pos < shi:
                b1, b2 = sorted((level[left], level[right]))
                if b1 < lj < b2:
                    return False
        return True

    def rec(j):
        if j == n:
            return list(order)
        lo, hi = 0, j
        for fi in by_step[j]:
            fold = folds[fi]
            other = fold[0] if fold[1] == j else fold[1]
            right_above = _reference_wants_right_above(sheets, fold)
            j_above = right_above if fold[1] == j else not right_above
            t_other = order.index(other)
            if j_above:
                lo = max(lo, t_other + 1)
            else:
                hi = min(hi, t_other)
        for t in range(lo, hi + 1):
            order.insert(t, j)
            if partial_ok(j, by_step[j]):
                complete.extend(by_step[j])
                found = rec(j + 1)
                if found is not None:
                    return found
                del complete[len(complete) - len(by_step[j]) :]
            order.pop(t)
        return None

    return rec(1)


def seeded_stars(seed):
    """A generic and a pooled star of each even size from 4 to 10, flat and
    cone in turn. A cone is a flat star scaled below one turn, which keeps
    closure."""
    rng = random.Random(seed)
    stars = []
    for m in (4, 6, 8, 10):
        for pooled in (False, True):
            flat = random_flat_sequence(rng, m, pooled=pooled)
            if len(stars) % 2:
                scale = Fraction(rng.randint(700, 2519), 2520)
                flat = AngleSequence(tuple(a * scale for a in flat))
            stars.append(flat)
    return stars


@pytest.mark.parametrize("creases", [3, 0])
def test_random_flat_sequence_needs_a_positive_even_size(creases):
    with pytest.raises(ValueError, match="^need a positive even number of creases$"):
        random_flat_sequence(random.Random(0), creases)


class TestClosureGate:
    """The oracle decides closure on its own integers. The recursion and
    crimping decide it with `vertex.kawasaki`, so the oracle must agree with
    that test without calling it: a star has a valid assignment exactly when
    it closes."""

    def test_imports_only_the_run_type_from_the_recursion(self):
        tree = ast.parse(open(oracle_module.__file__, encoding="utf-8").read())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names += [module + ":" + alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
        assert [name for name in names if "vertex" in name] == [".vertex:RunCondition"]

    def test_enumerate_lists_some_assignment_exactly_when_the_star_closes(self):
        rng = random.Random(16)
        # one sector of the coprime cone nudged by 1/1001 degree: open by
        # exactly one unit of its scale
        nudged = CONE_7_11_13.angles[:-1] + (CONE_7_11_13.angles[-1] + Fraction(1, 1001),)
        stars = seeded_stars(16) + seeded_stars(17) + [CONE_7_11_13, AngleSequence(nudged)]
        for m in (2, 4, 6, 8, 10):
            flat = random_nonclosing_sequence(rng, m)
            scale = Fraction(rng.randint(700, 2519), 2520)
            stars += [flat, AngleSequence(tuple(a * scale for a in flat))]
        for m in (1, 3, 5, 7, 9):
            raw = [Fraction(rng.randint(1, 60), rng.choice((1, 2, 3))) for _ in range(m)]
            scale = Fraction(rng.randint(700, 2520), 2520) * 360 / sum(raw)
            stars.append(AngleSequence(tuple(r * scale for r in raw)))
        kinds = set()
        for v in stars:
            closes = kawasaki(v)
            assert (enumerate_valid(v) != []) == closes, v.as_strings()
            kinds.add((closes, v.is_flat, len(v) % 2))
        # flat and cone stars that close, flat and cone stars that do not,
        # and odd degrees
        assert {(True, True, 0), (True, False, 0), (False, True, 0), (False, False, 0)} <= kinds
        assert any(odd for _, _, odd in kinds)


class TestReferenceSearch:
    """The table-driven search visits the same nodes in the same order as
    the reference, so it finds the same first stacking, not only a verdict."""

    def test_same_witness_on_seeded_stars(self):
        stars = seeded_stars(10) + [
            AngleSequence((45,) * 8), AngleSequence((30,) * 10), CONE_7_11_13]
        assert any(not v.is_flat for v in stars)
        searched = found = 0
        for v in stars:
            for mv in all_assignments(len(v)):
                if not maekawa_check(mv):
                    continue
                reference = reference_search(*_reference_cyclic_net(v, mv))
                witness = find_stacking(v, mv)
                assert witness == (None if reference is None else tuple(reference)), (
                    v.as_strings(), str(mv))
                searched += 1
                found += witness is not None
        assert found > 0 and searched - found > 0

    def test_cone_over_coprime_denominators(self):
        # folded on a scale of 7 * 11 * 13 = 1001; its witnesses are checked
        # against the reference in the test above
        v = CONE_7_11_13
        assert not v.is_flat and _lcm_of(v) == 1001
        assert count_mv(v).count == oracle_count(v) == 8
        assert enumerate_valid(v) == [
            mv for mv in all_assignments(len(v)) if crimp_validity(v, mv)]

    def test_same_witness_on_restricted_nets(self, corpus200):
        searched = found = 0
        for v in corpus200:
            for run in find_runs(v):
                model = oracle_module._restricted_net(v, run)
                sheets, folds = _reference_run_net(v, run)
                for labels in itertools.product(tuple(MVLabel), repeat=run.k + 2):
                    reference = reference_search(
                        sheets, [fold + (label,) for fold, label in zip(folds, labels)]
                    )
                    witness = oracle_module._search(model, labels).get(labels)
                    assert witness == reference, (v.as_strings(), run, labels)
                    assert run_restricted_valid(v, run, labels) == (witness is not None)
                    searched += 1
                    found += witness is not None
        assert searched > 500 and 0 < found < searched

    def test_enumerate_builds_the_tables_once(self, monkeypatch):
        calls = []
        real = oracle_module._constraint_tables
        monkeypatch.setattr(
            oracle_module,
            "_constraint_tables",
            lambda model, first: calls.append(len(model.sheets)) or real(model, first),
        )
        for seq in (SQUARE, AngleSequence((20, 10, 40, 50, 60, 60, 60, 60))):
            calls.clear()
            assert enumerate_valid(seq)
            assert calls == [len(seq)]


def reference_earliest_start(model):
    """The first sheet `_search` inserts when it enumerates, straight from its
    definition: the r that minimizes the sum, over (b) and (c) entries, of
    the step that inserts the last of their sheets."""
    tables = reference_constraint_tables(model.sheets, model.folds)
    n = len(tables.pairs)
    entries = [e for step in tables.pairs + tables.straddles for e in step]
    return min(range(n), key=lambda r: sum(max((x - r) % n for x in e) for e in entries))


class TestFirstSheet:
    """Enumerating, the search numbers the sheets from the one that lets the
    (b) and (c) entries complete earliest. The list must not depend on that
    choice, and it must be the list crimping gives."""

    def test_every_first_sheet_lists_the_same_assignments(self, monkeypatch):
        stars = [v for v in seeded_stars(19) if len(v) <= 8] + [
            CONE_7_11_13, AngleSequence((30, 30, 90, 30, 30, 90, 30, 30)),
            AngleSequence((24, 72, 24, 24, 48, 24, 48, 24, 24, 24))]
        real = oracle_module._earliest_start
        chosen = []
        for v in stars:
            want = enumerate_valid(v)
            assert want == [mv for mv in all_assignments(len(v)) if crimp_validity(v, mv)]
            chosen.append(real(fold_directions(v)))
            for r in range(len(v)):
                monkeypatch.setattr(oracle_module, "_earliest_start", lambda model, r=r: r)
                assert enumerate_valid(v) == want, (v.as_strings(), r)
            monkeypatch.setattr(oracle_module, "_earliest_start", real)
        assert any(chosen)

    def test_first_sheet_minimizes_the_completion_steps(self):
        stars = seeded_stars(20) + seeded_stars(21) + [
            CONE_7_11_13, AngleSequence((30,) * 4 + (60,) + (30,) * 4 + (60,))]
        chosen = set()
        for v in stars:
            model = fold_directions(v)
            chosen.add(oracle_module._earliest_start(model))
            assert oracle_module._earliest_start(model) == reference_earliest_start(model)
        assert len(chosen) > 2


class TestOnePassTables:
    """`_constraint_tables` numbers each entry from the first sheet as it
    files it under its step. For every first sheet, each step must hold the
    entries of the two-pass reference: the tables numbered from sheet 0,
    then renumbered."""

    def test_every_first_sheet_matches_the_renumbered_reference(self):
        stars = seeded_stars(22) + seeded_stars(23) + [CONE_7_11_13]
        assert any(not v.is_flat for v in stars)
        models = [fold_directions(v) for v in stars] + _run_nets(stars + [MIRROR])
        assert any(len(m.folds) < len(m.sheets) for m in models)
        entries = 0
        for model in models:
            base = reference_constraint_tables(model.sheets, model.folds)
            for r in range(len(model.sheets)):
                want, got = reference_shifted(base, r), oracle_module._constraint_tables(model, r)
                for name in ("closing", "pairs", "straddles"):
                    steps, wanted = getattr(got, name), getattr(want, name)
                    assert len(steps) == len(wanted) == len(model.sheets)
                    for step, wanted_step in zip(steps, wanted):
                        assert len(step) == len(set(step))
                        assert set(step) == set(wanted_step), (model, r, name)
                        entries += len(step)
        assert entries > 0


# `stacking_valid` as it ran before it grouped its checks: (b) over every pair
# of folds, (c) over every sheet for every fold. The grouped re-check must
# give its verdict on every stacking and labeling.


def reference_stacking_valid(model, mv, stacking):
    sheets, folds = model.sheets, model.folds
    level = [0] * len(sheets)
    for lvl, s in enumerate(stacking):
        level[s] = lvl
    for fold, label in zip(folds, mv):
        left, right = fold[0], fold[1]
        if _reference_wants_right_above(sheets, fold + (label,)) != (level[right] > level[left]):
            return False
    for f1, f2 in itertools.combinations(folds, 2):
        if f1[3] == f2[3] and f1[2] == f2[2]:
            a1, a2 = sorted((level[f1[0]], level[f1[1]]))
            b1, b2 = sorted((level[f2[0]], level[f2[1]]))
            if _reference_interleaved(a1, a2, b1, b2):
                return False
    for left, right, pos, _side in folds:
        lo, hi = sorted((level[left], level[right]))
        for s, (slo, shi, _o) in enumerate(sheets):
            if s not in (left, right) and lo < level[s] < hi and slo < pos < shi:
                return False
    return True


def labels_read_off(model, stacking):
    """The labels that constraint (a) asks of a stacking: a fold is a valley
    exactly when its right sheet lies above its left one and the left one
    shows sheet 0's face, or neither."""
    level = {s: lvl for lvl, s in enumerate(stacking)}
    return MVAssignment(tuple(
        MVLabel.VALLEY if (level[right] > level[left]) == (model.sheets[left][2] == 1)
        else MVLabel.MOUNTAIN
        for left, right, _pos, _side in model.folds
    ))


def _run_nets(stars):
    return [oracle_module._restricted_net(v, run) for v in stars for run in find_runs(v)]


class TestStackingValidReference:
    def test_every_stacking_and_labeling_of_small_models(self):
        stars = [v for v in seeded_stars(10) + seeded_stars(11) if len(v) <= 6]
        stars += [CONE_7_11_13, AngleSequence((60,) * 6)]
        models = [fold_directions(v) for v in stars]
        models += [net for net in _run_nets(stars + [MIRROR]) if len(net.sheets) <= 6]
        assert any(len(m.sheets) == 6 for m in models) and any(len(m.folds) < len(m.sheets) for m in models)
        verdicts = set()
        for model in models:
            perms = list(itertools.permutations(range(len(model.sheets))))
            for labels in itertools.product(tuple(MVLabel), repeat=len(model.folds)):
                mv = MVAssignment(labels)
                for perm in perms:
                    valid = stacking_valid(model, mv, perm)
                    assert valid == reference_stacking_valid(model, mv, perm), (model, str(mv), perm)
                    verdicts.add(valid)
        assert verdicts == {True, False}

    def test_random_stackings_of_larger_models_and_runs(self):
        # half the labelings are read off the stacking, so that (a) holds and
        # (b) and (c) decide
        rng = random.Random(24)
        stars = [v for v in seeded_stars(12) + seeded_stars(13) if len(v) >= 8]
        stars += [AngleSequence((45,) * 8), AngleSequence((36,) * 10),
                  AngleSequence((24, 72, 24, 24, 48, 24, 48, 24, 24, 24))]
        models = [fold_directions(v) for v in stars]
        runs = [net for net in _run_nets(list(seeded_stars(12)) + stars) if len(net.sheets) >= 5]
        assert runs
        verdicts = set()
        for model in models + runs:
            n, m = len(model.sheets), len(model.folds)
            for i in range(400):
                perm = rng.sample(range(n), n)
                if i % 2:
                    mv = labels_read_off(model, perm)
                else:
                    mv = MVAssignment(tuple(rng.choice(tuple(MVLabel)) for _ in range(m)))
                valid = stacking_valid(model, mv, perm)
                assert valid == reference_stacking_valid(model, mv, perm), (model, str(mv), perm)
                verdicts.add((i % 2, valid))
        assert verdicts == {(0, False), (1, False), (1, True)}


class TestLabelDoor:
    """`_stacking` reads labels as `MVAssignment` does, so every oracle entry
    gives one answer for a word, its lower case, a list of "M"/"V" and the
    assignment."""

    @staticmethod
    def forms(mv):
        word = str(mv)
        return [word, word.lower(), list(word), mv]

    def test_one_answer_for_every_form(self):
        rng = random.Random(18)
        stars = [SQUARE] + seeded_stars(18)
        assert any(not v.is_flat for v in stars)
        answers = set()
        for v in stars:
            model = fold_directions(v)
            labelings = enumerate_valid(v)[:6] + rng.sample(all_assignments(len(v)), 6)
            for mv in labelings:
                witness = find_stacking(v, mv)
                valid = witness is not None
                assert valid == crimp_validity(v, mv)
                stacking = witness or tuple(range(len(v)))
                for labels in self.forms(mv):
                    assert oracle_is_valid(v, labels) == valid
                    assert find_stacking(v, labels) == witness
                    assert stacking_valid(model, labels, stacking) == valid
                answers.add(valid)
            for run in find_runs(v):
                for mv in rng.sample(all_assignments(run.k + 2), min(6, 2 ** (run.k + 2))):
                    valid = run_restricted_valid(v, run, mv)
                    assert valid == run_validity(v, run, mv)
                    for labels in self.forms(mv):
                        assert run_restricted_valid(v, run, labels) == valid
        assert answers == {True, False}

    def test_a_bad_word_is_refused(self):
        model = fold_directions(SQUARE)
        (run,) = find_runs(MIRROR)
        for decide in (
            lambda: oracle_is_valid(SQUARE, "xyzw"),
            lambda: find_stacking(SQUARE, "xyzw"),
            lambda: stacking_valid(model, "xyzw", (0, 1, 2, 3)),
            lambda: run_restricted_valid(MIRROR, run, "xyz"),
        ):
            with pytest.raises(ValueError, match="^assignment strings may only contain M and V"):
                decide()


class _ReadLog(tuple):
    """A table that records the indices read from it; iterating reads all."""

    def __new__(cls, items):
        table = super().__new__(cls, items)
        table.read = []
        return table

    def __getitem__(self, i):
        self.read.append(i)
        return tuple.__getitem__(self, i)

    def __iter__(self):
        self.read.extend(range(len(self)))
        return tuple.__iter__(self)


class TestLabelsReadInPlace:
    """The search reads constraint (a) at the node that places sheet j, so a
    labeling refuted while placing sheet j reads no step past j, and no
    label of a fold that closes later."""

    def test_a_refuted_labeling_reads_no_step_past_the_last_it_places(self, monkeypatch):
        refuted = early = 0
        for v in seeded_stars(10) + [CONE_7_11_13]:
            model = fold_directions(v)
            tables = oracle_module._constraint_tables(model, 0)  # a labeled search starts at sheet 0
            n = len(tables.closing)
            closes_at = {fi: j for j, step in enumerate(tables.closing) for fi, _o, _a in step}
            for mv in all_assignments(len(v)):
                if not maekawa_check(mv):
                    continue
                steps, labels = _ReadLog(tables.closing), _ReadLog(mv.labels)
                logged = dataclasses.replace(tables, closing=steps)
                with monkeypatch.context() as patch:
                    patch.setattr(oracle_module, "_constraint_tables", lambda model, first: logged)
                    found = oracle_module._search(model, labels).get(mv.labels)
                last = max(steps.read)
                assert set(steps.read) == set(range(1, last + 1)), (v.as_strings(), str(mv))
                assert all(closes_at[fi] <= last for fi in labels.read)
                assert find_stacking(v, mv) == (None if found is None else tuple(found))
                if found is None:
                    refuted += 1
                    early += last < n - 1
                else:
                    assert last == n - 1 and stacking_valid(model, mv, found)
        assert 0 < early < refuted
