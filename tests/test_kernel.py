"""The integer kernel of counting and crimping against the `Fraction` code it replaced.

`reference_count_mv` and `reference_crimp_validity` are the recursion and
the crimp reduction as they ran before they moved to LCM-scaled integers:
every step rebuilds an `AngleSequence` of `Fraction` sectors. The kernel must
take the same steps, with the same start, length, factor and residual, and
give the same verdict on every assignment.

`enumerate_mv` lists the assignments by replaying the same reduction. Its
ordered list is checked against the layer oracle, against a crimp filter
written here, and in length against `count_mv`.
"""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from flatfold.core import AngleSequence, MVAssignment, MVLabel
from flatfold.errors import CapacityError, NotFlatFoldableError
from flatfold import cli, vertex
from flatfold.oracle import enumerate_valid
from flatfold.vertex import count_mv, crimp_validity, enumerate_mv, enumerate_words


def _reference_kawasaki(v):
    return len(v) % 2 == 0 and sum(v.angles[0::2]) - sum(v.angles[1::2]) == 0


def _reference_runs(v):
    m = len(v)
    vals = list(v.angles)
    starts = [i for i in range(m) if vals[i] != vals[i - 1]]
    runs = []
    for s_idx, s in enumerate(starts):
        nxt = starts[(s_idx + 1) % len(starts)]
        if vals[s - 1] > vals[s] and vals[nxt] > vals[s]:
            runs.append((s, (nxt - s) % m - 1))
    return runs


def reference_count_mv(v):
    """(count, base, [(start, length, factor, residual), ...])."""
    if not _reference_kawasaki(v):
        raise NotFlatFoldableError("closure fails")
    current = v
    product = 1
    trace = []
    while True:
        runs = _reference_runs(current)
        if not runs:
            m = len(current)
            base = 2 * comb(m, m // 2 - 1)
            return product * base, base, trace
        start, k = min(runs, key=lambda r: (current[r[0]], r[0]))
        factor = comb(k + 2, (k + 2) // 2) if k % 2 == 0 else comb(k + 2, (k + 1) // 2)
        s = list(current.rotated(start - 1).angles)
        if k % 2 == 0:
            residual = AngleSequence(tuple([s[0] - s[1] + s[k + 2]] + s[k + 3 :]))
        else:
            residual = AngleSequence(tuple([s[0]] + s[k + 2 :]))
        assert _reference_kawasaki(residual)
        trace.append((start, k + 1, factor, residual))
        product *= factor
        current = residual


def reference_crimp_validity(v, mv):
    if not _reference_kawasaki(v):
        raise NotFlatFoldableError("closure fails")
    sectors = list(v.angles)
    labels = list(mv.labels)
    while True:
        m = len(sectors)
        if m == 2:
            return sectors[0] == sectors[1] and labels[0] == labels[1]
        for i in range(m):
            if (
                sectors[i - 1] >= sectors[i]
                and sectors[(i + 1) % m] >= sectors[i]
                and labels[i] != labels[(i + 1) % m]
            ):
                break
        else:
            return False
        rot = (i - 1) % m
        sectors = sectors[rot:] + sectors[:rot]
        labels = labels[rot:] + labels[:rot]
        sectors = [sectors[0] - sectors[1] + sectors[2]] + sectors[3:]
        labels = [labels[0]] + labels[3:]


def _interleave(odd, even):
    return AngleSequence(tuple(a for pair in zip(odd, even) for a in pair))


def generic_star(rng, m, total):
    """Distinct rational sectors, each parity class summing to total / 2."""
    classes = []
    for _ in range(2):
        raw = [rng.randint(1, 997) for _ in range(m // 2)]
        classes.append([Fraction(total, 2) * r / sum(raw) for r in raw])
    return _interleave(*classes)


def pooled_star(rng, m, total):
    """Sectors of 1, 2 or 3 units of total / (2 * units): many equal runs."""
    odd = [rng.randint(1, 3) for _ in range(m // 2)]
    even = [1] * (m // 2)
    for _ in range(sum(odd) - m // 2):
        even[rng.choice([j for j in range(m // 2) if even[j] < 3])] += 1
    unit = Fraction(total, 2 * sum(odd))
    return _interleave([unit * u for u in odd], [unit * u for u in even])


def seeded_stars(sizes, seed):
    """Generic, pooled and cone stars of each size, none with all-integer sectors."""
    rng = random.Random(seed)
    stars = []
    for m in sizes:
        cone_total = Fraction(rng.randint(100, 2000), 7)
        for family, total in ((generic_star, 360), (pooled_star, Fraction(1079, 3)),
                              (generic_star, cone_total), (pooled_star, cone_total)):
            stars.append(family(rng, m, total))
    return stars


def _assert_same_count(v):
    count, base, trace = reference_count_mv(v)
    result = count_mv(v)
    assert (result.count, result.base) == (count, base)
    assert len(result.trace) == len(trace)
    for step, (start, length, factor, residual) in zip(result.trace, trace):
        assert (step.start, step.length, step.factor) == (start, length, factor)
        assert type(step.scaled_residual) is tuple
        assert all(type(n) is int for n in step.scaled_residual)
        assert step.residual == residual


def test_count_matches_reference_on_corpus(corpus200):
    for v in corpus200:
        _assert_same_count(v)


def test_count_matches_reference_on_seeded_stars():
    stars = seeded_stars((4, 10, 24, 60, 150, 400), 1)
    assert all(any(a.denominator > 1 for a in v) for v in stars)
    assert any(not v.is_flat for v in stars)
    for v in stars:
        _assert_same_count(v)


def test_seeded_stars_reduce_runs_that_wrap():
    """A residual is sliced from the star before it in two pieces, or in one
    when the run, or the neighbour merged past it, wraps past the end. The
    seeded stars that `test_count_matches_reference_on_seeded_stars` checks
    reach both cases for runs of odd and of even k."""
    seen = set()

    def recording_pick(seq):
        run = vertex._default_pick(seq)
        rot = (run.start - 1) % run.m
        cut = rot + run.k + (3 if run.k % 2 == 0 else 2)
        seen.add((run.k % 2, cut > run.m))
        return run

    for v in seeded_stars((4, 10, 24, 60, 150, 400), 1):
        count_mv(v, _pick=recording_pick)
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


def test_crimp_matches_reference_on_every_assignment(corpus_small):
    stars = list(corpus_small) + seeded_stars((2, 4, 6, 8, 10), 3)
    stars += [AngleSequence((Fraction(700, 3 * m),) * m) for m in (4, 6, 8, 10)]  # equal cones
    for v in stars:
        for labels in itertools.product(tuple(MVLabel), repeat=len(v)):
            mv = MVAssignment(labels)
            assert crimp_validity(v, mv) == reference_crimp_validity(v, mv), (v, str(mv))


def test_count_builds_no_angle_sequence(monkeypatch):
    v = generic_star(random.Random(5), 200, 360)
    built = []
    init = AngleSequence.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(AngleSequence, "__init__", counting_init)
    result = count_mv(v)
    assert len(result.trace) == 99
    assert built == []


def test_count_never_builds_the_fraction_sectors(monkeypatch, capsys):
    # a star read from the command line stays on its integers: the digit
    # budget, the input block, the count and crimping never read `angles`
    def unbuilt(self):
        raise AssertionError("the Fraction sectors were built")

    monkeypatch.setattr(AngleSequence, "angles", property(unbuilt))
    for command in ("count", "analyze"):
        for fmt in ("json", "text"):
            assert cli.main([command, "1/3 45/2 179/3 45/2 120 135", "--format", fmt]) == 0
    capsys.readouterr()
    v = cli.parse_angles("100 80 80 100 0.5 0.5")
    assert (len(v), v.total, v.kind, vertex.kawasaki(v)) == (6, 361, "cone", True)
    assert count_mv(v).trace[-1].residual == AngleSequence((200, 200), 2)
    assert [crimp_validity(v, mv) for mv in ("MMMVMV", "MMMMMM")] == [True, False]
    with pytest.raises(AssertionError, match="Fraction sectors"):
        v.angles


def test_report_names_every_residual_as_the_kernel_reduces_it(capsys):
    """The count report splices each residual's names from the names before
    it (`vertex._splice`) and names only the new head sector. On the seeded
    stars, whose runs wrap in every way (see
    `test_seeded_stars_reduce_runs_that_wrap`), every reported residual is the
    kernel's, each sector formatted by `Fraction`."""
    for v in seeded_stars((4, 10, 24, 60, 150, 400), 1) + seeded_stars((6, 30), 2):
        assert cli.main(["count", " ".join(v.as_strings()), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["angles"] == [str(a) for a in v]
        trace = count_mv(v).trace
        assert len(report["count"]["trace"]) == len(trace)
        for reported, step in zip(report["count"]["trace"], trace):
            assert reported["residual"] == [str(Fraction(n, step.den)) for n in step.scaled_residual]


def equal_star(m, total):
    return AngleSequence((Fraction(total, m),) * m)


def crimp_filter(v):
    """The valid assignments by trying labelings through crimping, in
    lexicographic M-before-V order. Only labelings that pass Maekawa's rule
    are tried: crimping rejects every other one."""
    m = len(v)
    found = []
    for labels in itertools.product("MV", repeat=m):
        if abs(2 * labels.count("M") - m) == 2:
            mv = MVAssignment(labels)
            if crimp_validity(v, mv):
                found.append(mv)
    return found


def test_enumerate_matches_oracle(corpus200):
    stars = list(corpus200)
    stars += [equal_star(m, total) for m in range(2, 11, 2) for total in (360, Fraction(700, 3))]
    for v in stars:
        assert enumerate_mv(v) == enumerate_valid(v), v


def test_enumerate_matches_crimp_filter_on_seeded_stars():
    stars = seeded_stars((2, 4, 6, 8, 10, 12, 14), 11) + seeded_stars((10, 12), 12)
    assert any(not v.is_flat for v in stars)
    for v in stars:
        assert enumerate_mv(v) == crimp_filter(v), v


def test_enumerate_matches_crimp_filter_on_equal_stars():
    for m in range(2, 13, 2):
        for total in (360, Fraction(1079, 3)):
            v = equal_star(m, total)
            assert enumerate_mv(v) == crimp_filter(v), v


def test_enumerate_length_is_count():
    stars = seeded_stars((16, 18, 24), 13)[:10]  # sizes 16 and 18, two of 24
    stars += [equal_star(16, 360), equal_star(14, 300)]
    for v in stars:
        words = enumerate_words(v)
        assert words == [str(mv) for mv in enumerate_mv(v)]
        assert len(words) == count_mv(v).count
        assert words == sorted(set(words))
    assert count_mv(equal_star(16, 360)).count == 22880


def test_enumerate_limit_is_checked_before_listing(monkeypatch):
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(vertex, "_with_mountains", lambda *args: built.append(args) or iter(()))
        message = "^4992288 valid assignments exceed the listing limit of 100000$"
        with pytest.raises(CapacityError, match=message):
            enumerate_mv(equal_star(24, 360))
    assert built == []
    v = equal_star(8, 360)
    monkeypatch.setattr(vertex, "ENUMERATE_LIMIT", 112)
    assert len(enumerate_mv(v)) == 112
    monkeypatch.setattr(vertex, "ENUMERATE_LIMIT", 111)
    with pytest.raises(CapacityError):
        enumerate_mv(v)


def test_enumerate_refuses_a_large_star_from_its_size(monkeypatch):
    # a closing star of 34 creases has at least 2^17 = 131072 valid
    # assignments, so it is refused before any reduction step
    def replayed(*args):
        raise AssertionError("the recursion was replayed")

    monkeypatch.setattr(vertex, "_reductions", replayed)
    message = "^at least 131072 valid assignments exceed the listing limit of 100000$"
    for v in seeded_stars((34,), 14) + [equal_star(34, 360), equal_star(34, 200)]:
        with pytest.raises(CapacityError, match=message):
            enumerate_mv(v)


def test_lower_bound_holds_on_seeded_stars():
    # the size-only refusal above rests on count >= 2^(m/2), cones included
    for v in seeded_stars(range(2, 41, 2), 15):
        assert count_mv(v).count >= vertex.bounds(v)[0], v


def test_runs_derive_the_fields_the_constructor_stored(corpus200):
    """Every run the recursion sees has the creases and tallies that
    `RunCondition` used to store, from its start, length and star size."""
    seen = []

    def check(seq, runs):
        for run in runs:
            start, k, m = run
            assert m == len(seq)
            assert run.creases == tuple((start + j) % m for j in range(k + 2))
            assert run.allowed_tallies == (frozenset({0}) if k % 2 == 0 else frozenset({-1, 1}))
            assert run.length == k + 1
        seen.extend(runs)

    def checked_pick(seq):
        check(seq, vertex._runs(seq))
        return vertex._default_pick(seq)

    stars = list(corpus200) + seeded_stars(range(4, 41, 2), 16)
    assert any(not v.is_flat for v in stars)
    for v in stars:
        check(v.angles, vertex.find_runs(v))
        if vertex.kawasaki(v):
            count_mv(v, _pick=checked_pick)
    assert len(seen) > 1000


def _first_smallest_run(seq):
    return min(vertex._runs(seq), key=lambda r: (seq[r.start], r.start))


def test_default_pick_is_the_first_run_of_the_smallest_sector(corpus200):
    """The pick's scan for the smallest sector finds the run that a minimum
    over all runs finds, on every star the recursion steps through."""
    picked = []

    def compared_pick(seq):
        run = vertex._default_pick(seq)
        assert run == _first_smallest_run(seq), seq
        picked.append(run)
        return run

    stars = list(corpus200) + seeded_stars(range(4, 41, 2), 16)
    for v in stars:
        ints = list(v.ints)
        if len(set(ints)) > 1:
            compared_pick(ints)
        if vertex.kawasaki(v):
            count_mv(v, _pick=compared_pick)
    assert len(picked) > 1000
    assert any(run.start + run.k >= run.m for run in picked)  # a wrapping run


@pytest.mark.parametrize(
    "seq, run",
    [
        ([1, 1, 5, 3, 4, 1], (5, 2)),  # the smallest sector's run wraps past index 0
        ([1, 1, 5, 1, 4, 1], (3, 0)),  # ... and another run of it starts earlier
        ([4, 1, 1, 5, 1, 3], (1, 1)),  # two separate runs of the smallest sector
        ([4, 7, 6, 5, 9, 2], (5, 0)),  # the smallest sector only at the last index
        ([2, 7, 6, 5, 9, 8], (0, 0)),  # ... and only at the first
    ],
)
def test_default_pick_hand_cases(seq, run):
    assert vertex._default_pick(seq) == vertex.RunCondition(*run, len(seq))
    assert vertex._default_pick(seq) == _first_smallest_run(seq)


def test_enumerate_needs_closure():
    # an open even star and an odd one: every decider refuses them alike
    for v in (AngleSequence((100, 80, 90, 90)), AngleSequence((90, 90, 180))):
        for decide in (enumerate_mv, enumerate_words, count_mv,
                       lambda v: crimp_validity(v, "M" * len(v))):
            with pytest.raises(NotFlatFoldableError,
                               match="^closure fails; this vertex has no flat foldings$"):
                decide(v)
