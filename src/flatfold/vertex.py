"""Single-vertex flat-foldability tests and mountain-valley counting.

All operations are pure functions of immutable inputs and work for a vertex
on flat paper or at the apex of a cone; the closure test and the parity rule
never use the fact that the sectors sum to a full turn.

The closure test, the counting recursion and crimping only add, subtract and
compare sectors, so they run on the star's integer view
(`AngleSequence.scaled`): every sector times the LCM of the denominators.
That keeps every equality, order and closure test exact.

A `RunCondition` is the recursion's own run, ``(start, k, m)``; its creases
and the tallies the equal-angle run rule allows are derived from those.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, islice
from math import comb
from operator import ne
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import AngleSequence, CountResult, Labels, MVAssignment, ReductionStep, _as_assignment
from .errors import CapacityError, NotFlatFoldableError, ParityError


def alternating_sum(v: AngleSequence) -> Fraction:
    """Signed sector sum a1 - a2 + a3 - ... around the vertex."""
    if len(v) % 2 != 0:
        raise ParityError(
            "alternating sum needs an even number of sectors, got %d" % len(v)
        )
    return sum(v.angles[0::2]) - sum(v.angles[1::2])


def _closes(ints: Sequence[int]) -> bool:
    return len(ints) % 2 == 0 and sum(ints[0::2]) == sum(ints[1::2])


def kawasaki(v: AngleSequence) -> bool:
    """Closure test: even degree and alternating sector sum zero.

    Necessary and sufficient for the vertex to fold flat (ignoring labels),
    on flat paper and on cones alike. Odd degree returns False rather than
    raising: a flat-foldable vertex always has even degree.
    """
    return _closes(v.scaled[0])


def maekawa_check(mv: Labels) -> bool:
    """Mountain/valley parity rule: M - V must be +2 or -2."""
    return abs(_as_assignment(mv).tally) == 2


class RunCondition(NamedTuple):
    """A block of equal consecutive sectors and the parity it forces.

    Sectors ``start .. start + k`` (cyclic) of a star of ``m`` creases all
    carry the same angle, and both sectors flanking them are strictly larger;
    the creases bounding and interleaving them are ``start .. start + k + 1``.
    A labelling of those creases folds the block flat in isolation exactly
    when its mountain-valley tally lies in ``allowed_tallies``: 0 for an odd
    number of sectors, +-1 for an even number.
    """

    start: int
    k: int
    m: int

    @property
    def length(self) -> int:
        return self.k + 1

    @property
    def creases(self) -> tuple[int, ...]:
        return tuple((self.start + j) % self.m for j in range(self.k + 2))

    @property
    def allowed_tallies(self) -> frozenset[int]:
        return frozenset({0}) if self.k % 2 == 0 else frozenset({-1, 1})


def _runs(vals: Sequence[int]) -> list[RunCondition]:
    """The maximal equal runs of ``vals`` whose cyclic neighbours are
    strictly larger, by start index; empty exactly when all are equal."""
    m = len(vals)
    starts = list(compress(range(m), map(ne, vals, vals[-1:] + vals[:-1])))
    runs = []
    for s, nxt in zip(starts, starts[1:] + starts[:1]):
        val = vals[s]
        if vals[s - 1] > val and vals[nxt] > val:
            runs.append(RunCondition(s, (nxt - s) % m - 1, m))
    return runs


def find_runs(v: AngleSequence) -> list[RunCondition]:
    """All maximal equal-angle runs whose cyclic neighbours are strictly larger.

    Wrap-around runs are reported with their true (cyclic) start index.
    Returns an empty list exactly when all sectors are equal.
    """
    return _runs(v.scaled[0])


def _check_run_against(v: AngleSequence, run: RunCondition) -> None:
    m = len(v)
    if run.m != m or not 0 <= run.start < m or not 0 <= run.k <= m - 2:
        raise ValueError("run %r does not fit a star of %d creases" % (tuple(run), m))
    val = v.cyclic(run.start)
    if any(v.cyclic(run.start + j) != val for j in range(run.k + 1)):
        raise ValueError("run sectors are not all equal in this sequence")
    if not (v.cyclic(run.start - 1) > val and v.cyclic(run.start + run.k + 1) > val):
        raise ValueError("restricted folding needs strictly larger flanking sectors")


def run_validity(v: AngleSequence, run: RunCondition, mv: Labels) -> bool:
    """Whether the labels fold the run's creases flat in isolation.

    ``mv`` may label the whole vertex (the run's creases are picked out) or
    just the run's ``k + 2`` creases in order. The tally condition is both
    necessary and sufficient for those creases folded on their own, the rest
    of the paper acting as an unfolded cone.
    """
    _check_run_against(v, run)
    mv = _as_assignment(mv)
    if len(mv) == len(v):
        mv = MVAssignment(tuple(mv[c] for c in run.creases))
    elif len(mv) != run.k + 2:
        raise ValueError(
            "assignment must label all %d creases or the run's %d"
            % (len(v), run.k + 2)
        )
    return mv.tally in run.allowed_tallies


def crimp_validity(v: AngleSequence, mv: Labels) -> bool:
    """Decide whether an assignment folds flat, by repeated crimping.

    Finds a sector no larger than both neighbours whose bounding creases
    carry opposite labels, folds it away (merging the neighbours), and
    repeats. One base case: two creases remain, valid iff both angles and
    both labels agree. No eligible sector left means invalid. Scans for the
    first eligible sector in index order; any eligible crimp preserves
    validity. Works on `AngleSequence.scaled`, which a star computes once for
    all the assignments it is asked about.
    """
    ints = v.scaled[0]
    if not _closes(ints):
        raise NotFlatFoldableError(
            "closure fails, so no assignment folds this vertex flat"
        )
    mv = _as_assignment(mv)
    if len(mv) != len(v):
        raise ValueError("assignment length must match the number of creases")
    sectors = list(ints)
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
        # fold sector i away: rotate it to index 1, merge its neighbours,
        # drop the two creases around it
        rot = (i - 1) % m
        sectors = sectors[rot:] + sectors[:rot]
        labels = labels[rot:] + labels[:rot]
        sectors = [sectors[0] - sectors[1] + sectors[2]] + sectors[3:]
        labels = [labels[0]] + labels[3:]


def bounds(v: AngleSequence) -> tuple[int, int]:
    """Sharp lower/upper bounds on the number of valid assignments: 2^n and
    2*C(2n, n-1) for a vertex of degree 2n."""
    m = len(v)
    if m % 2 != 0:
        raise ParityError("bounds are defined for even degree, got %d" % m)
    n = m // 2
    return (2 ** n, 2 * comb(m, n - 1))


def _default_pick(seq: list[int]) -> RunCondition:
    """The run of smallest sector, then smallest start: the order every trace
    follows. Every maximal run of the smallest sector has strictly larger
    neighbours, so the first of them is that run; C-level scans find it."""
    m = len(seq)
    lo = min(seq)
    start = seq.index(lo)
    if start == 0 and seq[-1] == lo:
        # index 0 lies in a run that wraps past the end and so starts last:
        # the first run starts after it
        start = seq.index(lo, _first_other(seq, lo, 0))
    end = _first_other(seq, lo, start)
    if end == m:
        end += _first_other(seq, lo, 0)
    return RunCondition(start, end - start - 1, m)


def _first_other(seq: list[int], lo: int, i: int) -> int:
    """The first index from ``i`` on whose sector is not ``lo``, or ``len(seq)``."""
    m = len(seq)
    return next(compress(range(i, m), map(lo.__ne__, islice(seq, i, None))), m)


def _factor(k: int) -> int:
    """Labelings of a run's k + 2 creases with tally 0 (k even) or with one
    given sign of tally +-1 (k odd)."""
    return comb(k + 2, (k + 2) // 2)


def _base(m: int) -> int:
    """Labelings of m creases around equal sectors: tally +2 or -2."""
    return 2 * comb(m, m // 2 - 1)


def _reductions(ints: Sequence[int], pick) -> Iterator[tuple[int, int, list[int]]]:
    """The steps of the counting recursion on a closing integer star, as
    ``(start, k, residual)``: ``pick(seq)`` returns the `RunCondition` to
    reduce of a star whose sectors are not all equal, sectors ``start ..
    start + k``. The last residual, or the star itself if there is no step,
    has all sectors equal.
    """
    current = list(ints)
    while current.count(current[0]) < len(current):
        start, k, _ = pick(current)
        # rotate the run's left neighbour to index 0, so the run is s[1 .. k + 1]
        rot = (start - 1) % len(current)
        s = current[rot:] + current[:rot]
        if k % 2 == 0:
            current = [s[0] - s[1] + s[k + 2]] + s[k + 3 :]
        else:
            current = [s[0]] + s[k + 2 :]
        yield start, k, current


def count_mv(v: AngleSequence, *, _pick=_default_pick) -> CountResult:
    """Count the valid mountain-valley assignments of a foldable vertex.

    All sectors equal is the closed-form base case 2*C(2n, n-1); otherwise a
    maximal equal-angle run bounded by strictly larger sectors is reduced --
    merging its neighbours when the run has an odd number of sectors,
    deleting it outright when even -- and the count is the binomial factor
    of the run times the count of the residual (which may be a cone). Every
    step is recorded in the trace. Exact integers throughout: the recursion
    reduces the star's scaled integer sectors, and each step keeps its
    residual as integers over the star's denominator.
    """
    ints, den = v.scaled
    if not _closes(ints):
        raise NotFlatFoldableError("closure fails; this vertex has no flat foldings")
    limits = bounds(v)
    residual: Sequence[int] = ints
    product = 1
    trace: list[ReductionStep] = []
    for start, k, residual in _reductions(ints, _pick):
        assert _closes(residual), "reduction must preserve closure"
        factor = _factor(k)
        trace.append(ReductionStep(start, k + 1, factor, tuple(residual), den))
        product *= factor
    base = _base(len(residual))
    return CountResult(count=product * base, base=base, trace=tuple(trace), bounds=limits)


def _with_mountains(
    labels: list[str], creases: Sequence[int], mountains: int
) -> Iterator[list[str]]:
    """Copies of ``labels`` with each choice of ``mountains`` of ``creases``
    made mountains; the other creases stay valleys, as they start."""
    for chosen in combinations(creases, mountains):
        new = labels.copy()
        for c in chosen:
            new[c] = "M"
        yield new


# `enumerate_mv` lists at most this many assignments, at O(count * m). Any
# star of up to 16 creases is within it: 16 equal sectors have 22880, the
# most (see `bounds`); 24 equal sectors, with 4992288, are not.
ENUMERATE_LIMIT = 100_000


def enumerate_mv(v: AngleSequence) -> list[MVAssignment]:
    """All valid assignments of a foldable vertex, in lexicographic
    M-before-V order: the assignments that `count_mv` counts. The words of
    `enumerate_words`, one `MVAssignment` each."""
    return [MVAssignment(word) for word in enumerate_words(v)]


def enumerate_words(v: AngleSequence) -> list[str]:
    """The valid assignments of a foldable vertex as words such as
    ``"MMVM"``, in lexicographic M-before-V order.

    Replays `count_mv`'s reduction with each crease's id carried through the
    rotations (Hull, "Counting mountain-valley assignments for flat folds",
    2003). A run with an odd number of sectors takes its k + 2 creases out,
    with tally 0. A run with an even number replaces them by one virtual
    crease, whose label is the sign of their tally: a mountain for +1, a
    valley for -1. The all-equal residual takes every labeling of tally +2
    or -2, and the virtual creases are then expanded, the last step's first.

    The count is known from the replay before any labeling is built: above
    `ENUMERATE_LIMIT` it raises `CapacityError`. A star whose lower bound
    (see `bounds`) is already above the limit is refused before the replay.
    """
    ints = v.scaled[0]
    if not _closes(ints):
        raise NotFlatFoldableError("closure fails; this vertex has no flat foldings")
    least = bounds(v)[0]
    if least > ENUMERATE_LIMIT:
        raise CapacityError(
            "at least %d valid assignments exceed the listing limit of %d"
            % (least, ENUMERATE_LIMIT)
        )
    m = len(ints)
    ids = list(range(m))
    steps: list[tuple[list[int], Optional[int]]] = []  # run creases, virtual crease
    count = 1
    for start, k, _residual in _reductions(ints, _default_pick):
        # rotate as the sectors are; crease i lies before sector i, so the
        # run's creases are ids[1 .. k + 2]
        rot = (start - 1) % len(ids)
        ids = ids[rot:] + ids[:rot]
        virtual = None if k % 2 == 0 else m + len(steps)
        steps.append((ids[1 : k + 3], virtual))
        ids = ids[:1] + ([] if virtual is None else [virtual]) + ids[k + 3 :]
        count *= _factor(k)
    count *= _base(len(ids))
    if count > ENUMERATE_LIMIT:
        raise CapacityError(
            "%d valid assignments exceed the listing limit of %d" % (count, ENUMERATE_LIMIT)
        )
    half = len(ids) // 2
    blank = ["V"] * (m + len(steps))
    labelings = [
        labels
        for mountains in (half + 1, half - 1)
        for labels in _with_mountains(blank, ids, mountains)
    ]
    for run, virtual in reversed(steps):
        # tally 0, or +1 / -1 as the virtual crease is a mountain / valley
        n = len(run)
        labelings = [
            new
            for labels in labelings
            for new in _with_mountains(
                labels, run, n // 2 + (virtual is not None and labels[virtual] == "M")
            )
        ]
    return sorted("".join(labels[:m]) for labels in labelings)
