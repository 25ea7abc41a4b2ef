"""Single-vertex flat-foldability tests and mountain-valley counting.

All operations are pure functions of immutable inputs and work for a vertex
on flat paper or at the apex of a cone; the closure test and the parity rule
never use the fact that the sectors sum to a full turn.

The closure test, the counting recursion and crimping only add, subtract and
compare sectors, so they run on the star's integer view
(`AngleSequence.ints`): every sector times the LCM of the denominators.
That keeps every equality, order and closure test exact.

A `RunCondition` is the recursion's own run, ``(start, k, m)``; its creases
and the tallies the equal-angle run rule allows are derived from those.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, islice
from math import comb
from operator import ne
from typing import Iterator, NamedTuple, Sequence

from .core import AngleSequence, CountResult, Labels, MVAssignment, ReductionStep, _as_assignment
from .errors import CapacityError, NotFlatFoldableError, ParityError


def alternating_sum(v: AngleSequence) -> Fraction:
    """Signed sector sum a1 - a2 + a3 - ... around the vertex."""
    if len(v) % 2 != 0:
        raise ParityError(
            "alternating sum needs an even number of sectors, got %d" % len(v)
        )
    return Fraction(sum(v.ints[0::2]) - sum(v.ints[1::2]), v.den)


def _closes(ints: Sequence[int]) -> bool:
    return len(ints) % 2 == 0 and sum(ints[0::2]) == sum(ints[1::2])


def _closing_ints(v: AngleSequence) -> tuple[int, ...]:
    """The star's integers, ``v.ints``, once it closes: an open star has no
    flat foldings to decide, count or list."""
    if not _closes(v.ints):
        raise NotFlatFoldableError("closure fails; this vertex has no flat foldings")
    return v.ints


def kawasaki(v: AngleSequence) -> bool:
    """Closure test: even degree and alternating sector sum zero.

    Necessary and sufficient for the vertex to fold flat (ignoring labels),
    on flat paper and on cones alike. Odd degree returns False rather than
    raising: a flat-foldable vertex always has even degree.
    """
    return _closes(v.ints)


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

    def flanks(self, ints: Sequence[int]) -> tuple[int, int, int]:
        """The left flank, the run's sector and the right flank in ``ints``, a
        star's integer sectors. Checks that the run fits the star, that its
        sectors are equal and that both flanks are strictly larger, and
        raises `ValueError` at the first that fails."""
        m, start, k = len(ints), self.start, self.k
        if self.m != m or not 0 <= start < m or not 0 <= k <= m - 2:
            raise ValueError("run %r does not fit a star of %d creases" % (tuple(self), m))
        val = ints[start]
        if any(ints[(start + j) % m] != val for j in range(k + 1)):
            raise ValueError("run sectors are not all equal in this sequence")
        left, right = ints[start - 1], ints[(start + k + 1) % m]
        if not (left > val and right > val):
            raise ValueError("restricted folding needs strictly larger flanking sectors")
        return left, val, right

    def run_labels(self, mv: Labels) -> MVAssignment:
        """The labels of the run's k + 2 creases from ``mv``, which labels them
        in order or labels the whole star. Reads labels and decides nothing."""
        mv = _as_assignment(mv)
        if len(mv) == self.k + 2:
            return mv
        if len(mv) != self.m:
            raise ValueError("assignment must label all %d creases or the run's %d"
                             % (self.m, self.k + 2))
        return MVAssignment(tuple(mv[c] for c in self.creases))


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
    return _runs(v.ints)


def run_validity(v: AngleSequence, run: RunCondition, mv: Labels) -> bool:
    """Whether the labels fold the run's creases flat in isolation.

    ``mv`` may label the whole vertex (the run's creases are picked out) or
    just the run's ``k + 2`` creases in order. The tally condition is both
    necessary and sufficient for those creases folded on their own, the rest
    of the paper acting as an unfolded cone.
    """
    run.flanks(v.ints)
    return run.run_labels(mv).tally in run.allowed_tallies


def crimp_validity(v: AngleSequence, mv: Labels) -> bool:
    """Decide whether an assignment folds flat, by repeated crimping.

    Finds a sector no larger than both neighbours whose bounding creases
    carry opposite labels, folds it away (merging the neighbours), and
    repeats. One base case: two creases remain, valid iff both angles and
    both labels agree. No eligible sector left means invalid. Scans for the
    first eligible sector in index order; any eligible crimp preserves
    validity. Works on the star's integers, `AngleSequence.ints`.
    """
    sectors = list(_closing_ints(v))
    mv = _as_assignment(mv, len(sectors))
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
    return (2 ** (m // 2), _base(m))


def _default_pick(seq: tuple[int, ...]) -> RunCondition:
    """The run of smallest sector, then smallest start: the order every trace
    follows. Every maximal run of the smallest sector has strictly larger
    neighbours, so the first of them is that run; C-level scans find it. A
    run of one sector, every run of a generic star, ends at the next index,
    which is read before any scan for the run's end is built."""
    m = len(seq)
    lo = min(seq)
    start = seq.index(lo)
    if start == 0 and seq[-1] == lo:
        # index 0 lies in a run that wraps past the end and so starts last:
        # the first run starts after it
        start = seq.index(lo, _first_other(seq, lo, 0))
    end = start + 1
    if end < m and seq[end] == lo:
        end = _first_other(seq, lo, end)
    if end == m:
        end += _first_other(seq, lo, 0)
    return RunCondition(start, end - start - 1, m)


def _first_other(seq: tuple[int, ...], lo: int, i: int) -> int:
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


def _splice(seq: tuple, start: int, k: int, head) -> tuple:
    """``seq`` with its run ``start .. start + k`` reduced: ``head`` for the
    left neighbour (and, for an odd run, the right one merged into it), then
    the rest, in one tuple from at most two slices. Residuals and their
    names in the report are both spliced here."""
    n = len(seq)
    # ``cut`` is the first sector kept after the run, ``rot`` the left neighbour
    rot = (start - 1) % n
    cut = rot + k + 3 - k % 2
    if cut <= n:
        return (head,) + seq[cut:] + seq[:rot]
    return (head,) + seq[cut - n : rot]  # the run or the merged neighbour wraps


def _reductions(ints: tuple[int, ...], pick) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The steps of the counting recursion on a closing integer star, as
    ``(start, k, residual)``: ``pick(seq)`` returns the `RunCondition` to
    reduce of a star whose sectors are not all equal, sectors ``start ..
    start + k``. The last residual, or the star itself if there is no step,
    has all sectors equal. Each residual is one `_splice` of the one before.
    Its first two sectors, the head just spliced in and its neighbour, are
    compared before all are counted: they almost never agree.
    """
    cur = ints
    while cur[0] != cur[1] or cur.count(cur[0]) < len(cur):
        start, k, _ = pick(cur)
        head = cur[start - 1]
        if k % 2 == 0:  # an odd number of sectors: merge the two neighbours
            head += cur[(start + k + 1) % len(cur)] - cur[start]
        cur = _splice(cur, start, k, head)
        yield start, k, cur


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
    ints, den = _closing_ints(v), v.den
    limits = bounds(v)
    residual: tuple[int, ...] = ints
    product = 1
    trace: list[ReductionStep] = []
    for start, k, residual in _reductions(ints, _pick):
        assert _closes(residual), "reduction must preserve closure"
        factor = _factor(k)
        trace.append(ReductionStep(start, k + 1, factor, residual, den))
        product *= factor
    base = _base(len(residual))
    return CountResult(count=product * base, base=base, trace=tuple(trace), bounds=limits)


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

    The count run backwards (Hull, "Counting mountain-valley assignments for
    flat folds", 2003): every valid assignment is one of the residual's with
    the creases of the run reduced last put back. The listing starts from
    the all-equal residual's words of tally +2 or -2 and undoes the steps,
    the last first. A step rotated its star so that the run's left
    neighbour came first; undoing it puts the run's k + 2 labels right after
    each word's first label and rotates the word back. A run of an odd
    number of sectors takes labels of tally 0. A run of an even number
    replaces the word's second label, the one crease that stood for it, by
    labels of tally +1 under a mountain and -1 under a valley. Each step
    undone at least doubles the words, so the cost is O(count * m).

    The count is known from the replay before any word is built: above
    `ENUMERATE_LIMIT` it raises `CapacityError`. A star whose lower bound
    (see `bounds`) is already above the limit is refused before the replay.
    """
    ints = _closing_ints(v)
    least = bounds(v)[0]
    if least > ENUMERATE_LIMIT:
        raise CapacityError(
            "at least %d valid assignments exceed the listing limit of %d"
            % (least, ENUMERATE_LIMIT)
        )
    n = len(ints)
    steps: list[tuple[int, int]] = []  # each step's k and the cut that rotates a word back
    count = 1
    for start, k, residual in _reductions(ints, _default_pick):
        steps.append((k, n - (start - 1) % n))
        n = len(residual)
        count *= _factor(k)
    count *= _base(n)
    if count > ENUMERATE_LIMIT:
        raise CapacityError(
            "%d valid assignments exceed the listing limit of %d" % (count, ENUMERATE_LIMIT)
        )
    words = _words(n, n // 2 + 1) + _words(n, n // 2 - 1)
    for k, cut in reversed(steps):
        if k % 2 == 0:  # an odd number of sectors: tally 0
            runs = _words(k + 2, k // 2 + 1)
            words = [w[0] + r + w[1:] for w in words for r in runs]
        else:  # w[1] stood for the run: tally +1 under M, -1 under V
            up, down = _words(k + 2, k // 2 + 2), _words(k + 2, k // 2 + 1)
            words = [w[0] + r + w[2:] for w in words for r in (up if w[1] == "M" else down)]
        words = [w[cut:] + w[:cut] for w in words]
    return sorted(words)


def _words(n: int, mountains: int) -> list[str]:
    """Every word of ``n`` labels with ``mountains`` mountains."""
    words = []
    for chosen in combinations(range(n), mountains):
        labels = ["V"] * n
        for c in chosen:
            labels[c] = "M"
        words.append("".join(labels))
    return words
