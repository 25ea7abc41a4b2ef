"""Brute-force layer-ordering oracle for single-vertex folds.

Independent ground truth at desk scale: fold the vertex star onto a ray
diagram with exact rational positions, then search stackings of the sectors
for one that satisfies the three layer constraints:

  (a) at every crease the two adjacent sectors stack in the order the
      mountain/valley label demands under a fixed orientation convention;
  (b) two folds at the same position opening the same way must not
      interleave their layer pairs;
  (c) no sector whose folded span strictly contains a fold's position may
      lie strictly between that fold's two sectors.

Overlap is measured on open intervals: creases have no width, so touching
at an endpoint never conflicts. Everything is exact; no tolerances.

`enumerate_valid`, the one enumeration routine, folds the vertex once and
searches stackings per assignment, up to `DEFAULT_LIMIT` sectors; only
`oracle_is_valid` takes a higher limit. Layer constraints alone decide: the
oracle is the ground truth that crimping and the recursion are checked by.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .core import AngleSequence, MVAssignment, MVLabel
from .errors import CapacityError, NotFlatFoldableError, UnsupportedError
from .vertex import RunCondition, kawasaki, maekawa_check

DEFAULT_LIMIT = 10

# sheet: (low, high, orientation); fold: (left sheet, right sheet, position,
# opening side, label). "left/right" is the order the boundary walk visits
# the two sheets, which fixes how the label convention reads.
_Sheet = tuple[Fraction, Fraction, int]
_Fold = tuple[int, int, Fraction, int, MVLabel]


@dataclass(frozen=True)
class LayerModel:
    """Folded 1-d geometry of a single-vertex fold.

    ``directions[j]`` is where crease j lands on the folded ray diagram,
    ``intervals[j]`` the span sector j covers, and ``orientations[j]`` which
    face of the paper sector j shows (+1 for sector 0's face).
    """

    directions: tuple[Fraction, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    orientations: tuple[int, ...]


def fold_directions(v: AngleSequence) -> LayerModel:
    """Walk the sectors around the vertex, alternating direction at every
    crease, and record where everything lands. Fails if the walk does not
    close up, i.e. if the alternating sector sum is nonzero."""
    _within_one_turn(v)
    if not kawasaki(v):
        raise NotFlatFoldableError("the folded boundary walk does not close up")
    m = len(v)
    pos = [Fraction(0)]
    for j, a in enumerate(v.angles):
        pos.append(pos[-1] + (Fraction(a) if j % 2 == 0 else -Fraction(a)))
    directions = tuple(pos[:m])
    intervals = tuple(
        (min(pos[j], pos[j + 1]), max(pos[j], pos[j + 1])) for j in range(m)
    )
    orientations = tuple(1 if j % 2 == 0 else -1 for j in range(m))
    return LayerModel(directions, intervals, orientations)


def _cyclic_net(model: LayerModel, mv: MVAssignment) -> tuple[list[_Sheet], list[_Fold]]:
    m = len(model.orientations)
    sheets = [
        (model.intervals[j][0], model.intervals[j][1], model.orientations[j])
        for j in range(m)
    ]
    folds = [
        ((j - 1) % m, j, model.directions[j], 1 if j % 2 == 0 else -1, mv[j])
        for j in range(m)
    ]
    return sheets, folds


def _fold_wants_right_above(sheets: list[_Sheet], fold: _Fold) -> bool:
    left, _right, _pos, _side, label = fold
    return (label is MVLabel.VALLEY) == (sheets[left][2] == 1)


def _interleaved(a1: int, a2: int, b1: int, b2: int) -> bool:
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def stacking_valid(
    model: LayerModel, mv: MVAssignment, stacking: Sequence[int]
) -> bool:
    """Check one bottom-to-top sector order against all three constraints."""
    m = len(model.orientations)
    if len(mv) != m:
        raise ValueError("assignment length must match the number of creases")
    if sorted(stacking) != list(range(m)):
        raise ValueError("stacking must be a permutation of the sectors")
    sheets, folds = _cyclic_net(model, mv)
    level = [0] * m
    for lvl, s in enumerate(stacking):
        level[s] = lvl
    for fold in folds:
        left, right = fold[0], fold[1]
        if _fold_wants_right_above(sheets, fold) != (level[right] > level[left]):
            return False
    for f1, f2 in itertools.combinations(folds, 2):
        if f1[2] == f2[2] and f1[3] == f2[3]:
            a1, a2 = sorted((level[f1[0]], level[f1[1]]))
            b1, b2 = sorted((level[f2[0]], level[f2[1]]))
            if _interleaved(a1, a2, b1, b2):
                return False
    for left, right, pos, _side, _label in folds:
        lo, hi = sorted((level[left], level[right]))
        for s, (slo, shi, _o) in enumerate(sheets):
            if s in (left, right):
                continue
            if slo < pos < shi and lo < level[s] < hi:
                return False
    return True


def _search(sheets: list[_Sheet], folds: list[_Fold]) -> Optional[list[int]]:
    """Insert sheets one by one into a growing stack, pruning as constraints
    complete. Violations are monotone in insertions (later sheets never
    reorder earlier ones), so pruning is sound and the search exhaustive."""
    n = len(sheets)
    by_step: list[list[int]] = [[] for _ in range(n)]
    for fi, fold in enumerate(folds):
        by_step[max(fold[0], fold[1])].append(fi)
    order = [0]
    complete: list[int] = []

    def partial_ok(j: int, newly: list[int]) -> bool:
        level = {s: t for t, s in enumerate(order)}
        for me, fi in enumerate(newly):
            left, right, pos, side, _label = folds[fi]
            lo, hi = sorted((level[left], level[right]))
            for fj in itertools.chain(complete, newly[:me]):
                other = folds[fj]
                if other[2] == pos and other[3] == side:
                    b1, b2 = sorted((level[other[0]], level[other[1]]))
                    if _interleaved(lo, hi, b1, b2):
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

    def rec(j: int) -> Optional[list[int]]:
        if j == n:
            return list(order)
        lo, hi = 0, j
        for fi in by_step[j]:
            fold = folds[fi]
            other = fold[0] if fold[1] == j else fold[1]
            right_above = _fold_wants_right_above(sheets, fold)
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


def _find_stacking(model: LayerModel, mv: MVAssignment) -> Optional[tuple[int, ...]]:
    found = _search(*_cyclic_net(model, mv))
    if found is None:
        return None
    assert stacking_valid(model, mv, found)
    return tuple(found)


def find_stacking(v: AngleSequence, mv: MVAssignment) -> Optional[tuple[int, ...]]:
    """A witness stacking for the assignment, or None if there is none."""
    return _find_stacking(fold_directions(v), mv)


def _within_one_turn(v: AngleSequence) -> None:
    if v.total > 360:
        raise UnsupportedError(
            "layer analysis supports sector totals up to one full turn"
        )


def _guard(v: AngleSequence, limit: int) -> None:
    if len(v) > limit:
        raise CapacityError(
            "%d sectors exceed the exhaustive-search limit of %d" % (len(v), limit)
        )
    _within_one_turn(v)


def oracle_is_valid(
    v: AngleSequence, mv: MVAssignment, *, limit: int = DEFAULT_LIMIT
) -> bool:
    """Definitional validity: some stacking folds the labels flat without
    the paper crossing itself."""
    _guard(v, limit)
    if len(mv) != len(v):
        raise ValueError("assignment length must match the number of creases")
    if not kawasaki(v):
        return False
    return find_stacking(v, mv) is not None


def all_assignments(m: int) -> Iterable[MVAssignment]:
    """All 2^m labelings, in lexicographic M-before-V order."""
    for combo in itertools.product(tuple(MVLabel), repeat=m):
        yield MVAssignment(combo)


def enumerate_valid(v: AngleSequence) -> list[MVAssignment]:
    """All valid assignments, in lexicographic M-before-V order.

    Two facts of every flat fold cut the search. Turning the paper over
    flips every label, so only assignments starting with a mountain are
    searched and each accepted one brings its flip along. Maekawa's theorem,
    |M - V| = 2, rules out every other assignment without a layer search.
    """
    _guard(v, DEFAULT_LIMIT)
    if not kawasaki(v):
        return []
    model = fold_directions(v)
    accepted = []
    for mv in all_assignments(len(v)):
        if mv[0] is MVLabel.VALLEY:
            break
        if maekawa_check(mv) and _find_stacking(model, mv) is not None:
            accepted.append(mv)
    # flipping every label reverses lexicographic order
    return accepted + [mv.flipped() for mv in reversed(accepted)]


def oracle_count(v: AngleSequence) -> int:
    """Number of valid assignments: the length of `enumerate_valid`."""
    return len(enumerate_valid(v))


def run_restricted_valid(
    v: AngleSequence,
    run: RunCondition,
    labels: Union[MVAssignment, Sequence[MVLabel]],
) -> bool:
    """Fold only the creases of a maximal equal-angle run, leaving the rest
    of the paper as an unfolded cone, and ask whether the labels work.

    The two sectors flanking the run become free flaps attached at the
    outermost folded creases; being strictly wider than the run angle they
    span the whole folded stack, and the unfolded cone beyond them bulges
    away from the flat layers, so it imposes no ordering of its own.
    """
    _within_one_turn(v)
    if run.k + 2 > DEFAULT_LIMIT:
        raise CapacityError(
            "%d creases exceed the exhaustive-search limit of %d"
            % (run.k + 2, DEFAULT_LIMIT)
        )
    m = len(v)
    val = Fraction(v.cyclic(run.start))
    for j in range(run.k + 1):
        if v.cyclic(run.start + j) != val:
            raise ValueError("run sectors are not all equal in this sequence")
    left_a = Fraction(v.cyclic(run.start - 1))
    right_a = Fraction(v.cyclic(run.start + run.k + 1))
    if not (left_a > val and right_a > val):
        raise ValueError("restricted folding needs strictly larger flanking sectors")
    label_list = list(labels.labels) if isinstance(labels, MVAssignment) else list(labels)
    if len(label_list) != run.k + 2:
        raise ValueError("need %d labels, got %d" % (run.k + 2, len(label_list)))

    k = run.k
    sheets: list[_Sheet] = [(-left_a, Fraction(0), 1)]
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

    folds: list[_Fold] = [
        (jj, jj + 1, positions[jj], -1 if jj % 2 == 0 else 1, MVLabel(label_list[jj]))
        for jj in range(k + 2)
    ]
    return _search(sheets, folds) is not None
