"""Brute-force layer-ordering oracle for single-vertex folds.

Independent ground truth at desk scale: fold the paper onto a line with
exact integer positions, then search stackings of the sheets for one that
satisfies the three layer constraints:

  (a) at every crease the two adjacent sectors stack in the order the
      mountain/valley label demands under a fixed orientation convention;
  (b) two folds at the same position opening the same way must not
      interleave their layer pairs;
  (c) no sector whose folded span strictly contains a fold's position may
      lie strictly between that fold's two sectors.

Overlap is measured on open intervals: creases have no width, so touching
at an endpoint never conflicts. Everything is exact; no tolerances. One
entry, `_vertex_net`, works out what the oracle needs of a whole star by
itself, with none of the recursion's arithmetic: the integer scale, each
sector times the LCM of the denominators (`_integer_sectors`, not
`AngleSequence.scaled`; a positive scale keeps every order and equality),
then the one-turn limit and closure on those integers.

One folded net, `LayerModel`, serves both questions the oracle answers, and
one walk (`_walk`) builds it: a closed walk for a whole vertex
(`_vertex_net`) and an open one for a single equal-angle run between two
flaps (`_restricted_net`). Only (a) reads a label. Which fold pairs fall
under (b) and which sheets straddle a fold for (c) follow from the folded
geometry alone, so each model turns them into label-free tables once
(`_constraint_tables`), and every labeling's search reads them; (a) becomes
the window of slots where each inserted sheet may go, read when the sheet is
inserted. One driver, `_stacking`, reads the labels through `MVAssignment`,
runs that search and re-checks every witness it finds with `stacking_valid`,
for a whole vertex and a restricted run alike.

`enumerate_valid`, the one enumeration routine, folds the vertex once, then
searches stackings per assignment, up to `DEFAULT_LIMIT` sectors; only
`oracle_is_valid` takes a higher limit. Layer constraints alone decide: the
oracle is the ground truth that crimping and the recursion are checked by.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import AngleSequence, Labels, MVAssignment, MVLabel, _as_assignment
from .errors import CapacityError, NotFlatFoldableError, UnsupportedError
from .vertex import RunCondition

DEFAULT_LIMIT = 10

_Sheet = tuple[int, int, int]
_Fold = tuple[int, int, int, int]


@dataclass(frozen=True)
class LayerModel:
    """A folded net: the sheets the paper lands on and the folds joining them.

    ``sheets[j]`` is ``(low, high, orientation)``: the span sheet j covers on
    the folded line, and which face of the paper it shows (+1 for sheet 0's
    face). ``folds[i]`` is ``(left, right, position, side)``: sheets
    ``left`` and ``right`` meet at ``position``, and the fold opens towards
    ``side``. "left/right" is the order the walk visits the two sheets, which
    fixes how a label reads; labels travel beside the folds, one per fold.
    Spans and positions are integers in units of 1/L degree, where L is the
    LCM of the denominators of the folded star's sectors (1 for a star of
    whole degrees).
    """

    sheets: tuple[_Sheet, ...]
    folds: tuple[_Fold, ...]

    @functools.cached_property
    def _tables(self) -> _Tables:
        return _constraint_tables(self.sheets, self.folds)


def _walk(start: int, sectors: Sequence[int], closed: bool) -> LayerModel:
    """Lay the sectors end to end along the line from ``start``, turning back
    at every crease. A sheet laid forwards shows sheet 0's face, and the fold
    in front of a sheet opens the way that sheet runs. A closed walk (a whole
    vertex) also joins the last sheet back to the first, at ``start``."""
    sheets: list[_Sheet] = []
    folds: list[_Fold] = []
    pos, direction = start, 1
    for j, a in enumerate(sectors):
        if j or closed:
            folds.append(((j - 1) % len(sectors), j, pos, direction))
        end = pos + direction * a
        sheets.append((min(pos, end), max(pos, end), direction))
        pos, direction = end, -direction
    return LayerModel(tuple(sheets), tuple(folds))


def _integer_sectors(v: AngleSequence) -> list[int]:
    """The sectors in units of 1/L degree, L the LCM of their denominators.
    Refuses a star wider than one full turn, 360 L units."""
    scale = math.lcm(*(a.denominator for a in v.angles))
    ints = [a.numerator * (scale // a.denominator) for a in v.angles]
    if sum(ints) > 360 * scale:
        raise UnsupportedError("layer analysis supports sector totals up to one full turn")
    return ints


def _vertex_net(v: AngleSequence, limit: Optional[int] = None) -> Optional[LayerModel]:
    """Refuse more than ``limit`` sectors, then one wider than a turn, and fold
    the whole vertex from 0, fold j in front of sector j. None if the walk does
    not close up: an odd degree or a nonzero alternating sum."""
    if limit is not None and len(v) > limit:
        raise CapacityError(
            "%d sectors exceed the exhaustive-search limit of %d" % (len(v), limit)
        )
    ints = _integer_sectors(v)
    if len(ints) % 2 or sum(ints[0::2]) != sum(ints[1::2]):
        return None
    return _walk(0, ints, closed=True)


def fold_directions(v: AngleSequence) -> LayerModel:
    """Fold the whole vertex; fails if the walk does not close up."""
    model = _vertex_net(v)
    if model is None:
        raise NotFlatFoldableError("the folded boundary walk does not close up")
    return model


def _fold_wants_right_above(sheets: Sequence[_Sheet], fold: _Fold, label: MVLabel) -> bool:
    return (label is MVLabel.VALLEY) == (sheets[fold[0]][2] == 1)


def _interleaved(a1: int, a2: int, b1: int, b2: int) -> bool:
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def stacking_valid(model: LayerModel, mv: Labels, stacking: Sequence[int]) -> bool:
    """Check one bottom-to-top sheet order against all three constraints.
    ``mv`` holds one label per fold of the model, read as `MVAssignment`
    reads labels, and ``stacking`` is a permutation of its sheets."""
    sheets, folds = model.sheets, model.folds
    mv = _as_assignment(mv)
    if len(mv) != len(folds):
        raise ValueError("assignment length must match the number of creases")
    if sorted(stacking) != list(range(len(sheets))):
        raise ValueError("stacking must be a permutation of the sectors")
    level = [0] * len(sheets)
    for lvl, s in enumerate(stacking):
        level[s] = lvl
    for fold, label in zip(folds, mv):
        left, right = fold[0], fold[1]
        if _fold_wants_right_above(sheets, fold, label) != (level[right] > level[left]):
            return False
    for f1, f2 in itertools.combinations(folds, 2):
        if f1[3] == f2[3] and f1[2] == f2[2]:
            a1, a2 = sorted((level[f1[0]], level[f1[1]]))
            b1, b2 = sorted((level[f2[0]], level[f2[1]]))
            if _interleaved(a1, a2, b1, b2):
                return False
    for left, right, pos, _side in folds:
        lo, hi = sorted((level[left], level[right]))
        for s, (slo, shi, _o) in enumerate(sheets):
            if s in (left, right):
                continue
            if lo < level[s] < hi and slo < pos < shi:
                return False
    return True


@dataclass(frozen=True)
class _Tables:
    """The layer constraints of one folded net, indexed by the insertion step
    that places the last of their sheets (sheet j is inserted at step j).

    ``closing[j]`` holds (a) as ``(fold, other, above)``: sheet j and sheet
    ``other`` meet at ``fold``, and j lies above ``other`` exactly when
    ``(the fold's label is a valley) == above``. ``pairs[j]`` holds (b) as
    ``(p, q, r, s)``: folds p-q and r-s must not interleave.
    ``straddles[j]`` holds (c) as ``(p, q, s)``: sheet s must not lie
    between fold p-q's sheets. Only (a) reads a label, so one table serves
    every labeling.
    """

    closing: tuple[tuple[tuple[int, int, bool], ...], ...]
    pairs: tuple[tuple[tuple[int, int, int, int], ...], ...]
    straddles: tuple[tuple[tuple[int, int, int], ...], ...]


def _constraint_tables(sheets: Sequence[_Sheet], folds: Sequence[_Fold]) -> _Tables:
    n = len(sheets)
    closing: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for fi, (p, q, _pos, _side) in enumerate(folds):
        # a valley puts the right sheet above the left one when the left
        # sheet shows sheet 0's face (see `_fold_wants_right_above`)
        left_up = sheets[p][2] == 1
        closing[max(p, q)].append((fi, p, left_up) if q > p else (fi, q, not left_up))
    pairs: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for (p, q, pos1, side1), (r, s, pos2, side2) in itertools.combinations(folds, 2):
        # folds that share a sheet cannot interleave strictly
        if side1 == side2 and pos1 == pos2 and len({p, q, r, s}) == 4:
            pairs[max(p, q, r, s)].append((p, q, r, s))
    straddles: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for p, q, pos, _side in folds:
        for s, (slo, shi, _o) in enumerate(sheets):
            if s != p and s != q and slo < pos < shi:
                straddles[max(p, q, s)].append((p, q, s))
    return _Tables(*(tuple(map(tuple, t)) for t in (closing, pairs, straddles)))


def _search(model: LayerModel, labels: Sequence[MVLabel]) -> Optional[list[int]]:
    """Insert sheets one by one into a growing stack, pruning as constraints
    complete. Violations are monotone in insertions (later sheets never
    reorder earlier ones), so pruning is sound and the search exhaustive.

    Constraint (a), the only one that reads a label, narrows the slots where
    sheet j may go to a window above or below each closing fold's other
    sheet; the node that places sheet j reads those folds' labels, so a
    labeling refuted early reads only the labels of the steps it reached. At
    a slot, only the (b) and (c) entries of step j are checked, on integer
    levels that are kept up to date as sheet j moves up through its window.
    """
    tables = model._tables
    closing, pairs, straddles = tables.closing, tables.pairs, tables.straddles
    n = len(pairs)
    order = [0]
    level = [0] * n

    # levels are distinct, so sheet x lies between sheets p and q exactly
    # when one of the two is below x and the other above it
    def step_ok(j: int) -> bool:
        for p, q, s in straddles[j]:
            x = level[s]
            if (x > level[p]) != (x > level[q]):
                return False
        for p, q, r, s in pairs[j]:
            # interleaved: exactly one of r, s lies between p and q
            lp, lq = level[p], level[q]
            if ((level[r] > lp) != (level[r] > lq)) != ((level[s] > lp) != (level[s] > lq)):
                return False
        return True

    def rec(j: int) -> Optional[list[int]]:
        if j == n:
            return list(order)
        lo, hi = 0, j
        for fi, other, above in closing[j]:
            if (labels[fi] is MVLabel.VALLEY) == above:
                lo = max(lo, level[other] + 1)
            else:
                hi = min(hi, level[other])
        if lo > hi:
            return None
        order.insert(lo, j)
        level[j] = lo
        for s in order[lo + 1 :]:
            level[s] += 1
        t = lo
        while True:
            if step_ok(j):
                found = rec(j + 1)
                if found is not None:
                    return found
            if t == hi:
                break
            # move sheet j up one slot, past the sheet just above it
            above_j = order[t + 1]
            order[t], order[t + 1] = above_j, j
            level[above_j] -= 1
            t += 1
            level[j] = t
        del order[t]
        for s in order[t:]:
            level[s] -= 1
        return None

    return rec(1)


def _stacking(model: LayerModel, labels: Labels) -> Optional[tuple[int, ...]]:
    """The one search driver and the one label door: a witness stacking of
    the model under the labels, read as `MVAssignment` reads them, or None.
    Every witness is re-checked against the constraints themselves, which
    the search only reads through the model's tables."""
    mv = _as_assignment(labels)
    if len(mv) != len(model.folds):
        raise ValueError("assignment length must match the number of creases")
    found = _search(model, mv.labels)
    if found is None:
        return None
    assert stacking_valid(model, mv, found)
    return tuple(found)


def find_stacking(v: AngleSequence, mv: Labels) -> Optional[tuple[int, ...]]:
    """A witness stacking for the assignment, or None if there is none."""
    return _stacking(fold_directions(v), mv)


def oracle_is_valid(v: AngleSequence, mv: Labels, *, limit: int = DEFAULT_LIMIT) -> bool:
    """Definitional validity: some stacking folds the labels flat without
    the paper crossing itself."""
    model = _vertex_net(v, limit)
    return model is not None and _stacking(model, mv) is not None


def _maekawa_labelings(m: int) -> list[MVAssignment]:
    """The labelings of m creases that start with a mountain and pass
    Maekawa's rule, M - V = +-2, in lexicographic M-before-V order."""
    words = []
    for mountains in (m // 2 - 1, m // 2 + 1):
        for rest in itertools.combinations(range(1, m), mountains - 1) if mountains else ():
            labels = ["M"] + ["V"] * (m - 1)
            for i in rest:
                labels[i] = "M"
            words.append("".join(labels))
    return [MVAssignment(word) for word in sorted(words)]


def enumerate_valid(v: AngleSequence) -> list[MVAssignment]:
    """All valid assignments, in lexicographic M-before-V order.

    Two facts of every flat fold cut the search. Turning the paper over
    flips every label, so only assignments starting with a mountain are
    searched and each accepted one brings its flip along. Maekawa's theorem,
    |M - V| = 2, rules out every other assignment without a layer search,
    so those are never built.
    """
    model = _vertex_net(v, DEFAULT_LIMIT)
    if model is None:
        return []
    accepted = [mv for mv in _maekawa_labelings(len(v)) if _stacking(model, mv) is not None]
    # flipping every label reverses lexicographic order
    return accepted + [mv.flipped() for mv in reversed(accepted)]


def oracle_count(v: AngleSequence) -> int:
    """Number of valid assignments: the length of `enumerate_valid`."""
    return len(enumerate_valid(v))


def run_restricted_valid(v: AngleSequence, run: RunCondition, labels: Labels) -> bool:
    """Fold only the creases of a maximal equal-angle run, leaving the rest
    of the paper as an unfolded cone, and ask whether the labels work.

    The two sectors flanking the run become free flaps attached at the
    outermost folded creases; being strictly wider than the run angle they
    span the whole folded stack, and the unfolded cone beyond them bulges
    away from the flat layers, so it imposes no ordering of its own.
    """
    return _stacking(_restricted_net(v, run), labels) is not None


def _restricted_net(v: AngleSequence, run: RunCondition) -> LayerModel:
    """Fold the run's k + 1 equal sectors between its two flanking flaps, on
    the star's integer scale: an open walk from minus the left flap, so the
    first fold lies at 0."""
    m = len(v)
    if run.m != m or not 0 <= run.start < m or not 0 <= run.k <= m - 2:
        raise ValueError("run %r does not fit a star of %d creases" % (tuple(run), m))
    ints = _integer_sectors(v)
    if run.k + 2 > DEFAULT_LIMIT:
        raise CapacityError(
            "%d creases exceed the exhaustive-search limit of %d"
            % (run.k + 2, DEFAULT_LIMIT)
        )
    val = ints[run.start]
    for j in range(run.k + 1):
        if ints[(run.start + j) % m] != val:
            raise ValueError("run sectors are not all equal in this sequence")
    left_a = ints[run.start - 1]
    right_a = ints[(run.start + run.k + 1) % m]
    if not (left_a > val and right_a > val):
        raise ValueError("restricted folding needs strictly larger flanking sectors")
    return _walk(-left_a, [left_a] + [val] * (run.k + 1) + [right_a], closed=False)
