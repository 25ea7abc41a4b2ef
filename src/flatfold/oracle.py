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
at an endpoint never conflicts. Everything is exact; no tolerances. The
oracle reads a star's integers, `AngleSequence.ints`: each sector times the
LCM of the denominators, a positive scale that keeps every order and
equality. What it decides on them is its own, with none of the recursion's
arithmetic: the one-turn limit and the closure test (`_vertex_net`), the
folded nets, the constraint tables, the search and the re-check of every
witness against the constraints themselves.

One folded net, `LayerModel`, serves both questions the oracle answers, and
one walk (`_walk`) builds it: a closed walk for a whole vertex
(`_vertex_net`) and an open one for a single equal-angle run between two
flaps (`_restricted_net`). Only (a) reads a label. Which fold pairs fall
under (b) and which sheets straddle a fold for (c) follow from the folded
geometry alone, so each model turns them into label-free tables once
(`_constraint_tables`), and the search reads them. Given labels, (a) becomes
the window of slots where each inserted sheet may go, read when the sheet is
inserted. One driver, `_stacking`, reads the labels through `MVAssignment`,
runs that search and re-checks every witness it finds with `stacking_valid`,
for a whole vertex and a restricted run alike.

`enumerate_valid`, the one enumeration routine, folds the vertex once and
runs the same search once without labels, up to `DEFAULT_LIMIT` sectors;
only `oracle_is_valid` takes a higher limit. Each slot a sheet takes then
fixes the labels of the folds it closes, so every labeling is read off the
stackings found, and each one's first stacking is re-checked. Layer
constraints alone decide: Maekawa's rule only ends branches whose labelings
have all been found, and the oracle is the ground truth that crimping and
the recursion are checked by.
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
_FLIP = str.maketrans("MV", "VM")

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


def _integer_sectors(v: AngleSequence) -> tuple[int, ...]:
    """The sectors in units of 1/L degree, L the LCM of their denominators:
    ``v.ints``, since `AngleSequence` keeps them over that L, ``v.den``.
    Refuses a star wider than one full turn, 360 L units."""
    if sum(v.ints) > 360 * v.den:
        raise UnsupportedError("layer analysis supports sector totals up to one full turn")
    return v.ints


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
    mv = _as_assignment(mv, len(folds))
    if sorted(stacking) != list(range(len(sheets))):
        raise ValueError("stacking must be a permutation of the sectors")
    level = [0] * len(sheets)
    for lvl, s in enumerate(stacking):
        level[s] = lvl
    spans: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for fold, label in zip(folds, mv):
        left, right, pos, side = fold
        if _fold_wants_right_above(sheets, fold, label) != (level[right] > level[left]):
            return False
        lo, hi = sorted((level[left], level[right]))
        # (c): only the sheets stacked between the fold's two sheets can be in its way
        for s in stacking[lo + 1 : hi]:
            if sheets[s][0] < pos < sheets[s][1]:
                return False
        spans.setdefault((pos, side), []).append((lo, hi))
    # (b): only folds at one position that open the same way can interleave
    for group in spans.values():
        for (a1, a2), (b1, b2) in itertools.combinations(group, 2):
            if _interleaved(a1, a2, b1, b2):
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


@functools.cache
def _maekawa_completions(n: int) -> tuple[tuple[int, ...], ...]:
    """``[left][v]``: the labelings of the last ``left`` of n folds that bring
    v valleys so far to n/2 - 1 or n/2 + 1, as Maekawa's rule asks."""
    return tuple(
        tuple(sum(math.comb(left, k - v) for k in (n // 2 - 1, n // 2 + 1) if k >= v)
              for v in range(n + 1))
        for left in range(n + 1)
    )


def _earliest_start(tables: _Tables) -> int:
    """The sheet to insert first so that the (b) and (c) entries complete
    early: the r that minimizes the sum, over entries, of the step that
    inserts the last of their sheets when sheet r goes first."""
    n = len(tables.pairs)
    cost = [0] * n
    for table in (tables.pairs, tables.straddles):
        for step in table:
            for entry in step:
                # numbered from any r past one of the entry's sheets, prev,
                # up to its next one, x, the entry completes when prev goes
                # in, at step n + prev - r (a negative r indexes as r + n)
                prev = max(entry) - n
                for x in sorted(entry):
                    for r in range(prev + 1, x + 1):
                        cost[r] += n + prev - r
                    prev = x
    return cost.index(min(cost))


def _shifted(tables: _Tables, r: int) -> _Tables:
    """The same tables with every sheet and fold x numbered (x - r) mod n,
    so that sheet r is inserted first."""
    n = len(tables.pairs)
    closing: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for j, step in enumerate(tables.closing):
        for fi, other, above in step:
            a, b = (j - r) % n, (other - r) % n
            # the later of the two sheets may change, and with it the side
            closing[max(a, b)].append(((fi - r) % n, min(a, b), above == (a > b)))
    moved: list[list[list[tuple[int, ...]]]] = [[[] for _ in range(n)] for _ in range(2)]
    for table, out in zip((tables.pairs, tables.straddles), moved):
        for step in table:
            for e in step:
                e = tuple((x - r) % n for x in e)
                out[max(e)].append(e)
    return _Tables(*(tuple(map(tuple, t)) for t in (closing, *moved)))


def _search(
    model: LayerModel, labels: Optional[Sequence[MVLabel]] = None
) -> dict[tuple[MVLabel, ...], list[int]]:
    """Insert sheets one by one into a growing stack, pruning as constraints
    complete. Violations are monotone in insertions (later sheets never
    reorder earlier ones), so pruning is sound and the search exhaustive.
    Returns each labeling found, one label per fold, with the first
    stacking found for it.

    Constraint (a), the only one that reads a label, ties the slot of sheet
    j to the labels of the folds that j closes: j lies above a closing
    fold's other sheet exactly when (the fold is a valley) == ``above``.
    Given ``labels``, that narrows the slots of sheet j to a window, read at
    the node that places j, so a labeling refuted early reads only the
    labels of the steps it reached, and the search stops at its first
    stacking.

    Without labels (a whole vertex), every slot is tried, and the window it
    falls in fixes the labels of the folds j closes, so one search finds
    every labeling that has a stacking. Only stackings with the second sheet
    inserted above the first are searched, since turning the paper over
    reverses the stack and flips every label, and a window is skipped once
    every labeling under its label prefix that passes Maekawa's rule,
    M - V = +-2, has been found. The sheets are numbered from the one
    `_earliest_start` picks, so that (b) and (c) prune early, and numbered
    back in what is returned.

    At a slot, only the (b) and (c) entries of step j are checked, on
    integer levels that are kept up to date as sheet j moves up through its
    window.
    """
    tables = model._tables
    n = len(tables.pairs)
    enumerating = labels is None
    if enumerating:
        first = _earliest_start(tables)
        if first:
            tables = _shifted(tables, first)
    closing, pairs, straddles = tables.closing, tables.pairs, tables.straddles
    order = [0]
    level = [0] * n
    found: dict[tuple[MVLabel, ...], list[int]] = {}
    if enumerating:
        # a word holds a label prefix: bit n - 1 - f is set when fold f is
        # a valley. closed[j] has the bits of the folds closed by step j, and
        # ways[j][v] counts the labelings past step j with v valleys so far
        # that pass Maekawa's rule; seen counts the labelings found under
        # each (step, prefix), keyed j << n | prefix
        bit = [1 << (n - 1 - fi) for fi in range(n)]
        closed = list(itertools.accumulate(
            sum(bit[fi] for fi, _o, _a in step) for step in closing))
        ways = [_maekawa_completions(n)[n - mask.bit_count()] for mask in closed]
        base = [sum(bit[fi] for fi, _o, above in step if not above) for step in closing]
        flips: list[dict[int, int]] = [{} for _ in closing]
        for flip, step in zip(flips, closing):
            for fi, other, _a in step:
                flip[other] = flip.get(other, 0) | bit[fi]
        seen: dict[int, int] = {}

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

    def sweep(j: int, lo: int, hi: int, w: int, key: int = 0, target: int = 0) -> bool:
        """Move sheet j up from slot lo to slot hi, where the labels of the
        folds that j closes give the label prefix w, and search on from
        every slot that passes (b) and (c). Enumerating, stop once every
        labeling under the prefix (``key``) that can pass, ``target`` of
        them, has been found."""
        order.insert(lo, j)
        level[j] = lo
        for s in order[lo + 1 :]:
            level[s] += 1
        t = lo
        while True:
            if step_ok(j):
                if rec(j + 1, w):
                    return True
                if enumerating and seen.get(key, 0) == target:
                    break
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
        return False

    def rec(j: int, word: int) -> bool:
        if j == n:
            if not enumerating:
                found[tuple(labels)] = list(order)
                return True
            labeling = tuple(MVLabel.VALLEY if word & bit[(f - first) % n] else MVLabel.MOUNTAIN
                             for f in range(n))
            found[labeling] = [(s + first) % n for s in order]
            for step, mask in enumerate(closed):
                key = step << n | word & mask
                seen[key] = seen.get(key, 0) + 1
            return False
        if not enumerating:
            lo, hi = 0, j
            for fi, other, above in closing[j]:
                if (labels[fi] is MVLabel.VALLEY) == above:
                    lo = max(lo, level[other] + 1)
                else:
                    hi = min(hi, level[other])
            return lo <= hi and sweep(j, lo, hi, word)
        # below every other sheet, j gives the valleys in base[j]; moving j
        # up past a fold's other sheet flips that fold's label
        w, lo, cuts, windows = word | base[j], int(j == 1), flips[j], []
        for other in sorted(cuts, key=level.__getitem__) if len(cuts) > 1 else cuts:
            cut = level[other] + 1
            windows.append((lo, cut - 1, w))
            lo, w = max(lo, cut), w ^ cuts[other]
        windows.append((lo, j, w))
        for lo, hi, w in windows:
            if lo <= hi:
                key, target = j << n | w, ways[j][w.bit_count()]
                if seen.get(key, 0) < target:
                    sweep(j, lo, hi, w, key, target)
        return False

    rec(1, 0)
    del rec, sweep  # they refer to each other: leave no cycle for the collector
    return found


def _stacking(model: LayerModel, labels: Labels) -> Optional[tuple[int, ...]]:
    """The one search driver and the one label door: a witness stacking of
    the model under the labels, read as `MVAssignment` reads them, or None.
    Every witness is re-checked against the constraints themselves, which
    the search only reads through the model's tables."""
    mv = _as_assignment(labels, len(model.folds))
    found = _search(model, mv.labels)
    if not found:
        return None
    (stacking,) = found.values()
    assert stacking_valid(model, mv, stacking)
    return tuple(stacking)


def find_stacking(v: AngleSequence, mv: Labels) -> Optional[tuple[int, ...]]:
    """A witness stacking for the assignment, or None if there is none."""
    return _stacking(fold_directions(v), mv)


def oracle_is_valid(v: AngleSequence, mv: Labels, *, limit: int = DEFAULT_LIMIT) -> bool:
    """Definitional validity: some stacking folds the labels flat without
    the paper crossing itself."""
    model = _vertex_net(v, limit)
    return model is not None and _stacking(model, mv) is not None


def enumerate_valid(v: AngleSequence) -> list[MVAssignment]:
    """All valid assignments, in lexicographic M-before-V order.

    One layer search over the stackings of the folded vertex reads each
    labeling off the stackings it finds (see `_search`). Two facts of every
    flat fold cut it. Turning the paper over reverses the stack and flips
    every label, so only stackings with the second sheet inserted above the
    first are searched, and each labeling found brings its flip along. Maekawa's theorem,
    |M - V| = 2, only ends branches: one stops once every labeling under
    its label prefix that passes the rule has been found. Every labeling's
    first stacking is re-checked against the constraints themselves.
    """
    model = _vertex_net(v, DEFAULT_LIMIT)
    if model is None:
        return []
    words = []
    for labels, stacking in _search(model).items():
        assert stacking_valid(model, labels, stacking)
        word = "".join(labels)
        words += (word, word.translate(_FLIP))
    return [MVAssignment(word) for word in sorted(words)]


def oracle_count(v: AngleSequence) -> int:
    """Number of valid assignments: the length of `enumerate_valid`."""
    return len(enumerate_valid(v))


def run_restricted_valid(v: AngleSequence, run: RunCondition, labels: Labels) -> bool:
    """Fold only the creases of a maximal equal-angle run, leaving the rest
    of the paper as an unfolded cone, and ask whether the labels work.

    The two sectors flanking the run become free flaps attached at the
    outermost folded creases; being strictly wider than the run angle they
    span the whole folded stack, and the unfolded cone beyond them bulges
    away from the flat layers, so it imposes no ordering of its own. The
    labels cover the whole star or just the run's creases, as
    `RunCondition.run_labels` reads them.
    """
    return _stacking(_restricted_net(v, run), run.run_labels(labels)) is not None


def _restricted_net(v: AngleSequence, run: RunCondition) -> LayerModel:
    """Fold the run's k + 1 equal sectors between its two flanking flaps, on
    the star's integer scale: an open walk from minus the left flap, so the
    first fold lies at 0. The run is checked against the star as
    `RunCondition.flanks` checks it, which decides nothing of the folding."""
    left, val, right = run.flanks(_integer_sectors(v))
    if run.k + 2 > DEFAULT_LIMIT:
        raise CapacityError(
            "%d creases exceed the exhaustive-search limit of %d"
            % (run.k + 2, DEFAULT_LIMIT)
        )
    return _walk(-left, [left] + [val] * (run.k + 1) + [right], closed=False)
