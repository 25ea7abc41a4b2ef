"""The constraint tables of `flatfold.oracle` as they were built in two
passes: first numbered from sheet 0, then renumbered entry by entry so that
another sheet is inserted first.

Kept as the reference that `test_oracle.TestOnePassTables` holds the
one-pass `_constraint_tables` to: for every first sheet, every insertion
step must hold the same entries.
"""

import itertools

from flatfold.oracle import _Tables


def reference_constraint_tables(sheets, folds):
    """The tables numbered from sheet 0, with (b) tried on every fold pair."""
    n = len(sheets)
    closing = [[] for _ in range(n)]
    for fi, (p, q, _pos, _side) in enumerate(folds):
        # a valley puts the right sheet above the left one when the left
        # sheet shows sheet 0's face
        left_up = sheets[p][2] == 1
        closing[max(p, q)].append((fi, p, left_up) if q > p else (fi, q, not left_up))
    pairs = [[] for _ in range(n)]
    for (p, q, pos1, side1), (r, s, pos2, side2) in itertools.combinations(folds, 2):
        # folds that share a sheet cannot interleave strictly
        if side1 == side2 and pos1 == pos2 and len({p, q, r, s}) == 4:
            pairs[max(p, q, r, s)].append((p, q, r, s))
    straddles = [[] for _ in range(n)]
    for p, q, pos, _side in folds:
        for s, (slo, shi, _o) in enumerate(sheets):
            if s != p and s != q and slo < pos < shi:
                straddles[max(p, q, s)].append((p, q, s))
    return _Tables(*(tuple(map(tuple, t)) for t in (closing, pairs, straddles)))


def reference_shifted(tables, r):
    """The same tables with every sheet and fold x numbered (x - r) mod n,
    so that sheet r is inserted first."""
    n = len(tables.pairs)
    closing = [[] for _ in range(n)]
    for j, step in enumerate(tables.closing):
        for fi, other, above in step:
            a, b = (j - r) % n, (other - r) % n
            # the later of the two sheets may change, and with it the side
            closing[max(a, b)].append(((fi - r) % n, min(a, b), above == (a > b)))
    moved = [[[] for _ in range(n)] for _ in range(2)]
    for table, out in zip((tables.pairs, tables.straddles), moved):
        for step in table:
            for e in step:
                e = tuple((x - r) % n for x in e)
                out[max(e)].append(e)
    return _Tables(*(tuple(map(tuple, t)) for t in (closing, *moved)))
