"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

from flatfold.cli import main
from flatfold.core import AngleSequence, MVAssignment, MVLabel
from flatfold.corpus import random_flat_sequence
from flatfold.oracle import find_stacking, oracle_count, run_restricted_valid
from flatfold.pattern import (
    curve_around_vertex,
    generalized_maekawa,
    local_kawasaki_all,
    reflection_trace,
)
from flatfold.vertex import count_mv, find_runs, kawasaki, run_validity
from generators import (
    chain_pattern,
    random_local_parity_assignment,
    random_nonclosing_sequence,
    star_pattern,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print("[criterion %02d] FAIL  %s" % (number, description))
        raise
    print("[criterion %02d] PASS  %s" % (number, description))


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_01_square_vertex_count(capsys):
    with criterion(1, "count 90,90,90,90 = 8"):
        report = cli_json(capsys, "count", "90,90,90,90", "--format", "json")
        assert report["count"]["value"] == 8


def test_criterion_02_worked_example_count_and_trace(capsys):
    with criterion(2, "count 20,10,40,50,60,60,60,60 = 48 via factors 2,3 and base 8"):
        report = cli_json(
            capsys, "count", "20,10,40,50,60,60,60,60", "--format", "json"
        )
        assert report["count"]["value"] == 48
        assert report["count"]["factors"] == [2, 3]
        assert report["count"]["base"] == 8


def test_criterion_03_worked_example_bounds(capsys):
    with criterion(3, "bounds for the 8-sector example are (16, 112) and bracket 48"):
        report = cli_json(
            capsys, "analyze", "20,10,40,50,60,60,60,60", "--format", "json"
        )
        assert report["bounds"] == {"lower": 16, "upper": 112}
        assert report["bounds"]["lower"] <= 48 <= report["bounds"]["upper"]


def test_criterion_04_degree_four_triple():
    with criterion(4, "degree-4 triple 8/6/4 from both the recursion and the oracle"):
        for angles, expected in (
            ((90, 90, 90, 90), 8),
            ((100, 80, 80, 100), 6),
            ((40, 60, 140, 120), 4),
        ):
            seq = AngleSequence(angles)
            started = time.perf_counter()
            assert count_mv(seq).count == expected
            assert oracle_count(seq) == expected
            assert time.perf_counter() - started < 1.0


def test_criterion_05_oracle_equivalence(corpus200):
    with criterion(5, "oracle count equals recursion count on 200 random sequences"):
        assert len(corpus200) >= 200
        started = time.perf_counter()
        for seq in corpus200:
            assert oracle_count(seq) == count_mv(seq).count, seq.as_strings()
        assert time.perf_counter() - started < 300.0


def test_criterion_06_run_condition_equivalence(corpus200):
    with criterion(6, "run tally rule matches the restricted oracle on every run"):
        checked = 0
        for seq in corpus200:
            for run in find_runs(seq):
                for combo in itertools.product(tuple(MVLabel), repeat=run.k + 2):
                    fast = run_validity(seq, run, MVAssignment(combo))
                    slow = run_restricted_valid(seq, run, combo)
                    assert fast == slow, (seq.as_strings(), run, combo)
                    checked += 1
        assert checked > 500


def test_criterion_07_parity_necessity(corpus200):
    with criterion(7, "no assignment with M-V != +-2 has a stacking; odd stars never close"):
        for seq in corpus200:
            if not kawasaki(seq):
                continue
            for combo in itertools.product(tuple(MVLabel), repeat=len(seq)):
                mv = MVAssignment(combo)
                if abs(mv.tally) != 2:
                    assert find_stacking(seq, mv) is None, (seq.as_strings(), str(mv))
        rng = random.Random(12)
        for _ in range(200):
            m = rng.choice((3, 5, 7, 9))
            angles = [rng.randint(1, 100) for _ in range(m)]
            assert not kawasaki(AngleSequence(angles))


def test_criterion_08_reflection_trace_equivalence():
    with criterion(8, "reflection-trace identity agrees with exact closure on 100 stars"):
        rng = random.Random(2718)
        agree = 0
        for i in range(100):
            m = rng.choice((4, 6, 8))
            if i % 2 == 0:
                seq = random_flat_sequence(rng, m, pooled=(i % 4 == 0))
            else:
                seq = random_nonclosing_sequence(rng, m)
            p = star_pattern(seq)
            result = reflection_trace(p, curve_around_vertex(p, 4))
            assert result.is_identity == kawasaki(seq), seq.as_strings()
            agree += 1
        assert agree == 100


def test_criterion_09_parity_identity_on_random_patterns():
    with criterion(9, "the multi-vertex parity identity holds on 100 random patterns"):
        rng = random.Random(40_075)
        started = time.perf_counter()
        checked = 0
        while checked < 100:
            p = chain_pattern(rng, rng.randint(1, 5), with_split=(checked % 4 == 0))
            mv = random_local_parity_assignment(rng, p)
            if mv is None:
                continue
            labelled = p.with_assignment(mv)
            _tally, holds = generalized_maekawa(labelled)
            assert holds
            checked += 1
        assert time.perf_counter() - started < 60.0


def test_criterion_10_no_global_claim(witness_pattern, capsys, tmp_path):
    with criterion(10, "locally perfect witness: necessary-only wording, no verdict"):
        p = witness_pattern
        report = local_kawasaki_all(p)
        assert len(report) == 3 and all(c.passes for c in report.values())
        for vid in p.interior_vertex_ids():
            assert reflection_trace(p, curve_around_vertex(p, vid)).is_identity

        doc = {
            "vertices": [[str(v.x), str(v.y)] for v in p.vertices],
            "creases": [list(c) for c in p.creases],
            "boundary": list(p.boundary),
        }
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        cli_report = cli_json(capsys, "pattern", "check", str(path), "--format", "json")
        assert "necessary only" in cli_report["scope"]
        assert all(v["passes"] for v in cli_report["local_kawasaki"].values())
        assert all(t["is_identity"] for t in cli_report["reflection_traces"].values())
        # the report has no field claiming global flat-foldability
        assert not any("foldable" in key.lower() for key in cli_report)
