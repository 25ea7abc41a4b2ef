"""flatfold benchmark: closed-loop CLI workloads, driven in-process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload count-large --seed 1 --seconds 20 --trace 0

Each request is one call of ``flatfold.cli.main(argv)`` with stdout and
stderr captured in memory. One client, closed loop: the next request starts
only after the previous one has returned and its output has been checked.
The request list of a workload (see ``workloads.py``) is run in whole passes
until ``--seconds`` have gone by and at least ``MIN_SAMPLES`` requests were
timed. The program is imported from ``src/`` of the checkout.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (requests) and ``metrics``. A failure is an exception escaping
``main``, an exit code the request does not accept, such as 2 (the CLI's
exit code for an internal invariant violation), or an output that fails its
check. Each failure is also a wrong answer, which makes ``correct`` false,
except a crash the seed is known to have (``Request.known_crash`` in
``workloads.py``: the ``ValueError`` of exponent tokens, ROADMAP item 4).
The lines above it repeat every metric with its unit and give the metadata:
Python version, ``nproc``, seed, ``src/`` line count, request and sample
counts, and the reasons of failed requests.

End-to-end metrics (``--trace 0``)
----------------------------------
setup_s          s      median wall time of ``python -c "import flatfold.cli"``
                        over SETUP_RUNS fresh interpreters (after one untimed
                        run that writes the bytecode cache)
throughput_rps   1/s    successful requests per second of time inside
                        ``main``, over all passes
latency_p50_ms   ms     median time of one ``main(argv)`` call, rendering
                        included, over every timed request
latency_tail_ms  ms     the percentile 100 * (1 - 10 / n) of the same times,
                        where n is the fewest samples a run may take (requests
                        per pass x minimum passes), so at least ten samples
                        lie beyond it. It is fixed per workload rather than
                        taken from the samples a run happened to get, so that
                        it does not move with the speed of the program:
                        p94.4 on count-large, p98.0 on desk-crosscheck, p91.9
                        on pattern-check; printed beside it
peak_rss_mb      MB     peak resident set of the benchmark process
                        (``ru_maxrss``), which runs every request

The three request metrics are scaled to a reference interpreter speed (see
CAL_REF_S): a fixed loop that does not call the program is timed between
requests, at most every CAL_EVERY_S, and each time is divided by (median
loop time of the run / CAL_REF_S), each rate multiplied by it. That takes out the speed changes of a shared machine,
which move the loop and the program together, and keeps every change of the
program's own cost. The raw values and the factor are printed beside them.
``setup_s`` is not scaled.

error_rate (failed / attempted) is printed as well; it is not a metric of
``BENCHMARK.json`` because it is 0 whenever nothing fails, and the JSON
line carries it as ``failed`` and ``attempted``.

Per-layer metrics (``--trace 1``)
---------------------------------
The traced run alternates untraced and traced passes; `spans.Tracer` wraps
the entry points below from outside the package. Every value is per pass.
``<fn>.self_s`` (s) is the span time minus the time of wrapped child calls;
``<fn>.<bucket>.self_s`` and ``.calls`` split it by input size (m = sectors,
c = creases), so the growth rate between buckets can be read off. The
buckets are m_le_16, m_17_96, m_97_256, m_gt_256 for count_mv, m_le_6, m_7_8,
m_gt_8 for enumerate_valid, and c_le_32, c_33_80, c_gt_80 for build.

layer    metric                                   should move            on workload
cli      cli.parse_angles.self_s                  latency_p50_ms         count-large
         cli.parse_pattern.self_s                 latency_p50_ms         pattern-check
         cli.main.self_s (report build + render)  throughput, peak_rss   count-large
         cli.output_bytes (bytes of stdout)       throughput, peak_rss   count-large
core     core.build.self_s/.calls/.creases        p50, tail, throughput  pattern-check
         core.build.c_*.self_s/.calls
         core.normalize_pattern.self_s            latency_p50_ms         pattern-check
         core.vertex_star.self_s                  latency_p50_ms         pattern-check
vertex   vertex.count_mv.self_s/.calls            throughput, tail, rss  count-large
         vertex.count_mv.reduction_steps (sum of len(trace))
         vertex.count_mv.m_*.self_s/.calls
         vertex.crimp_validity.self_s/.calls      throughput, tail       desk-crosscheck
         vertex.crimp_validity.valid_ratio (True returns / calls)
oracle   oracle.enumerate_valid.self_s/.calls     throughput, p50        desk-crosscheck
         oracle.enumerate_valid.candidates (sum of 2^m)
         oracle.enumerate_valid.valid_ratio (found / candidates)
         oracle.enumerate_valid.m_*.self_s/.calls
         oracle.oracle_is_valid.self_s/.calls     latency_p50_ms         desk-crosscheck
pattern  pattern.local_kawasaki_all.self_s        latency_p50_ms         pattern-check
         pattern.curve_around_vertex.self_s
         pattern.reflection_trace.self_s
         pattern.generalized_maekawa.self_s
         pattern.curves_traced (reflection traces)
trace    trace.overhead_s (traced minus untraced time in main, per pass)

A layer a workload does not use reports 0. The spans of the traced passes
are written to ``.perfbench/spans-<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_RUNS = 7
MIN_SAMPLES = 120

# Speed scaling of the request metrics (see above). The 2-vCPU VM the
# benchmark was tuned on swings in speed by a third within seconds and drifts
# as much between runs of one code. CAL_REF_S is the loop's typical time
# there (Python 3.11), so scaled and raw times are close on that VM.
CAL_EVERY_S = 0.1
CAL_REF_S = 0.0007

# (name, unit) of every metric, in the order of BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def calibration_loop() -> float:
    """Time one run of a fixed loop of the kind of work the program does
    (exact fractions, dicts, string formatting) without calling it."""
    start = perf_counter()
    acc = Fraction(0)
    seen: dict[int, int] = {}
    parts = []
    for i in range(1, 120):
        acc += Fraction(i, 2 * i + 1)
        seen[i % 37] = seen.get(i % 37, 0) + acc.numerator % 1009
        parts.append("%d:%d" % (i, acc.denominator % 97))
    ",".join(sorted(parts))
    return perf_counter() - start


class Tally:
    """Outcome of a run of passes: request times and failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.pass_busy: list[float] = []
        self.attempted = self.ok = self.failed = self.wrong = 0
        self.output_bytes = 0
        self.reasons: Counter = Counter()
        self.calibration: list[float] = []
        self.calibrated_at = -CAL_EVERY_S

    def fail(self, kind: str, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.reasons["%s: %s" % (kind, reason)] += 1


def run_pass(workload: workloads.Workload, main, tally: Tally, tracer=None) -> None:
    workload.reset()
    busy = 0.0
    for req in workload.requests:
        if perf_counter() - tally.calibrated_at >= CAL_EVERY_S:
            tally.calibration.append(calibration_loop())
            tally.calibrated_at = perf_counter()
        tally.attempted += 1
        try:
            argv = req.argv(req.state)
        except (KeyError, IndexError, ValueError):
            tally.fail(req.kind, "no input: an earlier response about it failed")
            continue
        if tracer is not None:
            tracer.request += 1
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a traceback at the command line
                rc = exc
            elapsed = perf_counter() - start
        busy += elapsed
        tally.latencies.append(elapsed)
        text = out.getvalue()
        tally.output_bytes += len(text)
        if isinstance(rc, Exception):
            known = isinstance(rc, req.known_crash)
            tally.fail(req.kind, "%s escaped main" % type(rc).__name__, wrong=not known)
            continue
        if rc not in req.exit_codes:
            tally.fail(req.kind, "exit code %r" % rc, wrong=True)
            continue
        try:
            problem = req.check(req.state, rc, text)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problem = "unreadable report (%s: %s)" % (type(exc).__name__, exc)
        if problem:
            tally.fail(req.kind, problem, wrong=True)
        else:
            tally.ok += 1
    tally.pass_busy.append(busy)


def min_passes(workload: workloads.Workload) -> int:
    return math.ceil(MIN_SAMPLES / len(workload.requests))


def measure(workload, main, seconds: float) -> Tally:
    tally = Tally()
    needed = min_passes(workload)
    started = perf_counter()
    while len(tally.pass_busy) < needed or perf_counter() - started < seconds:
        run_pass(workload, main, tally)
    return tally


def measure_traced(workload, main, seconds: float, tracer: tracing.Tracer):
    """Alternate untraced and traced passes, at least one of each."""
    plain, traced = Tally(), Tally()
    traced_main = tracer.wrap("cli.main", main)
    started = perf_counter()
    turn = 0
    while not (plain.pass_busy and traced.pass_busy) or perf_counter() - started < seconds:
        if turn % 2 == 0:
            run_pass(workload, main, plain)
        else:
            tracer.install()
            try:
                run_pass(workload, traced_main, traced, tracer)
            finally:
                tracer.uninstall()
        turn += 1
    return plain, traced


def setup_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", "import flatfold.cli"]

    def once() -> float:
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    once()
    return statistics.median(once() for _ in range(SETUP_RUNS))


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def build_workload(name: str, seed: int, workdir: Path) -> workloads.Workload:
    if name == "count-large":
        return workloads.count_large(seed)
    if name == "desk-crosscheck":
        return workloads.desk_crosscheck(seed)
    return workloads.pattern_check(seed, workdir)


def _show(name: str, value: float, unit: str, note: str = "") -> None:
    print("%-44s %14.6g %-6s %s" % (name, value, unit, note))


def end_to_end(args, workload, main) -> tuple[Tally, dict]:
    setup = setup_seconds()
    tally = measure(workload, main, args.seconds)
    samples = len(tally.latencies)
    fewest = min_passes(workload) * len(workload.requests)
    q = 1 - 10 / fewest
    raw = {
        "throughput_rps": tally.ok / sum(tally.pass_busy),
        "latency_p50_ms": statistics.median(tally.latencies) * 1e3,
        "latency_tail_ms": percentile(tally.latencies, q) * 1e3,
    }
    slowdown = statistics.median(tally.calibration) / CAL_REF_S
    values = {
        "setup_s": setup,
        "throughput_rps": raw["throughput_rps"] * slowdown,
        "latency_p50_ms": raw["latency_p50_ms"] / slowdown,
        "latency_tail_ms": raw["latency_tail_ms"] / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": "median of %d fresh interpreters, not scaled" % SETUP_RUNS,
        "throughput_rps": "%d passes" % len(tally.pass_busy),
        "latency_p50_ms": "%d samples" % samples,
        "latency_tail_ms": "p%.4g of %d samples" % (100 * q, samples),
    }
    for name, unit in END_TO_END:
        note = notes.get(name, "")
        if name in raw:
            note += "; raw %.6g" % raw[name]
        _show(name, values[name], unit, note)
    print("speed: calibration loop median %.4g ms over %d runs, slowdown %.4f"
          % (statistics.median(tally.calibration) * 1e3, len(tally.calibration), slowdown))
    return tally, {n: {"value": values[n], "unit": u} for n, u in END_TO_END}


def per_layer(args, workload, main) -> tuple[Tally, dict]:
    tracer = tracing.Tracer()
    plain, traced = measure_traced(workload, main, args.seconds, tracer)
    passes = len(traced.pass_busy)
    values = {name + ".self_s": total / passes for name, total in tracer.self_s.items()}
    for name, total in tracer.counts.items():
        values[name] = total // passes if total % passes == 0 else total / passes
    calls = values.get("vertex.crimp_validity.calls", 0)
    values["vertex.crimp_validity.valid_ratio"] = (
        values.get("vertex.crimp_validity.valid", 0) / calls if calls else 0.0
    )
    candidates = values.get("oracle.enumerate_valid.candidates", 0)
    values["oracle.enumerate_valid.valid_ratio"] = (
        values.get("oracle.enumerate_valid.found", 0) / candidates if candidates else 0.0
    )
    values["pattern.curves_traced"] = values.get("pattern.reflection_trace.calls", 0)
    values["cli.output_bytes"] = traced.output_bytes // passes
    values["trace.overhead_s"] = statistics.mean(traced.pass_busy) - statistics.mean(
        plain.pass_busy
    )
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
        _show(name, metrics[name]["value"], unit)
    print("traced passes %d, untraced passes %d, spans %d"
          % (passes, len(plain.pass_busy), len(tracer.spans)))
    tracer.write(OUT / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed)))
    for attr in ("attempted", "failed", "wrong"):
        setattr(plain, attr, getattr(plain, attr) + getattr(traced, attr))
    plain.reasons.update(traced.reasons)
    return plain, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "flatfold" / "cli.py").is_file():
        print("error: no flatfold sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flatfold.cli

    if Path(flatfold.cli.__file__).resolve().parent != SRC / "flatfold":
        print("error: flatfold was imported from %s" % flatfold.cli.__file__, file=sys.stderr)
        return 2

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("why: %s" % workloads.WHY[args.workload])
    workdir = OUT / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = build_workload(args.workload, args.seed, workdir)
        gc.collect()
        gc.freeze()  # keep the harness's own objects out of the program's collections
        report = per_layer if args.trace else end_to_end
        tally, metrics = report(args, workload, flatfold.cli.main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        "meta: python %s, nproc %d, seed %d, src lines %d, %d requests per pass"
        % (platform.python_version(), len(os.sched_getaffinity(0)), args.seed, src_lines(),
           len(workload.requests))
    )
    print("error_rate %.6g (%d failed of %d attempted, %d wrong answers)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted, tally.wrong))
    for reason, n in tally.reasons.most_common(12):
        print("  failed x%d  %s" % (n, reason))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
