"""Benchmark of the slidecam pipeline: validate -> pixelate -> instance -> solver -> verify.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large_polygons --seed 1 --seconds 25 --trace 0

Workloads: large_polygons, path_peel and small_dp_cli (see ``workloads.py``).
Each workload is a closed loop: one process, one caller, one operation at a
time.  Before every operation, outside the timed region, the ``pixelate``
cache is cleared, because a user with a new polygon pays for pixelation.
Every operation is checked outside the timed region; an exception, a
non-zero CLI exit code, a missed deadline or a failed check counts the
operation as failed and the run goes on.  The result line's ``attempted``
and ``failed`` count cases: the cases run, and those whose operation failed
in any pass.

Times of the end-to-end metrics are in reference seconds: each wall time is
scaled by the host speed measured around it (see ``speed.py``), and the raw
wall-clock figures are printed alongside.

``--trace 0`` prints the end-to-end metrics: set-up time (import plus the
median of three to nine set-ups, which rebuild the random shapes an
untimed first set-up picked), p50 and p90 latency of successful operations,
successful operations per second spent in operations, the share of
operations that succeed, the geometric mean of cameras over the paper's
vertex-count bound, and peak RSS.  ``--trace 1`` first runs one untraced
pass over the inputs, then whole traced passes, and prints the per-layer
metrics (see ``tracing.py``), whose times are wall seconds; its spans are
written to ``perfbench/out/``.  Human-readable lines come first; the last
line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from speed import WINDOW, SpeedLog
from tracing import Tracer, layer_metrics, peel_metrics
from workloads import WORKLOADS, CheckFailed, Outcome, Setup, clear_pixelate_cache, failure_kind

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = (3, 9)     # fewest and most timed set-ups of an untraced run
SETUP_MIN_S = 3.0          # ... which go on until this much time is spent in them
OP_DEADLINE_S = 20.0
MAX_LOOP_S = 60.0


class OpDeadline(BaseException):
    """Raised by SIGALRM in an operation that ran past ``OP_DEADLINE_S``.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OpDeadline()


@dataclass
class Record:
    op: int
    case: int                        # index of the case in the workload's list
    seconds: float                   # wall time
    ref_seconds: float               # time in reference seconds
    failure: Optional[str] = None    # kind of failure, None when the op succeeded
    outcome: Optional[Outcome] = None


class Runner:
    """Runs operations of one workload over its cases and keeps the records."""

    def __init__(self, sc, workload, cases, order: List[int], speed: SpeedLog):
        self.sc = sc
        self.workload = workload
        self.cases = cases
        self.order = order
        self.speed = speed
        self.records: List[Record] = []
        self.probes: List[int] = []      # index of the probe taken before each record
        self.messages: Dict[str, str] = {}

    def loop(self, seconds: float, tracer: Optional[Tracer] = None) -> List[Record]:
        """Whole passes over the cases until ``seconds`` have passed; at least one.

        Stopping only between passes gives every run the same mix of
        operations, however long each one takes.  A pass still running after
        ``max(2 * seconds, MAX_LOOP_S)`` is cut short, so that a much slower
        program still ends in time.
        """
        first = len(self.records)
        start = time.perf_counter()
        cutoff = max(2 * seconds, MAX_LOOP_S)
        while True:
            for case_idx in self.order:
                self.one(case_idx, tracer)
                if time.perf_counter() - start >= cutoff:
                    return self._scaled(first)
            if time.perf_counter() - start >= seconds:
                return self._scaled(first)

    def _scaled(self, first: int) -> List[Record]:
        """The records from ``first`` on, with their reference seconds filled in."""
        self.speed.sample(WINDOW)        # the last operations get a full window too
        for record, index in zip(self.records[first:], self.probes[first:]):
            record.ref_seconds = record.seconds * self.speed.factor_at(index)
        return self.records[first:]

    def one(self, case_idx: int, tracer: Optional[Tracer]) -> None:
        case = self.cases[case_idx]
        op = len(self.records)
        self.workload.prepare()
        clear_pixelate_cache(self.sc)
        self.probes.append(self.speed.sample())
        failure, result, error = None, None, None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        try:
            try:
                if tracer is None:
                    result = self.workload.run(self.sc, case)
                else:
                    result = tracer.run_op(op, self.workload.run, self.sc, case)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            failure, error = "timeout", f"over {OP_DEADLINE_S} s"
        except Exception as e:  # every failure is counted; the run goes on
            failure, error = failure_kind(e), f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        outcome = None
        if failure is None:
            try:
                outcome = self.workload.check(self.sc, case, result)
            except Exception as e:
                failure = "check"
                error = f"{type(e).__name__}: {e}" if not isinstance(e, CheckFailed) else str(e)
        if failure is not None:
            self.messages.setdefault(failure, f"{case.family} n={case.n} {case.mode}: {error}")
        self.records.append(Record(op, case_idx, seconds, 0.0, failure, outcome))


def load_units() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per mode (``--trace 0`` and ``1``), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((0, "end_to_end"), (1, "per_layer"))}


def import_slidecam():
    """Import slidecam from this checkout's ``src``; returns (module, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "slidecam", "__init__.py")):
        sys.exit(f"error: no slidecam sources at {SRC}")
    sys.path.insert(0, SRC)
    # Every run compiles slidecam from source, so the import time in setup_s
    # does not depend on bytecode a test run or an earlier run left behind:
    # bytecode is looked up only under a directory that does not exist and
    # is never written.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(OUT, f"no-bytecode-{os.getpid()}")
    t0 = time.perf_counter()
    import slidecam
    import slidecam.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    if not os.path.abspath(slidecam.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported slidecam from {slidecam.__file__}, not {SRC}")
    return slidecam, seconds


def timings(records: List[Record], setup_s: float, wall: bool) -> Dict[str, float]:
    """Set-up time, latency percentiles and throughput, in wall or reference seconds."""
    ok = [r for r in records if r.failure is None]
    if len(ok) < 2:
        sys.exit(f"error: {len(ok)} of {len(records)} operations succeeded")
    latencies = [r.seconds if wall else r.ref_seconds for r in ok]
    spent = sum(r.seconds if wall else r.ref_seconds for r in records)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "ops_per_s": len(ok) / spent,
    }


def end_to_end(records: List[Record], setup_s: float) -> Dict[str, float]:
    ok = [r for r in records if r.failure is None]
    log_ratio = [math.log(r.outcome.size / max(1, r.outcome.bound)) for r in ok]
    return {
        **timings(records, setup_s, wall=False),
        "ok_frac": len(ok) / len(records),
        "cover_ratio": math.exp(statistics.fmean(log_ratio)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pass_counts(first_pass: List[Record]) -> Dict[str, float]:
    """Sizes seen in one pass; they repeat exactly for a given seed."""
    infos = [r.outcome.info for r in first_pass if r.failure is None]

    def mean(key: str) -> float:
        values = [i[key] for i in infos if key in i]
        return statistics.fmean(values) if values else 0.0

    def largest(key: str) -> float:
        return max((i[key] for i in infos if key in i), default=0)

    return {
        "geometry.pixels": mean("pixels"),
        "geometry.crosses": mean("crosses"),
        "geometry.guards": mean("guards"),
        "hitset.universe": mean("universe"),
        "treewidth.width_d_max": largest("width_d"),
        "treewidth.width_h_max": largest("width_h"),
        "treewidth.width_h_mean": mean("width_h"),
        "cli.dump_td_mismatch": sum(r.outcome.dump_mismatch for r in first_pass
                                    if r.failure is None),
    }


def approx_metrics(sc, cases, seed: int) -> Dict[str, float]:
    """``bg_hitting_set`` on the msc cases that carry a reference optimum.

    It runs here only, outside every timed operation: today its net is the
    whole universe, and a fix for that must not read as a slowdown.
    """
    times, universe, over_opt, failures = [], [], [], 0
    for case in cases:
        if case.mode != "msc" or case.opt is None:
            continue
        poly = sc.geometry.validate_polygon(case.rings)
        inst = sc.hitset.build_instance(sc.geometry.pixelate(poly))
        t0 = time.perf_counter()
        try:
            report = sc.approx.bg_hitting_set(inst, seed=seed)
        except Exception:
            failures += 1
            continue
        times.append(time.perf_counter() - t0)
        universe.append(report.solution.size == len(inst.universe))
        over_opt.append(report.solution.size / case.opt)
    if failures:
        print(f"  bg_hitting_set failed on {failures} polygons")
    if not times:
        return {"approx.bg_s": 0.0, "approx.net_is_universe_frac": 0.0,
                "approx.bg_size_over_opt": 0.0}
    return {
        "approx.bg_s": statistics.fmean(times),
        "approx.net_is_universe_frac": sum(universe) / len(universe),
        "approx.bg_size_over_opt": statistics.fmean(over_opt),
    }


def bench(sc, import_s: float, args, workdir: str, units: Dict[str, str]) -> dict:
    workload = WORKLOADS[args.workload](workdir)
    speed = SpeedLog()

    def new_setup(picks: Optional[List[int]], speed: Optional[SpeedLog] = None) -> Setup:
        clear_pixelate_cache(sc)
        return Setup(sc, random.Random(f"{args.workload}:{args.seed}"), picks, speed)

    # an untimed set-up picks the random shapes; the timed ones rebuild them
    search = new_setup(None)
    workload.setup(sc, search)
    setups, ref_setups = [], []
    fewest, most = (1, 1) if args.trace else SETUP_REPEATS
    while len(setups) < fewest or (len(setups) < most and sum(setups) < SETUP_MIN_S):
        su = new_setup(search.picks, speed)
        first = speed.sample(WINDOW)
        t0 = time.perf_counter()
        cases = workload.setup(sc, su)
        seconds = time.perf_counter() - t0
        last = speed.sample(WINDOW) + WINDOW
        setups.append(seconds - sum(speed.samples[first + WINDOW:last - WINDOW]))
        ref_setups.append(setups[-1] * speed.factor(first, last))
    import_ref_s = import_s * speed.factor(0, 2 * WINDOW)
    print(f"  import {import_ref_s:.4f} s, set-ups "
          + " ".join(f"{t:.4f}" for t in ref_setups) + " s (wall "
          + " ".join(f"{t:.4f}" for t in setups) + ")")
    order = list(range(len(cases)))
    random.Random(f"order:{args.workload}:{args.seed}").shuffle(order)
    runner = Runner(sc, workload, cases, order, speed)

    if not args.trace:
        records = runner.loop(args.seconds)
        metrics = end_to_end(records, import_ref_s + statistics.median(ref_setups))
        wall = timings(records, import_s + statistics.median(setups), wall=True)
        factor = statistics.median(speed.factor_at(i) for i in runner.probes)
        print("  wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items())
              + f"; reference seconds per wall second {factor:.4f}")
    else:
        untraced = runner.loop(0)
        tracer = Tracer()
        tracer.install(sc)
        try:
            spent = sum(r.seconds for r in untraced)  # wall time, as the loop counts it
            traced = runner.loop(max(0.0, args.seconds - spent), tracer)
        finally:
            tracer.uninstall()
        first_pass = traced[:len(order)]
        ok_ops = {r.op for r in first_pass if r.failure is None}
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics.update(peel_metrics(tracer.spans, ok_ops))
        metrics.update(pass_counts(first_pass))
        metrics["gallery.gen_s"] = su.totals.get("gallery.gen", 0.0)
        metrics["exact.oracle_s"] = su.totals.get("exact.oracle", 0.0)
        metrics.update(approx_metrics(sc, cases, args.seed))
        metrics["trace.overhead_frac"] = (sum(r.ref_seconds for r in first_pass)
                                          / sum(r.ref_seconds for r in untraced) - 1.0)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_path)}")
        records = runner.records

    failed = [r for r in records if r.failure is not None]
    kinds: Dict[str, int] = {}
    for r in failed:
        kinds[r.failure] = kinds.get(r.failure, 0) + 1
    # A run repeats each case's operation for as many whole passes as fit in
    # --seconds; the result counts cases, so that it does not depend on how
    # many passes the host's speed allowed.
    attempted = {r.case for r in records}
    failed_cases = {r.case for r in failed}
    print(f"  {len(records)} ops, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(records):.4f}; "
          f"{len(attempted)} of {len(cases)} cases attempted, {len(failed_cases)} failed")
    for kind, count in sorted(kinds.items()):
        print(f"    {kind}: {count}  e.g. {runner.messages[kind]}")
    if set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                 "are not both measured and listed in BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    return {
        "correct": "check" not in kinds,
        "attempted": len(attempted),
        "failed": len(failed_cases),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = load_units()[args.trace]
    sc, import_s = import_slidecam()
    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = bench(sc, import_s, args, workdir, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
