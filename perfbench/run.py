#!/usr/bin/env python3
"""Benchmark for finrel, driven from outside through ``finrel.cli.run`` and
the public library calls.

    python3 perfbench/run.py --workload census-n5 --seed 1 --seconds 15 --trace 0

Run it from a checkout of the repository: it imports finrel from ``src/``
beside this directory and exits 2 when that is missing.  It makes the
workload's inputs from ``--seed``, runs whole operations until they have
taken ``--seconds``, checks every answer, and prints as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it records the environment.

``--trace 0`` reports the end-to-end metrics that ``BENCHMARK.json`` lists,
with tracing off and each operation's time corrected for the host's speed
(see ``speed.py``).  ``--trace 1`` alternates untraced operations with traced
ones, whose spans give the per-layer metrics listed there.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Optional

from spans import LAYERS, TraceTotals, Tracer, plan_rebinding, rebound
from speed import SpeedSampler, slowdown
from workloads import WORKLOADS, Mismatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_STARTS = 16
ROOT_SPAN = "bench.request"
CHAIN_BUCKETS = 9  # chain lengths 0..7, and 8 or more
MAX_REPORTED_MISMATCHES = 5


class Tally:
    """Requests attempted and failed, exception names, wrong answers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.mismatches = 0
        self.first_mismatches: list[str] = []

    def mismatch(self, message: str) -> None:
        self.mismatches += 1
        if len(self.first_mismatches) < MAX_REPORTED_MISMATCHES:
            self.first_mismatches.append(message[:500])


def run_op(workload, op: int, tally: Tally, tracer=None,
           clock=time.perf_counter) -> tuple[float, int, list[float]]:
    """Send one operation's requests; returns their summed time, the items
    the verified answers cover, and each successful request's latency, all
    read from ``clock``."""
    gc.collect()
    root = tracer.name_id(ROOT_SPAN) if tracer else None
    wall, items, latencies = 0.0, 0, []
    for request in workload.requests(op):
        tally.attempted += 1
        span = tracer.open(root) if tracer else None
        t0 = clock()
        try:
            answer = workload.call(request)
        except Exception as exc:  # a failing request is counted, named and skipped
            tally.failed += 1
            tally.errors[type(exc).__name__] += 1
            continue
        finally:
            dt = clock() - t0
            if tracer:
                tracer.close(span)
            wall += dt
        latencies.append(dt)
        try:
            items += workload.verify(request, answer)
        except Mismatch as exc:
            tally.mismatch(str(exc))
    return wall, items, latencies


class SetupTimer:
    """Times fresh starts of finrel through a ``setup_timer.py`` child.

    ``times`` holds each start's time divided by the host's slowdown around
    it, ``raw_times`` the measured ones.  The first start fills the bytecode
    cache and is not kept.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_timer.py"), str(SRC)], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.start(keep=False)

    def start(self, keep: bool = True) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"setup timer exited with {self.proc.wait()}")
        if keep:
            seconds, factor = map(float, line.split())
            self.raw_times.append(seconds)
            self.times.append(seconds / factor)

    def close(self) -> None:
        self.proc.stdin.close()
        if self.proc.wait(timeout=150):
            raise RuntimeError(f"setup timer exited with {self.proc.returncode}")

    def kill(self) -> None:
        """Stop the timer and a start it may be running."""
        os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def measure(workload, seconds: float, tally: Tally, tracer=None, plan=None, totals=None,
            setup: Optional[SetupTimer] = None, sampler: Optional[SpeedSampler] = None) -> dict:
    """Run operations for ``seconds`` of operation time.  With a tracer,
    each untraced operation is followed by a traced one.  With a setup
    timer, ``SETUP_STARTS`` fresh starts are spread evenly between the
    operations, outside the measured time.  With a speed sampler, the
    untraced operations run under it: their times leave out the sampler's
    own, and are divided by the host's slowdown during the operation."""
    walls, rates, p50s, tails, traced_walls, traced_items = [], [], [], [], [], 0
    raw_walls, slowdowns = [], []
    requests = 0
    start = time.perf_counter()
    paused = 0.0
    op = 0
    while op == 0 or time.perf_counter() - start - paused < seconds:
        if sampler is None:
            wall, items, lat = run_op(workload, op, tally)
            factor = 1.0
        else:
            with sampler:
                before = sampler.mark()
                wall, items, lat = run_op(workload, op, tally, clock=sampler.clock)
                if sampler.count == before[0]:  # shorter than the interval
                    sampler.sample()
                factor = slowdown(before, sampler.mark())
        raw_walls.append(wall)
        slowdowns.append(factor)
        wall /= factor
        walls.append(wall)
        rates.append(items / wall if wall > 0 else 0.0)
        if lat:
            p50s.append(percentile(lat, 50) / factor)
            tails.append(percentile(lat, workload.tail_percentile) / factor)
        requests += len(lat)
        if tracer is not None:
            with rebound(plan):
                wall, items, _ = run_op(workload, op, tally, tracer)
            totals.add(tracer)
            tracer.clear()
            traced_walls.append(wall)
            traced_items += items
        if setup is not None:
            t0 = time.perf_counter()
            done = min(1.0, (t0 - start - paused) / seconds)
            while len(setup.times) < math.ceil(SETUP_STARTS * done):
                setup.start()
            paused += time.perf_counter() - t0
        op += 1
    while setup is not None and len(setup.times) < SETUP_STARTS:
        setup.start()
    return {"ops": op, "requests": requests, "walls": walls, "rates": rates, "p50s": p50s,
            "tails": tails, "traced_walls": traced_walls, "traced_items": traced_items,
            "raw_walls": raw_walls, "slowdowns": slowdowns}


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def end_to_end_metrics(m: dict, setup_times: list[float], rss_mb: float) -> dict:
    """Medians over the run's operations and starts of their corrected times."""
    median = statistics.median
    return {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median(m["walls"]), "s"),
        "items_per_s": (median(m["rates"]), "1/s"),
        "latency_p50_us": (median(m["p50s"] or [0.0]) * 1e6, "us"),
        "latency_tail_us": (median(m["tails"] or [0.0]) * 1e6, "us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# Span names summed into a reported group; any other group is the one span
# of its own name.
MERGED = {
    "core.predicates": ("core.is_full", "core.is_surjective", "core.is_single_valued",
                        "core.nontriviality_witness", "core.is_trivial", "core.satisfies_gamma",
                        "core.two_point_witness", "core.properties"),
    "io.parse": ("io.parse_relation",),
    "io.serialize": ("io.serialize_relation", "io.relation_to_document"),
}

# What the traced run keeps from a call's arguments and result.
RECORDS = {
    "census.survey": lambda args, r: (r.full, r.idempotent_full),
    "witness.gamma_witness": lambda args, r: (
        r.restricted_to is not None, len(r.reflexive_stage.chain), len(r.extension_stage.chain)),
    "io.parse_relation": lambda args, r: len(args[0]),
    "io.serialize_relation": lambda args, r: len(r),
}


def per_layer_metrics(m: dict, totals, groups: list[str]) -> dict:
    """Per-operation counts and self times of the traced operations, with
    ``.calls`` and ``.self_s`` for each of ``groups``."""
    ops = len(m["traced_walls"])
    out = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    untraced, traced = statistics.median(m["walls"]), statistics.median(m["traced_walls"])
    put("trace.overhead_ratio", ratio(traced, untraced), "ratio")
    put("trace.traced_wall_s", traced, "s")
    put("trace.untraced_wall_s", untraced, "s")
    put("trace.spans", totals.spans / ops, "count")
    layer_self = totals.layer_self_s()
    for layer in ("bench", *LAYERS):
        put(f"layer.{layer}.self_s", layer_self.get(layer, 0.0) / ops, "s")
    for group in groups:
        names = MERGED.get(group, (group,))
        put(f"{group}.calls", sum(totals.calls[n] for n in names) / ops, "count")
        put(f"{group}.self_s", sum(totals.self_s[n] for n in names) / ops, "s")

    surveys = totals.records["census.survey"]
    candidates = sum(full for full, _ in surveys)
    survivors = sum(idem for _, idem in surveys)
    put("census.candidates", candidates / ops, "count")
    put("census.survivors", survivors / ops, "count")
    put("census.survivor_ratio", ratio(survivors, candidates), "ratio")
    put("census.check_us", ratio(totals.child_s["census.survey"], survivors) * 1e6, "us")

    witnesses = totals.records["witness.gamma_witness"]
    put("witness.gamma_witness.us_per_call",
        ratio(totals.incl_s["witness.gamma_witness"], totals.calls["witness.gamma_witness"]) * 1e6,
        "us")
    put("witness.restricted_ratio", ratio(sum(w[0] for w in witnesses), len(witnesses)), "ratio")
    for stage, index in (("reflexive", 1), ("extension", 2)):
        hist = Counter(min(w[index], CHAIN_BUCKETS - 1) for w in witnesses)
        for length in range(CHAIN_BUCKETS):
            put(f"witness.{stage}_chain_len.hist.{length}", hist[length] / ops, "count")

    threads = m["traced_items"] if totals.calls["mahavier.iter_threads"] else 0
    put("mahavier.threads", threads / ops, "count")
    put("mahavier.self_s", layer_self.get("mahavier", 0.0) / ops, "s")
    put("mahavier.ns_per_thread", ratio(totals.incl_s["mahavier.iter_threads"], threads) * 1e9, "ns")

    put("io.parse.bytes", sum(totals.records["io.parse_relation"]) / ops, "bytes")
    put("io.serialize.bytes", sum(totals.records["io.serialize_relation"]) / ops, "bytes")
    return out


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "commit": git_commit(ROOT)}


def select(declared: list[dict], computed: dict) -> dict:
    """The computed metrics in the declared order; names and units must match."""
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(computed):
        missing = sorted(set(names) - set(computed))
        extra = sorted(set(computed) - set(names))
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    out = {}
    for d in declared:
        value, unit = computed[d["name"]]
        if unit != d["unit"]:
            raise SystemExit(f"perfbench: {d['name']} is measured in {unit}, declared {d['unit']}")
        out[d["name"]] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "finrel" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: run from a checkout of finrel; {SRC / 'finrel'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    import finrel

    if SRC not in Path(finrel.__file__).resolve().parents:
        print(f"perfbench: imported finrel from {finrel.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    info = environment(args)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        workload.prepare(args.seed, Path(workdir))
        try:
            info["known_defects"] = workload.probe()
        except Mismatch as exc:
            tally.mismatch(str(exc))
        if args.trace:
            tracer, totals = Tracer(), TraceTotals()
            plan = plan_rebinding(tracer, RECORDS)
            m = measure(workload, args.seconds, tally, tracer, plan, totals)
            groups = [d["name"][:-len(".calls")] for d in spec["per_layer"]
                      if d["name"].endswith(".calls")]
            computed = per_layer_metrics(m, totals, groups)
            info["trace_consistent"] = totals.consistent()
            info["trace_root_s"] = totals.root_s
            info["trace_self_sum_s"] = sum(totals.self_s.values())
            if not info["trace_consistent"]:
                tally.mismatch("layer self times do not add up to the root spans")
            declared = spec["per_layer"]
        else:
            # The timer is still running when the peak is read, so the
            # starts it makes are not among the children counted.
            setup = SetupTimer()
            try:
                m = measure(workload, args.seconds, tally, setup=setup, sampler=SpeedSampler())
                rss_mb = peak_rss_mb()
                setup.close()
            finally:
                if setup.proc.returncode is None:
                    setup.kill()
            computed = end_to_end_metrics(m, setup.times, rss_mb)
            info["tail_percentile"] = workload.tail_percentile
            info["setup_starts"] = len(setup.times)
            info["raw_setup_s"] = {"min": min(setup.raw_times),
                                   "median": statistics.median(setup.raw_times)}
            info["raw_wall_s"] = {"min": min(m["raw_walls"]),
                                  "median": statistics.median(m["raw_walls"])}
            info["slowdown"] = {"min": min(m["slowdowns"]),
                                "median": statistics.median(m["slowdowns"])}
            declared = spec["end_to_end"]
    info.update(ops=m["ops"], latency_samples=m["requests"],
                errors=dict(tally.errors), mismatches=tally.first_mismatches)
    metrics = select(declared, computed)
    for name, metric in metrics.items():
        print(f"{name:42} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": tally.mismatches == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
